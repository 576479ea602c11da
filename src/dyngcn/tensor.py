"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array (float32 by default, float64 is kept when
given) and remembers which operation produced it.  ``backward()`` on a
scalar walks the recorded graph in reverse topological order and
accumulates gradients into every tensor that has ``requires_grad`` set.

The op set is intentionally small: what a graph-convolutional sequence
classifier needs and nothing more.  Convolutions cover the two kernel
shapes used by the model (1x1 and t x 1 over a (time, joint) grid).

All batched contractions are routed through ``numpy.matmul`` on stacked
per-sample slices so that every sample sees a GEMM of the same shape
regardless of batch size.  That keeps eval-mode outputs bitwise identical
between batched and sample-by-sample execution, which downstream tests
rely on.
"""

from __future__ import annotations

import contextlib

import numpy as np

_FLOAT_TYPES = (np.float32, np.float64)

_grad_enabled = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (eval-time forwards)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


def grad_enabled():
    return _grad_enabled[-1]


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype.type not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = _as_float_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def item(self):
        return float(self.data)

    def backward(self, gradient=None):
        """Backpropagate from this tensor.

        Without an explicit ``gradient`` the tensor must hold a single
        element (a loss).  Gradients accumulate additively into leaves
        (tensors without a backward closure), so callers clear parameter
        grads between steps.  An op output's gradient is freed once its
        closure has passed it on, so afterwards only leaves hold ``.grad``.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ValueError(
                    f"backward() without a gradient needs a scalar, got shape {self.data.shape}"
                )
            gradient = np.ones_like(self.data)
        else:
            gradient = np.asarray(gradient, dtype=self.data.dtype)
            if gradient.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {gradient.shape} does not match tensor shape {self.data.shape}"
                )

        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = gradient if self.grad is None else self.grad + gradient
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __radd__(self, other):
        return add(_wrap(other, self.dtype), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other, self.dtype)))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), neg(self))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _wrap(other, self.dtype))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self.dtype))

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)


def _wrap(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _from_op(data, inputs, backward):
    out = Tensor(data)
    if grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = tuple(t for t in inputs if t.requires_grad)
        out._backward = backward
    return out


def _accumulate(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise and structural ops -------------------------------------


def add(a, b):
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _from_op(data, (a, b), backward)


def mul(a, b):
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(data, (a, b), backward)


def neg(x):
    def backward(g):
        _accumulate(x, -g)

    return _from_op(-x.data, (x,), backward)


def scale(x, factor):
    """Multiply by a python scalar."""
    factor = float(factor)

    def backward(g):
        _accumulate(x, g * factor)

    return _from_op(x.data * factor, (x,), backward)


def relu(x):
    # np.maximum rather than np.where so NaN propagates instead of
    # silently flattening to zero
    data = np.maximum(x.data, 0)

    def backward(g):
        # out > 0 exactly where x > 0 (NaN compares false on both sides),
        # so the mask comes from the output and nothing extra is kept
        _accumulate(x, g * (data > 0))

    return _from_op(data, (x,), backward)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _from_op(data, (x,), backward)


def permute(x, axes):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(f"permute axes {axes} do not match tensor of rank {x.data.ndim}")
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(x, g.transpose(inverse))

    return _from_op(x.data.transpose(axes), (x,), backward)


def concat(tensors, axis=0):
    """Join tensors along ``axis``; backward splits the gradient back."""
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, part in zip(tensors, np.split(g, bounds, axis=axis)):
            _accumulate(t, part)

    return _from_op(data, tensors, backward)


def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g, shape, axes, keepdims):
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def tensor_sum(x, axis=None, keepdims=False):
    axes = _normalize_axis(axis, x.data.ndim)
    data = x.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        _accumulate(x, _expand_reduced(g, x.data.shape, axes, keepdims).copy())

    return _from_op(data, (x,), backward)


def tensor_mean(x, axis=None, keepdims=False):
    axes = _normalize_axis(axis, x.data.ndim)
    count = int(np.prod([x.data.shape[a] for a in axes])) if axes else 1
    data = x.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        _accumulate(x, _expand_reduced(g, x.data.shape, axes, keepdims) / count)

    return _from_op(data, (x,), backward)


def mean_pool_global(x):
    """Average a (B, C, T, N) tensor over its time and joint axes."""
    if x.data.ndim != 4:
        raise ValueError(f"mean_pool_global expects a 4-d tensor, got shape {x.data.shape}")
    return tensor_mean(x, axis=(2, 3))


# -- contractions -------------------------------------------------------


def matmul(a, b):
    """Matrix product over the trailing two axes with broadcast batching."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs rank >= 2 operands, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    data = np.matmul(a.data, b.data)

    def backward(g):
        bt = np.swapaxes(b.data, -1, -2)
        at = np.swapaxes(a.data, -1, -2)
        _accumulate(a, _unbroadcast(np.matmul(g, bt), a.data.shape))
        _accumulate(b, _unbroadcast(np.matmul(at, g), b.data.shape))

    return _from_op(data, (a, b), backward)


# Byte budget of the temporal conv's column buffer, about one L2 cache: the
# im2col runs over as many samples at a time as fit, never the whole batch.
_COLS_BUDGET = 4 << 20


def conv2d(x, weight, stride_t=1, pad_t=0):
    """2-d convolution over a (time, joint) grid.

    ``x`` is (B, C_in, T, N) and ``weight`` is (C_out, C_in, kt, kn) with
    kn fixed at 1; the kernel slides along time only.  Output time length
    is floor((T + 2*pad_t - kt) / stride_t) + 1.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be 4-d (B, C, T, N), got shape {x.data.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d weight must be 4-d, got shape {weight.data.shape}")
    c_out, c_in, kt, kn = weight.data.shape
    if kn != 1:
        raise ValueError(f"conv2d kernel joint width must be 1, got {kn}")
    if x.data.shape[1] != c_in:
        raise ValueError(
            f"conv2d channel mismatch: input {x.data.shape} vs weight {weight.data.shape}"
        )
    if stride_t < 1 or pad_t < 0:
        raise ValueError(f"conv2d needs stride_t >= 1 and pad_t >= 0, got {stride_t}, {pad_t}")
    batch, _, t_in, n = x.data.shape
    if kt > t_in + 2 * pad_t:
        raise ValueError(
            f"conv2d kernel length {kt} exceeds padded input length {t_in + 2 * pad_t}"
        )

    if kt == 1 and stride_t == 1 and pad_t == 0:
        # A 1x1 kernel is a channel mixing matrix; keep the per-sample GEMM
        # shape independent of the batch size.
        w2 = weight.data.reshape(c_out, c_in)
        data = np.matmul(w2, x.data.reshape(batch, c_in, t_in * n)).reshape(
            batch, c_out, t_in, n
        )

        def backward(g):
            g2 = g.reshape(batch, c_out, t_in * n)
            if weight.requires_grad:
                x2t = x.data.reshape(batch, c_in, t_in * n).transpose(0, 2, 1)
                dw = np.matmul(g2, x2t).sum(axis=0).reshape(weight.data.shape)
                _accumulate(weight, dw)
            if x.requires_grad:
                dx = np.matmul(w2.T, g2).reshape(x.data.shape)
                _accumulate(x, dx)

        return _from_op(data, (x, weight), backward)

    # im2col along time, a chunk of samples at a time: column row (c, k, t)
    # holds input time t*stride_t + k - pad_t.  Each tap copies only its
    # in-range rows [lo, hi); the rest stay zero, so padding never exists.
    t_out = (t_in + 2 * pad_t - kt) // stride_t + 1
    taps = []
    for k in range(kt):
        lo = max(0, -((k - pad_t) // stride_t))
        hi = min(t_out, (t_in - 1 + pad_t - k) // stride_t + 1)
        if hi > lo:
            src = lo * stride_t + k - pad_t
            taps.append((k, lo, hi, slice(src, src + (hi - lo - 1) * stride_t + 1, stride_t)))
    sample_bytes = c_in * kt * t_out * n * x.data.dtype.itemsize
    chunk = min(batch, max(1, _COLS_BUDGET // sample_bytes))
    chunks = [(b0, min(b0 + chunk, batch)) for b0 in range(0, batch, chunk)]
    w_flat = weight.data.reshape(c_out, c_in * kt)

    def columns(cols, b0, b1):
        for k, lo, hi, src in taps:
            cols[: b1 - b0, :, k, lo:hi] = x.data[b0:b1, :, src]
        return cols[: b1 - b0].reshape(b1 - b0, c_in * kt, t_out * n)

    # Every GEMM keeps its per-sample shape, so the chunking changes no bit.
    cols = np.zeros((chunk, c_in, kt, t_out, n), dtype=x.data.dtype)
    data = np.empty((batch, c_out, t_out * n), dtype=np.result_type(w_flat, cols))
    for b0, b1 in chunks:
        np.matmul(w_flat, columns(cols, b0, b1), out=data[b0:b1])
    data = data.reshape(batch, c_out, t_out, n)

    def backward(g):
        g_flat = g.reshape(batch, c_out, t_out * n)
        if weight.requires_grad:
            # Recompute the columns rather than keeping them alive through
            # the whole graph; the copy is cheaper than the retained memory.
            cols = np.zeros((chunk, c_in, kt, t_out, n), dtype=x.data.dtype)
            dw = np.empty((batch, c_out, c_in * kt), dtype=np.result_type(g, cols))
            for b0, b1 in chunks:
                cols_t = columns(cols, b0, b1).transpose(0, 2, 1)
                np.matmul(g_flat[b0:b1], cols_t, out=dw[b0:b1])
            _accumulate(weight, dw.sum(axis=0).reshape(weight.data.shape))
        if x.requires_grad:
            # col2im: each tap adds its in-range rows back, in k order.
            dcols = np.empty((chunk, c_in * kt, t_out * n), dtype=np.result_type(w_flat, g))
            dx = np.zeros_like(x.data)
            for b0, b1 in chunks:
                dc = np.matmul(w_flat.T, g_flat[b0:b1], out=dcols[: b1 - b0])
                dc = dc.reshape(b1 - b0, c_in, kt, t_out, n)
                for k, lo, hi, src in taps:
                    dx[b0:b1, :, src] += dc[:, :, k, lo:hi]
            _accumulate(x, dx)

    return _from_op(data, (x, weight), backward)


# -- normalization ------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batch_norm(
    x,
    gamma,
    beta,
    running_mean=None,
    running_var=None,
    training=True,
    momentum=BN_MOMENTUM,
    eps=BN_EPS,
):
    """Per-channel batch normalization for (B, C, T, N) tensors.

    In training mode the batch statistics (biased variance) normalize the
    input and, when running buffers are supplied, update them in place
    with ``new = (1 - momentum) * old + momentum * batch``.  In eval mode
    the running buffers are required and the op is the per-channel affine
    map ``x * a + b`` with ``a = gamma / sigma`` and ``b = beta - mu * a``;
    its backward recomputes the normalized input only when gamma needs a
    gradient.
    """
    if x.data.ndim != 4:
        raise ValueError(f"batch_norm expects a 4-d tensor, got shape {x.data.shape}")
    channels = x.data.shape[1]
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ValueError(
            f"batch_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {channels} channels"
        )
    axes = (0, 2, 3)
    per_channel = (1, channels, 1, 1)

    if training:
        gamma_b = gamma.data.reshape(per_channel)
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if running_mean is not None:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean
        if running_var is not None:
            running_var *= 1.0 - momentum
            running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = x.data - mean.reshape(per_channel)
        x_hat *= inv_std.reshape(per_channel)
        data = gamma_b * x_hat
        data += beta.data.reshape(per_channel)
    else:
        if running_mean is None or running_var is None:
            raise RuntimeError("batch_norm in eval mode needs running statistics")
        # copies: a later training forward updates the buffers in place
        mean = running_mean.copy()
        inv_std = 1.0 / np.sqrt(running_var + eps)
        a = gamma.data * inv_std
        data = x.data * a.reshape(per_channel)
        data += (beta.data - mean * a).reshape(per_channel)

    def backward(g):
        if gamma.requires_grad:
            if training:
                x_norm = x_hat
            else:
                x_norm = x.data - mean.reshape(per_channel)
                x_norm *= inv_std.reshape(per_channel)
            _accumulate(gamma, (g * x_norm).sum(axis=axes))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes))
        if x.requires_grad:
            if training:
                dxh = g * gamma_b
                m1 = dxh.mean(axis=axes, keepdims=True)
                m2 = (dxh * x_hat).mean(axis=axes, keepdims=True)
                _accumulate(x, inv_std.reshape(per_channel) * (dxh - m1 - x_hat * m2))
            else:
                _accumulate(x, g * a.reshape(per_channel))

    return _from_op(data, (x, gamma, beta), backward)


def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(x, data * (g - inner))

    return _from_op(data, (x,), backward)


def l2_row_normalize(x, eps=1e-6):
    """Scale the last axis of ``x`` to unit L2 norm.

    Rows with norm at most ``eps`` are divided by ``eps`` instead, so an
    all-zero row passes through as zeros.
    """
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    safe = np.maximum(norms, eps)
    data = x.data / safe
    guarded = norms <= eps

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        grad = np.where(guarded, g / eps, (g - data * dot) / safe)
        _accumulate(x, grad)

    return _from_op(data, (x,), backward)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy between row logits and integer labels."""
    if logits.data.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects (B, K) logits, got {logits.data.shape}")
    labels = np.asarray(labels)
    batch, k = logits.data.shape
    if labels.shape != (batch,):
        raise ValueError(
            f"labels shape {labels.shape} does not match batch of {batch}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels out of range for {k} classes")
    labels = labels.astype(np.int64)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    losses = -log_probs[np.arange(batch), labels]
    data = np.asarray(losses.mean(), dtype=logits.data.dtype)

    def backward(g):
        probs = np.exp(log_probs)
        probs[np.arange(batch), labels] -= 1.0
        _accumulate(logits, probs * (float(g) / batch))

    return _from_op(data, (logits,), backward)
