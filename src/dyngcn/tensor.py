"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array (float32 by default, float64 is kept when
given) and remembers which operation produced it.  ``backward()`` on a
scalar walks the recorded graph in reverse topological order and
accumulates gradients into every tensor that has ``requires_grad`` set.
It releases the graph as it goes: each op node drops its closure and its
inputs once its closure has run, so an activation lives only until its
last consumer's backward, and a graph can be backpropagated once.

The tape keeps an op output's array only while some backward reads it.
An op whose backward reads no value of an input (batch norm's and
``model.graph_conv``'s ``residual``, ``scale``'s input) records in its
place the stand-in that ``_hand_over`` makes: the stand-in takes over the
input's closure and inputs and holds a zero-stride NaN, and the input,
whose array stays the caller's, passes every gradient it is given on to
the stand-in in the order it would have summed them.  So the static
route's output, the shortcut batch norm's output and the concatenated
static weights are freed once the forward drops them, and no gradient
changes a bit.

The op set is intentionally small: what a graph-convolutional sequence
classifier needs and nothing more.  Convolutions cover the two kernel
shapes used by the model (1x1 and t x 1 over a (time, joint) grid).  An op
takes only what some caller passes: batch norm always gets its running
buffers, the reductions always drop the reduced axes, and the row
normalization's guard is the module constant ``L2_EPS``.

All batched contractions are routed through ``numpy.matmul`` on stacked
per-sample slices so that every sample sees a GEMM of the same shape
regardless of batch size.  That keeps eval-mode outputs bitwise identical
between batched and sample-by-sample execution, which downstream tests
rely on.

One gradient rule holds for every op: its backward computes the gradient
of each of its inputs and hands it to ``_accumulate``, which keeps it only
for a tensor with ``requires_grad``; no backward asks which inputs want
one.  A product's two gradients always come from ``_matmul_grads``, for
``matmul``, the 1x1 convolution and ``model.graph_conv`` alike.

Weight gradients read their operands the way BLAS runs them fastest,
with bits that were checked equal at 1 and 2 threads: the t x 1
convolution's dW is ``(cols @ g^T)^T`` with g^T copied contiguous, the
first gradient of every other product ``a @ b`` (a channel map's dW among
them) is ``(b @ g^T)^T``, and a product whose inner dimension is 1 is a
broadcast multiply, not a GEMM.

A closure keeps only what its backward reads and cannot rebuild cheaply.
Batch norm keeps its input, which the graph holds anyway, and per-channel
statistics, and rebuilds the normalized input x_hat in backward; the t x 1
convolution keeps its input and recomputes its columns.  Batch norm adds a
residual and applies a ReLU in place on its own output, so a block's
residual add and its ReLUs need no node of their own.

Backward temporaries that never leave their op come from one scratch
arena, a uint8 buffer that ``_scratch`` lays a call's arrays end to end
in, from its first byte, each at a multiple of 64 bytes.  Backward runs one
op at a time, so the ops share it: the t x 1 convolution takes its
recomputed columns, its contiguous copy of the output gradient's transpose
and its per-chunk weight-gradient stack in one call and its column
gradient in a second; batch norm takes its rebuilt x_hat and its other
scratch in one call; ``model.graph_conv`` takes one chunk's rebuilt
aggregation stack, and once dW has read it, that stack's gradient in a
second call, chunk after chunk.
Each call invalidates the arrays the previous call returned.
The arena grows to the largest single call and is kept until
``free_scratch()`` (``train`` calls it when a run ends), so a train step
reuses the previous step's memory instead of faulting fresh pages in.  An
op overwrites all it takes from the arena, and no array from it escapes:
none becomes an op output, a gradient handed to ``_accumulate`` or a value
a closure keeps.  Forwards take nothing from the arena.  The arena belongs
to the process, so only one backward may run at a time.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_grad_enabled = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (eval-time forwards)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


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

        The graph is released as it is walked: once an op node's closure
        has run (or no gradient reached it), the node drops its closure and
        its inputs, so an activation is freed as soon as its last
        consumer's backward has run.  A second ``backward`` through a
        released node raises ``RuntimeError``.  Seeded at a tensor that an
        op handed over to a stand-in, it seeds the stand-in.
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

        root = _holder(self)
        root.grad = gradient if root.grad is None else root.grad + gradient
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None
            node._backward = _released
            node._prev = ()

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)


def _released(g):
    raise RuntimeError(
        "this graph was already backpropagated and released; "
        "run the forward again to backpropagate once more"
    )


def _from_op(data, inputs, backward):
    out = Tensor(data)
    if _grad_enabled[-1] and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = tuple(t for t in inputs if t.requires_grad)
        out._backward = backward
    return out


# the backward arena: empty, or one uint8 buffer; see the module docstring
_SCRATCH = []
_SCRATCH_ALIGN = 64


def _scratch(*specs):
    """One array per ``(shape, dtype)`` in ``specs``, laid end to end in the
    arena from its first byte, each at a multiple of 64 bytes.  They hold
    whatever the arena's last user left there, and the next call's arrays
    take the same bytes."""
    layout, end = [], 0
    for shape, dtype in specs:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        layout.append((end, nbytes, shape, dtype))
        end += -(-nbytes // _SCRATCH_ALIGN) * _SCRATCH_ALIGN
    if not _SCRATCH or _SCRATCH[0].size < end:
        raw = np.empty(end + _SCRATCH_ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % _SCRATCH_ALIGN
        _SCRATCH[:] = [raw[start:start + end]]
    arena = _SCRATCH[0]
    return [arena[offset:offset + nbytes].view(dtype).reshape(shape)
            for offset, nbytes, shape, dtype in layout]


def free_scratch():
    """Drop the arena; the next backward allocates it anew."""
    _SCRATCH.clear()


def _handed_over(g):
    """The closure of a tensor an op handed over to a stand-in, its one
    input.  ``_accumulate`` and ``backward`` give the stand-in its
    gradients, so none reaches the tensor itself."""
    raise RuntimeError("a gradient reached a tensor that was handed over to a stand-in")


def _holder(t):
    """The tensor that takes ``t``'s gradients: its stand-in, or ``t``."""
    return t._prev[0] if t._backward is _handed_over else t


def _hand_over(t):
    """Give ``t``'s place in the graph to a stand-in that holds no value;
    an op calls it on an input whose value its backward never reads, and
    records what it returns in place of ``t``.

    The stand-in takes over ``t``'s closure and inputs, and its array is a
    zero-stride NaN of ``t``'s shape and dtype, so a stray read is loud.
    ``t`` keeps its array for the caller and keeps the stand-in as its one
    input, so ``backward`` still runs the stand-in after every consumer of
    ``t``, and ``_accumulate`` hands every later gradient of ``t`` on to the
    stand-in in the order ``t`` would have summed them.  Once the caller
    drops ``t``, nothing holds its array.  A leaf, a tensor outside the
    graph and one handed over before are not handed over (again)."""
    if t._backward in (None, _handed_over) or not _grad_enabled[-1]:
        return _holder(t)
    stand_in = Tensor(np.broadcast_to(np.array(np.nan, dtype=t.data.dtype), t.data.shape))
    stand_in.requires_grad = True
    stand_in._prev, stand_in._backward = t._prev, t._backward
    t._prev, t._backward = (stand_in,), _handed_over
    return stand_in


def _accumulate(t, g):
    t = _holder(t)
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


def _product(a, b, out=None):
    """``a @ b``, as the broadcast multiply it is when the inner dimension is 1."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def _matmul_grads(g, a, b, db_out=None):
    """Gradients of the broadcast product ``a @ b`` for its output gradient
    ``g``: ``(b @ g^T)^T`` summed back to ``a``'s shape, then ``a^T @ g``
    summed back to ``b``'s, the latter written into ``db_out`` if given.
    ``db_out`` may be ``b`` itself, which the first product has read.

    The first gradient is ``g @ b^T`` computed as ``(b @ g^T)^T``: BLAS
    runs a channel map's weight gradient (wide ``b``) faster that way."""
    da = np.swapaxes(_product(b, np.swapaxes(g, -1, -2)), -1, -2)
    db = _product(np.swapaxes(a, -1, -2), g, out=db_out)
    return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)


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
    data = x.data * factor
    x = _hand_over(x)

    def backward(g):
        _accumulate(x, g * factor)

    return _from_op(data, (x,), backward)


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


def tensor_sum(x, axis=None):
    axes = _normalize_axis(axis, x.data.ndim)
    data = x.data.sum(axis=axes)

    def backward(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axes), x.data.shape).copy())

    return _from_op(data, (x,), backward)


def tensor_mean(x, axis=None):
    axes = _normalize_axis(axis, x.data.ndim)
    count = int(np.prod([x.data.shape[a] for a in axes])) if axes else 1
    data = x.data.mean(axis=axes)

    def backward(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axes), x.data.shape) / count)

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
        da, db = _matmul_grads(g, a.data, b.data)
        _accumulate(a, da)
        _accumulate(b, db)

    return _from_op(data, (a, b), backward)


# Byte budget of a chunk of samples, about one L2 cache: the temporal conv's
# im2col columns and ``model.graph_conv``'s aggregation stack (with its
# output) are built for as many samples at a time as fit, never for the
# whole batch.
_COLS_BUDGET = 4 << 20


def _sample_chunks(batch, sample_bytes):
    """The chunk size, as many samples of ``sample_bytes`` as fit in
    ``_COLS_BUDGET`` and at least one, and the batch's (start, stop) chunks."""
    chunk = min(batch, max(1, _COLS_BUDGET // sample_bytes))
    return chunk, [(b0, min(b0 + chunk, batch)) for b0 in range(0, batch, chunk)]


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
    t_out = (t_in + 2 * pad_t - kt) // stride_t + 1

    if kt == 1 and stride_t == 1 and pad_t == 0:
        # A 1x1 kernel is a channel mixing matrix; keep the per-sample GEMM
        # shape independent of the batch size.
        w2 = weight.data.reshape(c_out, c_in)
        x2 = x.data.reshape(batch, c_in, t_in * n)
        data = np.matmul(w2, x2).reshape(batch, c_out, t_in, n)

        def backward(g):
            dw, dx = _matmul_grads(g.reshape(batch, c_out, t_in * n), w2, x2)
            _accumulate(weight, dw.reshape(weight.data.shape))
            _accumulate(x, dx.reshape(x.data.shape))

        return _from_op(data, (x, weight), backward)

    # im2col along time, a chunk of samples at a time: column row (c, k, t)
    # holds input time t*stride_t + k - pad_t.  Each tap copies only its
    # in-range rows [lo, hi); the rest stay zero, so padding never exists.
    taps = []
    spans = []
    for k in range(kt):
        lo = max(0, -((k - pad_t) // stride_t))
        hi = min(t_out, (t_in - 1 + pad_t - k) // stride_t + 1)
        spans.append((k, lo, max(lo, hi)))
        if hi > lo:
            src = lo * stride_t + k - pad_t
            taps.append((k, lo, hi, slice(src, src + (hi - lo - 1) * stride_t + 1, stride_t)))
    chunk, chunks = _sample_chunks(batch, c_in * kt * t_out * n * x.data.dtype.itemsize)
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
        # Recompute the columns rather than keeping them alive through the
        # whole graph; the copy is cheaper than the retained memory.
        # dW^T = cols @ g^T per sample, with g^T copied contiguous: read
        # through a transposed view, OpenBLAS's bits follow its thread count.
        dw_t = np.zeros((c_in * kt, c_out), dtype=np.result_type(g, x.data))
        cols, g_t, stack = _scratch(((chunk, c_in, kt, t_out, n), x.data.dtype),
                                    ((chunk, t_out * n, c_out), g.dtype),
                                    ((chunk,) + dw_t.shape, dw_t.dtype))
        # the arena is stale, so first zero the rows no tap writes
        for k, lo, hi in spans:
            cols[:, :, k, :lo] = 0
            cols[:, :, k, hi:] = 0
        for b0, b1 in chunks:
            np.copyto(g_t[: b1 - b0], g_flat[b0:b1].transpose(0, 2, 1))
            np.matmul(columns(cols, b0, b1), g_t[: b1 - b0], out=stack[: b1 - b0])
            # Added sample by sample in batch order, as .sum(axis=0) of the
            # whole-batch stack adds them (unless dw has one element, which
            # numpy sums pairwise).
            for dw_sample in stack[: b1 - b0]:
                dw_t += dw_sample
        _accumulate(weight, dw_t.T.reshape(weight.data.shape))
        # col2im: each tap adds its in-range rows back, in k order.  dcols
        # takes the arena's bytes over from the columns.
        [dcols] = _scratch(((chunk, c_in * kt, t_out * n), np.result_type(w_flat, g)))
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
L2_EPS = 1e-6


def batch_norm(x, gamma, beta, running_mean, running_var, training=True,
               relu=False, residual=None):
    """Per-channel batch normalization for (B, C, T, N) tensors.

    ``running_mean`` and ``running_var`` are the (C,) running buffers that
    ``layers.BatchNorm`` owns.  In training mode the batch statistics
    (biased variance) normalize the input, ``(x - mu) * a + beta`` with one
    multiply by ``a = gamma / sigma``, and update the buffers in place with
    ``new = (1 - BN_MOMENTUM) * old + BN_MOMENTUM * batch``.  In eval mode
    the op reads the buffers and is the per-channel affine map ``x * a + b``
    with ``b = beta - mu * a``.  Neither mode keeps the normalized input
    x_hat = (x - mu) / sigma for backward: the op keeps its input ``x``
    (which the graph holds anyway) and the per-channel mean and 1/sigma, and
    backward rebuilds x_hat in the scratch arena.

    Backward takes d_gamma = sum(g * x_hat) and d_beta = sum(g) over the M
    values of each channel.  In training mode it reuses both sums for
    ``dx = a * (g - d_beta / M - x_hat * (d_gamma / M))``; in eval mode
    ``dx = a * g``.

    ``residual``, if given, is added and ``relu`` applied in place on the
    op's own output, so ``batch_norm(x, ..., relu=True, residual=r)`` gives
    the bits of ``relu(add(batch_norm(x, ...), r))`` without their outputs.
    Backward reads no value of ``residual``, so the op records its
    stand-in (``_hand_over``).
    """
    if x.data.ndim != 4:
        raise ValueError(f"batch_norm expects a 4-d tensor, got shape {x.data.shape}")
    channels = x.data.shape[1]
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ValueError(
            f"batch_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {channels} channels"
        )
    if residual is not None and residual.data.shape != x.data.shape:
        raise ValueError(
            f"batch_norm residual shape {residual.data.shape} does not match "
            f"input shape {x.data.shape}"
        )
    axes = (0, 2, 3)
    per_channel = (1, channels, 1, 1)
    count = x.data.size // channels

    if training:
        # x is centred once; squaring that into a scratch buffer and summing
        # is bitwise equal to x.var, and the buffer then becomes the output.
        mean = x.data.mean(axis=axes, keepdims=True)
        centred = x.data - mean
        data = np.square(centred)
        var = data.sum(axis=axes) / count
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.reshape(channels)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        a = gamma.data * inv_std
        np.multiply(centred, a.reshape(per_channel), out=data)
        data += beta.data.reshape(per_channel)
    else:
        # copies: a later training forward updates the buffers in place
        mean = running_mean.copy()
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        a = gamma.data * inv_std
        data = x.data * a.reshape(per_channel)
        data += (beta.data - mean * a).reshape(per_channel)
    if residual is not None:
        data += residual.data
        residual = _hand_over(residual)
    if relu:
        # np.maximum keeps NaN, as the relu op does
        np.maximum(data, 0, out=data)
    # the closure keeps the output only for the ReLU's mask
    activated = data if relu else None
    inputs = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)

    def backward(g):
        # Neither g nor any array handed to _accumulate is written to: g
        # may be the caller's array, and an accumulated gradient may be
        # held as some tensor's .grad.
        if relu:
            # out > 0 exactly where the pre-activation is > 0, as in relu
            g = g * (activated > 0)
        if residual is not None:
            _accumulate(residual, g)
        x_dtype = np.result_type(x.data, mean)
        x_hat, scratch = _scratch((x.data.shape, x_dtype), (g.shape, np.result_type(g, x_dtype)))
        np.subtract(x.data, mean.reshape(per_channel), out=x_hat)
        x_hat *= inv_std.reshape(per_channel)
        dgamma = np.multiply(g, x_hat, out=scratch).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        _accumulate(gamma, dgamma)
        _accumulate(beta, dbeta)
        if training:
            dx = g - (dbeta / count).reshape(per_channel)
            dx -= np.multiply(x_hat, (dgamma / count).reshape(per_channel), out=x_hat)
            dx *= a.reshape(per_channel)
            _accumulate(x, dx)
        else:
            _accumulate(x, g * a.reshape(per_channel))

    return _from_op(data, inputs, backward)


def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(x, data * (g - inner))

    return _from_op(data, (x,), backward)


def l2_row_normalize(x):
    """Scale the last axis of ``x`` to unit L2 norm.

    Rows with norm at most ``L2_EPS`` are divided by ``L2_EPS`` instead, so
    an all-zero row passes through as zeros.
    """
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    safe = np.maximum(norms, L2_EPS)
    data = x.data / safe
    guarded = norms <= L2_EPS

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        grad = np.where(guarded, g / L2_EPS, (g - data * dot) / safe)
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
