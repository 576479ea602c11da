"""Small stateful layer abstractions over the tensor engine.

``Module`` discovers parameters, buffers, and child modules from instance
attributes (including lists of either), in attribute definition order, so
checkpoint names are stable across runs.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, batch_norm, conv2d, matmul, reshape, add


class Parameter(Tensor):
    """A learnable leaf tensor; modules find their parameters by this type."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    @property
    def tensor(self):
        # Alias kept for perfbench/workloads.py, which still writes
        # ``p.tensor.data``; nothing in the package reads it.
        return self


class Module:
    """Base class with recursive parameter/buffer discovery."""

    def __init__(self):
        self.training = True

    def _entries(self):
        for attr, value in vars(self).items():
            if isinstance(value, (Parameter, Module)):
                yield attr, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Parameter, Module)):
                        yield f"{attr}.{i}", item

    def named_parameters(self, prefix=""):
        for name, value in self._entries():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            else:
                yield from value.named_parameters(prefix=f"{full}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def buffer_names(self):
        """Attribute names of plain-array state (overridden by layers)."""
        return ()

    def named_buffers(self, prefix=""):
        for attr in self.buffer_names():
            yield f"{prefix}{attr}", getattr(self, attr)
        for name, value in self._entries():
            if isinstance(value, Module):
                yield from value.named_buffers(prefix=f"{prefix}{name}.")

    def train(self, mode=True):
        self.training = bool(mode)
        for _, value in self._entries():
            if isinstance(value, Module):
                value.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def uniform_init(rng, shape, fan_in, dtype):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv2d(Module):
    """Convolution over a (time, joint) grid; kernel is kt x 1."""

    def __init__(self, in_channels, out_channels, kernel_t=1, stride_t=1, pad_t=0,
                 rng=None, dtype=np.float32):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        shape = (out_channels, in_channels, kernel_t, 1)
        fan_in = in_channels * kernel_t
        self.weight = Parameter(uniform_init(rng, shape, fan_in, dtype))
        self.stride_t = stride_t
        self.pad_t = pad_t

    def forward(self, x):
        return conv2d(x, self.weight, stride_t=self.stride_t, pad_t=self.pad_t)


class BatchNorm(Module):
    """Batch normalization over channel axis 1 of (B, C, T, N) input.

    With ``relu`` the output passes through a ReLU, and ``forward`` may add
    a ``residual`` before it; both run inside the batch-norm op.
    """

    def __init__(self, channels, relu=False, dtype=np.float32):
        super().__init__()
        self.relu = bool(relu)
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def buffer_names(self):
        return ("running_mean", "running_var")

    def forward(self, x, residual=None):
        return batch_norm(
            x,
            self.gamma,
            self.beta,
            running_mean=self.running_mean,
            running_var=self.running_var,
            training=self.training,
            relu=self.relu,
            residual=residual,
        )


class Linear(Module):
    """Affine map on (B, F) input; weights are (F_in, F_out), bias starts at zero."""

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.weight = Parameter(uniform_init(rng, (in_features, out_features), in_features, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x):
        if x.data.ndim != 2 or x.data.shape[1] != self.in_features:
            raise ValueError(
                f"linear expects (B, {self.in_features}) input, got shape {x.data.shape}"
            )
        batch = x.data.shape[0]
        # Route through a (B, 1, F) stack so each sample sees the same GEMM
        # shape whatever the batch size.
        rows = reshape(x, (batch, 1, self.in_features))
        out = matmul(rows, self.weight)
        return add(reshape(out, (batch, self.out_features)), self.bias)
