"""Learners that predict a per-sample joint-to-joint dependency matrix.

``ContextEncoder`` compresses the whole input sequence down to an N x N
matrix with three pointwise convolutions, each followed by batch norm and
ReLU.  The order of the squeezes picks which axis supplies the final
mapping into N^2 values:

  axis="joint"     squeeze channels, squeeze time, then map N -> N^2
  axis="feature"   squeeze time, squeeze joints, then map C -> N^2
  axis="temporal"  squeeze channels, squeeze joints, then map T -> N^2

Every row of the result is scaled to unit L2 norm.  The matrix is
directed (generally asymmetric); the ``symmetric`` flag averages it with
its transpose before the row normalization.

``NonLocalTopology`` is the embedded-similarity baseline: two linear
embeddings, a temporal average, and a row softmax over their inner
products.

All variants bind the construction-time (C, T, N) sizes, because the
squeeze convolutions treat those axes as channels; a different runtime
shape is a hard error rather than a silent misread.
"""

from __future__ import annotations

import numpy as np

from .layers import BatchNorm, Conv2d, Module
from .tensor import (
    l2_row_normalize,
    matmul,
    mean_pool_global,
    permute,
    reshape,
    scale,
    softmax,
    tensor_mean,
)

CONTEXT_AXES = ("joint", "feature", "temporal")


class ContextEncoder(Module):
    """Predict an (B, N, N) dependency matrix from an (B, C, T, N) input."""

    def __init__(self, channels, frames, joints, axis="joint", symmetric=False,
                 final_relu=True, rng=None, dtype=np.float32):
        super().__init__()
        if axis not in CONTEXT_AXES:
            raise ValueError(f"unknown context axis {axis!r}, expected one of {CONTEXT_AXES}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.channels = channels
        self.frames = frames
        self.joints = joints
        self.axis = axis
        self.symmetric = symmetric
        n_sq = joints * joints
        if axis == "joint":
            squeeze_dims, final_dim = (channels, frames), joints
        elif axis == "feature":
            squeeze_dims, final_dim = (frames, joints), channels
        else:
            squeeze_dims, final_dim = (channels, joints), frames
        self.squeeze_a = Conv2d(squeeze_dims[0], 1, rng=rng, dtype=dtype)
        self.bn_a = BatchNorm(1, relu=True, dtype=dtype)
        self.squeeze_b = Conv2d(squeeze_dims[1], 1, rng=rng, dtype=dtype)
        self.bn_b = BatchNorm(1, relu=True, dtype=dtype)
        self.expand = Conv2d(final_dim, n_sq, rng=rng, dtype=dtype)
        self.bn_out = BatchNorm(n_sq, relu=final_relu, dtype=dtype)

    def _check_input(self, x):
        expected = (self.channels, self.frames, self.joints)
        if x.data.ndim != 4 or x.data.shape[1:] != expected:
            raise ValueError(
                f"context encoder built for (B, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got input shape {x.data.shape}"
            )

    def scores(self, x):
        """Dependency matrix before row normalization."""
        self._check_input(x)
        batch = x.data.shape[0]
        c, t, n = self.channels, self.frames, self.joints

        # bn_a and bn_b apply a ReLU, bn_out one when final_relu is set
        if self.axis == "joint":
            h = self.bn_a(self.squeeze_a(x))                      # (B, 1, T, N)
            h = permute(h, (0, 2, 1, 3))                          # (B, T, 1, N)
            h = self.bn_b(self.squeeze_b(h))                      # (B, 1, 1, N)
            h = permute(h, (0, 3, 1, 2))                          # (B, N, 1, 1)
        elif self.axis == "feature":
            h = self.bn_a(self.squeeze_a(permute(x, (0, 2, 1, 3))))  # (B, 1, C, N)
            h = permute(h, (0, 3, 2, 1))                          # (B, N, C, 1)
            h = self.bn_b(self.squeeze_b(h))                      # (B, 1, C, 1)
            h = permute(h, (0, 2, 1, 3))                          # (B, C, 1, 1)
        else:
            h = self.bn_a(self.squeeze_a(x))                      # (B, 1, T, N)
            h = permute(h, (0, 3, 2, 1))                          # (B, N, T, 1)
            h = self.bn_b(self.squeeze_b(h))                      # (B, 1, T, 1)
            h = permute(h, (0, 2, 1, 3))                          # (B, T, 1, 1)

        h = self.bn_out(self.expand(h))                           # (B, N*N, 1, 1)
        out = reshape(h, (batch, n, n))
        if self.symmetric:
            out = scale(out + permute(out, (0, 2, 1)), 0.5)
        return out

    def forward(self, x):
        return l2_row_normalize(self.scores(x))


class NonLocalTopology(Module):
    """Row-softmax similarity of embedded, time-averaged features."""

    def __init__(self, channels, embed_channels=None, rng=None, dtype=np.float32):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        if embed_channels is None:
            embed_channels = max(channels // 4, 4)
        self.channels = channels
        self.embed_channels = embed_channels
        self.embed_query = Conv2d(channels, embed_channels, rng=rng, dtype=dtype)
        self.embed_key = Conv2d(channels, embed_channels, rng=rng, dtype=dtype)

    def forward(self, x):
        if x.data.ndim != 4 or x.data.shape[1] != self.channels:
            raise ValueError(
                f"non-local topology expects (B, {self.channels}, T, N) input, "
                f"got shape {x.data.shape}"
            )
        q = tensor_mean(self.embed_query(x), axis=2)   # (B, E, N)
        k = tensor_mean(self.embed_key(x), axis=2)     # (B, E, N)
        sim = matmul(permute(q, (0, 2, 1)), k)          # (B, N, N)
        return softmax(sim, axis=-1)


def build_topology_learner(kind, channels, frames, joints, final_relu=True,
                           rng=None, dtype=np.float32):
    """Factory keyed by the model-config topology name; None for "none"."""
    if kind == "none":
        return None
    if kind == "nonlocal":
        return NonLocalTopology(channels, rng=rng, dtype=dtype)
    table = {
        "context": ("joint", False),
        "context-symmetric": ("joint", True),
        "context-feature": ("feature", False),
        "context-temporal": ("temporal", False),
    }
    if kind not in table:
        raise ValueError(f"unknown topology learner {kind!r}")
    axis, symmetric = table[kind]
    return ContextEncoder(
        channels, frames, joints, axis=axis, symmetric=symmetric,
        final_relu=final_relu, rng=rng, dtype=dtype,
    )
