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

``ContextEncoder`` binds the construction-time C, T and N, because each
becomes the channel axis of one pointwise convolution; ``conv2d``'s
channel check refuses an input whose size differs there.
``NonLocalTopology`` binds only C, through its embeddings' ``conv2d``,
and takes any T and N.
"""

from __future__ import annotations

import numpy as np

from .layers import BatchNorm, Conv2d, Module
from .tensor import (
    l2_row_normalize,
    matmul,
    permute,
    reshape,
    scale,
    softmax,
    tensor_mean,
)

# Model-config topology kind -> (context axis, symmetric).  The non-local
# baseline has no context axis, and "none" builds no learner.
LEARNERS = {
    "context": ("joint", False),
    "context-symmetric": ("joint", True),
    "context-feature": ("feature", False),
    "context-temporal": ("temporal", False),
    "nonlocal": (None, False),
    "none": (None, False),
}

# Context axis -> the order in which the encoder takes the (C, T, N) axes:
# it squeezes the first, then the second, and maps the kept third to N^2.
_SQUEEZE_ORDER = {"joint": "ctn", "feature": "tnc", "temporal": "cnt"}


def context_stages(axis, channels, frames, joints):
    """(input width, output width, positions) of the context encoder's three
    pointwise maps, per sample: two squeezes to width 1, then the expansion
    of the kept axis into N^2 values."""
    size = {"c": channels, "t": frames, "n": joints}
    first, second, kept = (size[a] for a in _SQUEEZE_ORDER[axis])
    return ((first, 1, second * kept), (second, 1, kept), (kept, joints * joints, 1))


class ContextEncoder(Module):
    """Predict an (B, N, N) dependency matrix from an (B, C, T, N) input."""

    def __init__(self, channels, frames, joints, axis, symmetric, final_relu, rng,
                 dtype=np.float32):
        super().__init__()
        (a_in, a_out, _), (b_in, b_out, _), (e_in, e_out, _) = context_stages(
            axis, channels, frames, joints)
        self.axis = axis
        self.symmetric = symmetric
        self.squeeze_a = Conv2d(a_in, a_out, rng=rng, dtype=dtype)
        self.bn_a = BatchNorm(a_out, relu=True, dtype=dtype)
        self.squeeze_b = Conv2d(b_in, b_out, rng=rng, dtype=dtype)
        self.bn_b = BatchNorm(b_out, relu=True, dtype=dtype)
        self.expand = Conv2d(e_in, e_out, rng=rng, dtype=dtype)
        self.bn_out = BatchNorm(e_out, relu=final_relu, dtype=dtype)

    def scores(self, x):
        """Dependency matrix before row normalization."""
        batch, n = x.data.shape[0], x.data.shape[3]
        # Each stage maps the axis at position 1; one permute swaps the
        # stage's axis there.  bn_a and bn_b apply a ReLU, bn_out one when
        # final_relu is set.
        slots = list("bctn")
        h = x
        for axis, conv, norm in zip(_SQUEEZE_ORDER[self.axis],
                                    (self.squeeze_a, self.squeeze_b, self.expand),
                                    (self.bn_a, self.bn_b, self.bn_out)):
            pos = slots.index(axis)
            if pos != 1:
                order = [0, 1, 2, 3]
                order[1], order[pos] = pos, 1
                h = permute(h, tuple(order))
                slots[1], slots[pos] = axis, slots[1]
            h = norm(conv(h))
        out = reshape(h, (batch, n, n))
        if self.symmetric:
            out = scale(out + permute(out, (0, 2, 1)), 0.5)
        return out

    def forward(self, x):
        return l2_row_normalize(self.scores(x))


def nonlocal_width(channels):
    """Embedding width of the non-local baseline."""
    return max(channels // 4, 4)


class NonLocalTopology(Module):
    """Row-softmax similarity of embedded, time-averaged features."""

    def __init__(self, channels, rng, dtype=np.float32):
        super().__init__()
        width = nonlocal_width(channels)
        self.embed_query = Conv2d(channels, width, rng=rng, dtype=dtype)
        self.embed_key = Conv2d(channels, width, rng=rng, dtype=dtype)

    def forward(self, x):
        q = tensor_mean(self.embed_query(x), axis=2)   # (B, E, N)
        k = tensor_mean(self.embed_key(x), axis=2)     # (B, E, N)
        sim = matmul(permute(q, (0, 2, 1)), k)          # (B, N, N)
        return softmax(sim, axis=-1)


def build_topology_learner(kind, channels, frames, joints, final_relu, rng,
                           dtype=np.float32):
    """Factory keyed by the model-config topology name; None for "none"."""
    if kind == "none":
        return None
    if kind == "nonlocal":
        return NonLocalTopology(channels, rng=rng, dtype=dtype)
    axis, symmetric = LEARNERS[kind]
    return ContextEncoder(channels, frames, joints, axis, symmetric, final_relu, rng, dtype)
