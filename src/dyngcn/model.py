"""Graph-convolutional sequence classifier with learned dynamic topology.

Each block mixes joint features along two routes and adds them:

  static route   lambda * sum over K spatial configurations of
                 W_k X (G_k + M_k)^T, where G_k is the frozen normalized
                 physical graph and M_k a learnable additive mask
  dynamic route  W' X G(X)^T, where G(X) is predicted per sample by a
                 topology learner and W' is its own channel map

Graph aggregation acts on the joint axis and the 1x1 channel map on the
channel axis, so the two commute and both routes run through
``graph_conv`` the ST-GCN way: one broadcast graph product writes all
aggregations of a sample as a channel stack, and one 1x1 convolution
maps the stack to the output channels.  The static route passes its K
graphs with the concatenated weight lambda * [W_0 | ... | W_{K-1}], the
dynamic route its one learned graph per sample with W'.  The static route
runs first, and the dynamic route's ``graph_conv`` adds it in place into
its own output, so the route sum keeps no array of its own, and records
its stand-in, so the tape keeps no static route output either.  Every
contraction keeps a per-sample GEMM shape, so eval outputs do not
depend on the batch size.

The fused output passes through batch norm, ReLU, a temporal convolution
(t x 1 kernel, optionally strided), a residual shortcut, and a final
ReLU.  Selected blocks then project the joint axis down with a learned
N_i x N_{i+1} matrix, shrinking the graph for everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .layers import BatchNorm, Conv2d, Linear, Module, Parameter
from .skeleton import TopologySet, build_layout
from .tensor import (
    Tensor,
    _accumulate,
    _from_op,
    _hand_over,
    _matmul_grads,
    _sample_chunks,
    _scratch,
    _unbroadcast,
    concat,
    conv2d,
    matmul,
    mean_pool_global,
    no_grad,
    permute,
    reshape,
    scale,
)
from .topology import LEARNERS, build_topology_learner


def round_half_up(value):
    return int(math.floor(value + 0.5))


def refuse_non_finite(config):
    """Raise if a float field of the config dataclass is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name}={value!r} must be finite")


@dataclass
class ModelConfig:
    layout: str
    n_classes: int
    in_channels: int = 3
    frames: int = 64
    channels: tuple = (64, 64, 64, 64, 128, 128, 128, 256, 256, 256)
    strides: tuple = (1, 1, 1, 1, 2, 1, 1, 2, 1, 1)
    tc_kernel: int = 9
    lambda_static: float = 1.0
    aggregate_rate: float = 0.6
    aggregate_after: tuple = (5, 8)  # 1-based block positions
    topology: str = "context"
    learner_final_relu: bool = True
    learn_projection: bool = True
    alpha_degree: float = 0.001

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        self.strides = tuple(int(s) for s in self.strides)
        self.aggregate_after = tuple(int(i) for i in self.aggregate_after)
        # Every message leads with the field it concerns, so a config file's
        # reader can prefix "model." and name the key as the file spells it.
        refuse_non_finite(self)
        if self.n_classes < 1:
            raise ValueError("n_classes must be at least 1")
        if len(self.channels) != len(self.strides):
            raise ValueError(
                f"channels schedule ({len(self.channels)}) and strides schedule "
                f"({len(self.strides)}) differ in length"
            )
        if not self.channels:
            raise ValueError("channels must hold at least one block")
        for name, values in (("in_channels", (self.in_channels,)), ("frames", (self.frames,)),
                             ("channels", self.channels), ("strides", self.strides)):
            if min(values) < 1:
                raise ValueError(f"{name} must be positive")
        if self.tc_kernel < 1 or self.tc_kernel % 2 == 0:
            raise ValueError("tc_kernel must be positive and odd")
        if not 0.0 < self.aggregate_rate <= 1.0:
            raise ValueError("aggregate_rate must be in (0, 1]")
        for pos in self.aggregate_after:
            if not 1 <= pos <= len(self.channels):
                raise ValueError(f"aggregate_after position {pos} out of range")
        if self.topology not in LEARNERS:
            raise ValueError(f"topology {self.topology!r} is unknown, expected one of "
                             f"{', '.join(LEARNERS)}")
        if self.alpha_degree <= 0:
            # the centripetal graph always has an all-zero row at the center joint
            raise ValueError("alpha_degree must be positive")
        if self.topology == "none" and self.lambda_static == 0.0:
            raise ValueError("lambda_static=0 with topology 'none' leaves no active branch")

    def block_plan(self, n_joints):
        """The layer schedule, one ``BlockSpec`` per block, that the
        classifier is built from and the cost model prices."""
        plan = []
        channels, frames, joints = self.in_channels, self.frames, n_joints
        for i, (out_channels, stride) in enumerate(zip(self.channels, self.strides), start=1):
            out_joints = joints
            if i in self.aggregate_after:
                out_joints = max(round_half_up(self.aggregate_rate * joints), 1)
            spec = BlockSpec(channels, out_channels, frames, joints, out_joints,
                             stride, self.tc_kernel)
            plan.append(spec)
            channels, frames, joints = out_channels, spec.out_frames, out_joints
        return tuple(plan)


@dataclass(frozen=True)
class BlockSpec:
    """Geometry of one block: what it takes in, what it gives out."""

    in_channels: int
    out_channels: int
    in_frames: int
    in_joints: int
    out_joints: int
    stride: int
    tc_kernel: int

    @property
    def out_frames(self):
        return -(-self.in_frames // self.stride)  # ceil division

    @property
    def tc_pad(self):
        return (self.tc_kernel - 1) // 2

    @property
    def has_shortcut_conv(self):
        return self.in_channels != self.out_channels or self.stride != 1

    @property
    def projects(self):
        return self.out_joints != self.in_joints


def graph_conv(x, graphs, weight, residual=None):
    """Aggregate joint features with each graph, then map the channels.

    ``x`` is (B, C, T, N), ``graphs`` is (1, K, N, N) shared or (B, K, N, N)
    per sample, and ``weight`` is the (C_out, K * C, 1, 1) channel map.  For
    a chunk of samples, one broadcast product of the (b, 1, C*T, N) input
    view with a contiguous copy of the transposed graphs gives a
    (b, K, C*T, N) result that already is the (b, K*C, T, N) channel stack,
    and one 1x1 convolution maps it to the chunk's rows of the output;
    ``residual``, if given, is then added in place into that fresh output,
    and the node records its stand-in (``_hand_over``), because backward
    reads no value of it.  A chunk holds as many samples as fit their stack
    and output in ``tensor._COLS_BUDGET`` (``_sample_chunks``), so no
    whole-batch stack exists, and every GEMM keeps its per-sample shape.

    The stack is K times the size of ``x``, so the products run under
    ``no_grad`` and one node keeps only the inputs and the graphs' small
    transposed copy.  Backward rebuilds each chunk's stack with the
    forward's product in the scratch arena, and ``_matmul_grads`` gives each
    product's two gradients, as it does in the recorded ops' backward, so
    each gradient has the bits of the recorded ops: the weight and graphs
    come broadcast to the chunk, so their gradients come per sample, and
    those of shared operands add in batch order as the recorded ops'
    axis-0 sum adds them.
    """
    batch, channels, frames, n = x.data.shape
    k = graphs.data.shape[1]
    c_out = weight.data.shape[0]
    # BLAS multiplies by a contiguous operand faster than by a transposed
    # view; shared graphs broadcast to the batch, so a chunk slices either kind
    graphs_t = np.ascontiguousarray(graphs.data.transpose(0, 1, 3, 2))
    per_sample = np.broadcast_to(graphs_t, (batch, k, n, n))
    dtype = np.result_type(x.data, graphs.data, weight.data)
    _, chunks = _sample_chunks(batch, (k * channels + c_out) * frames * n * dtype.itemsize)

    def rows(b0, b1):
        return x.data[b0:b1].reshape(b1 - b0, 1, channels * frames, n)

    data = np.empty((batch, c_out, frames, n), dtype=dtype)
    with no_grad():
        for b0, b1 in chunks:
            stack = matmul(Tensor(rows(b0, b1)), Tensor(per_sample[b0:b1]))
            stack = reshape(stack, (b1 - b0, k * channels, frames, n))
            data[b0:b1] = conv2d(stack, weight).data
    if residual is not None:
        data += residual.data
        residual = _hand_over(residual)
    inputs = (x, graphs, weight) if residual is None else (x, graphs, weight, residual)

    def backward(g):
        # the gradients the recorded 1x1 conv2d, matmul, permute and reshape
        # backward give, from the same products on the same operands (the
        # product reads the forward's contiguous graphs^T)
        if residual is not None:
            _accumulate(residual, g)
        g2 = g.reshape(batch, c_out, frames * n)
        w2 = weight.data.reshape(c_out, k * channels)
        # dW in the layout of the recorded ops' axis-0 sum, which adds the
        # samples one by one in batch order onto zero, as this loop does
        dw = np.zeros(w2.shape, dtype=np.result_type(x.data, graphs_t, g), order="F")
        drows = np.empty((batch, 1, channels * frames, n), dtype=np.result_type(graphs_t, w2, g))
        dgraphs_t = np.empty(per_sample.shape, dtype=np.result_type(x.data, w2, g))
        for b0, b1 in chunks:
            [stack] = _scratch(((b1 - b0, k, channels * frames, n),
                                np.result_type(x.data, graphs_t)))
            np.matmul(rows(b0, b1), per_sample[b0:b1], out=stack)
            stack = stack.reshape(b1 - b0, k * channels, frames * n)
            # dW reads the stack before dstack takes over its bytes
            [dstack] = _scratch((stack.shape, np.result_type(w2, g2)))
            w2_chunk = np.broadcast_to(w2, (b1 - b0,) + w2.shape)
            dw_samples, dstack = _matmul_grads(g2[b0:b1], w2_chunk, stack, dstack)
            for dw_sample in dw_samples:
                dw += dw_sample
            # the graphs' per-sample gradients land in dgraphs_t's rows
            drows[b0:b1], _ = _matmul_grads(dstack.reshape(b1 - b0, k, channels * frames, n),
                                            rows(b0, b1), per_sample[b0:b1], dgraphs_t[b0:b1])
        _accumulate(weight, dw.reshape(weight.data.shape))
        _accumulate(x, drows.reshape(x.data.shape))
        # shared graphs: the per-sample gradients summed over the batch
        _accumulate(graphs, _unbroadcast(dgraphs_t, graphs_t.shape).transpose(0, 1, 3, 2))

    return _from_op(data, inputs, backward)


def static_branch(x, topo, convs, lambda_static):
    """``lambda_static`` times the sum over configurations k of conv_k(graph_k x),
    as one ``graph_conv`` over all K graphs with the concatenated,
    lambda-scaled weights."""
    n = x.data.shape[-1]
    graphs = reshape(topo.static_topology(), (1, topo.n_configs, n, n))
    weight = scale(concat([conv.weight for conv in convs], axis=1), lambda_static)
    return graph_conv(x, graphs, weight)


def dynamic_branch(x, graph, conv, residual=None):
    """Per-sample (B, N, N) graph aggregation followed by its own 1x1 channel
    map, to whose output ``graph_conv`` adds ``residual`` (the static route)."""
    batch, _, _, n = x.data.shape
    return graph_conv(x, reshape(graph, (batch, 1, n, n)), conv.weight, residual)


def joint_aggregate(x, projection):
    """Project the joint axis of (B, C, T, N_i) down to N_{i+1} columns."""
    return matmul(x, projection)


class DynamicGConvBlock(Module):
    """One spatial-temporal unit: fused graph conv, temporal conv, residual.

    ``spec`` gives the block's geometry and ``config`` (a ``ModelConfig``)
    its settings; a block at the layout's joint count gets the layout's
    graphs, a block after a joint projection self loops only.
    """

    def __init__(self, spec, layout, config, rng, dtype=np.float32):
        super().__init__()
        self.lambda_static = float(config.lambda_static)
        c_in, c_out, joints = spec.in_channels, spec.out_channels, spec.in_joints

        if layout.n_joints == joints:
            self.topo = TopologySet.from_layout(layout, config.alpha_degree, dtype)
        else:
            self.topo = TopologySet.self_loops_only(joints, config.alpha_degree, dtype)
        self.static_convs = [
            Conv2d(c_in, c_out, rng=rng, dtype=dtype)
            for _ in range(self.topo.n_configs)
        ]
        if self.lambda_static == 0.0:
            # the static route never runs, so its weights and masks are frozen
            for p in [conv.weight for conv in self.static_convs] + self.topo.mask:
                p.requires_grad = False
        self.learner = build_topology_learner(
            config.topology, c_in, spec.in_frames, joints, config.learner_final_relu, rng, dtype,
        )
        self.dynamic_conv = (
            Conv2d(c_in, c_out, rng=rng, dtype=dtype)
            if self.learner is not None else None
        )
        self.bn_fused = BatchNorm(c_out, relu=True, dtype=dtype)
        self.tc_conv = Conv2d(c_out, c_out, kernel_t=spec.tc_kernel,
                              stride_t=spec.stride, pad_t=spec.tc_pad, rng=rng, dtype=dtype)
        self.bn_tc = BatchNorm(c_out, relu=True, dtype=dtype)
        if spec.has_shortcut_conv:
            self.shortcut_conv = Conv2d(c_in, c_out, stride_t=spec.stride, rng=rng, dtype=dtype)
            self.shortcut_bn = BatchNorm(c_out, dtype=dtype)
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None
        if spec.projects:
            init = (rng.uniform(-1, 1, (joints, spec.out_joints)) / np.sqrt(joints)
                    if config.learn_projection else np.eye(joints, spec.out_joints))
            self.projection = Parameter(init.astype(dtype))
            self.projection.requires_grad = bool(config.learn_projection)
        else:
            self.projection = None

    def forward(self, x):
        predicted = self.learner(x) if self.learner is not None else None
        y = None
        if self.lambda_static != 0.0:
            y = static_branch(x, self.topo, self.static_convs, self.lambda_static)
        if predicted is not None:
            # the dynamic route's graph_conv adds the static route in place
            y = dynamic_branch(x, predicted, self.dynamic_conv, residual=y)
        y = self.bn_fused(y)
        if self.shortcut_conv is None:
            shortcut = x
        else:
            shortcut = self.shortcut_bn(self.shortcut_conv(x))
        y = self.bn_tc(self.tc_conv(y), residual=shortcut)
        if self.projection is not None:
            y = joint_aggregate(y, self.projection)
        return y


class SkeletonClassifier(Module):
    """Stack of graph-conv blocks with input norm, pooling, and classifier.

    Input is (B, C, T, N) or (B, M, C, T, N) with M persons; persons fold
    into the batch and their pooled features average before the
    classifier.
    """

    def __init__(self, config, rng, dtype=np.float32):
        super().__init__()
        self.config = config
        layout = build_layout(config.layout)
        self.layout = layout
        self.input_bn = BatchNorm(config.in_channels * layout.n_joints, dtype=dtype)
        self.blocks = [DynamicGConvBlock(spec, layout, config, rng, dtype)
                       for spec in config.block_plan(layout.n_joints)]
        self.classifier = Linear(config.channels[-1], config.n_classes, rng=rng, dtype=dtype)

    def input_stage(self, x):
        """Check the input, fold persons into the batch, apply the input norm;
        returns the (B * M, C, T, N) input of the first block, B and M."""
        config = self.config
        n = self.layout.n_joints
        if x.data.ndim == 5:
            batch, persons = x.data.shape[:2]
            x = reshape(x, (batch * persons,) + x.data.shape[2:])
        elif x.data.ndim == 4:
            batch, persons = x.data.shape[0], 1
        else:
            raise ValueError(
                f"model expects (B, C, T, N) or (B, M, C, T, N), got {x.data.shape}"
            )
        if x.data.shape[1] != config.in_channels or x.data.shape[3] != n:
            raise ValueError(
                f"model built for C={config.in_channels}, N={n}, got input {x.data.shape}"
            )
        if x.data.shape[2] != config.frames:
            raise ValueError(
                f"model built for T={config.frames}, got input {x.data.shape}; "
                f"resize sequences first"
            )
        frames = x.data.shape[2]

        # normalize over flattened (channel, joint) pairs
        folded = reshape(permute(x, (0, 1, 3, 2)), (x.data.shape[0], config.in_channels * n, frames, 1))
        folded = self.input_bn(folded)
        x = permute(reshape(folded, (x.data.shape[0], config.in_channels, n, frames)), (0, 1, 3, 2))
        return x, batch, persons

    def forward(self, x):
        x, batch, persons = self.input_stage(x)
        for block in self.blocks:
            x = block(x)

        pooled = mean_pool_global(x)  # (B * M, C_out)
        if persons > 1:
            pooled = reshape(pooled, (batch, persons, pooled.data.shape[-1])).mean(axis=1)
        return self.classifier(pooled)

    def parameter_count(self):
        return sum(int(np.prod(p.data.shape)) for p in self.parameters())


def build_model(config, seed=0, dtype=np.float32):
    """The classifier for ``config``, its weights drawn from ``seed``, with
    every parameter and buffer in ``dtype`` (float32 or float64)."""
    if np.dtype(dtype) not in (np.float32, np.float64):
        # Tensor would cast the parameters to float32 and leave the
        # batch-norm buffers in the given dtype
        raise ValueError(f"model dtype must be float32 or float64, got {np.dtype(dtype)}")
    return SkeletonClassifier(config, rng=np.random.default_rng(seed), dtype=dtype)
