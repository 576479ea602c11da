import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import dyngcn.model as model_module
import dyngcn.tensor as tensor_module
from dyngcn.config import model_preset
from dyngcn.layers import Conv2d
from dyngcn.model import (
    BlockSpec,
    DynamicGConvBlock,
    ModelConfig,
    build_model,
    dynamic_branch,
    graph_conv,
    joint_aggregate,
    round_half_up,
    static_branch,
)
from dyngcn.modality import apply_modality, derive_bone, derive_motion, ensemble_logits
from dyngcn.skeleton import SkeletonLayout, TopologySet, build_layout
from dyngcn.tensor import (
    Tensor,
    add,
    batch_norm,
    conv2d,
    matmul,
    mul,
    no_grad,
    permute,
    relu,
    reshape,
    softmax_cross_entropy,
)
from dyngcn.gradcheck import check_gradient


def chain_layout(n):
    return SkeletonLayout(
        name=f"chain{n}",
        n_joints=n,
        edges=tuple((i, i + 1) for i in range(n - 1)),
        center_joint=0,
        bone_pairs=tuple((i, i + 1) for i in range(n - 1)),
    )


def identity_conv(channels, dtype=np.float64):
    conv = Conv2d(channels, channels, np.random.default_rng(0), dtype=dtype)
    conv.weight.data[:] = np.eye(channels).reshape(channels, channels, 1, 1)
    return conv


# -- branch ops against loop-nest oracles --------------------------------


def static_oracle(x, graphs, weights):
    b, c_in, t, n = x.shape
    c_out = weights[0].shape[0]
    out = np.zeros((b, c_out, t, n))
    for k, (g, w) in enumerate(zip(graphs, weights)):
        for bi in range(b):
            for ti in range(t):
                agg = x[bi, :, ti, :] @ g.T         # (C_in, N)
                out[bi, :, ti, :] += w[:, :, 0, 0] @ agg
    return out


def dynamic_oracle(x, graphs, weight):
    b, c_in, t, n = x.shape
    c_out = weight.shape[0]
    out = np.zeros((b, c_out, t, n))
    for bi in range(b):
        for ti in range(t):
            agg = x[bi, :, ti, :] @ graphs[bi].T
            out[bi, :, ti, :] = weight[:, :, 0, 0] @ agg
    return out


@pytest.mark.parametrize("seed", range(3))
def test_static_branch_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    n, c_in, c_out, t, b = 6, 3, 4, 5, 2
    layout = chain_layout(n)
    topo = TopologySet.from_layout(layout, 0.001, dtype=np.float64)
    for k in range(3):
        topo.mask[k].data[:] = rng.standard_normal((n, n)) * 0.1
    convs = [Conv2d(c_in, c_out, rng=rng, dtype=np.float64) for _ in range(3)]
    x = rng.standard_normal((b, c_in, t, n))
    out = static_branch(Tensor(x), topo, convs, 1.0).data
    expected = static_oracle(
        x,
        topo.static_topology().data,
        [c.weight.data for c in convs],
    )
    assert np.abs(out - expected).max() < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_dynamic_branch_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed + 10)
    n, c_in, c_out, t, b = 5, 3, 4, 4, 3
    conv = Conv2d(c_in, c_out, rng=rng, dtype=np.float64)
    x = rng.standard_normal((b, c_in, t, n))
    graphs = rng.standard_normal((b, n, n))
    out = dynamic_branch(Tensor(x), Tensor(graphs), conv).data
    expected = dynamic_oracle(x, graphs, conv.weight.data)
    assert np.abs(out - expected).max() < 1e-5


def test_static_branch_identity_configuration():
    # one configuration whose normalized graph is exactly the identity
    # (alpha 0 keeps unit degrees), identity channel map, zero mask
    n, c, t, b = 4, 3, 5, 2
    topo = TopologySet(np.eye(n)[None], alpha_degree=0.0, dtype=np.float64)
    conv = identity_conv(c)
    x = np.random.default_rng(0).standard_normal((b, c, t, n))
    out = static_branch(Tensor(x), topo, [conv], 1.0).data
    assert np.abs(out - x).max() < 1e-12


def test_dynamic_branch_identity_graphs():
    n, c, t, b = 4, 3, 5, 2
    conv = identity_conv(c)
    x = np.random.default_rng(1).standard_normal((b, c, t, n))
    eyes = np.broadcast_to(np.eye(n), (b, n, n)).copy()
    out = dynamic_branch(Tensor(x), Tensor(eyes), conv).data
    assert np.abs(out - x).max() < 1e-12


def test_dynamic_branch_permutation_graph():
    n, c, t = 4, 2, 3
    conv = identity_conv(c)
    x = np.random.default_rng(2).standard_normal((1, c, t, n))
    perm = [2, 0, 3, 1]
    g = np.zeros((1, n, n))
    for i, j in enumerate(perm):
        g[0, i, j] = 1.0
    out = dynamic_branch(Tensor(x), Tensor(g), conv).data
    assert np.abs(out - x[:, :, :, perm]).max() < 1e-12


def test_dynamic_branch_batch_mismatch():
    conv = identity_conv(1)
    with pytest.raises(ValueError):
        dynamic_branch(Tensor(np.zeros((2, 1, 5, 4))), Tensor(np.zeros((3, 4, 4))), conv)


def contiguous(t):
    """``t`` copied to a contiguous array; its gradient passes through."""
    def backward(g):
        tensor_module._accumulate(t, g)

    return tensor_module._from_op(np.ascontiguousarray(t.data), (t,), backward)


def per_sample_graph_conv(graph, x, weight):
    """The dynamic route before ``graph_conv``: one (C*T) x N by N x N product
    per sample on the (B, C*T, N) view, by a contiguous copy of the
    transposed graph as ``graph_conv`` reads it, then the 1x1 channel map."""
    batch, channels, frames, n = x.data.shape
    rows = reshape(x, (batch, channels * frames, n))
    graph_t = contiguous(permute(graph, (0, 2, 1)))
    aggregated = reshape(matmul(rows, graph_t), x.data.shape)
    return conv2d(aggregated, weight)


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dynamic_branch_bitwise_matches_per_sample_products(batch, dtype):
    rng = np.random.default_rng(23)
    n, c_in, c_out, t = 25, 6, 5, 7
    x_data = rng.standard_normal((batch, c_in, t, n)).astype(dtype)
    graph_data = rng.standard_normal((batch, n, n)).astype(dtype)
    g_out = rng.standard_normal((batch, c_out, t, n)).astype(dtype)
    conv = Conv2d(c_in, c_out, rng=rng, dtype=dtype)

    def run(route):
        x = Tensor(x_data.copy(), requires_grad=True)
        graph = Tensor(graph_data.copy(), requires_grad=True)
        conv.weight.grad = None
        out = route(x, graph)
        out.backward(g_out)
        return [out.data, x.grad, graph.grad, conv.weight.grad]

    got = run(lambda x, graph: dynamic_branch(x, graph, conv))
    want = run(lambda x, graph: per_sample_graph_conv(graph, x, conv.weight))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


GRAPH_CONV_CASES = {
    # graphs shape, residual: none, its own tensor, or the input x itself;
    # the leaf that needs no gradient, if any
    "shared graphs": ((1, 3), None, None),
    "shared graphs + residual": ((1, 3), "own", None),
    "per-sample graph": ((4, 1), None, None),
    "per-sample graph + residual": ((4, 1), "own", None),
    "per-sample graph + residual is the input": ((4, 1), "input", None),
    "shared graphs, frozen weight": ((1, 3), None, "weight"),
    "shared graphs + residual, frozen graphs": ((1, 3), "own", "graphs"),
    "per-sample graph, frozen graphs": ((4, 1), None, "graphs"),
    "per-sample graph + residual, frozen weight": ((4, 1), "own", "weight"),
}


def recorded_graph_conv(x, graphs, weight, residual=None):
    """``graph_conv``'s products and route sum, recorded op by op, with the
    graph product reading a contiguous copy of the transposed graphs."""
    batch, channels, frames, n = x.data.shape
    k = graphs.data.shape[1]
    rows = reshape(x, (batch, 1, channels * frames, n))
    aggregated = matmul(rows, contiguous(permute(graphs, (0, 1, 3, 2))))
    out = conv2d(reshape(aggregated, (batch, k * channels, frames, n)), weight)
    return out if residual is None else add(out, residual)


# the batch of 4 in chunks of this many samples: the default budget's one
# chunk, one sample per chunk, and an uneven 3 + 1
GRAPH_CONV_CHUNKS = {"whole batch": 4, "one sample": 1, "3 + 1": 3}


@pytest.mark.parametrize("chunk", GRAPH_CONV_CHUNKS)
@pytest.mark.parametrize("case", GRAPH_CONV_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_graph_conv_node_matches_recorded_products_bitwise(monkeypatch, case, dtype, chunk):
    # a stale arena (NaN in either dtype) that no backward may read, large
    # enough that none grows it
    arena = np.full(1 << 20, 0xFF, dtype=np.uint8)
    monkeypatch.setattr(tensor_module, "_SCRATCH", [arena])
    (graph_batch, k), residual, frozen = GRAPH_CONV_CASES[case]
    batch, c_in, t, n = 4, 6, 7, 25
    c_out = c_in if residual == "input" else 5
    samples = GRAPH_CONV_CHUNKS[chunk]
    if samples < batch:
        # a chunk's budget counts each sample's stack and output
        sample_bytes = (k * c_in + c_out) * t * n * np.dtype(dtype).itemsize
        monkeypatch.setattr(tensor_module, "_COLS_BUDGET", samples * sample_bytes)
    products = []

    def counted_matmul(*args, original=model_module.matmul):
        products.append(args[0].data.shape[0])
        return original(*args)

    monkeypatch.setattr(model_module, "matmul", counted_matmul)
    rng = np.random.default_rng(sum(map(ord, case)))
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in (
        (batch, c_in, t, n), (graph_batch, k, n, n), (c_out, k * c_in, 1, 1),
        (batch, c_out, t, n))]
    if residual != "own":
        arrays.pop()
    g = rng.standard_normal((batch, c_out, t, n)).astype(dtype)

    def leaves():
        inputs = [Tensor(a, requires_grad=i != {"graphs": 1, "weight": 2}.get(frozen))
                  for i, a in enumerate(arrays)]
        # the input passed again as the residual is the same tensor
        return inputs + inputs[:1] if residual == "input" else inputs

    results = []
    for route in (graph_conv, recorded_graph_conv):
        inputs = leaves()
        out = route(*inputs)
        if route is graph_conv:
            # one node whose closure keeps the inputs, not the products
            assert {id(node) for node in graph_nodes(out)} == {id(out)} | {
                id(t) for t in inputs if t.requires_grad}
        out.backward(g)
        # a frozen leaf gets no gradient; every other leaf gets the recorded one
        assert [t.grad is None for t in inputs] == [not t.requires_grad for t in inputs]
        results.append([out.data] + [t.grad for t in inputs if t.requires_grad])
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the graph product ran once per chunk, over the chunk's samples
    assert products == [samples] * (batch // samples) + [batch % samples] * (batch % samples > 0)
    assert tensor_module._SCRATCH[0] is arena
    with no_grad():
        out = graph_conv(*leaves())
    assert out._backward is None and out._prev == () and not out.requires_grad
    assert out.data.tobytes() == results[0][0].tobytes()


# -- inputs handed over to a stand-in ------------------------------------

# Each residual op, fused and as the recorded ops it stands for (``add`` in
# place of the residual).  Arguments: the op's input, its residual, and the
# case's leaves by name (``residual_case``).
RESIDUAL_OPS = {
    "batch_norm": (
        lambda x, r, p: batch_norm(x, p["gamma"], p["beta"], p["mean"].copy(),
                                   p["var"].copy(), relu=True, residual=r),
        lambda x, r, p: relu(add(batch_norm(x, p["gamma"], p["beta"], p["mean"].copy(),
                                            p["var"].copy()), r)),
    ),
    "graph_conv": (
        lambda x, r, p: graph_conv(x, p["graphs"], p["weight"], r),
        lambda x, r, p: add(graph_conv(x, p["graphs"], p["weight"]), r),
    ),
}


def residual_case(dtype, seed):
    """Leaves of a residual-op case: the op's parameters, three 1x1 maps
    and two inputs, plus the output gradients of the op and of its residual."""
    B, C, T, N = 2, 3, 5, 4
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    leaves = {"gamma": leaf(C), "beta": leaf(C), "graphs": leaf(1, 2, N, N),
              "weight": leaf(C, 2 * C, 1, 1), "map_r": leaf(C, C, 1, 1),
              "map_a": leaf(C, C, 1, 1), "map_b": leaf(C, C, 1, 1),
              "x": leaf(B, C, T, N), "r": leaf(B, C, T, N)}
    leaves["mean"], leaves["var"] = np.zeros(C, dtype), np.ones(C, dtype)
    grads = rng.standard_normal((2, B, C, T, N)).astype(dtype)
    return leaves, grads


def leaf_grads(leaves):
    return [t.grad for t in leaves.values() if isinstance(t, Tensor)]


def assert_same_bits(got, want):
    """Pairwise: both None, or arrays of one dtype with the same bytes."""
    assert [a is None for a in got] == [b is None for b in want]
    for a, b in zip(got, want):
        if b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("op", RESIDUAL_OPS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_handed_over_residual_with_one_consumer_gives_the_recorded_gradients(op, dtype):
    results = []
    for route in RESIDUAL_OPS[op]:
        p, (g, _) = residual_case(dtype, seed=40)
        r = conv2d(p["r"], p["map_r"])
        out = route(p["x"], r, p)
        out.backward(g)
        assert r.grad is None
        results.append([out.data] + leaf_grads(p))
    assert_same_bits(*results)


@pytest.mark.parametrize("op", RESIDUAL_OPS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_handed_over_identity_shortcut_read_by_other_ops_gives_the_recorded_gradients(
        op, dtype):
    # h is the residual and also the input of two other maps, so three
    # gradients reach it; each must be added in the order the recorded ops
    # add them, not summed apart and then passed on
    results = []
    for route in RESIDUAL_OPS[op]:
        p, (g, _) = residual_case(dtype, seed=41)
        h = conv2d(p["x"], p["map_r"])
        out = add(route(conv2d(h, p["map_a"]), h, p), conv2d(h, p["map_b"]))
        out.backward(g)
        results.append([out.data] + leaf_grads(p))
    assert_same_bits(*results)


@pytest.mark.parametrize("op", RESIDUAL_OPS)
def test_backward_seeded_at_a_handed_over_residual_reaches_its_inputs(op):
    results = []
    for route in RESIDUAL_OPS[op]:
        p, (g, g_r) = residual_case(np.float32, seed=42)
        r = conv2d(p["r"], p["map_r"])
        out = route(p["x"], r, p)
        r.backward(g_r)
        assert r.data.tobytes() == conv2d(p["r"], p["map_r"]).data.tobytes()
        results.append(leaf_grads(p))
        # r's graph is released, so backpropagating through it again raises
        with pytest.raises(RuntimeError, match="already backpropagated"):
            out.backward(g)
    assert_same_bits(*results)


@pytest.mark.parametrize("op", RESIDUAL_OPS)
def test_second_backward_through_a_handed_over_residual_raises(op):
    p, (g, g_r) = residual_case(np.float64, seed=43)
    r = conv2d(p["r"], p["map_r"])
    out = RESIDUAL_OPS[op][0](p["x"], r, p)
    out.backward(g)
    before = [None if grad is None else grad.copy() for grad in leaf_grads(p)]
    for root, seed in ((out, g), (r, g_r)):
        with pytest.raises(RuntimeError, match="already backpropagated"):
            root.backward(seed)
    assert_same_bits(leaf_grads(p), before)


def test_block_tape_holds_no_addend_that_no_backward_reads(monkeypatch):
    # ntu-like block 5 in training mode at B=2.  The dynamic route adds the
    # static route's output, the last batch norm the shortcut batch norm's
    # output, and the static weight's scale reads the concatenated weights;
    # no backward reads their values, so once the forward drops them
    # nothing holds their arrays.
    spec = BlockSpec(64, 128, in_frames=64, in_joints=25, out_joints=25, stride=2,
                     tc_kernel=9)
    block = DynamicGConvBlock(spec, build_layout("ntu25"), ModelConfig("ntu25", 60),
                              np.random.default_rng(8))
    refs = {}

    def keep_weakref(name, original):
        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            refs[name] = weakref.ref(array_base(out.data))
            return out

        return wrapped

    monkeypatch.setattr(model_module, "static_branch",
                        keep_weakref("static route", model_module.static_branch))
    monkeypatch.setattr(model_module, "concat",
                        keep_weakref("static weights", model_module.concat))
    monkeypatch.setattr(block.shortcut_bn, "forward",
                        keep_weakref("shortcut", block.shortcut_bn.forward))
    x = np.random.default_rng(9).standard_normal((2, 64, 64, 25)).astype(np.float32)
    x = Tensor(x, requires_grad=True)
    y = block(x)
    assert sorted(refs) == ["shortcut", "static route", "static weights"]
    assert [name for name, ref in refs.items() if ref() is not None] == []
    y.backward(np.ones_like(y.data))
    assert x.grad is not None and all(p.grad is not None for p in block.parameters())


def random_static_route(rng, n, c_in, c_out, dtype=np.float64):
    """Chain topology with random masks, plus one random 1x1 map per configuration."""
    topo = TopologySet.from_layout(chain_layout(n), 0.001, dtype=dtype)
    for k in range(3):
        topo.mask[k].data[:] = rng.standard_normal((n, n)) * 0.1
    return topo, [Conv2d(c_in, c_out, rng=rng, dtype=dtype) for _ in range(3)]


def test_static_branch_lambda_scales_route():
    rng = np.random.default_rng(3)
    n, c_in, c_out = 5, 3, 4
    topo, convs = random_static_route(rng, n, c_in, c_out)
    x = Tensor(rng.standard_normal((2, c_in, 4, n)))
    unit = static_branch(x, topo, convs, 1.0).data
    assert np.array_equal(static_branch(x, topo, convs, 0.0).data, np.zeros_like(unit))
    for lam in (0.37, 2.0):
        assert np.allclose(static_branch(x, topo, convs, lam).data, lam * unit, atol=1e-12)


@pytest.mark.parametrize("target", ["x", "mask0", "mask1", "mask2",
                                    "weight0", "weight1", "weight2"])
def test_static_branch_gradients(target):
    rng = np.random.default_rng(20)
    n, c_in, c_out, t, b = 5, 3, 4, 3, 2
    topo, convs = random_static_route(rng, n, c_in, c_out)
    x = Tensor(rng.standard_normal((b, c_in, t, n)), requires_grad=True)
    w = Tensor(rng.standard_normal((b, c_out, t, n)))
    wrt = {"x": x}
    for k in range(3):
        wrt[f"mask{k}"] = topo.mask[k]
        wrt[f"weight{k}"] = convs[k].weight
    err = check_gradient(lambda _: mul(static_branch(x, topo, convs, 0.6), w).sum(),
                         wrt[target], eps=1e-6)
    assert err < 1e-6


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("route", ["shared graph", "per-sample graphs", "static"])
def test_spatial_routes_batch_invariant_bitwise(route, batch):
    rng = np.random.default_rng(21)
    n, c, t = 25, 16, 12
    x = rng.standard_normal((batch, c, t, n)).astype(np.float32)
    graphs = rng.standard_normal((batch, n, n)).astype(np.float32)
    topo, convs = random_static_route(rng, n, c, c, dtype=np.float32)

    def apply(i, j):
        xs = Tensor(x[i:j])
        if route == "shared graph":
            return graph_conv(xs, Tensor(graphs[None, :1]), convs[0].weight).data
        if route == "per-sample graphs":
            return dynamic_branch(xs, Tensor(graphs[i:j]), convs[0]).data
        return static_branch(xs, topo, convs, 0.5).data

    with no_grad():
        full = apply(0, batch)
        for i in range(batch):
            assert np.array_equal(full[i], apply(i, i + 1)[0])


# -- block behavior -----------------------------------------------------


def small_spec(out_channels=3, frames=6, out_joints=4, stride=1):
    """The geometry of ``small_block`` with the same arguments."""
    return BlockSpec(in_channels=3, out_channels=out_channels, in_frames=frames,
                     in_joints=4, out_joints=out_joints, stride=stride, tc_kernel=3)


def small_block(out_channels=3, frames=6, out_joints=4, stride=1, seed=5, **settings):
    """A float64 block on a 4-joint chain; ``settings`` are ModelConfig fields."""
    spec = small_spec(out_channels, frames, out_joints, stride)
    config = ModelConfig(layout="chain4", n_classes=2, **settings)
    return DynamicGConvBlock(spec, chain_layout(4), config, np.random.default_rng(seed),
                             np.float64)


def test_block_zero_weights_reduces_to_relu_shortcut():
    block = small_block().eval()
    for _, p in block.named_parameters():
        p.data[:] = 0.0
    x = np.random.default_rng(6).standard_normal((2, 3, 6, 4))
    out = block(Tensor(x)).data
    assert np.array_equal(out, np.maximum(x, 0.0))


def test_block_output_shape_with_stride_and_projection():
    block = small_block(out_channels=5, stride=2, out_joints=3)
    spec = small_spec(out_channels=5, stride=2, out_joints=3)
    x = Tensor(np.zeros((2, 3, 6, 4)))
    out = block(x)
    assert out.shape == (2, 5, 3, 3)
    assert spec.out_frames == 3 and spec.out_joints == 3


def test_block_odd_length_stride_two():
    block = small_block(frames=7, stride=2)
    out = block(Tensor(np.zeros((1, 3, 7, 4))))
    assert out.shape[2] == 4  # ceil(7 / 2)


def test_block_learner_captures_adjacency():
    block = small_block()
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 6, 4)))
    spec = small_spec()
    assert (2, spec.in_channels, spec.in_frames, spec.in_joints) == (2, 3, 6, 4)
    assert block.learner(x).shape == (2, 4, 4)


def test_block_static_only_has_no_learner_parameters():
    block = small_block(topology="none")
    names = [name for name, _ in block.named_parameters()]
    assert not any("learner" in n or "dynamic" in n for n in names)
    out = block(Tensor(np.zeros((1, 3, 6, 4))))
    assert out.shape == (1, 3, 6, 4)


def test_block_lambda_zero_ignores_static_parameters():
    x = np.random.default_rng(9).standard_normal((2, 3, 6, 4))
    block = small_block(lambda_static=0.0, seed=8).eval()
    with no_grad():
        before = block(Tensor(x)).data.copy()
    for conv in block.static_convs:
        conv.weight.data[:] = 999.0
    for k in range(block.topo.n_configs):
        block.topo.mask[k].data[:] = 123.0
    with no_grad():
        after = block(Tensor(x)).data
    assert np.array_equal(before, after)


def test_block_lambda_folds_into_static_weights():
    # the block sums dynamic + lambda * static: scaling the static weights
    # by lambda at lambda = 1 must give the same output
    x = Tensor(np.random.default_rng(22).standard_normal((2, 3, 6, 4)))
    lam = 0.37
    scaled = small_block(lambda_static=lam, seed=8).eval()
    folded = small_block(lambda_static=1.0, seed=8).eval()
    for conv in folded.static_convs:
        conv.weight.data *= lam
    with no_grad():
        assert np.allclose(scaled(x).data, folded(x).data, atol=1e-12)


def test_block_batching_invariance_eval():
    block = small_block().eval()
    x = np.random.default_rng(10).standard_normal((3, 3, 6, 4))
    with no_grad():
        full = block(Tensor(x)).data
        singles = [block(Tensor(x[i : i + 1])).data[0] for i in range(3)]
    for i in range(3):
        assert np.array_equal(full[i], singles[i])


def test_ntu_width_block_batch_invariance_eval():
    # ntu-like block 5 on 32 frames: its temporal conv streams a batch of 3
    # through column-buffer chunks of 2 and 1, its strided shortcut in one
    spec = BlockSpec(64, 128, in_frames=32, in_joints=25, out_joints=25, stride=2, tc_kernel=9)
    block = DynamicGConvBlock(spec, build_layout("ntu25"), ModelConfig("ntu25", 60),
                              np.random.default_rng(8)).eval()
    x = np.random.default_rng(9).standard_normal((3, 64, 32, 25)).astype(np.float32)
    with no_grad():
        full = block(Tensor(x)).data
        for i in range(3):
            assert np.array_equal(full[i], block(Tensor(x[i : i + 1])).data[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_gradient_end_to_end(seed):
    block = small_block(seed=seed).eval()
    rng = np.random.default_rng(seed + 50)
    x = Tensor(rng.standard_normal((2, 3, 6, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3, 6, 4)))
    err = check_gradient(lambda t: mul(block(t), w).sum(), x, eps=1e-6)
    assert np.abs(x.grad).max() > 1e-4
    assert err < 1e-3


# -- joint aggregation --------------------------------------------------


def test_joint_aggregate_shapes():
    x = Tensor(np.zeros((2, 8, 16, 25)))
    p = Tensor(np.zeros((25, 15)))
    assert joint_aggregate(x, p).shape == (2, 8, 16, 15)
    y = Tensor(np.zeros((2, 8, 16, 15)))
    q = Tensor(np.zeros((15, 9)))
    assert joint_aggregate(y, q).shape == (2, 8, 16, 9)


def test_joint_aggregate_selection_matrix():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 2, 3, 5))
    keep = [0, 2, 4]
    p = np.zeros((5, 3))
    for col, row in enumerate(keep):
        p[row, col] = 1.0
    out = joint_aggregate(Tensor(x), Tensor(p)).data
    assert np.abs(out - x[:, :, :, keep]).max() < 1e-12


def test_round_half_up_schedule():
    assert round_half_up(0.6 * 25) == 15
    assert round_half_up(0.6 * 15) == 9
    assert round_half_up(0.6 * 18) == 11  # 10.8
    assert round_half_up(0.6 * 11) == 7   # 6.6


# -- configs and the full model -----------------------------------------


def test_model_config_validation():
    with pytest.raises(ValueError, match="schedule"):
        ModelConfig(layout="ntu25", n_classes=5, channels=(8, 8), strides=(1,))
    with pytest.raises(ValueError, match="odd"):
        ModelConfig(layout="ntu25", n_classes=5, tc_kernel=4)
    with pytest.raises(ValueError, match="out of range"):
        ModelConfig(layout="ntu25", n_classes=5, channels=(8,), strides=(1,),
                    aggregate_after=(3,))
    with pytest.raises(ValueError, match="topology"):
        ModelConfig(layout="ntu25", n_classes=5, topology="magic")
    with pytest.raises(ValueError, match="branch"):
        ModelConfig(layout="ntu25", n_classes=5, topology="none", lambda_static=0.0)
    for sizes in ({"channels": (8, 0), "strides": (1, 1)}, {"frames": 0}, {"in_channels": 0}):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(layout="ntu25", n_classes=5, **sizes)
    for alpha in (0.0, -0.5):
        with pytest.raises(ValueError, match="^alpha_degree must be positive$"):
            ModelConfig(layout="ntu25", n_classes=5, alpha_degree=alpha)
    with pytest.raises(ValueError, match="^channels must hold at least one block$"):
        ModelConfig(layout="ntu25", n_classes=5, channels=(), strides=())
    for rate in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"^aggregate_rate must be in \(0, 1\]$"):
            ModelConfig(layout="ntu25", n_classes=5, aggregate_rate=rate)


def test_model_config_round_trip():
    cfg = ModelConfig(layout="ntu25", n_classes=60)
    # as a checkpoint header stores it: tuples come back from JSON lists
    again = ModelConfig(**json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def joint_path(specs):
    return [(spec.in_joints, spec.out_joints) for spec in specs]


def test_block_plan_ntu_and_kinetics():
    ntu = joint_path(ModelConfig(layout="ntu25", n_classes=60).block_plan(25))
    assert ntu[4] == (25, 15)
    assert ntu[7] == (15, 9)
    assert ntu[9] == (9, 9)
    kin = joint_path(ModelConfig(layout="openpose18", n_classes=400, frames=150).block_plan(18))
    assert kin[4] == (18, 11)
    assert kin[7] == (11, 7)


def tiny_config(**overrides):
    args = dict(
        layout="ntu25", n_classes=5, frames=12,
        channels=(4, 8), strides=(1, 2), tc_kernel=3,
        aggregate_after=(1,), topology="context",
    )
    args.update(overrides)
    return ModelConfig(**args)


def test_model_forward_shapes_and_schedule():
    model = build_model(tiny_config(), seed=0)
    out = model(Tensor(np.random.default_rng(12).standard_normal((2, 3, 12, 25))))
    assert out.shape == (2, 5)
    path = joint_path(model.config.block_plan(model.layout.n_joints))
    assert path[0] == (25, 15)
    assert path[1] == (15, 15)


def test_model_rejects_wrong_frames():
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError, match="T=12"):
        model(Tensor(np.zeros((1, 3, 10, 25))))


@pytest.mark.parametrize("shape, message", [
    ((3, 12, 25), r"model expects \(B, C, T, N\) or \(B, M, C, T, N\), got \(3, 12, 25\)"),
    ((1, 2, 2, 3, 12, 25), r"model expects .*, got \(1, 2, 2, 3, 12, 25\)"),
    ((1, 2, 12, 25), r"model built for C=3, N=25, got input \(1, 2, 12, 25\)"),
    ((1, 2, 3, 12, 18), r"model built for C=3, N=25, got input \(2, 3, 12, 18\)"),
], ids=["rank-3", "rank-6", "channels", "joints"])
def test_model_rejects_input_of_the_wrong_shape(shape, message):
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        model.input_stage(Tensor(np.zeros(shape)))


def test_identical_samples_identical_logits():
    model = build_model(tiny_config(), seed=1)
    rng = np.random.default_rng(13)
    one = rng.standard_normal((1, 3, 12, 25))
    batch = np.concatenate([one, one], axis=0)
    logits = model(Tensor(batch)).data
    assert np.array_equal(logits[0], logits[1])


def test_multi_person_average_matches_duplicated_person():
    model = build_model(tiny_config(), seed=2).eval()
    rng = np.random.default_rng(14)
    single = rng.standard_normal((2, 3, 12, 25)).astype(np.float32)
    doubled = np.stack([single, single], axis=1)  # (B, M=2, C, T, N)
    with no_grad():
        a = model(Tensor(single)).data
        b = model(Tensor(doubled)).data
    assert np.allclose(a, b, atol=1e-6)


def test_model_lambda_zero_static_independence():
    cfg = tiny_config(lambda_static=0.0)
    model = build_model(cfg, seed=3).eval()
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 12, 25)).astype(np.float32)
    with no_grad():
        before = model(Tensor(x)).data.copy()
    for block in model.blocks:
        for conv in block.static_convs:
            conv.weight.data[:] = 7.0
        for k in range(block.topo.n_configs):
            block.topo.mask[k].data[:] = -3.0
    with no_grad():
        after = model(Tensor(x)).data
    assert np.array_equal(before, after)


@pytest.mark.parametrize("seed", [0, 1])
def test_two_block_model_input_gradient(seed):
    cfg = tiny_config(topology="context")
    model = build_model(cfg, seed=seed, dtype=np.float64).eval()
    rng = np.random.default_rng(seed + 60)
    x = Tensor(rng.standard_normal((2, 3, 12, 25)), requires_grad=True)
    labels = np.array([1, 4])

    err = check_gradient(lambda t: softmax_cross_entropy(model(t), labels), x, eps=1e-6)
    assert np.abs(x.grad).max() > 1e-6
    assert err < 1e-3


# -- the backward scratch arena -------------------------------------------

# The acceptance-gate model, trained at batch 16.
GATE_CONFIG = dict(layout="ntu25", n_classes=5, frames=24, channels=(16, 16, 32, 32),
                   strides=(1, 1, 2, 1), tc_kernel=5, aggregate_after=(2,),
                   topology="context")


def gate_batch():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((16, 1, 3, 24, 25)).astype(np.float32)
    return Tensor(x), rng.integers(0, 5, 16)


def graph_nodes(root):
    """Every tensor of the graph behind ``root``, ``root`` included."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._prev)
    return nodes


def tape_arrays(root):
    """Every array the graph behind ``root`` holds: node outputs and the
    arrays and tensors its closures keep, one tuple or list deep."""
    arrays = []
    for node in graph_nodes(root):
        arrays.append(node.data)
        for cell in (node._backward.__closure__ or ()) if node._backward else ():
            try:
                value = cell.cell_contents
            except ValueError:  # a name the op binds on another branch only
                continue
            for item in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(item, Tensor):
                    arrays.append(item.data)
                elif isinstance(item, np.ndarray):
                    arrays.append(item)
    return arrays


def test_pooled_scratch_never_escapes_a_train_step(monkeypatch):
    monkeypatch.setattr(tensor_module, "_SCRATCH", [])
    model = build_model(ModelConfig(**GATE_CONFIG), seed=0)
    x, labels = gate_batch()
    loss = softmax_cross_entropy(model(x), labels)
    tape = tape_arrays(loss)
    loss.backward()
    [arena] = tensor_module._SCRATCH
    held = tape + [p.grad for p in model.parameters()]
    assert len(held) > 200
    for array in held:
        assert not np.shares_memory(array, arena)


# After this gate step the role-keyed pool that the arena replaced held
# seven buffers of 10,403,840 bytes in all.
ROLE_POOL_BYTES = 10_403_840


def test_scratch_arena_is_the_largest_single_request(monkeypatch):
    monkeypatch.setattr(tensor_module, "_SCRATCH", [])
    requests = []

    def recorded(*specs, original=tensor_module._scratch):
        views = original(*specs)
        # the arrays a call takes and the bytes it lays out, each array's
        # start rounded up to 64
        requests.append((len(views), sum(-(-v.nbytes // 64) * 64 for v in views)))
        return views

    monkeypatch.setattr(tensor_module, "_scratch", recorded)
    monkeypatch.setattr(model_module, "_scratch", recorded)
    model = build_model(ModelConfig(**GATE_CONFIG), seed=0)
    x, labels = gate_batch()
    softmax_cross_entropy(model(x), labels).backward()
    # the t x 1 conv's three arrays, batch norm's two, and the one-array
    # calls of the conv's dcols and graph_conv
    assert {n for n, _ in requests} == {1, 2, 3}
    [arena] = tensor_module._SCRATCH
    assert arena.nbytes == max(nbytes for _, nbytes in requests) < ROLE_POOL_BYTES
    # a later call lays its arrays out from the arena's first byte again
    first, second = tensor_module._scratch(((3,), np.float32), ((5, 2), np.float64))
    assert first.ctypes.data == arena.ctypes.data
    assert second.ctypes.data == arena.ctypes.data + 64
    assert tensor_module._SCRATCH[0] is arena


def test_train_step_backward_calls_no_contraction_op(monkeypatch):
    # graph_conv's backward rebuilds only its stack, with numpy, and reruns
    # neither the graph product nor the 1x1 conv
    model = build_model(ModelConfig(**GATE_CONFIG), seed=0)
    x, labels = gate_batch()
    loss = softmax_cross_entropy(model(x), labels)
    calls = []
    for name in ("matmul", "conv2d"):
        def counted(*args, original=getattr(model_module, name), name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(model_module, name, counted)
    loss.backward()
    assert calls == []
    assert all(p.grad is not None for p in model.parameters() if p.requires_grad)


def array_base(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_backward_frees_each_activation_once_its_consumers_have_run(monkeypatch):
    # the input norm's backward runs last; by then every block's output has
    # had its last consumer's backward run, and nothing else holds it
    model = build_model(ModelConfig(**GATE_CONFIG), seed=0)
    x, labels = gate_batch()
    outputs, alive = [], []

    def keep_weakref(module):
        def forward(*args, original=module.forward, **kwargs):
            out = original(*args, **kwargs)
            outputs.append(weakref.ref(array_base(out.data)))
            return out

        monkeypatch.setattr(module, "forward", forward)

    for block in model.blocks:
        keep_weakref(block)

    def input_norm(*args, original=model.input_bn.forward, **kwargs):
        out = original(*args, **kwargs)
        backward = out._backward

        def checked(g):
            alive.append([i for i, ref in enumerate(outputs) if ref() is not None])
            backward(g)

        out._backward = checked
        return out

    monkeypatch.setattr(model.input_bn, "forward", input_norm)
    softmax_cross_entropy(model(x), labels).backward()
    assert len(outputs) == len(model.blocks) and alive == [[]]

    loss = softmax_cross_entropy(model(x), labels)
    ops = [node for node in graph_nodes(loss) if node._backward is not None]
    loss.backward()
    assert len(ops) > 100
    assert all(node._prev == () for node in ops)


def ntu_width_training_block():
    """ntu-like block 2 at B=2 in training mode: the block, its input, its output."""
    spec = BlockSpec(64, 64, in_frames=64, in_joints=25, out_joints=25, stride=1, tc_kernel=9)
    block = DynamicGConvBlock(spec, build_layout("ntu25"), ModelConfig("ntu25", 60),
                              np.random.default_rng(8))
    x = np.random.default_rng(9).standard_normal((2, 64, 64, 25)).astype(np.float32)
    x = Tensor(x, requires_grad=True)
    return block, x, block(x)


def test_block_training_graph_keeps_only_node_outputs_at_activation_size():
    # batch norm keeps its input, not x_hat, and the static route is added
    # in the dynamic conv's epilogue, not by an add
    _, x, y = ntu_width_training_block()
    nodes = graph_nodes(y)
    outputs = {id(array_base(node.data)) for node in nodes}
    strays = [a.shape for a in tape_arrays(y)
              if a.size >= x.data.size and id(array_base(a)) not in outputs]
    assert strays == []
    route_adds = [node.data.shape for node in nodes if node.data.size >= x.data.size
                  and node._backward is not None
                  and node._backward.__qualname__ == "add.<locals>.backward"]
    assert route_adds == []


def test_block_training_graph_keeps_no_graph_aggregation_stack():
    # graph_conv's (B, K*C, T, N) stack is rebuilt in backward, not kept
    block, x, y = ntu_width_training_block()
    k = block.topo.n_configs
    stacks = [a.shape for a in tape_arrays(y) if a.size >= k * x.data.size]
    assert stacks == []


def ntu_block5_static_route(batch):
    """ntu-like block 5 (64 -> 128 channels, 64 frames, 25 joints): its K
    shared graphs and lambda-scaled concatenated weight, and an input."""
    spec = BlockSpec(64, 128, in_frames=64, in_joints=25, out_joints=25, stride=2, tc_kernel=9)
    block = DynamicGConvBlock(spec, build_layout("ntu25"), ModelConfig("ntu25", 60),
                              np.random.default_rng(10))
    x = np.random.default_rng(11).standard_normal((batch, 64, 64, 25)).astype(np.float32)
    return block, x


def test_no_grad_static_route_builds_no_whole_batch_stack():
    # at B=16 the (B, K*C, T, N) stack alone would take 18.75 MiB
    block, x = ntu_block5_static_route(16)
    x = Tensor(x)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        with no_grad():
            y = static_branch(x, block.topo, block.static_convs, block.lambda_static)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < y.data.nbytes + (6 << 20)


def test_graph_conv_backward_takes_one_chunk_stack_at_a_time(monkeypatch):
    batch, c_in, c_out, t, n, k = 16, 64, 128, 64, 25, 3
    block, x = ntu_block5_static_route(batch)
    requests = []

    def recorded(*specs, original=tensor_module._scratch):
        requests.append(sum(math.prod(shape) * np.dtype(dtype).itemsize
                            for shape, dtype in specs))
        return original(*specs)

    monkeypatch.setattr(model_module, "_scratch", recorded)
    monkeypatch.setattr(tensor_module, "_SCRATCH", [])
    x = Tensor(x, requires_grad=True)
    y = static_branch(x, block.topo, block.static_convs, block.lambda_static)
    y.backward(np.ones_like(y.data))
    # as many samples as fit their stack and output in the budget
    chunk = tensor_module._COLS_BUDGET // ((k * c_in + c_out) * t * n * 4)
    assert 1 < chunk < batch
    # a stack, then its gradient in the same bytes, per chunk
    assert len(requests) == 2 * -(-batch // chunk)
    assert max(requests) == chunk * k * c_in * t * n * 4


@pytest.mark.parametrize("training", [True, False])
def test_no_grad_forward_takes_nothing_from_the_scratch_pool(monkeypatch, training):
    monkeypatch.setattr(tensor_module, "_SCRATCH", [])
    model = build_model(ModelConfig(**GATE_CONFIG), seed=0).train(training)
    with no_grad():
        model(gate_batch()[0])
    assert tensor_module._SCRATCH == []


# -- training bits and the BLAS thread count -----------------------------

# One train step of the gate model per learner at a fixed seed; prints the
# SHA-256 of every parameter gradient as one JSON object.
GRADIENT_PROBE = """
import hashlib, json, sys
import numpy as np
from dyngcn.model import ModelConfig, build_model
from dyngcn.tensor import Tensor, softmax_cross_entropy

hashes = {}
for label, config, shape in json.loads(sys.argv[1]):
    model = build_model(ModelConfig(**config), seed=5)
    rng = np.random.default_rng(23)
    x = rng.standard_normal(shape).astype(np.float32)
    labels = rng.integers(0, config["n_classes"], shape[0])
    softmax_cross_entropy(model(Tensor(x)), labels).backward()
    for name, p in model.named_parameters():
        hashes[f"{label}/{name}"] = hashlib.sha256(p.grad.tobytes()).hexdigest()
print(json.dumps(hashes))
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (label, model config, input shape): the gate model with either learner at
# B=16, and a 2-person ntu-like step at B=2 for the 64- to 256-channel maps
GRADIENT_PROBE_CASES = [
    ("gate-context", dict(GATE_CONFIG, topology="context"), (16, 1, 3, 24, 25)),
    ("gate-nonlocal", dict(GATE_CONFIG, topology="nonlocal"), (16, 1, 3, 24, 25)),
    ("ntu-like", asdict(model_preset("ntu-like")), (2, 2, 3, 64, 25)),
]


def probe_gradient_hashes(threads):
    """Run the gradient probe in a child process at ``threads`` BLAS threads;
    ``subprocess.run`` waits for it and kills it if it overruns."""
    src = str(Path(model_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    arg = json.dumps(GRADIENT_PROBE_CASES)
    done = subprocess.run([sys.executable, "-c", GRADIENT_PROBE, arg], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_train_step_gradients_do_not_depend_on_the_blas_thread_count():
    one, two = probe_gradient_hashes(1), probe_gradient_hashes(2)
    assert len(one) > 300 and one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []


# -- modalities ---------------------------------------------------------


def test_derive_bone_two_joint_example():
    layout = SkeletonLayout("pair", 2, ((0, 1),), 0, ((0, 1),))
    coords = np.zeros((3, 2, 2))  # (C, T, N)
    coords[:, 0, 0] = [1.0, 2.0, 3.0]
    coords[:, 0, 1] = [4.0, 6.0, 8.0]
    bones = derive_bone(coords, layout)
    assert np.array_equal(bones[:, 0, 1], [3.0, 4.0, 5.0])
    assert np.array_equal(bones[:, :, 0], np.zeros((3, 2)))


def test_derive_bone_translation_invariant():
    layout = build_layout("ntu25")
    rng = np.random.default_rng(16)
    coords = rng.standard_normal((2, 3, 5, 25))
    shift = rng.standard_normal((1, 3, 1, 1))
    assert np.allclose(derive_bone(coords + shift, layout), derive_bone(coords, layout),
                       atol=1e-12)


def test_derive_bone_center_zero():
    layout = build_layout("ntu25")
    coords = np.random.default_rng(17).standard_normal((3, 4, 25))
    bones = derive_bone(coords, layout)
    assert np.array_equal(bones[:, :, layout.center_joint], np.zeros((3, 4)))


def test_derive_motion_telescopes():
    rng = np.random.default_rng(18)
    coords = rng.standard_normal((2, 3, 6, 4))
    motion = derive_motion(coords)
    assert np.array_equal(motion[..., -1, :], np.zeros_like(motion[..., -1, :]))
    assert np.allclose(motion.sum(axis=-2), coords[..., -1, :] - coords[..., 0, :],
                       atol=1e-12)


def test_apply_modality_dispatch():
    layout = build_layout("ntu25")
    coords = np.random.default_rng(19).standard_normal((3, 4, 25))
    assert np.array_equal(apply_modality(coords, "joint", layout), coords)
    bm = apply_modality(coords, "bone_motion", layout)
    assert np.allclose(bm, derive_motion(derive_bone(coords, layout)), atol=1e-12)


def test_ensemble_logits_changes_argmax():
    a = np.array([[2.0, 1.9, 0.0]])
    b = np.array([[0.0, 1.5, 0.2]])
    summed = ensemble_logits([a, b])
    assert np.array_equal(summed, [[2.0, 3.4, 0.2]])
    assert a.argmax() == 0 and summed.argmax() == 1
