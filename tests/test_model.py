import numpy as np
import pytest

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
    conv2d,
    matmul,
    mul,
    no_grad,
    permute,
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
    conv = Conv2d(channels, channels, dtype=dtype)
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
    topo = TopologySet.from_layout(layout, dtype=np.float64)
    for k in range(3):
        topo.mask[k].data[:] = rng.standard_normal((n, n)) * 0.1
    convs = [Conv2d(c_in, c_out, rng=rng, dtype=np.float64) for _ in range(3)]
    x = rng.standard_normal((b, c_in, t, n))
    out = static_branch(Tensor(x), topo, convs).data
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
    out = static_branch(Tensor(x), topo, [conv]).data
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
    with pytest.raises(ValueError, match="batch"):
        dynamic_branch(Tensor(np.zeros((2, 1, 5, 4))), Tensor(np.zeros((3, 4, 4))), conv)


def per_sample_graph_conv(graph, x, weight):
    """The dynamic route before ``graph_conv``: one (C*T) x N by N x N product
    per sample on the (B, C*T, N) view, then the 1x1 channel map."""
    batch, channels, frames, n = x.data.shape
    rows = reshape(x, (batch, channels * frames, n))
    aggregated = reshape(matmul(rows, permute(graph, (0, 2, 1))), x.data.shape)
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


def random_static_route(rng, n, c_in, c_out, dtype=np.float64):
    """Chain topology with random masks, plus one random 1x1 map per configuration."""
    topo = TopologySet.from_layout(chain_layout(n), dtype=dtype)
    for k in range(3):
        topo.mask[k].data[:] = rng.standard_normal((n, n)) * 0.1
    return topo, [Conv2d(c_in, c_out, rng=rng, dtype=dtype) for _ in range(3)]


def test_static_branch_lambda_scales_route():
    rng = np.random.default_rng(3)
    n, c_in, c_out = 5, 3, 4
    topo, convs = random_static_route(rng, n, c_in, c_out)
    x = Tensor(rng.standard_normal((2, c_in, 4, n)))
    unit = static_branch(x, topo, convs).data
    assert np.array_equal(static_branch(x, topo, convs, 1.0).data, unit)
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


def small_block(out_channels=3, frames=6, out_joints=4, stride=1, **overrides):
    spec = BlockSpec(in_channels=3, out_channels=out_channels, in_frames=frames,
                     in_joints=4, out_joints=out_joints, stride=stride, tc_kernel=3)
    args = dict(layout=chain_layout(4), topology="context",
                rng=np.random.default_rng(5), dtype=np.float64)
    args.update(overrides)
    return DynamicGConvBlock(spec, **args)


def test_block_zero_weights_reduces_to_relu_shortcut():
    block = small_block().eval()
    for _, p in block.named_parameters():
        p.data[:] = 0.0
    x = np.random.default_rng(6).standard_normal((2, 3, 6, 4))
    out = block(Tensor(x)).data
    assert np.array_equal(out, np.maximum(x, 0.0))


def test_block_output_shape_with_stride_and_projection():
    block = small_block(out_channels=5, stride=2, out_joints=3)
    x = Tensor(np.zeros((2, 3, 6, 4)))
    out = block(x)
    assert out.shape == (2, 5, 3, 3)
    assert block.spec.out_frames == 3 and block.spec.out_joints == 3


def test_block_odd_length_stride_two():
    block = small_block(frames=7, stride=2)
    out = block(Tensor(np.zeros((1, 3, 7, 4))))
    assert out.shape[2] == 4  # ceil(7 / 2)


def test_block_learner_captures_adjacency():
    block = small_block()
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 6, 4)))
    spec = block.spec
    assert (2, spec.in_channels, spec.in_frames, spec.in_joints) == (2, 3, 6, 4)
    assert block.learner(x).shape == (2, 4, 4)


def test_block_static_only_has_no_learner_parameters():
    block = small_block(topology="none")
    names = [name for name, _ in block.named_parameters()]
    assert not any("learner" in n or "dynamic" in n for n in names)
    out = block(Tensor(np.zeros((1, 3, 6, 4))))
    assert out.shape == (1, 3, 6, 4)


def test_block_lambda_zero_ignores_static_parameters():
    rng = np.random.default_rng(8)
    x = np.random.default_rng(9).standard_normal((2, 3, 6, 4))
    block = small_block(lambda_static=0.0, rng=rng).eval()
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
    scaled = small_block(lambda_static=lam, rng=np.random.default_rng(8)).eval()
    folded = small_block(lambda_static=1.0, rng=np.random.default_rng(8)).eval()
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
    block = DynamicGConvBlock(spec, build_layout("ntu25"), rng=np.random.default_rng(8)).eval()
    x = np.random.default_rng(9).standard_normal((3, 64, 32, 25)).astype(np.float32)
    with no_grad():
        full = block(Tensor(x)).data
        for i in range(3):
            assert np.array_equal(full[i], block(Tensor(x[i : i + 1])).data[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_gradient_end_to_end(seed):
    block = small_block(rng=np.random.default_rng(seed)).eval()
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


def test_model_config_round_trip():
    cfg = ModelConfig(layout="ntu25", n_classes=60)
    again = ModelConfig.from_dict(cfg.to_dict())
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
    path = joint_path(block.spec for block in model.blocks)
    assert path[0] == (25, 15)
    assert path[1] == (15, 15)


def test_model_rejects_wrong_frames():
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError, match="T=12"):
        model(Tensor(np.zeros((1, 3, 10, 25))))


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
    with pytest.raises(ValueError, match="unknown modality"):
        apply_modality(coords, "wavelet", layout)


def test_ensemble_logits_changes_argmax():
    a = np.array([[2.0, 1.9, 0.0]])
    b = np.array([[0.0, 1.5, 0.2]])
    summed = ensemble_logits([a, b])
    assert np.array_equal(summed, [[2.0, 3.4, 0.2]])
    assert a.argmax() == 0 and summed.argmax() == 1


def test_ensemble_logits_shape_check():
    with pytest.raises(ValueError, match="shapes differ"):
        ensemble_logits([np.zeros((1, 3)), np.zeros((2, 3))])
