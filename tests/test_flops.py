import time
from dataclasses import replace

import numpy as np
import pytest

import dyngcn.layers as d_layers
import dyngcn.topology as d_topology
from dyngcn.flops import (
    CostReport,
    count_conv_flops,
    count_graph_mult_flops,
    count_learner_flops,
    count_model_flops,
    overhead_report,
)
from dyngcn.config import model_preset, run_preset
from dyngcn.model import ModelConfig, build_model
from dyngcn.tensor import Tensor, no_grad
from dyngcn.topology import LEARNERS, ContextEncoder, NonLocalTopology, context_stages

# Hand-summed closed forms for the 10-block 25-joint configuration
# (3 graph products and 3 pointwise convs per static branch, 9x1 temporal
# conv, strided shortcuts at blocks 1/5/8, projections after 5/8, final
# classifier).  Worked out independently on paper before the walker
# existed; the walker must land on them exactly.
NTU_STATIC_TOTAL = 2_230_588_544
NTU_LEARNER_EXTRA = 195_934_168

# The schedules the paper's 2x-4x FLOP claim compares against, priced by the
# same walker at the same input as the preset (64 frames, 25 joints, one
# person, one stream): ST-GCN-like has no learner and no joint aggregation,
# 2s-AGCN-like the non-local learner and no aggregation.
STGCN_LIKE_TOTAL = 3_601_749_120
AGCN_LIKE_TOTAL = 4_042_341_320


def ntu_config(**overrides):
    args = dict(layout="ntu25", n_classes=60)
    args.update(overrides)
    return ModelConfig(**args)


# -- closed-form op counts ----------------------------------------------


def test_pointwise_conv_flops():
    assert count_conv_flops((64, 64, 25), (64, 64, 1)) == 13_107_200


def test_single_position_conv_flops():
    assert count_conv_flops((7, 1, 1), (13, 7, 1)) == 2 * 7 * 13


def test_stride_two_halves_count():
    full = count_conv_flops((8, 16, 5), (8, 8, 3), stride=1, pad=1)
    half = count_conv_flops((8, 16, 5), (8, 8, 3), stride=2, pad=1)
    assert half * 2 == full


def test_graph_mult_flops():
    assert count_graph_mult_flops(25, 64, 64) == 5_120_000
    assert count_graph_mult_flops(1, 7, 9) == 2 * 7 * 9
    assert count_graph_mult_flops(25, 64, 64, n_graphs=3) == 3 * 5_120_000


# -- learner costs and parameter counts ---------------------------------

LEARNER_KINDS = [kind for kind in LEARNERS if kind != "none"]


def context_encoder(c, t, n, axis, symmetric=False):
    return ContextEncoder(c, t, n, axis, symmetric, True, np.random.default_rng(0))


def learner_modules(c, t, n):
    return {
        "context": context_encoder(c, t, n, "joint"),
        "context-symmetric": context_encoder(c, t, n, "joint", symmetric=True),
        "context-feature": context_encoder(c, t, n, "feature"),
        "context-temporal": context_encoder(c, t, n, "temporal"),
        "nonlocal": NonLocalTopology(c, np.random.default_rng(0)),
    }


def parameter_count(module):
    return sum(int(np.prod(p.data.shape)) for p in module.parameters())


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_learner_param_count_matches_modules(kind):
    # a context encoder holds one conv per stage of its geometry and one
    # batch norm (scale and shift) per conv output; the non-local baseline
    # holds two C -> E embeddings
    c, t, n = 6, 10, 5
    module = learner_modules(c, t, n)[kind]
    if kind == "nonlocal":
        expected = 2 * module.embed_query.weight.data.shape[0] * c
    else:
        stages = context_stages(LEARNERS[kind][0], c, t, n)
        expected = sum(w_in * w_out + 2 * w_out for w_in, w_out, _ in stages)
    assert parameter_count(module) == expected


def test_temporal_variant_final_kernel_scales_with_frames():
    c, t, n = 64, 64, 25
    base = parameter_count(context_encoder(c, t, n, "joint"))
    temporal = parameter_count(context_encoder(c, t, n, "temporal"))
    # the squeezes bind (C, T) and (C, N), and the final mapping kernels
    # differ by (T - N) * N^2 weights
    assert temporal - base == (t - n) * n * n + (n - t)


@pytest.mark.parametrize("shape", [(6, 10, 5), (7, 3, 11)], ids=["6x10x5", "7x3x11"])
@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_learner_flops_match_traced_contractions(kind, shape, monkeypatch):
    # every matmul and conv2d a learner's forward runs, counted at 2 FLOPs
    # per multiply-add, against the closed form
    c, t, n = shape
    batch = 3
    traced = []

    def counting(name, original):
        def op(*args, **kwargs):
            out = original(*args, **kwargs)
            inner = (args[0].data.shape[-1] if name == "matmul"
                     else args[1].data.shape[1] * args[1].data.shape[2])
            traced.append(2 * out.data.size * inner)
            return out
        return op

    monkeypatch.setattr(d_layers, "conv2d", counting("conv2d", d_layers.conv2d))
    monkeypatch.setattr(d_topology, "matmul", counting("matmul", d_topology.matmul))
    module = learner_modules(c, t, n)[kind]
    x = np.random.default_rng(4).standard_normal((batch, c, t, n)).astype(np.float32)
    with no_grad():
        assert module(Tensor(x)).shape == (batch, n, n)
    assert sum(traced) == batch * count_learner_flops(kind, c, t, n)


def test_learner_flops_closed_forms():
    c, t, n = 3, 4, 3
    assert count_learner_flops("context", c, t, n) == 2 * c * t * n + 2 * t * n + 2 * n**3
    assert count_learner_flops("context-temporal", c, t, n) == (
        2 * c * t * n + 2 * n * t + 2 * t * n * n)
    assert count_learner_flops("nonlocal", c, t, n) == 2 * (2 * c * 4 * t * n) + 2 * n * n * 4


# -- model walker -------------------------------------------------------


def test_toy_model_hand_summed(tmp_path):
    layout_file = tmp_path / "chain3.layout"
    layout_file.write_text(
        "name chain3\njoints 3\ncenter 0\n"
        "edge 0 1\nedge 1 2\nbone 0 1\nbone 1 2\n"
    )
    cfg = ModelConfig(layout=str(layout_file), n_classes=2, frames=4,
                      channels=(4,), strides=(1,), tc_kernel=3,
                      aggregate_after=(), topology="context")
    static = 3 * (2 * 9 * 3 * 4) + 3 * (2 * 3 * 4 * 4 * 3)      # graphs + convs
    tc = 2 * 4 * 4 * 3 * 4 * 3
    shortcut = 2 * 3 * 4 * 4 * 3
    classifier = 2 * 4 * 2
    without = count_model_flops(cfg, include_cen=False)
    assert without.total == static + tc + shortcut + classifier == 2968

    learner = (2 * 3 * 4 * 3) + (2 * 4 * 3) + (2 * 27)
    dynamic = (2 * 9 * 3 * 4) + (2 * 3 * 4 * 4 * 3)
    with_cen = count_model_flops(cfg, include_cen=True)
    assert with_cen.total == without.total + learner + dynamic == 3622


def test_ntu_totals_match_hand_derivation():
    without = count_model_flops(ntu_config(), include_cen=False)
    with_cen = count_model_flops(ntu_config(), include_cen=True)
    assert without.total == NTU_STATIC_TOTAL
    assert with_cen.total == NTU_STATIC_TOTAL + NTU_LEARNER_EXTRA


def test_paper_baselines_cost_under_twice_the_preset_at_equal_input():
    dynamic = NTU_STATIC_TOTAL + NTU_LEARNER_EXTRA
    stgcn = count_model_flops(ntu_config(topology="none", aggregate_after=()),
                              include_cen=False)
    agcn = count_model_flops(ntu_config(topology="nonlocal", aggregate_after=()))
    assert (stgcn.total, agcn.total) == (STGCN_LIKE_TOTAL, AGCN_LIKE_TOTAL)
    assert [round(total / dynamic, 2) for total in (stgcn.total, agcn.total)] == [1.48, 1.67]


def test_ntu_static_total_in_published_band():
    total = count_model_flops(ntu_config(), include_cen=False).total
    assert 1.86e9 * 0.75 <= total <= 1.86e9 * 1.25


def test_ntu_learner_overhead_ratio():
    without = count_model_flops(ntu_config(), include_cen=False)
    with_cen = count_model_flops(ntu_config(), include_cen=True)
    ratio = overhead_report(without, with_cen).ratio
    assert 0.04 <= ratio <= 0.10


def test_report_runtime_under_a_second():
    start = time.perf_counter()
    count_model_flops(ntu_config(), include_cen=True)
    count_model_flops(ntu_config(), include_cen=False)
    assert time.perf_counter() - start < 1.0


def test_persons_multiplier():
    one = count_model_flops(ntu_config(), include_cen=False, persons=1)
    two = count_model_flops(ntu_config(), include_cen=False, persons=2)
    assert two.total == 2 * one.total
    assert two.minor_ops == 2 * one.minor_ops


def test_learner_rows_zero_without_strictly_positive_with():
    without = count_model_flops(ntu_config(), include_cen=False)
    with_cen = count_model_flops(ntu_config(), include_cen=True)
    assert [e.name for e in without.entries] == [e.name for e in with_cen.entries]
    for a, b in zip(without.entries, with_cen.entries):
        if ".learner" in a.name or ".dynamic" in a.name:
            assert a.flops == 0 and b.flops > 0
        else:
            assert a.flops == b.flops
    assert with_cen.total > without.total


def test_counts_independent_of_lambda_only_via_static_rows():
    lam0 = count_model_flops(ntu_config(lambda_static=0.0), include_cen=True)
    for entry in lam0.entries:
        if ".static" in entry.name:
            assert entry.flops == 0


def test_aggregation_shrinks_downstream_costs():
    with_agg = count_model_flops(ntu_config(), include_cen=False)
    no_agg = count_model_flops(ntu_config(aggregate_after=()), include_cen=False)
    shrunk = {e.name: e.flops for e in with_agg.entries}
    full = {e.name: e.flops for e in no_agg.entries}
    for name in ("block6.static", "block6.tc", "block9.static", "block10.tc"):
        assert shrunk[name] < full[name]
    assert with_agg.total < no_agg.total


@pytest.mark.parametrize("config", [
    model_preset("toy"),
    run_preset("smoke").model,
    replace(run_preset("smoke").model, frames=15),
], ids=["toy", "smoke", "smoke-odd-frames"])
def test_block_output_shapes_match_last_cost_row(config):
    # each block's last shape-changing cost row (tc, or project after it)
    # carries the shape that block really hands to the next
    model = build_model(config, seed=0).eval()
    captured = []

    def capture(forward):
        def wrapped(x):
            out = forward(x)
            captured.append(out.shape[1:])
            return out
        return wrapped

    for block in model.blocks:
        block.forward = capture(block.forward)
    x = np.random.default_rng(3).standard_normal((2, 2, 3, config.frames, 25))
    with no_grad():
        model(Tensor(x.astype(np.float32)))
    report = count_model_flops(config)
    assert len(captured) == len(config.channels)
    for i, shape in enumerate(captured, start=1):
        rows = {e.name: e for e in report.entries}
        last = rows.get(f"block{i}.project", rows[f"block{i}.tc"])
        assert shape == last.out_shape


def test_model_flops_rejects_learnerless_config():
    with pytest.raises(ValueError, match="no topology learner"):
        count_model_flops(ntu_config(topology="none"), include_cen=True)


# -- reports ------------------------------------------------------------


def test_cost_report_total_is_sum():
    report = CostReport("demo")
    report.add("a", (1,), (1,), 10)
    report.add("b", (1,), (1,), 5)
    assert report.total == 15


def test_overhead_identical_reports():
    a = count_model_flops(ntu_config(), include_cen=False)
    b = count_model_flops(ntu_config(), include_cen=False)
    assert overhead_report(a, b).ratio == 0.0


def test_overhead_uniform_scaling():
    a = CostReport("a")
    b = CostReport("b")
    for name, flops in [("x", 100), ("y", 300)]:
        a.add(name, (1,), (1,), flops)
        b.add(name, (1,), (1,), int(flops * 1.07))
    report = overhead_report(a, b)
    assert abs(report.ratio - 0.07) < 1e-9
    for _, base, other, diff in report.rows:
        assert diff == other - base


def test_report_renderings():
    report = count_model_flops(ntu_config(), include_cen=True)
    text = report.as_text()
    assert "block5.project" in text and "classifier" in text
    kv = report.as_kv()
    assert f"total={report.total}" in kv
    assert "layer.0.name=block1.static" in kv
