"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Training-backed criteria share one session-scoped set of runs; the whole
module finishes in a few minutes on a desktop CPU.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dyngcn.checkpoint import load_checkpoint
from dyngcn.config import RunConfig
from dyngcn.data import SynthSpec, load_sequence, save_sequence, synth_generate
from dyngcn.flops import count_model_flops, overhead_report
from dyngcn.gradcheck import check_gradient
from dyngcn.layers import Conv2d
from dyngcn.model import ModelConfig, build_model, dynamic_branch, static_branch
from dyngcn.skeleton import SkeletonLayout, TopologySet, normalize_adjacency
from dyngcn.tensor import (
    Tensor,
    add,
    batch_norm,
    conv2d,
    l2_row_normalize,
    matmul,
    mean_pool_global,
    mul,
    neg,
    no_grad,
    permute,
    relu,
    reshape,
    scale,
    softmax,
    softmax_cross_entropy,
    tensor_mean,
    tensor_sum,
)
from dyngcn.topology import ContextEncoder, NonLocalTopology
from dyngcn.train import collect_logits, ensemble_checkpoints, train

SEEDS = [3, 5, 7, 11, 13]


def report(number, label):
    print(f"\ncriterion {number} ({label}): PASS")


# -- 1: cost accounting -------------------------------------------------


def test_criterion_1_flops_reproduction():
    started = time.perf_counter()
    config = ModelConfig(layout="ntu25", n_classes=60)
    without = count_model_flops(replace(config, topology="none"))
    with_cen = count_model_flops(config)
    elapsed = time.perf_counter() - started

    assert 1.86e9 * 0.75 <= without.total <= 1.86e9 * 1.25, without.total
    ratio = overhead_report(without, with_cen).ratio
    assert 0.04 <= ratio <= 0.10, ratio
    assert elapsed < 1.0, elapsed
    report(1, f"flops: total {without.total:,}, overhead {ratio:.4f}, {elapsed * 1e3:.0f} ms")


# -- 2: gradient checks -------------------------------------------------


def _op_cases(rng):
    """One scalar-valued probe per differentiable operation.

    Every constant is drawn up front: the probes must be fixed functions
    of their input or central differences would chase a moving target.
    """
    x34 = rng.standard_normal((3, 4))
    w34 = Tensor(rng.standard_normal((3, 4)))
    x245 = rng.standard_normal((2, 4, 5))
    add_rhs = Tensor(rng.standard_normal((3, 4)))
    mul_rhs = Tensor(rng.standard_normal((3, 4)) + 2.0)
    w26 = Tensor(rng.standard_normal((2, 6)))
    w524 = Tensor(rng.standard_normal((5, 2, 4)))
    w25 = Tensor(rng.standard_normal((2, 5)))
    mat_rhs = Tensor(rng.standard_normal((2, 4, 2)))
    mat_w = Tensor(rng.standard_normal((2, 3, 2)))
    conv_w = Tensor(rng.standard_normal((3, 2, 3, 1)) * 0.4)
    conv_out_w = Tensor(rng.standard_normal((2, 3, 3, 3)))
    bn_g = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    bn_b = Tensor(rng.standard_normal(4), requires_grad=True)
    x_bn = rng.standard_normal((3, 4, 2, 2))
    bn_w = Tensor(rng.standard_normal(x_bn.shape))
    pool_w = Tensor(rng.standard_normal((2, 3)))
    labels = rng.integers(0, 4, size=3)

    def weighted(op):
        return lambda t: mul(op(t), w34).sum()

    cases = {
        "add": (x34, weighted(lambda t: add(t, add_rhs))),
        "mul": (x34, weighted(lambda t: mul(t, mul_rhs))),
        "neg": (x34, weighted(neg)),
        "scale": (x34, weighted(lambda t: scale(t, -1.7))),
        "relu": (x34 + 0.05, weighted(relu)),
        "reshape": (x34, lambda t: mul(reshape(t, (2, 6)), w26).sum()),
        "permute": (x245, lambda t: mul(permute(t, (2, 0, 1)), w524).sum()),
        "sum": (x34, lambda t: tensor_sum(mul(t, w34))),
        "mean": (x245, lambda t: mul(tensor_mean(t, axis=1), w25).sum()),
        "matmul": (rng.standard_normal((2, 3, 4)),
                   lambda t: mul(matmul(t, mat_rhs), mat_w).sum()),
        "conv2d": (rng.standard_normal((2, 2, 6, 3)),
                   lambda t: mul(conv2d(t, conv_w, stride_t=2, pad_t=1),
                                 conv_out_w).sum()),
        "batch_norm_train": (x_bn,
                             lambda t: mul(batch_norm(t, bn_g, bn_b, np.zeros(4), np.ones(4),
                                                      training=True),
                                           bn_w).sum()),
        "batch_norm_eval": (x_bn,
                            lambda t: mul(
                                batch_norm(t, bn_g, bn_b,
                                           running_mean=np.zeros(4),
                                           running_var=np.ones(4),
                                           training=False),
                                bn_w).sum()),
        "softmax": (x34, weighted(lambda t: softmax(t, axis=-1))),
        "l2_row_normalize": (x34 + 0.5, weighted(l2_row_normalize)),
        "mean_pool_global": (rng.standard_normal((2, 3, 4, 5)),
                             lambda t: mul(mean_pool_global(t), pool_w).sum()),
        "softmax_cross_entropy": (rng.standard_normal((3, 4)),
                                  lambda t: softmax_cross_entropy(t, labels)),
    }
    return cases


def test_criterion_2_gradient_checks():
    worst_op = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for name, (data, fn) in _op_cases(rng).items():
            x = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
            err = check_gradient(fn, x, eps=1e-6)
            assert err < 1e-4, f"{name} at seed {seed}: {err}"
            worst_op = max(worst_op, err)

    worst_model = 0.0
    config = ModelConfig(layout="ntu25", n_classes=5, frames=12,
                         channels=(4, 8), strides=(1, 2), tc_kernel=3,
                         aggregate_after=(1,), topology="context")
    for seed in SEEDS:
        model = build_model(config, seed=seed, dtype=np.float64).eval()
        rng = np.random.default_rng(seed + 100)
        x = Tensor(rng.standard_normal((2, 3, 12, 25)), requires_grad=True)
        labels = rng.integers(0, 5, size=2)
        err = check_gradient(lambda t: softmax_cross_entropy(model(t), labels),
                             x, eps=1e-6)
        assert np.abs(x.grad).max() > 1e-6, f"degenerate gradient at seed {seed}"
        assert err < 1e-3, f"composite model at seed {seed}: {err}"
        worst_model = max(worst_model, err)
    report(2, f"gradients: worst op {worst_op:.2e}, worst composite {worst_model:.2e}, "
              f"{len(SEEDS)} seeds")


# -- 3: topology-learner invariants -------------------------------------


def test_criterion_3_learner_invariants():
    c, t, n = 4, 8, 6
    rng = np.random.default_rng(0)
    directed = ContextEncoder(c, t, n, axis="joint", symmetric=False, final_relu=True, rng=rng)
    symmetric = ContextEncoder(c, t, n, axis="joint", symmetric=True, final_relu=True, rng=rng)
    nonlocal_ = NonLocalTopology(c, rng=rng)

    checked = 0
    asymmetric_hits = 0
    for batch_index in range(5):
        x = Tensor(rng.standard_normal((20, c, t, n)))
        out = directed(x).data
        norms = np.linalg.norm(out, axis=2)
        assert np.all((np.abs(norms - 1.0) <= 1e-5) | (norms <= 1e-5))
        gaps = np.abs(out - out.transpose(0, 2, 1)).max(axis=(1, 2))
        asymmetric_hits += int((gaps > 1e-6).sum())

        pre = symmetric.scores(x).data
        assert np.array_equal(pre, pre.transpose(0, 2, 1))

        row_sums = nonlocal_(x).data.sum(axis=2)
        assert np.abs(row_sums - 1.0).max() <= 1e-6
        checked += x.data.shape[0]
    assert checked == 100
    assert asymmetric_hits == checked, f"only {asymmetric_hits}/{checked} asymmetric"

    for learner in (directed, symmetric, nonlocal_):
        learner.eval()
        x = rng.standard_normal((4, c, t, n))
        with no_grad():
            full = learner(Tensor(x)).data
            singles = [learner(Tensor(x[i : i + 1])).data[0] for i in range(4)]
        assert all(np.array_equal(full[i], singles[i]) for i in range(4))
    report(3, f"learner invariants over {checked} inputs + exact eval batching")


# -- 4: oracle equivalence ----------------------------------------------


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(42)

    worst_branch = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 9))
        c_in, c_out, t, b = 3, 4, 4, 2
        edges = tuple((i, i + 1) for i in range(n - 1))
        layout = SkeletonLayout(f"chain{n}", n, edges, 0, edges)
        topo = TopologySet.from_layout(layout, 0.001, dtype=np.float64)
        for k in range(3):
            topo.mask[k].data[:] = rng.standard_normal((n, n)) * 0.2
        convs = [Conv2d(c_in, c_out, rng=rng, dtype=np.float64) for _ in range(3)]
        x = rng.standard_normal((b, c_in, t, n))

        got = static_branch(Tensor(x), topo, convs, 1.0).data
        expected = np.zeros_like(got)
        graphs = topo.static_topology().data
        for k in range(3):
            g = graphs[k]
            w = convs[k].weight.data[:, :, 0, 0]
            for bi in range(b):
                for ti in range(t):
                    expected[bi, :, ti, :] += w @ (x[bi, :, ti, :] @ g.T)
        worst_branch = max(worst_branch, np.abs(got - expected).max())

        graphs = rng.standard_normal((b, n, n))
        dyn_conv = Conv2d(c_in, c_out, rng=rng, dtype=np.float64)
        got = dynamic_branch(Tensor(x), Tensor(graphs), dyn_conv).data
        expected = np.zeros_like(got)
        wd = dyn_conv.weight.data[:, :, 0, 0]
        for bi in range(b):
            for ti in range(t):
                expected[bi, :, ti, :] = wd @ (x[bi, :, ti, :] @ graphs[bi].T)
        worst_branch = max(worst_branch, np.abs(got - expected).max())
    assert worst_branch < 1e-5, worst_branch

    worst_norm = 0.0
    for trial in range(6):
        n = int(rng.integers(2, 11))
        a = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
        if trial % 2 == 0:
            a[0, :] = 0.0  # isolated node: all-zero row
        got = normalize_adjacency(a, alpha_degree=0.001)
        lam = np.diag(1.0 / np.sqrt(a.sum(axis=1) + 0.001))
        worst_norm = max(worst_norm, np.abs(got - lam @ a @ lam).max())
    assert worst_norm < 1e-12, worst_norm
    report(4, f"oracles: branches {worst_branch:.2e}, normalization {worst_norm:.2e}")


# -- 5: shape and aggregation contract ----------------------------------


def test_criterion_5_shape_contract():
    ntu = build_model(ModelConfig(layout="ntu25", n_classes=60), seed=0)
    out = ntu(Tensor(np.zeros((1, 3, 64, 25), dtype=np.float32)))
    assert out.shape == (1, 60)
    joint_path = [(spec.in_joints, spec.out_joints)
                  for spec in ntu.config.block_plan(ntu.layout.n_joints)]
    assert [j for j, _ in joint_path] == [25] * 5 + [15] * 3 + [9] * 2
    assert joint_path[4] == (25, 15) and joint_path[7] == (15, 9)

    kinetics = build_model(
        ModelConfig(layout="openpose18", n_classes=400, frames=150), seed=0
    )
    out = kinetics(Tensor(np.zeros((1, 3, 150, 18), dtype=np.float32)))
    assert out.shape == (1, 400)
    joint_path = [(spec.in_joints, spec.out_joints)
                  for spec in kinetics.config.block_plan(kinetics.layout.n_joints)]
    assert [j for j, _ in joint_path] == [18] * 5 + [11] * 3 + [7] * 2
    report(5, "shapes: 25->15->9 after blocks 5 and 8; 18->11->7 accepted")


# -- 6 and 7: learning gates --------------------------------------------

DATASET_SEED = 100
CHANCE = 1.0 / 5.0


def _gate_config(root, name, seed=0, modality="joint", **model_overrides):
    margs = dict(layout="ntu25", n_classes=5, frames=24,
                 channels=(16, 16, 32, 32), strides=(1, 1, 2, 1),
                 tc_kernel=5, aggregate_after=(2,), topology="context")
    margs.update(model_overrides)
    return RunConfig(
        model=ModelConfig(**margs),
        train_manifest=str(root / "data" / "train.manifest"),
        test_manifest=str(root / "data" / "test.manifest"),
        out_dir=str(root / name), modality=modality,
        lr=0.1, weight_decay=0.0004, batch_size=16,
        total_epochs=30, milestones=(20, 26), decay=0.1, seed=seed,
    )


@pytest.fixture(scope="session")
def learning_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gates")
    spec = SynthSpec(n_classes=5, samples_per_class=40, test_per_class=20,
                     layout="ntu25", frames=32, noise_sigma=0.05,
                     seed=DATASET_SEED)
    synth_generate(root / "data", spec)

    started = time.perf_counter()
    runs = {}
    for seed in range(3):
        runs[f"cen{seed}"] = train(_gate_config(root, f"cen{seed}", seed=seed))
        runs[f"static{seed}"] = train(
            _gate_config(root, f"static{seed}", seed=seed, topology="none")
        )
    runs["dynamic"] = train(_gate_config(root, "dynamic", lambda_static=0.0))
    for modality in ("bone", "joint_motion", "bone_motion"):
        runs[modality] = train(_gate_config(root, modality, modality=modality))
    elapsed = time.perf_counter() - started
    return root, runs, elapsed


def _best_top1(result):
    return max(r.top1 for r in result.log.records)


def test_criterion_6_learning_gate(learning_runs):
    _, runs, elapsed = learning_runs
    fused = _best_top1(runs["cen0"])
    dynamic_only = _best_top1(runs["dynamic"])
    assert fused >= 0.90, f"static+learner reached only {fused:.3f}"
    assert dynamic_only >= 0.80, f"learner-only reached only {dynamic_only:.3f}"
    assert elapsed < 1200, f"training took {elapsed:.0f}s"
    report(6, f"learning gate: fused {fused:.3f}, learner-only {dynamic_only:.3f}, "
              f"all runs {elapsed:.0f}s")


def test_criterion_7_ablation_ordering(learning_runs):
    root, runs, _ = learning_runs
    fused = np.mean([_best_top1(runs[f"cen{s}"]) for s in range(3)])
    static = np.mean([_best_top1(runs[f"static{s}"]) for s in range(3)])
    assert fused >= static >= CHANCE, (fused, static)

    streams = [runs["cen0"], runs["bone"], runs["joint_motion"], runs["bone_motion"]]
    checkpoints = [r.checkpoint_path for r in streams]
    per_stream, ensemble = ensemble_checkpoints(
        checkpoints, root / "data" / "test.manifest", batch_size=16
    )
    best_single = max(s.top1 for s in per_stream)
    assert ensemble.top1 >= best_single - 0.02, (ensemble.top1, best_single)
    report(7, f"ordering: fused {fused:.3f} >= static {static:.3f} >= chance "
              f"{CHANCE:.2f}; ensemble {ensemble.top1:.3f} vs best {best_single:.3f}")


# -- 8: determinism and round-trips -------------------------------------


def test_criterion_8_determinism_and_round_trips(learning_runs, tmp_path):
    root, runs, _ = learning_runs

    short_a = _gate_config(root, "det-a", seed=9)
    short_a = short_a.with_overrides(["total_epochs=3", "milestones="])
    short_b = short_a.with_overrides([f"out_dir={root / 'det-b'}"])
    run_a = train(short_a)
    run_b = train(short_b)
    assert run_a.metrics_path.read_bytes() == run_b.metrics_path.read_bytes()

    reloaded, _ = load_checkpoint(run_a.checkpoint_path)
    probe = np.random.default_rng(0).standard_normal((3, 3, 24, 25)).astype(np.float32)
    assert np.array_equal(collect_logits(run_a.model, probe),
                          collect_logits(reloaded, probe))

    source = load_sequence(root / "data" / "train" / "train-c0-000.skl")
    copied = save_sequence(tmp_path / "copy.skl", source)
    assert copied.read_bytes() == (root / "data" / "train" / "train-c0-000.skl").read_bytes()
    report(8, "determinism: identical logs, bit-exact checkpoint and sequence round-trips")
