"""Tests of the benchmark's own statistics, attribution and seed handling.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_env  # noqa: E402

bench_env.use_source_tree()

from bench_stats import derive_seeds, percentile, tail_percentile  # noqa: E402
from bench_trace import Patches, Tracer  # noqa: E402
from dyngcn.config import model_preset  # noqa: E402
from dyngcn.flops import count_model_flops  # noqa: E402
from dyngcn.model import build_model  # noqa: E402
from dyngcn.tensor import Tensor  # noqa: E402
from workloads import EvalEnsemble, TrainGate, TrainNtu, ntu_batches  # noqa: E402


# -- percentiles ----------------------------------------------------------


def test_percentile_returns_value_and_sample_count():
    assert percentile([3, 1, 2, 4], 50) == (2.5, 4)
    assert percentile([7], 90) == (7.0, 1)
    assert percentile([1, 2, 3], 0) == (1.0, 3)
    assert percentile([1, 2, 3], 100) == (3.0, 3)


def test_percentile_matches_numpy_linear_rule():
    values = np.random.default_rng(0).exponential(size=37)
    for q in (10, 50, 90, 99):
        assert percentile(values, q)[0] == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(105) == 91
    assert tail_percentile(1000) == 99
    assert tail_percentile(10) is None


# -- per-row self time ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_op(clock, seconds, backward_seconds):
    def op():
        clock.now += seconds
        out = Tensor(np.zeros(2, dtype=np.float32))

        def backward(g):
            clock.now += backward_seconds

        out._backward = backward
        return out

    return op


def test_ops_count_toward_the_innermost_row_only():
    clock = FakeClock()
    tracer = Tracer(train_phase=True, clock=clock)
    op = tracer.op("relu", fake_op(clock, 1.0, 0.25))
    op()                                   # outside every row: not attributed
    with tracer.row("head"):
        a = op()
        with tracer.row("norm_act", 1):
            with tracer.row("static", 1):
                b = op()
                op()
            c = op()
        clock.now += 5.0                   # time between ops belongs to no row
    assert dict(tracer.fwd) == {"head": 1.0, "static": 2.0, "norm_act": 1.0}
    assert tracer.op_calls == 4
    for out in (a, b, c):
        out._backward(None)
    assert dict(tracer.bwd) == {"head": 0.25, "static": 0.25, "norm_act": 0.25}


def test_rows_inside_an_unattributed_stretch_stay_unattributed():
    clock = FakeClock()
    tracer = Tracer(train_phase=True, clock=clock)
    op = tracer.op("relu", fake_op(clock, 1.0, 0.0))
    with tracer.row(None):
        with tracer.row("static", 1):
            op()
    assert not tracer.fwd and tracer.op_calls == 0


def test_traced_forward_covers_every_cost_model_row():
    config = model_preset("toy")
    model = build_model(config, seed=0)
    tracer = Tracer(train_phase=True)
    patches = Patches()
    tracer.install(patches)
    try:
        model(Tensor(np.ones((2, 3, config.frames, 25), dtype=np.float32)))
    finally:
        patches.restore()
    assert tracer.forwards == 1 and tracer.bodies == 2
    assert tracer.flops_mismatches(count_model_flops(config)) == []
    assert set(tracer.fwd) <= {"static", "learner", "dynamic", "tc", "shortcut", "norm_act", "head"}
    assert tracer.fwd["static"] > 0 and tracer.fwd["learner"] > 0


def test_flops_mismatch_is_reported():
    tracer = Tracer(train_phase=True)
    tracer.bodies = 1
    tracer.flops["block1.static"] = 1
    problems = tracer.flops_mismatches(count_model_flops(model_preset("toy")))
    assert any(p.startswith("block1.static") for p in problems)


# -- seeds ----------------------------------------------------------------


def test_derived_seeds_repeat_for_a_seed_and_differ_across_seeds():
    assert derive_seeds(3, 4) == derive_seeds(3, 4)
    assert derive_seeds(3, 4) != derive_seeds(4, 4)
    assert len(set(derive_seeds(3, 4))) == 4


@pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
def test_derive_seeds_rejects_non_integer_or_negative(bad):
    with pytest.raises(ValueError):
        derive_seeds(bad, 2)


def test_workload_inputs_follow_the_seed():
    for workload in (TrainGate, TrainNtu, EvalEnsemble):
        assert vars(workload(7)) == vars(workload(7))
        assert vars(workload(7)) != vars(workload(8))
    a = ntu_batches(derive_seeds(7, 1)[0], 2, 3)
    b = ntu_batches(derive_seeds(7, 1)[0], 2, 3)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
