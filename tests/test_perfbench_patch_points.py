"""The benchmark in ``perfbench/`` wraps package functions and methods by
name.  Installing its tracer and step timer on the source tree finds every
one of them, and restoring puts each original back.  A train step traced
that way matches the cost model, as the benchmark's traced runs check."""

from pathlib import Path

import numpy as np
import pytest

import dyngcn.train as d_train
from dyngcn.flops import count_model_flops
from dyngcn.model import ModelConfig, build_model
from dyngcn.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("train_phase", [True, False])
def test_perfbench_installs_on_the_source_tree_and_restores(monkeypatch, train_phase):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from bench_trace import Patches, StepTimer, Tracer

    patches = Patches()
    try:
        StepTimer().install(patches)
        Tracer(train_phase).install(patches)
        wrapped = list(patches._saved)
    finally:
        patches.restore()
    assert wrapped
    first = {}              # a name wrapped twice saw the first wrapper as its original
    for owner, name, original in wrapped:
        first.setdefault((owner, name), original)
    for (owner, name), original in first.items():
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} not restored"


def test_traced_train_step_matches_the_cost_model_with_one_backward(monkeypatch):
    # A traced train step counts each contraction of the forward once, and
    # backward runs through one Tensor.backward.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from bench_trace import Patches, Tracer

    config = ModelConfig(layout="ntu25", n_classes=5, frames=24, channels=(16, 16, 32, 32),
                         strides=(1, 1, 2, 1), tc_kernel=5, aggregate_after=(2,),
                         topology="context")
    model = build_model(config, seed=0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 1, 3, config.frames, 25)).astype(np.float32)
    labels = rng.integers(0, config.n_classes, 16)
    tracer = Tracer(train_phase=True)
    patches = Patches()
    backward_calls = []

    def counted(original):
        def backward(tensor, *args, **kwargs):
            backward_calls.append(tensor)
            return original(tensor, *args, **kwargs)

        return backward

    try:
        tracer.install(patches)
        patches.wrap(Tensor, "backward", counted)
        loss = d_train.softmax_cross_entropy(model(Tensor(x)), labels)
        loss.backward()
    finally:
        patches.restore()
    assert tracer.forwards == 1 and tracer.bodies == 16
    assert tracer.flops_mismatches(count_model_flops(config)) == []
    assert len(backward_calls) == 1 and backward_calls[0] is loss
    assert all(p.grad is not None for p in model.parameters() if p.requires_grad)
