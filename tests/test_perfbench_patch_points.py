"""The benchmark in ``perfbench/`` wraps package functions and methods by
name.  Installing its tracer and step timer on the source tree finds every
one of them, and restoring puts each original back."""

from pathlib import Path

import pytest

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
