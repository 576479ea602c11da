"""One contract over the whole model config space.

For any small valid ``ModelConfig`` and person count, one traced training
step matches the cost model row by row, every trainable parameter gets a
gradient, every block hands on its ``BlockSpec`` shape, eval logits do not
depend on the batch, and a checkpoint round trip keeps them bit for bit.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngcn.checkpoint import load_checkpoint, save_checkpoint
from dyngcn.flops import count_model_flops
from dyngcn.model import ModelConfig, build_model
from dyngcn.skeleton import BUILTIN_LAYOUTS, build_layout
from dyngcn.tensor import Tensor, no_grad, softmax_cross_entropy
from dyngcn.topology import LEARNERS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BATCH = 2


@pytest.fixture(scope="module")
def bench_trace():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import bench_trace
        yield bench_trace


@st.composite
def model_configs(draw):
    depth = draw(st.integers(1, 3))
    topology = draw(st.sampled_from(list(LEARNERS)))
    # without a learner, lambda=0 leaves no route, which ModelConfig refuses
    lambdas = [1.0, 0.37] if topology == "none" else [1.0, 0.0, 0.37]
    return ModelConfig(
        layout=draw(st.sampled_from(sorted(BUILTIN_LAYOUTS))),
        n_classes=draw(st.integers(1, 5)),
        frames=draw(st.integers(1, 8)),
        channels=draw(st.lists(st.integers(1, 8), min_size=depth, max_size=depth)),
        strides=draw(st.lists(st.sampled_from([1, 2]), min_size=depth, max_size=depth)),
        tc_kernel=draw(st.sampled_from([1, 3, 5, 7, 9])),
        lambda_static=draw(st.sampled_from(lambdas)),
        aggregate_rate=draw(st.sampled_from([0.6, 0.25, 1.0])),
        aggregate_after=sorted(draw(st.sets(st.integers(1, depth)))),
        topology=topology,
        learner_final_relu=draw(st.booleans()),
        learn_projection=draw(st.booleans()),
    )


def recording(forward, shapes):
    def wrapped(x):
        out = forward(x)
        shapes.append(out.shape)
        return out
    return wrapped


def eval_logits(model, x):
    with no_grad():
        return model(Tensor(x)).data


@settings(max_examples=100, deadline=None)
@given(config=model_configs(), persons=st.sampled_from([1, 2]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_any_small_config_builds_runs_prices_and_reloads(bench_trace, config, persons, dtype):
    joints = build_layout(config.layout).n_joints
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, persons, config.in_channels, config.frames, joints)).astype(dtype)
    model = build_model(config, seed=0, dtype=dtype)

    # one traced training step prices each row as the cost model does
    tracer = bench_trace.Tracer(train_phase=True)
    patches = bench_trace.Patches()
    try:
        tracer.install(patches)
        logits = model(Tensor(x[:BATCH]))
        loss = softmax_cross_entropy(logits, rng.integers(0, config.n_classes, BATCH))
        loss.backward()
    finally:
        patches.restore()
    assert np.isfinite(loss.data).all()
    expected = {e.name: e.flops * BATCH
                for e in count_model_flops(config, persons=persons).entries if e.flops}
    traced = {name: flops for name, flops in tracer.flops.items() if flops}
    assert traced == expected
    missing = [name for name, p in model.named_parameters() if p.requires_grad and p.grad is None]
    assert missing == []

    # each block hands on the shape its BlockSpec gives
    model.eval()
    shapes = []
    for block in model.blocks:
        block.forward = recording(block.forward, shapes)
    whole = eval_logits(model, x)
    plan = config.block_plan(joints)
    assert shapes == [(3 * persons, spec.out_channels, spec.out_frames, spec.out_joints)
                      for spec in plan]

    # eval logits do not depend on the batch
    singles = np.concatenate([eval_logits(model, x[i:i + 1]) for i in range(3)])
    assert whole.dtype == dtype and np.array_equal(whole, singles)

    # nor on a checkpoint round trip
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
    assert np.array_equal(eval_logits(loaded.eval(), x), whole)
