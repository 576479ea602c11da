import numpy as np
import pytest

from dyngcn.tensor import Tensor, mul, no_grad, permute, reshape, scale
from dyngcn.topology import ContextEncoder, NonLocalTopology, build_topology_learner
from dyngcn.gradcheck import check_gradient

VARIANTS = ["context", "context-symmetric", "context-feature", "context-temporal", "nonlocal"]


def make_learner(kind, channels=8, frames=6, joints=5, seed=0, dtype=np.float32,
                 final_relu=True):
    rng = np.random.default_rng(seed)
    return build_topology_learner(kind, channels, frames, joints, final_relu, rng, dtype)


def batch(channels=8, frames=6, joints=5, n=3, seed=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n, channels, frames, joints)).astype(dtype))


@pytest.mark.parametrize("kind", VARIANTS)
def test_output_shape(kind):
    learner = make_learner(kind)
    out = learner(batch())
    assert out.shape == (3, 5, 5)


def test_context_encoder_large_shape():
    learner = make_learner("context", channels=64, frames=16, joints=25)
    out = learner(batch(channels=64, frames=16, joints=25, n=2))
    assert out.shape == (2, 25, 25)


@pytest.mark.parametrize("kind", ["context", "context-symmetric", "context-feature",
                                  "context-temporal"])
def test_rows_unit_norm_or_zero(kind):
    learner = make_learner(kind)
    out = learner(batch(n=4, seed=7)).data
    norms = np.linalg.norm(out, axis=-1)
    nonzero = norms > 0
    assert nonzero.any()
    assert np.abs(norms[nonzero] - 1.0).max() < 1e-5


def test_plain_context_output_is_directed():
    learner = make_learner("context", seed=3)
    out = learner(batch(n=4, seed=5)).data
    assert np.abs(out - out.transpose(0, 2, 1)).max() > 1e-6


def test_symmetric_variant_scores_exactly_symmetric():
    learner = make_learner("context-symmetric", seed=3)
    s = learner.scores(batch(n=4, seed=5)).data
    assert np.array_equal(s, s.transpose(0, 2, 1))


def test_symmetrization_happens_before_row_normalization():
    learner = make_learner("context-symmetric", seed=3)
    x = batch(n=2, seed=5)
    out = learner(x).data
    # normalized rows of a symmetric matrix are generally not symmetric,
    # so symmetry must have been applied to the raw scores
    s = learner.scores(x).data
    assert np.array_equal(s, s.transpose(0, 2, 1))
    norms = np.linalg.norm(out, axis=-1)
    assert np.abs(norms[norms > 0] - 1.0).max() < 1e-5


def test_nonlocal_rows_sum_to_one():
    learner = make_learner("nonlocal")
    out = learner(batch(n=4, seed=8)).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6


def test_nonlocal_toy_similarity():
    # embedding row 0 picks one input channel; the other rows are zeroed,
    # so they add nothing to the similarity
    learner = NonLocalTopology(2, rng=np.random.default_rng(0))
    learner.embed_query.weight.data[:] = 0.0
    learner.embed_key.weight.data[:] = 0.0
    learner.embed_query.weight.data[0, :, 0, 0] = [1.0, 0.0]
    learner.embed_key.weight.data[0, :, 0, 0] = [0.0, 1.0]
    x = np.zeros((1, 2, 1, 2), dtype=np.float32)
    x[0, 0, 0, :] = [1.0, 0.0]          # query embedding per joint
    x[0, 1, 0, :] = [0.0, np.log(3.0)]  # key embedding per joint
    out = learner(Tensor(x)).data[0]
    assert np.allclose(out[0], [0.25, 0.75], atol=1e-6)
    assert np.allclose(out[1], [0.5, 0.5], atol=1e-6)


def test_nonlocal_embed_width_default():
    rng = np.random.default_rng(0)
    for channels, width in ((64, 16), (8, 4)):  # floor at 4
        learner = NonLocalTopology(channels, rng)
        assert learner.embed_query.weight.data.shape[:2] == (width, channels)
        assert learner.embed_key.weight.data.shape[:2] == (width, channels)


@pytest.mark.parametrize("kind", VARIANTS)
def test_outputs_vary_per_sample(kind):
    learner = make_learner(kind)
    out = learner(batch(n=3, seed=11)).data
    assert np.abs(out[0] - out[1]).max() > 1e-8
    assert np.abs(out[1] - out[2]).max() > 1e-8


@pytest.mark.parametrize("kind", VARIANTS)
def test_batching_invariance_in_eval_mode(kind):
    learner = make_learner(kind, seed=2).eval()
    x = batch(n=4, seed=13)
    with no_grad():
        full = learner(x).data
        singles = [learner(Tensor(x.data[i : i + 1])).data[0] for i in range(4)]
    for i in range(4):
        assert np.array_equal(full[i], singles[i])


def test_expand_kernel_shapes_by_variant():
    c, t, n = 8, 6, 5
    joint = make_learner("context", c, t, n)
    feature = make_learner("context-feature", c, t, n)
    temporal = make_learner("context-temporal", c, t, n)
    assert joint.expand.weight.data.shape == (n * n, n, 1, 1)
    assert feature.expand.weight.data.shape == (n * n, c, 1, 1)
    assert temporal.expand.weight.data.shape == (n * n, t, 1, 1)
    # squeeze kernels bind the other two axes
    assert joint.squeeze_a.weight.data.shape == (1, c, 1, 1)
    assert joint.squeeze_b.weight.data.shape == (1, t, 1, 1)
    assert temporal.squeeze_b.weight.data.shape == (1, n, 1, 1)


@pytest.mark.parametrize("kind, wrong", [
    ("context", {"frames": 9}),
    ("context-temporal", {"frames": 9}),
    ("context-feature", {"frames": 9}),
    ("nonlocal", {"channels": 5}),
], ids=["context", "context-temporal", "context-feature", "nonlocal"])
def test_runtime_shape_mismatch_rejected(kind, wrong):
    # the size the learner was built for is a conv2d channel axis
    learner = make_learner(kind, frames=6)
    with pytest.raises(ValueError, match="conv2d channel mismatch"):
        learner(batch(**wrong))


def test_final_relu_flag_allows_negative_scores():
    relu_on = make_learner("context", seed=4, final_relu=True)
    relu_off = make_learner("context", seed=4, final_relu=False)
    x = batch(n=4, seed=6)
    assert relu_on.scores(x).data.min() >= 0.0
    assert relu_off.scores(x).data.min() < 0.0


def test_deterministic_for_fixed_seed():
    a = make_learner("context-feature", seed=21)
    b = make_learner("context-feature", seed=21)
    x = batch(n=2, seed=22)
    assert np.array_equal(a(x).data, b(x).data)


@pytest.mark.parametrize("kind", VARIANTS)
@pytest.mark.parametrize("seed", [9, 13, 47])
def test_gradient_flows_through_learner_to_input(kind, seed):
    learner = make_learner(kind, channels=4, frames=5, joints=4, seed=seed,
                           dtype=np.float64)
    learner.eval()
    rng = np.random.default_rng(seed + 100)
    x = Tensor(rng.standard_normal((2, 4, 5, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((2, 4, 4)))

    def f(t):
        return mul(learner(t), weights).sum()

    err = check_gradient(f, x, eps=1e-6)
    # row normalization is scale invariant, so a learner whose squeeze
    # stages collapse to a single live unit has a genuinely zero input
    # gradient; these sizes and seeds keep the map non-degenerate
    assert np.abs(x.grad).max() > 1e-4
    assert err < 1e-4


def three_branch_scores(enc, x):
    """Oracle: the context encoder's scores with one hand-written branch per
    context axis, as they were before the squeeze order drove them."""
    batch, n = x.data.shape[0], x.data.shape[3]
    if enc.axis == "joint":
        h = enc.bn_a(enc.squeeze_a(x))                        # (B, 1, T, N)
        h = permute(h, (0, 2, 1, 3))                          # (B, T, 1, N)
        h = enc.bn_b(enc.squeeze_b(h))                        # (B, 1, 1, N)
        h = permute(h, (0, 3, 1, 2))                          # (B, N, 1, 1)
    elif enc.axis == "feature":
        h = enc.bn_a(enc.squeeze_a(permute(x, (0, 2, 1, 3))))  # (B, 1, C, N)
        h = permute(h, (0, 3, 2, 1))                          # (B, N, C, 1)
        h = enc.bn_b(enc.squeeze_b(h))                        # (B, 1, C, 1)
        h = permute(h, (0, 2, 1, 3))                          # (B, C, 1, 1)
    else:
        h = enc.bn_a(enc.squeeze_a(x))                        # (B, 1, T, N)
        h = permute(h, (0, 3, 2, 1))                          # (B, N, T, 1)
        h = enc.bn_b(enc.squeeze_b(h))                        # (B, 1, T, 1)
        h = permute(h, (0, 2, 1, 3))                          # (B, T, 1, 1)
    out = reshape(enc.bn_out(enc.expand(h)), (batch, n, n))
    if enc.symmetric:
        out = scale(out + permute(out, (0, 2, 1)), 0.5)
    return out


def scores_and_grads(kind, shape, dtype, training, scores):
    c, t, n = shape[1:]
    enc = make_learner(kind, c, t, n, seed=5, dtype=dtype).train(training)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    out = scores(enc, x)
    mul(out, Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
    return ([out.data, x.grad]
            + [p.grad for _, p in enc.named_parameters()]
            + [b for _, b in enc.named_buffers()])


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 8, 6, 5), (2, 4, 7, 9)])
@pytest.mark.parametrize("kind", ["context", "context-symmetric", "context-feature",
                                  "context-temporal"])
def test_scores_bitwise_match_three_branch_oracle(kind, shape, dtype, training):
    want = scores_and_grads(kind, shape, dtype, training, three_branch_scores)
    got = scores_and_grads(kind, shape, dtype, training, ContextEncoder.scores)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
