import numpy as np
import pytest

from dyngcn.tensor import (
    _COLS_BUDGET,
    Tensor,
    add,
    batch_norm,
    concat,
    conv2d,
    l2_row_normalize,
    matmul,
    mean_pool_global,
    mul,
    no_grad,
    permute,
    relu,
    reshape,
    scale,
    softmax,
    softmax_cross_entropy,
)
from dyngcn.gradcheck import check_gradient, finite_difference_grad, relative_error


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_default_dtype_is_float32():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64


def test_matmul_known_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]], dtype=np.float32))


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(a, b)


def test_matmul_batch_broadcast():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 2, 3, 5))
    b = rng.standard_normal((5, 5))
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (4, 2, 3, 5)
    assert np.allclose(out.data, a @ b, atol=1e-6)


def test_conv2d_one_by_one_is_channel_mixing():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    w = rng.standard_normal((4, 3, 1, 1)).astype(np.float32)
    out = conv2d(Tensor(x), Tensor(w))
    expected = np.einsum("oc,bctn->botn", w[:, :, 0, 0], x)
    assert out.shape == (2, 4, 4, 5)
    assert np.allclose(out.data, expected, atol=1e-5)


def test_conv2d_temporal_kernel_alignment():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 1, 9, 1)).astype(np.float64)
    w = rng.standard_normal((1, 1, 9, 1)).astype(np.float64)
    out = conv2d(Tensor(x), Tensor(w), stride_t=1, pad_t=4)
    assert out.shape == (1, 1, 9, 1)
    # at the center position the kernel window covers the input exactly
    assert np.isclose(out.data[0, 0, 4, 0], float((x * w).sum()), atol=1e-12)


def test_conv2d_stride_output_length():
    x = Tensor(np.zeros((1, 2, 10, 3)))
    w = Tensor(np.zeros((2, 2, 9, 1)))
    out = conv2d(x, w, stride_t=2, pad_t=4)
    # floor((10 + 8 - 9) / 2) + 1 = 5
    assert out.shape == (1, 2, 5, 3)


def test_conv2d_rejects_wide_joint_kernel():
    with pytest.raises(ValueError, match="joint width"):
        conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 1, 3))))


def test_conv2d_rejects_oversized_kernel():
    with pytest.raises(ValueError, match="exceeds"):
        conv2d(Tensor(np.zeros((1, 1, 4, 2))), Tensor(np.zeros((1, 1, 7, 1))), pad_t=1)


# -- streamed temporal conv against a whole-batch im2col oracle ----------


def whole_batch_conv(x, w, stride_t, pad_t, g):
    """Im2col over the whole padded batch: (output, dx, dw) for output gradient g."""
    batch, c_in, t_in, n = x.shape
    c_out, _, kt, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad_t, pad_t), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, kt, axis=2)[:, :, ::stride_t]
    t_out = windows.shape[2]
    cols = windows.transpose(0, 1, 4, 2, 3).reshape(batch, c_in * kt, t_out * n)
    cols = np.ascontiguousarray(cols)
    w_flat = w.reshape(c_out, c_in * kt)
    out = np.matmul(w_flat, cols).reshape(batch, c_out, t_out, n)
    g_flat = g.reshape(batch, c_out, t_out * n)
    dw = np.matmul(g_flat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w_flat.T, g_flat).reshape(batch, c_in, kt, t_out, n)
    dxp = np.zeros_like(xp)
    for k in range(kt):
        dxp[:, :, k : k + stride_t * t_out : stride_t] += dcols[:, :, k]
    return out, dxp[:, :, pad_t : pad_t + t_in], dw


# (B, C_in, T, N), C_out, kt, stride_t, pad_t, dtype, column-buffer chunks
STREAMED_CONV_CASES = {
    "ragged last chunk": ((5, 64, 32, 25), 64, 9, 1, 4, np.float32, 3),
    "taps without rows": ((2, 3, 2, 5), 4, 7, 2, 3, np.float32, 1),
    "strided 1x1 shortcut": ((4, 16, 12, 25), 32, 1, 2, 0, np.float32, 1),
    "float64": ((4, 32, 40, 25), 16, 9, 2, 4, np.float64, 2),
}


@pytest.mark.parametrize("case", STREAMED_CONV_CASES)
def test_conv2d_streamed_matches_whole_batch_oracle_bitwise(case):
    shape, c_out, kt, stride_t, pad_t, dtype, n_chunks = STREAMED_CONV_CASES[case]
    batch, c_in, t_in, n = shape
    t_out = (t_in + 2 * pad_t - kt) // stride_t + 1
    sample_bytes = c_in * kt * t_out * n * np.dtype(dtype).itemsize
    chunk = min(batch, max(1, _COLS_BUDGET // sample_bytes))
    assert -(-batch // chunk) == n_chunks
    rng = np.random.default_rng(sum(map(ord, case)))
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((c_out, c_in, kt, 1)).astype(dtype)
    g = rng.standard_normal((batch, c_out, t_out, n)).astype(dtype)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride_t=stride_t, pad_t=pad_t)
    out.backward(g)
    want_out, want_dx, want_dw = whole_batch_conv(x, w, stride_t, pad_t, g)
    for got, want in ((out.data, want_out), (xt.grad, want_dx), (wt.grad, want_dw)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_batch_norm_training_statistics():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3, 8, 2)) * 3.0 + 1.5)
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    out = batch_norm(x, gamma, beta, training=True)
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-6
    assert np.abs(var - 1.0).max() < 1e-4


def test_batch_norm_running_stats_update():
    x = Tensor(np.ones((2, 1, 2, 2)) * 4.0)
    gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
    rm = np.zeros(1)
    rv = np.ones(1)
    batch_norm(x, gamma, beta, running_mean=rm, running_var=rv, training=True)
    assert np.isclose(rm[0], 0.9 * 0.0 + 0.1 * 4.0)
    assert np.isclose(rv[0], 0.9 * 1.0 + 0.1 * 0.0)


def test_batch_norm_eval_uses_running_stats():
    x = Tensor(np.full((1, 2, 1, 1), 2.0))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    rm = np.array([1.0, 0.0])
    rv = np.array([1.0, 4.0])
    out = batch_norm(x, gamma, beta, running_mean=rm, running_var=rv, training=False)
    expected = np.array([(2.0 - 1.0) / np.sqrt(1.0 + 1e-5), 2.0 / np.sqrt(4.0 + 1e-5)])
    assert np.allclose(out.data[0, :, 0, 0], expected, atol=1e-6)
    with pytest.raises(RuntimeError):
        batch_norm(x, gamma, beta, training=False)


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    out = relu(x).sum()
    out.backward()
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 1.0]))


def test_relu_nan_propagates_and_gets_no_gradient():
    x = Tensor(np.array([np.nan, -np.nan, 0.0, 3.0]), requires_grad=True)
    out = relu(x)
    assert np.isnan(out.data[:2]).all()
    out.backward(np.ones(4))
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 0.0, 1.0]))


def _relu_square_graph():
    x = Tensor(np.array([1.0, 2.0, -1.0]), requires_grad=True)
    h = relu(scale(x, 3.0))
    loss = mul(h, h).sum()
    return x, h, loss


def test_backward_keeps_only_leaf_gradients():
    x, h, loss = _relu_square_graph()
    w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    out = add(loss, mul(h, w).sum())
    out.backward()
    nodes, stack = [], [out]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node._prev)
    ops = [n for n in nodes if n._backward is not None]
    assert len(ops) >= 6 and out in ops and h in ops
    assert all(n.grad is None for n in ops)
    assert x.grad is not None and w.grad is not None
    assert np.array_equal(w.grad, h.data)


def test_second_backward_adds_exactly_one_leaf_gradient():
    x, _, loss = _relu_square_graph()
    loss.backward()
    assert np.array_equal(x.grad, [18.0, 36.0, 0.0])
    loss.backward()
    assert np.array_equal(x.grad, [36.0, 72.0, 0.0])


def test_concat_joins_in_order():
    parts = [Tensor(np.full((2, k, 3), float(k))) for k in (1, 2, 3)]
    out = concat(parts, axis=1)
    assert out.shape == (2, 6, 3)
    assert np.array_equal(out.data[0, :, 0], [1, 2, 2, 3, 3, 3])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((6, 9)) * 5.0)
    out = softmax(x)
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-7


def test_permute_reshape_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
    axes = (2, 0, 3, 1)
    back = permute(permute(x, axes), tuple(np.argsort(axes)))
    assert np.array_equal(back.data, x.data)
    again = reshape(reshape(x, (6, 20)), (2, 3, 4, 5))
    assert np.array_equal(again.data, x.data)


def test_l2_row_normalize_zero_row_passthrough():
    x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
    out = l2_row_normalize(x)
    assert np.allclose(out.data[0], [0.6, 0.8], atol=1e-6)
    assert np.array_equal(out.data[1], [0.0, 0.0])


def test_softmax_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = softmax_cross_entropy(logits, np.array([0, 3, 7, 9]))
    assert np.isclose(loss.item(), np.log(10.0), atol=1e-6)


def test_softmax_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError, match="out of range"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_mean_pool_global_shape_and_value():
    x = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 2, 2))
    out = mean_pool_global(x)
    assert out.shape == (2, 3)
    assert np.allclose(out.data, x.data.mean(axis=(2, 3)))


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = relu(x)
    assert out.requires_grad is False
    assert out._backward is None


def test_broadcast_add_gradient():
    x = Tensor(np.ones((4, 3), dtype=np.float64), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
    out = add(x, b).sum()
    out.backward()
    assert np.array_equal(b.grad, np.full(3, 4.0))
    assert np.array_equal(x.grad, np.ones((4, 3)))


def test_forward_determinism():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    w = rng.standard_normal((4, 3, 1, 1)).astype(np.float32)
    a = conv2d(Tensor(x), Tensor(w)).data
    b = conv2d(Tensor(x), Tensor(w)).data
    assert np.array_equal(a, b)


# -- gradient checks, float64 -------------------------------------------

SEEDS = [11, 17, 23, 31, 47]


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul(seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, 3, 4)
    b = Tensor(rng.standard_normal((4, 2)))
    err = check_gradient(lambda t: matmul(t, b).sum(), a)
    assert err < 1e-5


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul_batched_both_sides(seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, 2, 3, 4)
    b = rand(rng, 4, 5)
    err_a = check_gradient(lambda t: matmul(t, b).sum(), a)
    err_b = check_gradient(lambda t: matmul(a, t).sum(), b)
    assert err_a < 1e-5 and err_b < 1e-5


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_conv2d_pointwise(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 3, 4, 5)
    w = rand(rng, 4, 3, 1, 1)
    err_x = check_gradient(lambda t: conv2d(t, w).sum(), x)
    err_w = check_gradient(lambda t: conv2d(x, t).sum(), w)
    assert err_x < 1e-4 and err_w < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_conv2d_temporal_strided(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 2, 10, 3)
    w = rand(rng, 3, 2, 5, 1)
    err_x = check_gradient(lambda t: conv2d(t, w, stride_t=2, pad_t=2).sum(), x)
    err_w = check_gradient(lambda t: conv2d(x, t, stride_t=2, pad_t=2).sum(), w)
    assert err_x < 1e-4 and err_w < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_concat(seed):
    rng = np.random.default_rng(seed)
    parts = [rand(rng, 2, k, 3, 2) for k in (1, 3, 2)]
    w = Tensor(rng.standard_normal((2, 6, 3, 2)))
    for part in parts:
        assert check_gradient(lambda _: mul(concat(parts, axis=1), w).sum(), part) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("training", [True, False])
def test_grad_batch_norm(seed, training):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 2, 4, 2)
    gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
    beta = Tensor(rng.standard_normal(2), requires_grad=True)
    rm = rng.standard_normal(2)
    rv = rng.uniform(0.5, 2.0, 2)

    def run(kind):
        def f(t):
            args = dict(training=training)
            if not training:
                args.update(running_mean=rm, running_var=rv)
            xx = t if kind == "x" else x
            gg = t if kind == "gamma" else gamma
            bb = t if kind == "beta" else beta
            out = batch_norm(xx, gg, bb, **args)
            return mul(out, out).sum()

        return f

    assert check_gradient(run("x"), x) < 1e-4
    assert check_gradient(run("gamma"), gamma) < 1e-4
    assert check_gradient(run("beta"), beta) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_elementwise_and_reductions(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 4, 5)
    y = Tensor(rng.standard_normal((4, 5)))
    assert check_gradient(lambda t: mul(add(t, y), t).sum(), x) < 1e-5
    assert check_gradient(lambda t: scale(t, -2.5).sum(), x) < 1e-5
    assert check_gradient(lambda t: t.mean(axis=1).sum(), x) < 1e-5
    # keep clear of the relu kink: |x| >= 0.1
    safe = Tensor(np.sign(x.data) * (np.abs(x.data) + 0.1), requires_grad=True)
    assert check_gradient(lambda t: mul(relu(t), relu(t)).sum(), safe, eps=1e-6) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_and_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 6)
    labels = rng.integers(0, 6, size=3)
    weights = Tensor(rng.standard_normal((3, 6)))
    assert check_gradient(lambda t: mul(softmax(t), weights).sum(), x) < 1e-4
    assert check_gradient(lambda t: softmax_cross_entropy(t, labels), x) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_l2_row_normalize(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 4, 6)
    weights = Tensor(rng.standard_normal((4, 6)))
    assert check_gradient(lambda t: mul(l2_row_normalize(t), weights).sum(), x) < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_pool_permute_reshape(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 3, 4, 5)
    w = Tensor(rng.standard_normal((2, 3)))

    def f(t):
        pooled = mean_pool_global(permute(t, (0, 1, 3, 2)))
        return mul(reshape(pooled, (2, 3)), w).sum()

    assert check_gradient(f, x) < 1e-5


def test_finite_difference_known_quadratic():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    grad = finite_difference_grad(lambda t: float((t.data ** 2).sum()), x)
    assert relative_error(grad, 2.0 * x.data) < 1e-8


def test_relative_error_symmetry():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 2.0002])
    assert relative_error(a, b) == relative_error(b, a)
    assert relative_error(a, a) == 0.0
