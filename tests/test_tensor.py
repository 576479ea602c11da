import numpy as np
import pytest

import dyngcn.tensor as tensor_module
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
    # dW = (cols @ g^T)^T; the column path copies g^T contiguous, while a
    # 1x1 kernel is a channel map and reads it as a view
    g_t = g_flat.transpose(0, 2, 1)
    if (kt, stride_t, pad_t) != (1, 1, 0):
        g_t = np.ascontiguousarray(g_t)
    dw = np.matmul(cols, g_t).sum(axis=0).T.reshape(w.shape)
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
    "1x1 kernel": ((3, 8, 10, 25), 12, 1, 1, 0, np.float32, 1),  # one GEMM, no columns
}


def streamed_conv_case(case):
    """The case's seeded input, weight and output gradient, with its stride
    and padding; asserts the column buffer's chunk count."""
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
    return x, w, g, stride_t, pad_t


@pytest.mark.parametrize("case", STREAMED_CONV_CASES)
def test_conv2d_streamed_matches_whole_batch_oracle_bitwise(case):
    x, w, g, stride_t, pad_t = streamed_conv_case(case)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride_t=stride_t, pad_t=pad_t)
    out.backward(g)
    want_out, want_dx, want_dw = whole_batch_conv(x, w, stride_t, pad_t, g)
    for got, want in ((out.data, want_out), (xt.grad, want_dx), (wt.grad, want_dw)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("frozen", ["x", "weight"])
@pytest.mark.parametrize("case", STREAMED_CONV_CASES)
def test_conv2d_with_a_frozen_input_keeps_the_oracle_gradient_bitwise(case, frozen):
    x, w, g, stride_t, pad_t = streamed_conv_case(case)
    xt, wt = Tensor(x, requires_grad=frozen != "x"), Tensor(w, requires_grad=frozen != "weight")
    conv2d(xt, wt, stride_t=stride_t, pad_t=pad_t).backward(g)
    _, want_dx, want_dw = whole_batch_conv(x, w, stride_t, pad_t, g)
    dropped, kept, want = (xt, wt, want_dw) if frozen == "x" else (wt, xt, want_dx)
    assert dropped.grad is None
    assert kept.grad.dtype == want.dtype and kept.grad.tobytes() == want.tobytes()


def nan_arena(monkeypatch):
    """Put a 1 MiB scratch arena of stale bytes (NaN in either float dtype)
    in place, large enough that no small backward grows it, and return it."""
    arena = np.full(1 << 20, 0xFF, dtype=np.uint8)
    monkeypatch.setattr(tensor_module, "_SCRATCH", [arena])
    return arena


@pytest.mark.parametrize("stride_t", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_chunked_weight_gradient_is_bitwise_the_whole_batch_sum(
        monkeypatch, stride_t, dtype):
    batch, c_in, t_in, n, c_out, kt, pad_t = 7, 6, 12, 5, 4, 5, 2
    t_out = (t_in + 2 * pad_t - kt) // stride_t + 1
    # columns of two samples per chunk, so the batch of 7 runs in 4 chunks
    budget = 2 * c_in * kt * t_out * n * np.dtype(dtype).itemsize
    monkeypatch.setattr(tensor_module, "_COLS_BUDGET", budget)
    arena = nan_arena(monkeypatch)
    rng = np.random.default_rng(40 + stride_t)
    x = rng.standard_normal((batch, c_in, t_in, n)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, kt, 1)).astype(dtype)
    g = rng.standard_normal((batch, c_out, t_out, n)).astype(dtype)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    conv2d(xt, wt, stride_t=stride_t, pad_t=pad_t).backward(g)
    _, want_dx, want_dw = whole_batch_conv(x, w, stride_t, pad_t, g)
    assert wt.grad.dtype == want_dw.dtype and wt.grad.tobytes() == want_dw.tobytes()
    assert xt.grad.tobytes() == want_dx.tobytes()
    assert tensor_module._SCRATCH[0] is arena  # the backward read the stale bytes


def test_batch_norm_training_statistics():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3, 8, 2)) * 3.0 + 1.5)
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    out = batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
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


# Shapes the model runs batch norm at: a block, the input norm (B, C*N, T, 1),
# and the context encoder's squeeze (B, 1, T, N) and output (B, N*N, 1, 1).
BN_SHAPES = [(8, 64, 64, 25), (8, 75, 64, 1), (8, 1, 64, 25), (8, 625, 1, 1)]


def _bn_case(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    channels = shape[1]
    x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype)
    residual = rng.standard_normal(shape).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, channels).astype(dtype)
    beta = rng.standard_normal(channels).astype(dtype)
    stats = (rng.standard_normal(channels).astype(dtype),
             rng.uniform(0.5, 2.0, channels).astype(dtype))
    g = rng.standard_normal(shape).astype(dtype)
    return x, residual, gamma, beta, stats, g


@pytest.mark.parametrize("shape", BN_SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_epilogue_matches_separate_ops_bitwise(shape, dtype, training):
    x, residual, gamma, beta, (rm, rv), g = _bn_case(shape, dtype)
    results = []
    for fused in (True, False):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta, residual)]
        xt, gt, bt, rt = leaves
        stats = dict(running_mean=rm.copy(), running_var=rv.copy(), training=training)
        if fused:
            out = batch_norm(xt, gt, bt, relu=True, residual=rt, **stats)
        else:
            out = relu(add(batch_norm(xt, gt, bt, **stats), rt))
        out.backward(g)
        results.append([out.data, stats["running_mean"], stats["running_var"]]
                       + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _reference_batch_norm(x, gamma, beta, g):
    """The training-mode op spelled out: x.var, unfused temporaries, and dx
    from the two sums that d_gamma and d_beta take."""
    axes, per_channel = (0, 2, 3), (1, x.shape[1], 1, 1)
    count = x.size // x.shape[1]
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    a = (gamma * inv_std).reshape(per_channel)
    out = (x - mean.reshape(per_channel)) * a + beta.reshape(per_channel)
    x_hat = (x - mean.reshape(per_channel)) * inv_std.reshape(per_channel)
    dgamma, dbeta = (g * x_hat).sum(axis=axes), g.sum(axis=axes)
    dx = a * (g - (dbeta / count).reshape(per_channel)
              - x_hat * (dgamma / count).reshape(per_channel))
    return out, mean, var, dx, dgamma, dbeta


@pytest.mark.parametrize("shape", BN_SHAPES + [(3, 5, 7, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_training_matches_unfused_reference_bitwise(monkeypatch, shape, dtype):
    x, _, gamma, beta, _, g = _bn_case(shape, dtype, seed=1)
    # momentum 1 makes the running buffers the batch statistics themselves
    monkeypatch.setattr(tensor_module, "BN_MOMENTUM", 1.0)
    rm, rv = np.zeros(shape[1], dtype), np.ones(shape[1], dtype)
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out = batch_norm(*leaves, running_mean=rm, running_var=rv)
    out.backward(g)
    got = (out.data, rm, rv) + tuple(t.grad for t in leaves)
    for a, b in zip(got, _reference_batch_norm(x, gamma, beta, g)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_residual_may_alias_the_input(training):
    x, _, gamma, beta, (rm, rv), g = _bn_case((4, 3, 5, 2), np.float64)
    results = []
    for fused in (True, False):
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        stats = dict(running_mean=rm.copy(), running_var=rv.copy(), training=training)
        if fused:
            out = batch_norm(xt, gt, bt, relu=True, residual=xt, **stats)
        else:
            out = relu(add(batch_norm(xt, gt, bt, **stats), xt))
        out.backward(g)
        results.append((out.data, xt.grad, gt.grad, bt.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("relu_on", [True, False])
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_backward_leaves_the_given_gradient_unmodified(relu_on, training):
    x, residual, gamma, beta, (rm, rv), g = _bn_case((4, 3, 5, 2), np.float32)
    given = g.copy()
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta, residual)]
    out = batch_norm(*leaves[:3], running_mean=rm, running_var=rv, training=training,
                     relu=relu_on, residual=leaves[3])
    out.backward(given)
    assert np.array_equal(given, g)
    assert all(t.grad is not None for t in leaves)


def batch_norm_keeping_x_hat(x, gamma, beta, running_mean, running_var, training,
                             relu=False, residual=None, momentum=0.1, eps=1e-5):
    """The batch-norm op with a closure that keeps the forward's x_hat
    (fresh arrays in place of pooled scratch)."""
    axes, channels = (0, 2, 3), x.data.shape[1]
    per_channel = (1, channels, 1, 1)
    count = x.data.size // channels
    if training:
        mean = x.data.mean(axis=axes, keepdims=True)
        centred = x.data - mean
        data = np.square(centred)
        var = data.sum(axis=axes) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(channels)
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        a = gamma.data * inv_std
        x_hat = centred * inv_std.reshape(per_channel)
        np.multiply(centred, a.reshape(per_channel), out=data)
        data += beta.data.reshape(per_channel)
    else:
        mean = running_mean.copy()
        inv_std = 1.0 / np.sqrt(running_var + eps)
        a = gamma.data * inv_std
        data = x.data * a.reshape(per_channel)
        data += (beta.data - mean * a).reshape(per_channel)
        x_hat = x.data - mean.reshape(per_channel)
        x_hat *= inv_std.reshape(per_channel)
    if residual is not None:
        data += residual.data
    if relu:
        np.maximum(data, 0, out=data)

    def backward(g):
        if relu:
            g = g * (data > 0)
        if residual is not None:
            tensor_module._accumulate(residual, g)
        dgamma, dbeta = (g * x_hat).sum(axis=axes), g.sum(axis=axes)
        tensor_module._accumulate(gamma, dgamma)
        tensor_module._accumulate(beta, dbeta)
        if training:
            dx = g - (dbeta / count).reshape(per_channel)
            dx -= x_hat * (dgamma / count).reshape(per_channel)
            dx *= a.reshape(per_channel)
        else:
            dx = g * a.reshape(per_channel)
        tensor_module._accumulate(x, dx)

    inputs = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    return tensor_module._from_op(data, inputs, backward)


@pytest.mark.parametrize("epilogue", ["none", "relu", "relu+residual"])
@pytest.mark.parametrize("frozen", ["nothing", "gamma", "x"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_rebuilding_x_hat_matches_keeping_it_bitwise(
        monkeypatch, epilogue, frozen, dtype, training):
    arena = nan_arena(monkeypatch)
    x, residual, gamma, beta, (rm, rv), g = _bn_case((4, 6, 9, 5), dtype, seed=2)
    results = []
    for op in (batch_norm, batch_norm_keeping_x_hat):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta, residual)]
        xt, gt, bt, rt = leaves
        if frozen != "nothing":
            {"gamma": gt, "x": xt}[frozen].requires_grad = False
        stats = dict(running_mean=rm.copy(), running_var=rv.copy(), training=training)
        out = op(xt, gt, bt, relu=epilogue != "none",
                 residual=rt if epilogue == "relu+residual" else None, **stats)
        out.backward(g)
        results.append([out.data, stats["running_mean"], stats["running_var"]]
                       + [t.grad for t in leaves if t.grad is not None])
    assert len(results[0]) == len(results[1])
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert tensor_module._SCRATCH[0] is arena


def test_batch_norm_rejects_mismatched_residual():
    x = Tensor(np.zeros((2, 3, 4, 1)))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    with pytest.raises(ValueError, match="residual shape"):
        batch_norm(x, gamma, beta, np.zeros(3), np.ones(3),
                   residual=Tensor(np.zeros((2, 3, 4, 2))))


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
    nodes, stack = [], [out]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node._prev)
    ops = [n for n in nodes if n._backward is not None]
    out.backward()
    assert len(ops) >= 6 and out in ops and h in ops
    assert all(n.grad is None for n in ops)
    assert x.grad is not None and w.grad is not None
    assert np.array_equal(w.grad, h.data)


def test_second_backward_through_a_released_graph_raises():
    x, h, loss = _relu_square_graph()
    loss.backward()
    assert np.array_equal(x.grad, [18.0, 36.0, 0.0])
    for root in (loss, h):
        with pytest.raises(RuntimeError, match="already backpropagated"):
            root.backward(np.ones_like(root.data))
    assert np.array_equal(x.grad, [18.0, 36.0, 0.0])


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
    # every epilogue: plain, ReLU, residual, residual then ReLU
    for relu_on, with_residual in ((False, False), (True, False), (False, True), (True, True)):
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 2, 4, 2)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        rm = rng.standard_normal(2)
        rv = rng.uniform(0.5, 2.0, 2)
        residual = rand(rng, 3, 2, 4, 2) if with_residual else None

        def run(kind):
            def f(t):
                args = dict(running_mean=rm.copy(), running_var=rv.copy(), training=training,
                            relu=relu_on)
                if with_residual:
                    args.update(residual=t if kind == "residual" else residual)
                xx = t if kind == "x" else x
                gg = t if kind == "gamma" else gamma
                bb = t if kind == "beta" else beta
                out = batch_norm(xx, gg, bb, **args)
                return mul(out, out).sum()

            return f

        label = f"relu={relu_on} residual={with_residual}"
        assert check_gradient(run("x"), x) < 1e-4, label
        assert check_gradient(run("gamma"), gamma) < 1e-4, label
        assert check_gradient(run("beta"), beta) < 1e-4, label
        if with_residual:
            assert check_gradient(run("residual"), residual) < 1e-4, label


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
