import numpy as np
import pytest

from dyngcn.layers import Parameter
from dyngcn.optim import NesterovSGD


def test_nesterov_two_step_recurrence():
    # constant unit gradient, lr 0.1, momentum 0.9, no decay:
    # step 1 moves 1.9 * lr, step 2 moves 2.71 * lr (cumulative 4.61 * lr)
    p = Parameter(np.zeros(1, dtype=np.float64))
    lr = 0.1
    opt = NesterovSGD([p], lr, momentum=0.9)
    p.grad = np.ones(1)
    opt.step()
    assert np.isclose(p.data[0], -1.9 * lr)
    p.grad = np.ones(1)
    opt.step()
    assert np.isclose(p.data[0], -(1.9 + 2.71) * lr)


def test_weight_decay_pure_shrinkage():
    p = Parameter(np.full(3, 10.0))
    p.grad = np.zeros(3)
    NesterovSGD([p], lr=1.0, momentum=0.0, weight_decay=0.0004).step()
    # with zero gradient the update reduces to lr * wd * w
    assert np.allclose(p.data, 10.0 - 1.0 * 0.0004 * 10.0)


def test_missing_gradient_raises():
    a = Parameter(np.zeros(2))
    a.grad = np.ones(2)
    with pytest.raises(RuntimeError, match=r"parameter 1 of shape \(3,\) has no gradient"):
        NesterovSGD([a, Parameter(np.zeros(3))], 0.1).step()


def test_wrong_gradient_shape_raises():
    p = Parameter(np.zeros(2))
    p.grad = np.ones(3)
    with pytest.raises(RuntimeError, match=r"gradient shape \(3,\) does not match parameter 0"):
        NesterovSGD([p], 0.1).step()


@pytest.mark.parametrize("bad_grad", [None, np.ones(3)], ids=["missing", "wrong shape"])
def test_failed_step_changes_nothing(bad_grad):
    a = Parameter(np.zeros(2))
    b = Parameter(np.zeros(2))
    opt = NesterovSGD([a, b], 0.1, momentum=0.9)
    a.grad = np.ones(2)
    b.grad = np.ones(2)
    opt.step()
    a.grad = np.ones(2)
    b.grad = bad_grad
    data = a.data.copy()
    velocities = [v.copy() for v in opt.velocities]
    with pytest.raises(RuntimeError, match="parameter 1"):
        opt.step()
    assert np.array_equal(a.data, data)
    assert np.array_equal(a.grad, np.ones(2))
    for v, before in zip(opt.velocities, velocities):
        assert np.array_equal(v, before)


def test_grads_cleared_after_step():
    p = Parameter(np.zeros(2))
    p.grad = np.ones(2)
    NesterovSGD([p], 0.1).step()
    assert p.grad is None


def test_milestone_schedule():
    p = Parameter(np.zeros(1))
    opt = NesterovSGD([p], lr=0.1)
    assert opt.set_epoch(0, (35, 55), 0.1) == pytest.approx(0.1)
    assert opt.set_epoch(35, (35, 55), 0.1) == pytest.approx(0.01)
    assert opt.set_epoch(55, (35, 55), 0.1) == pytest.approx(0.001)


def test_plain_momentum_differs_from_nesterov():
    a = Parameter(np.zeros(1))
    b = Parameter(np.zeros(1))
    a.grad = np.ones(1)
    b.grad = np.ones(1)
    NesterovSGD([a], 0.1, momentum=0.9, nesterov=True).step()
    NesterovSGD([b], 0.1, momentum=0.9, nesterov=False).step()
    assert a.data[0] != b.data[0]
    assert np.isclose(b.data[0], -0.1)
