"""Stochastic gradient descent with Nesterov momentum.

The update, per parameter w with gradient grad and velocity v:

    g <- grad + weight_decay * w
    v <- momentum * v + g
    w <- w - lr * (g + momentum * v)      (nesterov form)
    w <- w - lr * v                       (plain momentum)

Velocities live on the Parameter itself so a bare function call is enough
for a step; the ``NesterovSGD`` class adds the milestone learning-rate
schedule used for full training runs.
"""

from __future__ import annotations


def sgd_nesterov_step(params, lr, momentum=0.9, weight_decay=0.0, nesterov=True):
    """Apply one update to every parameter, then clear their gradients."""
    for p in params:
        grad = p.tensor.grad
        if grad is None:
            raise RuntimeError(f"parameter {p.name or '<unnamed>'} has no gradient")
        if grad.shape != p.data.shape:
            raise RuntimeError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{p.name or '<unnamed>'} of shape {p.data.shape}"
            )
        g = grad + weight_decay * p.data if weight_decay else grad
        p.velocity *= momentum
        p.velocity += g
        if nesterov:
            p.tensor.data -= lr * (g + momentum * p.velocity)
        else:
            p.tensor.data -= lr * p.velocity
        p.clear_grad()


class NesterovSGD:
    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0, nesterov=True):
        self.params = list(params)
        self.base_lr = float(lr)
        self.lr = float(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov

    def step(self):
        sgd_nesterov_step(
            self.params,
            self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            nesterov=self.nesterov,
        )

    def set_epoch(self, epoch, milestones, decay):
        """Milestone schedule: multiply the base rate by ``decay`` per passed milestone."""
        factor = 1.0
        for m in milestones:
            if epoch >= m:
                factor *= decay
        self.lr = self.base_lr * factor
        return self.lr
