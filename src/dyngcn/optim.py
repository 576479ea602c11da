"""Stochastic gradient descent with Nesterov momentum.

The update, per parameter w with gradient grad and velocity v:

    g <- grad + weight_decay * w
    v <- momentum * v + g
    w <- w - lr * (g + momentum * v)      (nesterov form)
    w <- w - lr * v                       (plain momentum)

``NesterovSGD`` owns one velocity per parameter, allocated as zeros when
it is built, and a milestone learning-rate schedule.  ``step`` checks
that every parameter holds a gradient of its own shape before it moves
any of them, so a failed step leaves parameters, gradients and
velocities as they were.
"""

from __future__ import annotations

import numpy as np


class NesterovSGD:
    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0, nesterov=True):
        self.params = list(params)
        self.velocities = [np.zeros_like(p.data) for p in self.params]
        self.base_lr = float(lr)
        self.lr = float(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov

    def step(self):
        """Apply one update to every parameter, then clear their gradients."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise RuntimeError(f"parameter {i} of shape {p.data.shape} has no gradient")
            if p.grad.shape != p.data.shape:
                raise RuntimeError(
                    f"gradient shape {p.grad.shape} does not match parameter {i} "
                    f"of shape {p.data.shape}"
                )
        lr, momentum, weight_decay = self.lr, self.momentum, self.weight_decay
        for p, velocity in zip(self.params, self.velocities):
            g = p.grad + weight_decay * p.data if weight_decay else p.grad
            velocity *= momentum
            velocity += g
            if self.nesterov:
                p.data -= lr * (g + momentum * velocity)
            else:
                p.data -= lr * velocity
            p.grad = None

    def set_epoch(self, epoch, milestones, decay):
        """Milestone schedule: multiply the base rate by ``decay`` per passed milestone."""
        factor = 1.0
        for m in milestones:
            if epoch >= m:
                factor *= decay
        self.lr = self.base_lr * factor
        return self.lr
