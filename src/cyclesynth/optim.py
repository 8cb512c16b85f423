"""Adam with bias correction, and the fixed-then-linear-decay learning rate.

Each network owns its own optimizer state; generator and discriminator
steps alternate, so moments are never shared across parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# GAN-training convention: beta1 lowered to 0.5
BETA1 = 0.5
BETA2 = 0.999
EPS = 1e-8


class MissingGradError(RuntimeError):
    pass


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state, lr):
    """One bias-corrected Adam update over every tensor in a ParamGroup."""
    state.t += 1
    t = state.t
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise MissingGradError(f"adam_step: no gradient for parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + EPS)


@dataclass
class LrSchedule:
    base_lr: float = 2e-4
    fixed_epochs: int = 100
    decay_epochs: int = 100

    @property
    def total_epochs(self):
        return self.fixed_epochs + self.decay_epochs


def lr_at(epoch, schedule):
    """Learning rate for an epoch: flat for fixed_epochs, then linear to zero."""
    total = schedule.fixed_epochs + schedule.decay_epochs
    if epoch < 0 or epoch > total:
        raise ValueError(f"epoch {epoch} outside schedule range [0, {total}]")
    if epoch < schedule.fixed_epochs:
        return schedule.base_lr
    if schedule.decay_epochs == 0:
        return 0.0
    return schedule.base_lr * (1.0 - (epoch - schedule.fixed_epochs) / schedule.decay_epochs)
