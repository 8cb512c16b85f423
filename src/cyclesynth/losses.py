"""Adversarial, cycle-consistency and paired-baseline objectives.

Discriminators are trained with least-squares targets on their raw patch
score maps: real patches toward 1, synthesized patches toward 0. The
generators minimize the flipped-target form (1 - score)^2, which shares
the discriminator loss's fixed point but gives stronger gradients than
maximizing the discriminator objective directly.

All score-map and image reductions are means, never sums, so the cycle
weight keeps its meaning across image and patch-map resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine


@dataclass
class LossBreakdown:
    """Per-step scalar loss components of one training step, in loss_log.csv column order."""
    d_ct: float
    d_mr: float
    g_adv_ct: float
    g_adv_mr: float
    cycle: float
    total_g: float
    total_d: float


def _mean_sq_toward(score, target):
    if score.data.size == 0:
        raise engine.EmptyTensorError("empty score map")
    return engine.tmean(engine.square(target - score))


def loss_dis(score_real, score_fake):
    """Least-squares discriminator loss: mean (1-real)^2 + mean fake^2.

    The two maps may have different shapes; each is averaged on its own.
    """
    return engine.add(_mean_sq_toward(score_real, 1.0),
                      _mean_sq_toward(score_fake, 0.0))


def loss_gen_adv(score_fake):
    """Generator-side adversarial term: mean (1 - score_fake)^2.

    Zero exactly when the discriminator scores every patch of the fake as 1.
    """
    return _mean_sq_toward(score_fake, 1.0)


def l1_distance(x, target, what):
    """Mean absolute difference of x and target, which must share a shape; a
    mismatch raises ShapeError naming the pair as `what` (x, target)."""
    if x.data.shape != target.data.shape:
        raise engine.ShapeError(f"{what[0]} {x.data.shape} != {what[1]} {target.data.shape}")
    return engine.tmean(engine.absolute(x - target))


def cycle_l1(original, rec):
    """One cycle direction's term: mean absolute reconstruction error."""
    return l1_distance(rec, original, ("cycle loss: reconstruction", "original"))


def loss_cycle(i_mr, rec_mr, i_ct, rec_ct):
    """Mean absolute reconstruction error summed over both cycle directions."""
    return engine.add(cycle_l1(i_mr, rec_mr), cycle_l1(i_ct, rec_ct))


def voxel_l1(fake_ct, real_ct):
    """Mean absolute voxel difference of a synthesized and a real batch."""
    return l1_distance(fake_ct, real_ct, ("paired loss: fake", "real"))


def loss_paired(fake_ct, real_ct, score_fake, mu=100.0):
    """Paired-baseline generator objective: adversarial term plus mu * voxel L1."""
    l1 = voxel_l1(fake_ct, real_ct)
    return engine.add(loss_gen_adv(score_fake), float(mu) * l1)


def total_generator_loss(g_adv_ct, g_adv_mr, cycle, lam):
    """Joint objective for both generators: adversarial terms plus lam * cycle."""
    return engine.add(engine.add(g_adv_ct, g_adv_mr), float(lam) * cycle)
