"""Independent float64 reference for the cyclesynth networks and objectives.

Written from the architecture's definition, not from the engine's code:
convolution as a contraction over explicit sliding windows, reflect padding
by mirrored indices, transposed convolution as zero insertion followed by a
stride-1 convolution with the flipped kernel, and instance norm, the
activations and the least-squares, cycle and L1 objectives in closed form.
Parameters are plain ``name -> ndarray`` dicts, as stored in a checkpoint.

``frozen_kinks`` makes the objectives smooth along a direction, so that a
central difference of them converges to the directional derivative.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NORM_EPS = 1e-5
LEAKY_SLOPE = 0.2
RESIDUAL_BLOCKS = 9


# -- ops ----------------------------------------------------------------------


def _mirror(n, pad):
    """Source index of each padded position under reflect (edge not repeated)."""
    idx = np.abs(np.arange(-pad, n + pad))
    return np.where(idx > n - 1, 2 * (n - 1) - idx, idx)


def pad2d(x, pad, mode):
    if pad == 0:
        return x
    n, c, h, w = x.shape
    if mode == "reflect":
        return x[:, :, _mirror(h, pad)][:, :, :, _mirror(w, pad)]
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    out[:, :, pad:pad + h, pad:pad + w] = x
    return out


def conv2d(x, w, b, stride=1, pad=0, mode="zeros"):
    """Cross-correlation [N,Cin,H,W] * [Cout,Cin,k,k] over explicit windows."""
    k = w.shape[2]
    win = sliding_window_view(pad2d(x, pad, mode), (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                 # [N,Cin,Ho,Wo,k,k]
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # [N,Ho,Wo,Cout]
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def conv_transpose2d(x, w, b, stride=2, pad=1, output_pad=1):
    """Transposed conv with weight [Cin,Cout,k,k] by zero insertion."""
    n, c, h, wd = x.shape
    k = w.shape[2]
    lo = k - 1 - pad
    hi = lo + output_pad
    z = np.zeros((n, c, (h - 1) * stride + 1 + lo + hi,
                  (wd - 1) * stride + 1 + lo + hi), dtype=np.float64)
    z[:, :, lo:lo + (h - 1) * stride + 1:stride,
      lo:lo + (wd - 1) * stride + 1:stride] = x
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # [Cout,Cin,k,k]
    return conv2d(z, flipped, b)


def instance_norm(x, gamma, beta, eps=NORM_EPS):
    mu = x.mean(axis=(2, 3), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(2, 3), keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return xhat * gamma[None, :, None, None] + beta[None, :, None, None]


_kinks = None  # [recorded sides, next call] inside frozen_kinks


@contextlib.contextmanager
def frozen_kinks(sides):
    """Evaluate with the side of every ReLU, leaky ReLU and |x| kink fixed.

    With `sides` empty, each of these ops appends the side its input is on
    (sign pattern); with `sides` filled, the ops use them in call order. An
    objective evaluated at x + h*d under the sides recorded at x is smooth
    in h, and has the same derivative at h = 0 as the objective itself,
    unless an input sits exactly on a kink. Without frozen sides, a central
    difference over ~10^6 ReLUs crosses some kink at any useful step h.
    """
    global _kinks
    _kinks = [sides, 0]
    try:
        yield sides
    finally:
        _kinks = None


def _side(x, pattern):
    """pattern(x), or the pattern recorded at this call under frozen_kinks."""
    if _kinks is None:
        return pattern(x)
    sides, i = _kinks
    if i == len(sides):
        sides.append(pattern(x))
    _kinks[1] = i + 1
    return sides[i]


def _positive(x):
    return x > 0.0


def relu(x):
    return np.where(_side(x, _positive), x, 0.0)


def leaky_relu(x, slope=LEAKY_SLOPE):
    return np.where(_side(x, _positive), x, slope * x)


def tanh(x):
    return np.tanh(x)


# -- networks -----------------------------------------------------------------


def _cnr(p, name, x, stride, pad, mode):
    y = conv2d(x, p[f"{name}.w"], p[f"{name}.b"], stride, pad, mode)
    return relu(instance_norm(y, p[f"{name}.gamma"], p[f"{name}.beta"]))


def generator(p, x):
    """Residual generator: 7x7 stem, two stride-2 convs, 9 blocks, two
    stride-2 transposed convs, 7x7 head, tanh. [N,1,H,W] -> [N,1,H,W]."""
    y = _cnr(p, "stem", x, 1, 3, "reflect")
    y = _cnr(p, "down1", y, 2, 1, "zeros")
    y = _cnr(p, "down2", y, 2, 1, "zeros")
    for i in range(1, RESIDUAL_BLOCKS + 1):
        r = _cnr(p, f"res{i}.c1", y, 1, 1, "reflect")
        r = conv2d(r, p[f"res{i}.c2.w"], p[f"res{i}.c2.b"], 1, 1, "reflect")
        y = y + instance_norm(r, p[f"res{i}.c2.gamma"], p[f"res{i}.c2.beta"])
    for name in ("up1", "up2"):
        y = conv_transpose2d(y, p[f"{name}.w"], p[f"{name}.b"])
        y = relu(instance_norm(y, p[f"{name}.gamma"], p[f"{name}.beta"]))
    return tanh(conv2d(y, p["head.w"], p["head.b"], 1, 3, "reflect"))


def discriminator(p, x):
    """Five 4x4 convs (strides 2,2,2,1,1, zero pad 1), raw score map."""
    y = leaky_relu(conv2d(x, p["c1.w"], p["c1.b"], 2, 1))
    for name, stride in (("c2", 2), ("c3", 2), ("c4", 1)):
        y = conv2d(y, p[f"{name}.w"], p[f"{name}.b"], stride, 1)
        y = leaky_relu(instance_norm(y, p[f"{name}.gamma"], p[f"{name}.beta"]))
    return conv2d(y, p["c5.w"], p["c5.b"], 1, 1)


# -- objectives ---------------------------------------------------------------


def lsgan_dis(score_real, score_fake):
    return np.mean((1.0 - score_real) ** 2) + np.mean(score_fake ** 2)


def lsgan_gen(score_fake):
    return np.mean((1.0 - score_fake) ** 2)


def l1(a, b):
    d = a - b
    return np.mean(_side(d, np.sign) * d)


def cycle(i_mr, rec_mr, i_ct, rec_ct):
    return l1(rec_mr, i_mr) + l1(rec_ct, i_ct)


def unpaired_objective(nets, i_mr, i_ct, lam):
    """Generator objective of one unpaired step and every intermediate."""
    g_mr2ct, g_ct2mr = nets["g_mr2ct"], nets["g_ct2mr"]
    fake_ct = generator(g_mr2ct, i_mr)
    rec_mr = generator(g_ct2mr, fake_ct)
    fake_mr = generator(g_ct2mr, i_ct)
    rec_ct = generator(g_mr2ct, fake_mr)
    adv_ct = lsgan_gen(discriminator(nets["d_ct"], fake_ct))
    adv_mr = lsgan_gen(discriminator(nets["d_mr"], fake_mr))
    cyc = cycle(i_mr, rec_mr, i_ct, rec_ct)
    return {"fake_ct": fake_ct, "rec_mr": rec_mr, "fake_mr": fake_mr,
            "rec_ct": rec_ct, "g_adv_ct": adv_ct, "g_adv_mr": adv_mr,
            "cycle": cyc, "total_g": adv_ct + adv_mr + lam * cyc,
            "d_ct": lsgan_dis(discriminator(nets["d_ct"], i_ct),
                              discriminator(nets["d_ct"], fake_ct)),
            "d_mr": lsgan_dis(discriminator(nets["d_mr"], i_mr),
                              discriminator(nets["d_mr"], fake_mr))}


def paired_objective(nets, i_mr, i_ct, mu):
    """Generator objective of one paired-baseline step and its parts."""
    fake_ct = generator(nets["g_mr2ct"], i_mr)
    adv = lsgan_gen(discriminator(nets["d_ct"], fake_ct))
    return {"fake_ct": fake_ct, "g_adv_ct": adv, "cycle": l1(fake_ct, i_ct),
            "total_g": adv + mu * l1(fake_ct, i_ct),
            "d_ct": lsgan_dis(discriminator(nets["d_ct"], i_ct),
                              discriminator(nets["d_ct"], fake_ct))}
