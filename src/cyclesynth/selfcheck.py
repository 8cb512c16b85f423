"""Built-in diagnostics: gradient checks, architecture checks, format round-trips.

Everything here runs from a fresh install with no data on disk and reports
one named result per check, so a broken build points at the failing piece
by name.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, engine, models
from .checkpoint import read_checkpoint, write_checkpoint


class CheckFailure(AssertionError):
    """A diagnostic check did not meet its tolerance."""


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


# the engine ops op_gradient_checks calls, so the ones corrupted_op may break
PROBED_OPS = ("add", "sub", "mul", "square", "absolute", "tanh", "relu", "leaky_relu",
              "tsum", "tmean", "conv2d", "conv_transpose2d", "instance_norm")


@contextmanager
def corrupted_op(name):
    """Test hook: make `name`'s backward scale one parent gradient by 1.5.

    Verifies the gradient suite actually detects a wrong backward; the
    forward pass is untouched so only the analytic side goes bad.
    """
    orig_fn = getattr(engine, name)

    def wrapper(*args, **kwargs):
        out = orig_fn(*args, **kwargs)
        inner = out._backward
        if inner is not None:
            def spoiled(g):
                inner(g)
                for p in out._parents:
                    if p.grad is not None:
                        p.grad *= 1.5
                        break
            out._backward = spoiled
        return out

    setattr(engine, name, wrapper)
    try:
        yield
    finally:
        setattr(engine, name, orig_fn)


# -- finite-difference machinery ------------------------------------------


def _probe(arrays, grads, loss_value, rng, probes, h, tol, what="relative error",
           every_array=False):
    """Central differences at `probes` random flat indices across `arrays`, or, with
    every_array, at a random index of array t mod len(arrays) for probe t.

    Each probe bumps one element to orig +/- h in place, calls loss_value(),
    and restores it. Returns the max FD-vs-analytic deviation, normalized by
    the largest gradient magnitude seen; raises CheckFailure beyond tol. With
    every_array the scale is the largest seen in the same array, so a wrong
    gradient of a small operand cannot hide behind a large one. A network check
    keeps one scale: the conv biases that instance norm cancels have gradients of
    rounding size, whose own relative error means nothing.
    """
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    analytic, numeric, which = [], [], []
    for t in range(probes):
        if every_array:
            ti = t % len(arrays)
            pick = int(rng.integers(sizes[ti]))
        else:
            pick = int(rng.integers(total))
            ti = 0
            while pick >= sizes[ti]:
                pick -= sizes[ti]
                ti += 1
        a = arrays[ti]
        which.append(ti if every_array else 0)
        analytic.append(float(grads[ti].flat[pick]))
        orig = a.flat[pick]
        a.flat[pick] = orig + h
        hi = loss_value()
        a.flat[pick] = orig - h
        lo = loss_value()
        a.flat[pick] = orig
        numeric.append((hi - lo) / (2 * h))
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = np.full(len(arrays), 1e-8)
    np.maximum.at(scale, which, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = float((np.abs(analytic - numeric) / scale[which]).max())
    if err > tol:
        raise CheckFailure(f"{what} {err:.3e} > {tol:.1e}")
    return err


def _fd_gradcheck(build_loss, arrays, rng, probes):
    """Op-level finite-difference check (step 1e-3, tolerance 1e-2; see _probe). Every
    array is probed, so a wrong operand gradient cannot hide behind the others."""
    tensors = [engine.Tensor(a, requires_grad=True) for a in arrays]
    engine.backward(build_loss(tensors))

    def loss_value():
        with engine.no_grad():
            return build_loss([engine.Tensor(a) for a in arrays]).item()

    return _probe(arrays, [t.grad for t in tensors], loss_value, rng, probes, 1e-3, 1e-2,
                  every_array=True)


def _away_from_zero(rng, shape):
    # kinked ops (relu family, absolute) are probed at differentiable points
    mag = rng.uniform(0.2, 1.0, shape).astype(np.float32)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(np.float32)
    return mag * sign


def _kink_free_norm_inputs(rng, n, c, h, w):
    """x, gamma, beta for a fused instance norm whose activation input stays away
    from 0: each plane is +/-v pairs (mean 0, |xhat| >= 0.2), gamma in [0.5, 1.5]
    and |beta| <= 0.05, so every pre-activation is at least 0.05 from the kink."""
    half = _away_from_zero(rng, (n, c, h * w // 2))
    x = rng.permuted(np.concatenate([half, -half], axis=2), axis=2).reshape(n, c, h, w)
    gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
    beta = rng.uniform(-0.05, 0.05, c).astype(np.float32)
    return [x, gamma, beta]


def _proj_loss(op):
    def build(tensors):
        out = op(*tensors[:-1])
        return engine.tsum(out * tensors[-1])
    return build


def op_gradient_checks():
    """(name, build_loss, arrays) for every differentiable engine op."""
    rng = np.random.default_rng(0)

    def u(*shape):
        return rng.uniform(-1.0, 1.0, shape).astype(np.float32)

    checks = [
        ("add", _proj_loss(engine.add), [u(3, 4), u(3, 4), u(3, 4)]),
        ("add_scalar", _proj_loss(engine.add), [u(3, 4), u(1), u(3, 4)]),
        ("sub", _proj_loss(engine.sub), [u(3, 4), u(3, 4), u(3, 4)]),
        ("mul", _proj_loss(engine.mul), [u(3, 4), u(3, 4), u(3, 4)]),
        ("mul_scalar", _proj_loss(engine.mul), [u(2, 3, 4), u(1), u(2, 3, 4)]),
        ("square", _proj_loss(engine.square), [u(3, 4), u(3, 4)]),
        ("absolute", _proj_loss(engine.absolute),
         [_away_from_zero(rng, (3, 4)), u(3, 4)]),
        ("tanh", _proj_loss(engine.tanh), [u(3, 4), u(3, 4)]),
        ("relu", _proj_loss(engine.relu), [_away_from_zero(rng, (3, 4)), u(3, 4)]),
        ("leaky_relu", _proj_loss(engine.leaky_relu),
         [_away_from_zero(rng, (3, 4)), u(3, 4)]),
        ("tsum", lambda ts: engine.tsum(ts[0]), [u(3, 4)]),
        ("tmean", lambda ts: engine.tmean(ts[0]), [u(3, 4)]),
        ("conv2d", _proj_loss(lambda x, w, b: engine.conv2d(x, w, b, 1, 1)),
         [u(2, 3, 6, 6), u(4, 3, 3, 3), u(4), u(2, 4, 6, 6)]),
        ("conv2d_stride2",
         _proj_loss(lambda x, w, b: engine.conv2d(x, w, b, 2, 1)),
         [u(1, 2, 8, 8), u(3, 2, 4, 4), u(3), u(1, 3, 4, 4)]),
        ("conv2d_reflect",
         _proj_loss(lambda x, w, b: engine.conv2d(x, w, b, 1, 2, "reflect")),
         [u(1, 2, 7, 7), u(3, 2, 5, 5), u(3), u(1, 3, 7, 7)]),
        ("conv_transpose2d",
         _proj_loss(lambda x, w, b: engine.conv_transpose2d(x, w, b, 2, 1, 1)),
         [u(1, 4, 5, 5), u(4, 3, 3, 3), u(3), u(1, 3, 10, 10)]),
        ("instance_norm",
         _proj_loss(lambda x, g, b: engine.instance_norm(x, g, b)),
         [u(2, 3, 5, 5), u(3), u(3), u(2, 3, 5, 5)]),
        ("instance_norm_relu",
         _proj_loss(lambda x, g, b: engine.instance_norm(x, g, b, slope=0.0)),
         _kink_free_norm_inputs(rng, 2, 3, 4, 4) + [u(2, 3, 4, 4)]),
        ("instance_norm_leaky",
         _proj_loss(lambda x, g, b: engine.instance_norm(x, g, b, slope=models.LEAKY_SLOPE)),
         _kink_free_norm_inputs(rng, 2, 3, 4, 4) + [u(2, 3, 4, 4)]),
        # stride 1 with Cout < Cin: the narrow path of the generator head and of c5;
        # last, so the draws of every earlier check stay as they were
        ("conv2d_narrow",
         _proj_loss(lambda x, w, b: engine.conv2d(x, w, b, 1, 1, "reflect")),
         [u(2, 4, 6, 6), u(2, 4, 3, 3), u(2), u(2, 2, 6, 6)]),
    ]
    return checks


def network_gradcheck(kind, probes):
    """Whole-network finite-difference check on a projection loss: a width-8 net on
    one 16x16 (generator) or 24x24 (discriminator) image, step 1e-6, tolerance 1e-2.

    Runs in float64: stacked relu/leaky-relu layers make the loss piecewise
    at a scale finer than any float32-viable step, so a float32 probe
    straddles activation kinks and measures a secant average rather than
    the derivative at the point. float64 allows h inside a single smooth
    piece; measured error is ~1e-9 against the float32-default tolerance.
    Returns the measured max relative error.
    """
    size = 16 if kind == "generator" else 24
    fwd = (models.generator_forward if kind == "generator"
           else models.discriminator_forward)
    with engine.precision(np.float64):
        rng = np.random.default_rng(0)
        group = models.init_params(kind, 8, rng_seed=3)
        names = group.names()
        x = engine.Tensor(rng.uniform(-1.0, 1.0, (1, 1, size, size)))
        proj = engine.Tensor(rng.uniform(-1.0, 1.0,
                                         fwd(group, x).data.shape))

        def loss_value():
            with engine.no_grad():
                return engine.tsum(fwd(group, x) * proj).item()

        engine.backward(engine.tsum(fwd(group, x) * proj))
        return _probe([group[n].data for n in names], [group[n].grad for n in names],
                      loss_value, rng, probes, 1e-6, 1e-2, f"{kind} relative error")


# -- non-gradient checks --------------------------------------------------


def check_receptive_field():
    rf = models.receptive_field(models.DISC_LAYERS)
    if rf != 70:
        raise CheckFailure(f"discriminator receptive field {rf} != 70")


def check_shapes():
    gen = models.init_params("generator", 4, rng_seed=0)
    for size in (16, 24):
        x = engine.Tensor(np.zeros((1, 1, size, size), np.float32))
        out = models.generator_forward(gen, x)
        if out.data.shape != x.data.shape:
            raise CheckFailure(f"generator changed shape at {size}: {out.data.shape}")
    if models.disc_output_size(256) != 30:
        raise CheckFailure(f"discriminator map for 256 is "
                           f"{models.disc_output_size(256)}, expected 30")
    dis = models.init_params("discriminator", 4, rng_seed=0)
    out = models.discriminator_forward(
        dis, engine.Tensor(np.zeros((1, 1, 24, 24), np.float32)))
    if out.data.shape != (1, 1, 1, 1):
        raise CheckFailure(f"discriminator 24x24 map {out.data.shape} != (1,1,1,1)")


def check_param_counts():
    for kind, count_fn, expect in (
            ("generator", models.generator_param_count, 11_376_129),
            ("discriminator", models.discriminator_param_count, 2_764_481)):
        if count_fn(64) != expect:
            raise CheckFailure(f"{kind} width-64 count {count_fn(64)} != {expect}")
        got = models.init_params(kind, 8, rng_seed=0).param_count()
        if got != count_fn(8):
            raise CheckFailure(f"{kind} width-8 container count {got} != formula")


def head_mask_reference(plane):
    """The oracle for data.head_mask on one 2-D foreground plane: its first largest
    4-connected component, with every background piece that reaches no border filled."""
    from scipy import ndimage

    labels, _ = ndimage.label(plane)
    head = labels == 1 + np.argmax(np.bincount(labels.ravel())[1:])
    background, _ = ndimage.label(~head)
    border = np.concatenate([background[0], background[-1],
                             background[:, 0], background[:, -1]])
    return ~np.isin(background, border[border > 0])


def check_head_mask():
    """The whole-stack head mask against head_mask_reference, slice by slice, on
    seeded random blobs. Dense stacks fill the whole slice; sparse ones keep their
    blobs inside a sub-rectangle, so head_mask labels only part of each slice."""
    rng = np.random.default_rng(2)
    dense, sparse = 12, 8
    for k in range(dense + sparse):
        s, h, w = (int(v) for v in rng.integers((2, 5, 5), (6, 20, 20)))
        if k < dense:
            fg = rng.random((s, h, w)) < rng.uniform(0.3, 0.7)
            fg[:, h // 2, w // 2] = True
        else:
            bh, bw = (int(v) for v in rng.integers(2, (h, w)))
            y0, x0 = (int(v) for v in rng.integers(0, (h - bh + 1, w - bw + 1)))
            fg = np.zeros((s, h, w), dtype=bool)
            fg[:, y0:y0 + bh, x0:x0 + bw] = rng.random((s, bh, bw)) < rng.uniform(0.3, 0.7)
            fg[:, y0 + bh // 2, x0 + bw // 2] = True
        got = data.head_mask(data.SliceVolume("CT", np.where(fg, 255, 0).astype(np.uint8)))
        for si, plane in enumerate(fg):
            if not np.array_equal(got[si], head_mask_reference(plane)):
                raise CheckFailure(f"stack {k} ({s}x{h}x{w}) slice {si} differs "
                                   "from the per-slice reference")
    return f"{dense} dense and {sparse} sparse stacks"


def _check_roundtrip(what, path, obj, save, load, same):
    """save(obj, path), load it back, require same(back, obj), then save the loaded
    copy over it and require the same bytes."""
    save(obj, path)
    first = path.read_bytes()
    back = load(path)
    if not same(back, obj):
        raise CheckFailure(f"{what} did not survive the round trip")
    save(back, path)
    if path.read_bytes() != first:
        raise CheckFailure(f"{what} re-save is not byte-identical")


def check_svol_roundtrip(tmp):
    rng = np.random.default_rng(0)
    vol = data.SliceVolume("CT", rng.integers(0, 256, (3, 8, 8), dtype=np.uint8),
                           mask=rng.random((3, 8, 8)) < 0.5)
    _check_roundtrip("volume", Path(tmp) / "probe.svol", vol, data.save_volume,
                     data.load_volume,
                     lambda a, b: (np.array_equal(a.voxels, b.voxels)
                                   and np.array_equal(a.mask, b.mask)
                                   and a.window == b.window and a.modality == b.modality))


def check_checkpoint_roundtrip(tmp):
    rng = np.random.default_rng(1)
    arrays = {"a/w": rng.standard_normal((3, 4)).astype(np.float32),
              "b/w": rng.standard_normal(7).astype(np.float32)}
    # the object is (arrays, meta), the pair read_checkpoint returns
    _check_roundtrip("checkpoint", Path(tmp) / "probe.csyn", (arrays, {"epoch": 2}),
                     lambda obj, path: write_checkpoint(path, *obj), read_checkpoint,
                     lambda a, b: (a[1]["epoch"] == b[1]["epoch"]
                                   and all(np.array_equal(a[0][k], b[0][k]) for k in b[0])))


def run_all(corrupt_op, probes, report):
    """Run every check; returns CheckResults in execution order.

    corrupt_op, if not None, deliberately breaks one engine op's backward for
    the duration of the gradient checks, to prove the suite catches it. report,
    if not None, is called with one line per check.
    """
    results = []

    def run(name, fn):
        t0 = time.perf_counter()
        try:
            detail = fn()
            ok = True
            detail = "" if detail is None else str(detail)
        except Exception as e:  # a failing check must not stop the rest
            ok = False
            detail = f"{type(e).__name__}: {e}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
        if report is not None:
            line = f"[{'PASS' if ok else 'FAIL'}] {results[-1].name}"
            if detail:
                line += f"  ({detail})"
            report(line)

    with corrupted_op(corrupt_op) if corrupt_op else nullcontext():
        for i, (name, build, arrays) in enumerate(op_gradient_checks()):
            rng = np.random.default_rng(1000 + i)
            run(f"grad/{name}",
                lambda b=build, a=arrays, r=rng: f"err {_fd_gradcheck(b, a, r, probes):.1e}")
        run("grad/generator",
            lambda: f"err {network_gradcheck('generator', probes=probes):.1e}")
        run("grad/discriminator",
            lambda: f"err {network_gradcheck('discriminator', probes=probes):.1e}")

    run("arch/receptive_field", check_receptive_field)
    run("arch/shapes", check_shapes)
    run("arch/param_counts", check_param_counts)
    run("mask/head_mask", check_head_mask)
    with tempfile.TemporaryDirectory() as tmp:
        run("io/svol_roundtrip", lambda: check_svol_roundtrip(tmp))
        run("io/checkpoint_roundtrip", lambda: check_checkpoint_roundtrip(tmp))
    return results
