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


def _probe(arrays, grads, loss_value, rng, probes, h, tol, what="relative error"):
    """Central differences at `probes` random flat indices across `arrays`.

    Each probe bumps one element to orig +/- h in place, calls loss_value(),
    and restores it. Returns the max FD-vs-analytic deviation, normalized by
    the largest gradient magnitude seen; raises CheckFailure beyond tol.
    """
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    analytic, numeric = [], []
    for _ in range(probes):
        pick = int(rng.integers(total))
        ti = 0
        while pick >= sizes[ti]:
            pick -= sizes[ti]
            ti += 1
        a = arrays[ti]
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
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    err = float(np.abs(analytic - numeric).max() / scale)
    if err > tol:
        raise CheckFailure(f"{what} {err:.3e} > {tol:.1e}")
    return err


def _fd_gradcheck(build_loss, arrays, rng, probes=20, h=1e-3, tol=1e-2):
    """Op-level finite-difference check of build_loss's gradient (see _probe)."""
    tensors = [engine.Tensor(a, requires_grad=True) for a in arrays]
    engine.backward(build_loss(tensors))

    def loss_value():
        with engine.no_grad():
            return build_loss([engine.Tensor(a) for a in arrays]).item()

    return _probe(arrays, [t.grad for t in tensors], loss_value, rng, probes, h, tol)


def _away_from_zero(rng, shape, low=0.2, high=1.0):
    # kinked ops (relu family, absolute) are probed at differentiable points
    mag = rng.uniform(low, high, shape).astype(np.float32)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(np.float32)
    return mag * sign


def _proj_loss(op):
    def build(tensors):
        out = op(*tensors[:-1])
        return engine.tsum(out * tensors[-1])
    return build


def op_gradient_checks(rng_seed=0):
    """(name, build_loss, arrays) for every differentiable engine op."""
    rng = np.random.default_rng(rng_seed)

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
    ]
    return checks


def network_gradcheck(kind, size=None, width=8, probes=24, h=1e-6, tol=1e-2,
                      seed=0, init_seed=3):
    """Whole-network finite-difference check on a projection loss.

    Runs in float64: stacked relu/leaky-relu layers make the loss piecewise
    at a scale finer than any float32-viable step, so a float32 probe
    straddles activation kinks and measures a secant average rather than
    the derivative at the point. float64 allows h inside a single smooth
    piece; measured error is ~1e-9 against the float32-default tolerance.
    Returns the measured max relative error.
    """
    if size is None:
        size = 16 if kind == "generator" else 24
    fwd = (models.generator_forward if kind == "generator"
           else models.discriminator_forward)
    with engine.precision(np.float64):
        rng = np.random.default_rng(seed)
        group = models.init_params(kind, width, rng_seed=init_seed)
        names = group.names()
        x = engine.Tensor(rng.uniform(-1.0, 1.0, (1, 1, size, size)))
        proj = engine.Tensor(rng.uniform(-1.0, 1.0,
                                         fwd(group, x).data.shape))

        def loss_value():
            with engine.no_grad():
                return engine.tsum(fwd(group, x) * proj).item()

        engine.backward(engine.tsum(fwd(group, x) * proj))
        return _probe([group[n].data for n in names], [group[n].grad for n in names],
                      loss_value, rng, probes, h, tol, f"{kind} relative error")


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


def check_svol_roundtrip(tmp):
    rng = np.random.default_rng(0)
    vol = data.make_volume("CT", rng.integers(0, 256, (3, 8, 8), dtype=np.uint8),
                           mask=rng.random((3, 8, 8)) < 0.5)
    path = Path(tmp) / "probe.svol"
    data.save_volume(vol, path)
    first = path.read_bytes()
    back = data.load_volume(path)
    if not (np.array_equal(back.voxels, vol.voxels)
            and np.array_equal(back.mask, vol.mask)
            and back.window == vol.window and back.modality == vol.modality):
        raise CheckFailure("volume did not survive the round trip")
    data.save_volume(back, path)
    if path.read_bytes() != first:
        raise CheckFailure("volume re-save is not byte-identical")


def check_checkpoint_roundtrip(tmp):
    rng = np.random.default_rng(1)
    arrays = {"a/w": rng.standard_normal((3, 4)).astype(np.float32),
              "b/w": rng.standard_normal(7).astype(np.float32)}
    path = Path(tmp) / "probe.csyn"
    write_checkpoint(path, arrays, {"epoch": 2})
    first = path.read_bytes()
    back, meta = read_checkpoint(path)
    if meta["epoch"] != 2 or any(not np.array_equal(back[k], arrays[k])
                                 for k in arrays):
        raise CheckFailure("checkpoint did not survive the round trip")
    write_checkpoint(path, back, meta)
    if path.read_bytes() != first:
        raise CheckFailure("checkpoint re-save is not byte-identical")


def run_all(corrupt_op=None, probes=20, report=None):
    """Run every check; returns CheckResults in execution order.

    corrupt_op deliberately breaks one engine op's backward for the
    duration of the gradient checks, to prove the suite catches it.
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
    with tempfile.TemporaryDirectory() as tmp:
        run("io/svol_roundtrip", lambda: check_svol_roundtrip(tmp))
        run("io/checkpoint_roundtrip", lambda: check_checkpoint_roundtrip(tmp))
    return results
