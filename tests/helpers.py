"""Shared test oracles.

The finite-difference machinery here is deliberately independent of the
engine's backward pass: it only ever calls forward code, so it can vouch
for the analytic gradients.
"""

import contextlib
import resource
import tracemalloc

import numpy as np

from cyclesynth import engine


@contextlib.contextmanager
def file_size_limit(nbytes):
    """Make this process's writes past nbytes of any file fail with OSError (EFBIG),
    as on a full disk. Python ignores SIGXFSZ, so the write raises instead."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


def traced_peak(fn):
    """(fn(), peak bytes allocated while it ran). numpy reports its buffers to
    tracemalloc, so the figure is deterministic."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def central_diff(loss_fn, arrays, t_idx, flat_idx, h):
    """Central finite difference of loss_fn w.r.t. one coordinate.

    loss_fn takes a list of plain numpy arrays and returns a float.
    """
    bumped = [a.copy() for a in arrays]
    bumped[t_idx].flat[flat_idx] += h
    hi = loss_fn(bumped)
    bumped[t_idx].flat[flat_idx] -= 2 * h
    lo = loss_fn(bumped)
    return (hi - lo) / (2 * h)


def bfs_largest_component_filled(fg):
    """Reference head-mask construction: breadth-first search, no scipy.

    Largest 4-connected True component of fg with its enclosed holes
    filled (a hole is background not 4-connected to the border).
    """
    fg = np.asarray(fg, dtype=bool)
    h, w = fg.shape
    seen = np.zeros_like(fg)
    best = None
    best_size = -1
    for sy in range(h):
        for sx in range(w):
            if not fg[sy, sx] or seen[sy, sx]:
                continue
            comp = []
            queue = [(sy, sx)]
            seen[sy, sx] = True
            while queue:
                y, x = queue.pop()
                comp.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and fg[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            if len(comp) > best_size:
                best_size = len(comp)
                best = comp
    mask = np.zeros_like(fg)
    for y, x in best:
        mask[y, x] = True

    # flood the background from the border; anything unreached is a hole
    bg = ~mask
    reached = np.zeros_like(bg)
    queue = [(y, x) for y in range(h) for x in (0, w - 1) if bg[y, x]]
    queue += [(y, x) for x in range(w) for y in (0, h - 1) if bg[y, x]]
    for y, x in queue:
        reached[y, x] = True
    while queue:
        y, x = queue.pop()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and bg[ny, nx] and not reached[ny, nx]:
                reached[ny, nx] = True
                queue.append((ny, nx))
    return mask | (bg & ~reached)


def gradcheck(build_loss, arrays, rng, probes=20, h=1e-3, tol=1e-2, wrt=None):
    """Compare engine gradients against central differences.

    build_loss maps a list of Tensors to a scalar Tensor. Only the arrays
    whose indices are in wrt (default: all) require grad and are probed.
    Returns the max deviation normalized by the largest gradient magnitude
    seen, and asserts it is within tol.
    """
    wrt = range(len(arrays)) if wrt is None else wrt
    tensors = [engine.Tensor(a, requires_grad=i in wrt) for i, a in enumerate(arrays)]
    loss = build_loss(tensors)
    engine.backward(loss)
    grads = [t.grad for t in tensors]
    assert all((g is not None) == (i in wrt) for i, g in enumerate(grads))

    def loss_value(plain):
        with engine.no_grad():
            return build_loss([engine.Tensor(a) for a in plain]).item()

    analytic = []
    numeric = []
    sizes = [a.size if i in wrt else 0 for i, a in enumerate(arrays)]
    total = sum(sizes)
    for _ in range(probes):
        pick = int(rng.integers(total))
        t_idx = 0
        while pick >= sizes[t_idx]:
            pick -= sizes[t_idx]
            t_idx += 1
        analytic.append(float(grads[t_idx].flat[pick]))
        numeric.append(central_diff(loss_value, arrays, t_idx, pick, h))

    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    err = float(np.abs(analytic - numeric).max() / scale)
    assert err <= tol, f"gradient mismatch: relative error {err:.3e} > {tol:.1e}"
    return err
