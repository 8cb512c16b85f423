"""Shared test oracles.

The gradient oracle uses selfcheck's finite differences, which only ever
call forward code, so they can vouch for the engine's analytic gradients.
"""

import contextlib
import resource
import tracemalloc

import numpy as np

from cyclesynth import engine, selfcheck


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


def gradcheck(build_loss, arrays, rng, probes=20, h=1e-3, tol=1e-2, wrt=None,
              every_array=True):
    """Compare engine gradients against selfcheck._probe's central differences.

    build_loss maps a list of Tensors to a scalar Tensor. Only the arrays whose
    indices are in wrt (default: all) require grad and are probed. Each probed
    array is scored on its own gradient scale; a whole-network check passes
    every_array=False to keep one scale, for the reason _probe gives. Returns the
    max relative error; raises selfcheck.CheckFailure beyond tol.
    """
    wrt = range(len(arrays)) if wrt is None else wrt
    tensors = [engine.Tensor(a, requires_grad=i in wrt) for i, a in enumerate(arrays)]
    engine.backward(build_loss(tensors))
    assert all((t.grad is not None) == (i in wrt) for i, t in enumerate(tensors))
    # the engine-dtype arrays: _probe bumps them in place and the loss is rebuilt from them
    plain = [t.data for t in tensors]

    def loss_value():
        with engine.no_grad():
            return build_loss([engine.Tensor(a) for a in plain]).item()

    return selfcheck._probe([plain[i] for i in wrt], [tensors[i].grad for i in wrt],
                            loss_value, rng, probes, h, tol, every_array=every_array)
