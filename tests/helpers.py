"""Shared test helpers: a file size limit, a traced peak and the gradient oracle.

The gradient oracle uses selfcheck's finite differences, which only ever
call forward code, so they can vouch for the engine's analytic gradients.
"""

import contextlib
import resource
import tracemalloc

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
