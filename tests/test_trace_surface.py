"""The benchmark's layer tracer (perfbench/layertrace.py) patches program names in
place: engine ops, train's step, loss and Adam names, data, evalx and cli
functions. A rename in src/ that it can no longer find fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from cyclesynth import engine
from cyclesynth.engine import Tensor


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_install_patches_every_name_and_uninstall_restores_it():
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        patched = [(owner, attr, original, getattr(owner, attr) is not original)
                   for owner, attr, original in tracer._patches]
        tracer.uninstall()
    assert patched
    for owner, attr, original, replaced in patched:
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        assert replaced, f"{name} was not replaced"
        assert getattr(owner, attr) is original, f"{name} was not restored"


def test_traced_pointwise_ops_keep_their_gradients():
    tracer = _tracer()
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    tracer.install()
    try:
        engine.backward(engine.tsum(engine.mul(x, x)))
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])
    assert tracer.count([None], "engine.pointwise.bwd") == 2
