import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import optim
from cyclesynth.models import ParamGroup
from cyclesynth.optim import AdamState, adam_step, lr_at
from cyclesynth.train import TrainConfig


def scalar_group(value=0.0):
    p = ParamGroup()
    p.add("w", np.array([value]))
    return p


class TestAdamStep:
    def test_zero_grad_is_fixed_point(self):
        p = scalar_group(1.5)
        p["w"].grad = np.zeros_like(p["w"].data)
        st_ = AdamState()
        adam_step(p, st_, lr=0.1)
        assert st_.t == 1
        assert p["w"].data[0] == pytest.approx(1.5, abs=0)

    def test_first_step_moves_by_lr(self):
        # hand-evaluated recurrence at t=1: m_hat = v_hat = 1, step = lr
        lr = 2e-4
        p = scalar_group(0.0)
        p["w"].grad = np.ones_like(p["w"].data)
        adam_step(p, AdamState(), lr=lr)
        assert abs(p["w"].data[0] + lr) <= 1e-9

    def test_lr_zero_is_noop(self):
        p = scalar_group(3.0)
        p["w"].grad = np.full_like(p["w"].data, 7.0)
        st_ = AdamState()
        adam_step(p, st_, lr=0.0)
        assert st_.t == 1
        assert p["w"].data[0] == pytest.approx(3.0, abs=0)

    def test_missing_grad_names_parameter(self):
        p = ParamGroup()
        p.add("alpha", np.zeros(2))
        p.add("beta", np.zeros(2))
        p["alpha"].grad = np.zeros(2, dtype=np.float32)
        with pytest.raises(optim.MissingGradError, match="beta"):
            adam_step(p, AdamState(), lr=0.1)

    def test_moment_buffers_mirror_parameter_shapes(self):
        p = ParamGroup()
        p.add("w", np.zeros((2, 3)))
        p.add("b", np.zeros(3))
        for t in p.tensors():
            t.grad = np.ones_like(t.data)
        st_ = AdamState()
        adam_step(p, st_, lr=0.01)
        assert st_.m["w"].shape == (2, 3) and st_.v["w"].shape == (2, 3)
        assert st_.m["b"].shape == (3,) and st_.v["b"].shape == (3,)

    def test_t_strictly_increases(self):
        p = scalar_group()
        st_ = AdamState()
        for expect in (1, 2, 3):
            p["w"].grad = np.ones_like(p["w"].data)
            adam_step(p, st_, lr=0.01)
            assert st_.t == expect

    def test_quadratic_convergence_smoke(self):
        # minimize x^2 from x=5
        p = scalar_group(5.0)
        st_ = AdamState()
        for _ in range(2000):
            p["w"].grad = 2.0 * p["w"].data
            adam_step(p, st_, lr=0.01)
            if abs(p["w"].data[0]) < 0.01:
                break
        assert abs(p["w"].data[0]) < 0.01

    def test_defaults(self):
        assert optim.BETA1 == 0.5
        assert optim.BETA2 == 0.999
        assert optim.EPS == 1e-8


def recipe_lr(epoch):
    """lr_at on the schedule of the default TrainConfig, the paper's recipe."""
    cfg = TrainConfig()
    return lr_at(epoch, cfg.base_lr, cfg.fixed_epochs, cfg.decay_epochs)


class TestLrSchedule:
    def test_fixed_phase_endpoints(self):
        assert recipe_lr(0) == 2e-4
        assert recipe_lr(99) == 2e-4

    def test_decay_midpoint(self):
        assert recipe_lr(150) == 1e-4

    def test_reaches_zero(self):
        assert recipe_lr(200) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            recipe_lr(-1)
        with pytest.raises(ValueError):
            recipe_lr(201)

    def test_zero_decay_schedule_ends_at_zero(self):
        assert lr_at(4, 1e-3, 5, 0) == 1e-3
        assert lr_at(5, 1e-3, 5, 0) == 0.0

    def test_total_epochs(self):
        assert TrainConfig().total_epochs == 200
        assert TrainConfig(fixed_epochs=5, decay_epochs=5).total_epochs == 10

    @settings(max_examples=50, deadline=None)
    @given(fixed=st.integers(1, 50), decay=st.integers(1, 50),
           base=st.floats(1e-6, 1e-2, allow_nan=False))
    def test_non_increasing_with_one_knee(self, fixed, decay, base):
        lrs = [lr_at(e, base, fixed, decay) for e in range(fixed + decay + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == 0.0
        # flat through the knee at epoch `fixed`, then one constant negative slope
        assert all(v == base for v in lrs[:fixed + 1])
        tail_diffs = np.diff(lrs[fixed:])
        assert np.allclose(tail_diffs, -base / decay, atol=1e-12)
