import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import engine, losses
from cyclesynth.engine import Tensor


def const_map(value, shape=(1, 1, 3, 3)):
    return Tensor(np.full(shape, value, dtype=np.float32))


class TestDiscriminatorLoss:
    def test_perfect_discriminator_is_zero(self):
        v = losses.loss_dis(const_map(1.0), const_map(0.0)).item()
        assert abs(v - 0.0) <= 1e-6

    def test_undecided_half(self):
        v = losses.loss_dis(const_map(0.5), const_map(0.5)).item()
        assert abs(v - 0.5) <= 1e-6

    def test_maximally_wrong(self):
        v = losses.loss_dis(const_map(0.0), const_map(1.0)).item()
        assert abs(v - 2.0) <= 1e-6

    def test_mr_form_is_same_function(self):
        # The MR discriminator objective is the CT one with roles swapped,
        # so both domains call loss_dis.
        v = losses.loss_dis(const_map(0.5), const_map(0.5)).item()
        assert abs(v - 0.5) <= 1e-6

    def test_maps_of_different_shapes_allowed(self):
        v = losses.loss_dis(const_map(1.0, (1, 1, 4, 4)),
                            const_map(0.0, (2, 1, 6, 6))).item()
        assert abs(v) <= 1e-6

    def test_empty_map_rejected(self):
        with pytest.raises(engine.EmptyTensorError):
            losses.loss_dis(const_map(1.0), Tensor(np.zeros((1, 1, 0, 3), np.float32)))

    def test_stationary_at_real_optimum(self):
        # d/d score_real is exactly 0 at the all-ones optimum
        rng = np.random.default_rng(0)
        real = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
        fake = Tensor(rng.uniform(0, 1, size=(1, 1, 3, 3)).astype(np.float32))
        engine.backward(losses.loss_dis(real, fake))
        np.testing.assert_array_equal(real.grad, 0.0)

    def test_nonnegative_on_random_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            real = Tensor(rng.normal(size=(1, 1, 3, 3)).astype(np.float32))
            fake = Tensor(rng.normal(size=(1, 1, 3, 3)).astype(np.float32))
            assert losses.loss_dis(real, fake).item() >= 0.0


class TestGeneratorAdversarial:
    def test_fully_fooled_is_zero(self):
        assert abs(losses.loss_gen_adv(const_map(1.0)).item()) <= 1e-6

    def test_fully_caught_is_one(self):
        assert abs(losses.loss_gen_adv(const_map(0.0)).item() - 1.0) <= 1e-6

    def test_half(self):
        assert abs(losses.loss_gen_adv(const_map(0.5)).item() - 0.25) <= 1e-6

    def test_gradient_pushes_scores_up(self):
        s = Tensor(np.full((1, 1, 2, 2), 0.3, dtype=np.float32), requires_grad=True)
        engine.backward(losses.loss_gen_adv(s))
        assert np.all(s.grad < 0)  # raising any score lowers the loss


class TestCycleLoss:
    def test_identity_reconstruction(self):
        a = const_map(0.4)
        b = const_map(-0.2)
        assert abs(losses.loss_cycle(a, a, b, b).item()) <= 1e-6

    def test_constant_offset_both_paths(self):
        mr = const_map(0.0)
        ct = const_map(0.0)
        off = const_map(0.1)
        v = losses.loss_cycle(mr, off, ct, off).item()
        assert abs(v - 0.2) <= 1e-6

    def test_one_path_perfect_other_off(self):
        mr = const_map(0.0)
        ct = const_map(0.0)
        v = losses.loss_cycle(mr, mr, ct, const_map(0.5)).item()
        assert abs(v - 0.5) <= 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(engine.ShapeError):
            losses.loss_cycle(const_map(0.0), const_map(0.0, (1, 1, 4, 4)),
                              const_map(0.0), const_map(0.0))

    def test_symmetric_under_path_swap(self):
        rng = np.random.default_rng(2)
        arrs = [Tensor(rng.normal(size=(1, 1, 4, 4)).astype(np.float32)) for _ in range(4)]
        mr, rec_mr, ct, rec_ct = arrs
        a = losses.loss_cycle(mr, rec_mr, ct, rec_ct).item()
        b = losses.loss_cycle(ct, rec_ct, mr, rec_mr).item()
        assert abs(a - b) <= 1e-6

    def test_invariant_under_shared_pixel_permutation(self):
        rng = np.random.default_rng(3)
        mr = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        rec = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        zero = np.zeros_like(mr)
        perm = rng.permutation(16)
        mr_p = mr.reshape(-1)[perm].reshape(mr.shape)
        rec_p = rec.reshape(-1)[perm].reshape(rec.shape)
        a = losses.loss_cycle(Tensor(mr), Tensor(rec), Tensor(zero), Tensor(zero)).item()
        b = losses.loss_cycle(Tensor(mr_p), Tensor(rec_p), Tensor(zero), Tensor(zero)).item()
        assert abs(a - b) <= 1e-6


class TestPairedLoss:
    def test_perfect_pair_and_score(self):
        a = const_map(0.3)
        v = losses.loss_paired(a, a, const_map(1.0), mu=100.0).item()
        assert abs(v) <= 1e-6

    def test_small_offset_times_mu(self):
        fake = const_map(0.01)
        real = const_map(0.0)
        v = losses.loss_paired(fake, real, const_map(1.0), mu=100.0).item()
        assert abs(v - 1.0) <= 1e-5

    def test_mu_zero_reduces_to_adversarial(self):
        rng = np.random.default_rng(4)
        fake = Tensor(rng.normal(size=(1, 1, 3, 3)).astype(np.float32))
        real = Tensor(rng.normal(size=(1, 1, 3, 3)).astype(np.float32))
        score = Tensor(rng.normal(size=(1, 1, 2, 2)).astype(np.float32))
        v = losses.loss_paired(fake, real, score, mu=0.0).item()
        assert abs(v - losses.loss_gen_adv(score).item()) <= 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(engine.ShapeError):
            losses.loss_paired(const_map(0.0), const_map(0.0, (1, 1, 4, 4)),
                               const_map(1.0))


class TestTotalGeneratorLoss:
    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.0, 100.0, allow_nan=False))
    def test_lambda_linearity(self, lam):
        g_ct = const_map(0.7, (1,))
        g_mr = const_map(0.2, (1,))
        cyc = const_map(0.3, (1,))
        t1 = losses.total_generator_loss(engine.tmean(g_ct), engine.tmean(g_mr),
                                         engine.tmean(cyc), lam).item()
        t2 = losses.total_generator_loss(engine.tmean(g_ct), engine.tmean(g_mr),
                                         engine.tmean(cyc), 2 * lam).item()
        assert abs((t2 - t1) - lam * 0.3) <= 1e-5 * max(1.0, lam)

    def test_breakdown_total_identity(self):
        lam = 10.0
        b = losses.LossBreakdown(d_ct=0.1, d_mr=0.2, g_adv_ct=0.3, g_adv_mr=0.4,
                                 cycle=0.5, total_g=0.3 + 0.4 + lam * 0.5,
                                 total_d=0.1 + 0.2)
        assert abs(b.total_g - (b.g_adv_ct + b.g_adv_mr + lam * b.cycle)) <= 1e-6
