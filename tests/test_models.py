import numpy as np
import pytest

from cyclesynth import engine, models
from cyclesynth.engine import Tensor
from cyclesynth.models import (
    DISC_LAYERS,
    discriminator_forward,
    generator_forward,
    init_params,
    receptive_field,
)

from helpers import gradcheck


def rand_image(rng, h, w, n=1):
    return Tensor(rng.uniform(-1, 1, size=(n, 1, h, w)).astype(np.float32))


class TestReceptiveField:
    def test_patch_discriminator_is_70(self):
        assert receptive_field(DISC_LAYERS) == 70

    def test_single_pixel(self):
        assert receptive_field([(1, 1)]) == 1

    def test_stacked_3x3(self):
        assert receptive_field([(3, 1), (3, 1)]) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            receptive_field([])


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_params("generator", width=8, rng_seed=11)
        b = init_params("generator", width=8, rng_seed=11)
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seeds_differ(self):
        a = init_params("discriminator", width=8, rng_seed=1)
        b = init_params("discriminator", width=8, rng_seed=2)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.names())

    def test_weight_sample_mean_near_zero(self):
        p = init_params("generator", width=64, rng_seed=3)
        w = p["down1.w"].data  # 9*64*128 = 73728 draws
        bound = 3 * 0.02 / np.sqrt(w.size)
        assert abs(w.mean()) < bound

    def test_bias_and_norm_defaults(self):
        p = init_params("generator", width=8, rng_seed=0)
        assert np.all(p["stem.b"].data == 0)
        assert np.all(p["stem.gamma"].data == 1)
        assert np.all(p["stem.beta"].data == 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_params("perceptron", width=8)


class TestParamCounts:
    # frozen from the layer-by-layer table in README.md
    def test_generator_f64(self):
        assert models.generator_param_count(64) == 11_376_129
        assert init_params("generator", width=64, rng_seed=0).param_count() == 11_376_129

    def test_discriminator_d64(self):
        assert models.discriminator_param_count(64) == 2_764_481
        assert init_params("discriminator", width=64, rng_seed=0).param_count() == 2_764_481

    @pytest.mark.parametrize("width", [8, 16])
    def test_counts_match_containers(self, width):
        assert init_params("generator", width=width).param_count() == \
            models.generator_param_count(width)
        assert init_params("discriminator", width=width).param_count() == \
            models.discriminator_param_count(width)


class TestGeneratorForward:
    @pytest.mark.parametrize("h,w", [(16, 16), (64, 64), (16, 32)])
    def test_shape_preserved(self, h, w):
        rng = np.random.default_rng(0)
        p = init_params("generator", width=8, rng_seed=0)
        out = generator_forward(p, rand_image(rng, h, w, n=2))
        assert out.shape == (2, 1, h, w)

    @pytest.mark.parametrize("h,w", [(4, 8), (8, 4)])
    def test_thin_input_runs_under_no_grad(self, h, w):
        # down2 leaves a 1x2 or 2x1 plane, whose length-1 side the residual convs'
        # reflect pad 1 fills by repeating the edge
        rng = np.random.default_rng(3)
        p = init_params("generator", width=8, rng_seed=3)
        with engine.no_grad():
            out = generator_forward(p, rand_image(rng, h, w))
        assert out.shape == (1, 1, h, w) and np.isfinite(out.data).all()

    def test_rejects_non_multiple_of_four(self):
        p = init_params("generator", width=8, rng_seed=0)
        with pytest.raises(engine.ShapeError):
            generator_forward(p, Tensor(np.zeros((1, 1, 30, 32), dtype=np.float32)))

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        p = init_params("generator", width=8, rng_seed=1)
        out = generator_forward(p, rand_image(rng, 32, 32))
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)

    def test_forward_nan_free(self):
        rng = np.random.default_rng(2)
        p = init_params("generator", width=8, rng_seed=2)
        out = generator_forward(p, rand_image(rng, 64, 64))
        assert np.isfinite(out.data).all()


def recorded_ops(monkeypatch, forward, *args):
    """Op name of every tape node behind forward(*args) that relu, leaky_relu or
    instance_norm made, e.g. 'instance_norm'; the ops are told apart by calls
    through the names the networks look up."""
    made = {}
    for owner, name in ((engine, "relu"), (engine, "leaky_relu"), (models, "instance_norm")):
        def tagged(*a, _op=getattr(owner, name), _name=name, **kw):
            out = _op(*a, **kw)
            made[id(out)] = (_name, out)
            return out

        monkeypatch.setattr(owner, name, tagged)
    out = forward(*args)
    return [made[id(n)][0] for n in engine._topo_order(out) if id(n) in made]


def test_norm_sites_record_one_fused_node(monkeypatch):
    # every activation after a norm runs inside the instance_norm node
    rng = np.random.default_rng(4)
    ops = recorded_ops(monkeypatch, generator_forward, init_params("generator", 4, rng_seed=4),
                       rand_image(rng, 16, 16))
    assert "relu" not in ops and "leaky_relu" not in ops
    assert ops.count("instance_norm") == 2 * models.RESIDUAL_BLOCKS + 5
    ops = recorded_ops(monkeypatch, discriminator_forward,
                       init_params("discriminator", 4, rng_seed=4), rand_image(rng, 32, 32))
    assert ops.count("leaky_relu") == 1 and ops.count("instance_norm") == 3


class TestDiscriminatorForward:
    def test_256_gives_30x30(self):
        rng = np.random.default_rng(3)
        p = init_params("discriminator", width=8, rng_seed=3)
        out = discriminator_forward(p, rand_image(rng, 256, 256))
        assert out.shape == (1, 1, 30, 30)

    def test_70_gives_6x6(self):
        # per-layer shape algebra: 70 -> 35 -> 17 -> 8 -> 7 -> 6
        rng = np.random.default_rng(4)
        p = init_params("discriminator", width=8, rng_seed=4)
        out = discriminator_forward(p, rand_image(rng, 70, 70))
        assert out.shape == (1, 1, 6, 6)

    def test_sub_receptive_field_inputs_still_score(self):
        # training crops may be smaller than the 70x70 receptive field;
        # the stack degrades to fewer, zero-padded patch scores
        rng = np.random.default_rng(8)
        p = init_params("discriminator", width=8, rng_seed=8)
        out = discriminator_forward(p, rand_image(rng, 64, 64))
        assert out.shape == (1, 1, 6, 6)
        out = discriminator_forward(p, rand_image(rng, 24, 24))
        assert out.shape == (1, 1, 1, 1)

    def test_rejects_input_with_empty_score_map(self):
        p = init_params("discriminator", width=8, rng_seed=0)
        with pytest.raises(engine.ShapeError):
            discriminator_forward(p, Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
        with pytest.raises(engine.ShapeError):
            discriminator_forward(p, Tensor(np.zeros((1, 1, 23, 23), dtype=np.float32)))

    def test_forward_nan_free(self):
        rng = np.random.default_rng(5)
        p = init_params("discriminator", width=8, rng_seed=5)
        out = discriminator_forward(p, rand_image(rng, 128, 128))
        assert np.isfinite(out.data).all()

    def test_patch_locality(self):
        # One perturbed pixel should only move score units whose 70x70
        # window covers it. Strict zero outside holds for the bare conv
        # stack; instance norm couples every unit through its plane
        # statistics, which adds a small global floor (about 5% of the
        # in-window effect at this width). Assert a sharp inside/outside
        # split rather than exact zeros.
        rng = np.random.default_rng(6)
        p = init_params("discriminator", width=8, rng_seed=6)
        x = rng.uniform(-1, 1, size=(1, 1, 128, 128)).astype(np.float32)
        base = discriminator_forward(p, Tensor(x)).data
        py = px = 64
        x2 = x.copy()
        x2[0, 0, py, px] += 1.0
        bumped = discriminator_forward(p, Tensor(x2)).data
        diff = np.abs(bumped - base)[0, 0]

        # unit i covers input rows [8i - 23, 8i + 46] (jump 8, pad 23, extent 70)
        jump, pad_acc, rf = 8, 23, 70
        lo = max(0, int(np.ceil((py - (rf - 1) + pad_acc) / jump)))
        hi = int(np.floor((py + pad_acc) / jump))
        inside = diff[lo:hi + 1, lo:hi + 1]
        outside = diff.copy()
        outside[lo:hi + 1, lo:hi + 1] = 0.0
        assert inside.max() > 0
        assert outside.max() <= 0.1 * inside.max()


class TestNetworkGradients:
    # whole-network checks run in float64: float32 round-off through
    # 30+ layers drowns a 1e-3 finite-difference probe. They keep one scale:
    # the conv biases that instance norm cancels have rounding-size gradients

    def test_generator_gradcheck(self):
        rng = np.random.default_rng(10)
        with engine.precision(np.float64):
            p = init_params("generator", width=4, rng_seed=10)
            x = rng.uniform(-1, 1, size=(1, 1, 8, 8))
            proj = rng.normal(size=(1, 1, 8, 8))
            arrays = [x] + [t.data for t in p.tensors()]
            names = p.names()

            def build(ts):
                q = init_params("generator", width=4, rng_seed=10)
                for name, t in zip(names, ts[1:]):
                    q._tensors[name] = t
                out = generator_forward(q, ts[0])
                return engine.tsum(engine.mul(out, Tensor(proj)))

            gradcheck(build, arrays, rng, probes=12, h=1e-6, tol=1e-4, every_array=False)

    def test_discriminator_gradcheck(self):
        rng = np.random.default_rng(11)
        with engine.precision(np.float64):
            p = init_params("discriminator", width=4, rng_seed=11)
            x = rng.uniform(-1, 1, size=(1, 1, 72, 72))
            arrays = [x] + [t.data for t in p.tensors()]
            names = p.names()

            def build(ts):
                q = init_params("discriminator", width=4, rng_seed=11)
                for name, t in zip(names, ts[1:]):
                    q._tensors[name] = t
                out = discriminator_forward(q, ts[0])
                return engine.tmean(engine.square(out))

            gradcheck(build, arrays, rng, probes=12, h=1e-6, tol=1e-4, every_array=False)
