"""The float64 reference agrees with the program in float64 on small shapes."""

import numpy as np
import pytest

import reference as ref
from cyclesynth import engine, losses, models
from cyclesynth.engine import Tensor


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def float64():
    with engine.precision(np.float64):
        yield


def close(got, want):
    np.testing.assert_allclose(np.asarray(got.data), want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k,stride,pad,mode", [
    (3, 1, 1, "reflect"), (3, 2, 1, "zeros"), (4, 2, 1, "zeros"),
    (4, 1, 1, "zeros"), (7, 1, 3, "reflect"), (1, 1, 0, "zeros")])
def test_conv2d(rng, k, stride, pad, mode):
    x, w, b = rand(rng, 2, 3, 9, 8), rand(rng, 4, 3, k, k), rand(rng, 4)
    got = engine.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad,
                        pad_mode=mode)
    close(got, ref.conv2d(x, w, b, stride, pad, mode))


def test_reflect_padding_matches_numpy(rng):
    x = rand(rng, 1, 2, 5, 7)
    spec = ((0, 0), (0, 0), (3, 3), (3, 3))
    np.testing.assert_array_equal(ref.pad2d(x, 3, "reflect"), np.pad(x, spec, mode="reflect"))
    np.testing.assert_array_equal(ref.pad2d(x, 2, "zeros"), np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2))))


@pytest.mark.parametrize("k,stride,pad,output_pad", [(3, 2, 1, 1), (3, 1, 1, 0), (4, 2, 1, 0)])
def test_conv_transpose2d(rng, k, stride, pad, output_pad):
    x, w, b = rand(rng, 2, 3, 5, 6), rand(rng, 3, 4, k, k), rand(rng, 4)
    got = engine.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                                  pad=pad, output_pad=output_pad)
    close(got, ref.conv_transpose2d(x, w, b, stride, pad, output_pad))


def test_instance_norm(rng):
    x, g, b = rand(rng, 2, 3, 5, 4), rand(rng, 3), rand(rng, 3)
    close(engine.instance_norm(Tensor(x), Tensor(g), Tensor(b), eps=1e-5),
          ref.instance_norm(x, g, b))


@pytest.mark.parametrize("name", ["tanh", "relu", "leaky_relu"])
def test_activations(rng, name):
    x = rand(rng, 2, 3, 4, 4)
    close(getattr(engine, name)(Tensor(x)), getattr(ref, name)(x))


def test_losses(rng):
    real, fake = rand(rng, 2, 1, 3, 3), rand(rng, 2, 1, 2, 2)
    a, b, c, d = (rand(rng, 2, 1, 4, 4) for _ in range(4))
    close(losses.loss_dis(Tensor(real), Tensor(fake)), ref.lsgan_dis(real, fake))
    close(losses.loss_gen_adv(Tensor(fake)), ref.lsgan_gen(fake))
    close(losses.loss_cycle(Tensor(a), Tensor(b), Tensor(c), Tensor(d)),
          ref.cycle(a, b, c, d))
    close(losses.loss_paired(Tensor(a), Tensor(b), Tensor(fake), mu=100.0),
          ref.lsgan_gen(fake) + 100.0 * ref.l1(a, b))


def perturbed(kind, width, rng):
    group = models.init_params(kind, width, rng_seed=3)
    for t in group.tensors():
        t.data = t.data + rng.normal(0.0, 0.1, t.data.shape)
    return group, {name: t.data for name, t in group.items()}


def test_generator(rng):
    group, params = perturbed("generator", 4, rng)
    x = rand(rng, 2, 1, 16, 12)
    close(models.generator_forward(group, Tensor(x)), ref.generator(params, x))


def test_discriminator(rng):
    group, params = perturbed("discriminator", 4, rng)
    x = rand(rng, 2, 1, 32, 24)
    close(models.discriminator_forward(group, Tensor(x)), ref.discriminator(params, x))


def test_frozen_kinks_keep_the_recorded_sides():
    x = np.array([-1e-9, 2.0, -3.0])
    with ref.frozen_kinks([]) as sides:
        np.testing.assert_array_equal(ref.relu(x), [0.0, 2.0, 0.0])
        assert ref.l1(x, 0.0) == pytest.approx((1e-9 + 5.0) / 3)
    moved = x + 1e-8  # the first input crosses its kink
    with ref.frozen_kinks(sides):
        np.testing.assert_array_equal(ref.relu(moved), [0.0, moved[1], 0.0])
        assert ref.l1(moved, 0.0) == pytest.approx((-moved[0] + moved[1] - moved[2]) / 3)
    np.testing.assert_array_equal(ref.relu(moved), [moved[0], moved[1], 0.0])
