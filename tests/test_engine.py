import numpy as np
import pytest

from cyclesynth import engine
from cyclesynth.engine import Tensor, backward, conv2d, conv_transpose2d, instance_norm

from helpers import gradcheck


def T(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


class TestElementwise:
    def test_square(self):
        assert engine.square(T([0.5])).data == pytest.approx([0.25])

    def test_abs(self):
        np.testing.assert_allclose(engine.absolute(T([-3.0, 2.0])).data, [3.0, 2.0])

    def test_tanh_origin(self):
        assert engine.tanh(T([0.0])).data == pytest.approx([0.0])

    def test_leaky_relu_slope(self):
        out = engine.leaky_relu(T([-1.0, 2.0]), slope=0.2)
        np.testing.assert_allclose(out.data, [-0.2, 2.0])

    def test_scalar_broadcast(self):
        out = 1.0 - T([0.25, 0.75])
        np.testing.assert_allclose(out.data, [0.75, 0.25])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(engine.ShapeError) as exc:
            engine.add(T(np.zeros((2, 3))), T(np.zeros((4,))))
        assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


class TestReduce:
    def test_mean(self):
        assert engine.tmean(T([1, 2, 3, 4])).item() == pytest.approx(2.5)

    def test_sum_empty_errors(self):
        with pytest.raises(engine.EmptyTensorError):
            engine.tsum(T(np.zeros((0,))))

    @pytest.mark.parametrize("c", [-3.0, 0.0, 1.5])
    def test_mean_of_constant(self, c):
        assert engine.tmean(T(np.full((3, 5), c))).item() == pytest.approx(c, abs=1e-6)


# (stride, pad, pad_mode, Cin, Cout, k, size) for the conv2d forward and gradient
# tests; Cout < Cin at stride 1 takes the flipped-kernel input gradient, every
# other case the col2im scatter
CONV_CASES = [
    pytest.param(1, 0, "zeros", 2, 3, 3, 6, id="1-0-zeros"),
    pytest.param(2, 1, "zeros", 2, 3, 3, 6, id="2-1-zeros"),
    pytest.param(1, 1, "reflect", 2, 3, 3, 6, id="1-1-reflect"),
    pytest.param(1, 3, "reflect", 2, 3, 3, 6, id="1-3-reflect"),
    pytest.param(1, 1, "zeros", 5, 2, 3, 6, id="cout<cin-1-1-zeros"),
    pytest.param(1, 1, "reflect", 5, 2, 3, 6, id="cout<cin-1-1-reflect"),
    pytest.param(2, 1, "zeros", 5, 2, 4, 7, id="cout<cin-2-1-zeros"),
    pytest.param(2, 1, "reflect", 2, 5, 3, 7, id="cout>cin-2-1-reflect"),
    pytest.param(1, 1, "zeros", 2, 5, 4, 6, id="cout>cin-1-1-zeros"),
    pytest.param(1, 3, "reflect", 4, 1, 7, 8, id="head-7x7-reflect3"),
]


def explicit_conv2d(x, w, b, stride, pad, pad_mode):
    """float64 cross-correlation by explicit windows, one output pixel at a time."""
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                mode="constant" if pad_mode == "zeros" else "reflect")
    k = w.shape[2]
    ho = (xp.shape[2] - k) // stride + 1
    wo = (xp.shape[3] - k) // stride + 1
    out = np.empty((x.shape[0], w.shape[0], ho, wo))
    for y in range(ho):
        for z in range(wo):
            win = xp[:, :, y * stride:y * stride + k, z * stride:z * stride + k]
            out[:, :, y, z] = np.einsum("ncij,ocij->no", win, w) + b
    return out


def explicit_conv_transpose2d(x, w, b, stride, pad, output_pad):
    """float64 transposed conv: zero insertion, then explicit_conv2d with the flipped kernel."""
    n, cin, h, wd = x.shape
    k = w.shape[2]
    lo, hi = k - 1 - pad, k - 1 - pad + output_pad
    xd = np.zeros((n, cin, (h - 1) * stride + 1 + lo + hi, (wd - 1) * stride + 1 + lo + hi))
    xd[:, :, lo:lo + (h - 1) * stride + 1:stride, lo:lo + (wd - 1) * stride + 1:stride] = x
    return explicit_conv2d(xd, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), b, 1, 0, "zeros")


# (op, stride, pad, pad_mode or output_pad, batch, Cin, Cout, k, H, W): the edges of
# the flat padded grid behind every wide-side input gradient and conv_transpose2d
FLAT_GRID_CASES = [
    # odd, non-square input: the four stride phases have unequal lengths
    pytest.param("conv", 2, 1, "zeros", 1, 2, 3, 4, 9, 7, id="s2-k4-odd-nonsquare"),
    # k < s: three of the four phases receive no tap
    pytest.param("conv", 2, 0, "zeros", 2, 3, 2, 1, 7, 6, id="s2-k1"),
    # zero rows between samples in the flat grid, at both strides
    pytest.param("conv", 1, 1, "zeros", 3, 2, 3, 3, 5, 6, id="batch3-s1"),
    pytest.param("conv", 2, 1, "reflect", 3, 2, 3, 3, 6, 5, id="batch3-s2"),
    # ext > (H-1)*s + k: the grid's last rows and columns get no tap
    pytest.param("transpose", 2, 0, 1, 2, 3, 2, 3, 4, 5, id="transpose-pad0-outpad1"),
    # reflect pad min(H,W)-1, the widest fold there is
    pytest.param("conv", 1, 4, "reflect", 2, 2, 3, 3, 5, 8, id="reflect-pad-min-side"),
    # Cout < Cin at stride 1: the narrow forward's flat window sum, non-square
    pytest.param("conv", 1, 2, "reflect", 3, 4, 2, 5, 6, 9, id="narrow-batch3-nonsquare"),
    # a side of length 1: reflect padding repeats the edge, as np.pad does
    pytest.param("conv", 1, 1, "reflect", 2, 3, 3, 3, 1, 2, id="reflect-1x2-plane"),
    pytest.param("conv", 1, 2, "reflect", 2, 4, 2, 3, 3, 1, id="narrow-reflect-3x1-plane"),
]

# [H, W] of the padded inputs, each taken with every pad from 1 to its shorter side
# above 1 less one (to 3 when both sides are 1)
PAD_SHAPES = [(6, 9), (1, 5), (4, 1), (1, 1)]


def _case_op(op, stride, pad, mode):
    if op == "conv":
        return lambda x, w, b: conv2d(x, w, b, stride=stride, pad=pad, pad_mode=mode)
    return lambda x, w, b: conv_transpose2d(x, w, b, stride=stride, pad=pad, output_pad=mode)


class TestFlatGrid:
    @pytest.mark.parametrize("op,stride,pad,mode,batch,cin,cout,k,h,wd", FLAT_GRID_CASES)
    def test_forward_matches_explicit(self, op, stride, pad, mode, batch, cin, cout, k, h, wd):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(batch, cin, h, wd))
        w = rng.normal(size=(cout, cin, k, k) if op == "conv" else (cin, cout, k, k))
        b = rng.normal(size=cout)
        with engine.precision(np.float64):
            got = _case_op(op, stride, pad, mode)(Tensor(x), Tensor(w), Tensor(b)).data
        want = (explicit_conv2d(x, w, b, stride, pad, mode) if op == "conv"
                else explicit_conv_transpose2d(x, w, b, stride, pad, mode))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op,stride,pad,mode,batch,cin,cout,k,h,wd", FLAT_GRID_CASES)
    def test_grads(self, op, stride, pad, mode, batch, cin, cout, k, h, wd):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(batch, cin, h, wd)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k) if op == "conv" else (cin, cout, k, k))
        b = rng.normal(size=cout).astype(np.float32)
        fn = _case_op(op, stride, pad, mode)

        def build(ts):
            return engine.tmean(engine.square(fn(*ts)))

        gradcheck(build, [x, w.astype(np.float32), b], rng, probes=40)

    @pytest.mark.parametrize("h,wd", PAD_SHAPES)
    @pytest.mark.parametrize("mode", ["zeros", "reflect"])
    def test_pad_matches_numpy(self, mode, h, wd):
        x = np.random.default_rng(23).normal(size=(2, 3, h, wd))
        for pad in range(1, min([n for n in (h, wd) if n > 1], default=4)):
            want = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                          mode="constant" if mode == "zeros" else "reflect")
            assert np.array_equal(engine._pad2d(x, pad, mode), want), pad

    @pytest.mark.parametrize("h,wd", PAD_SHAPES)
    @pytest.mark.parametrize("mode", ["zeros", "reflect"])
    def test_unpad_is_adjoint_of_pad(self, mode, h, wd):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, h, wd))
        for pad in range(1, min([n for n in (h, wd) if n > 1], default=4)):
            g = rng.normal(size=(2, 3, h + 2 * pad, wd + 2 * pad))
            lhs = np.sum(engine._pad2d(x, pad, mode) * g)
            rhs = np.sum(x * engine._unpad2d_adjoint(g.copy(), pad, mode, h, wd))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), pad

    def test_reflect_pad_beyond_input_rejected(self):
        x = T(np.zeros((1, 1, 3, 5)))
        with pytest.raises(engine.ShapeError, match="reflect pad 3"):
            conv2d(x, T(np.zeros((1, 1, 3, 3))), T(np.zeros(1)), pad=3, pad_mode="reflect")


class TestConv2d:
    def test_ones_kernel(self):
        x = T(np.ones((1, 1, 4, 4)))
        w = T(np.ones((1, 1, 3, 3)))
        b = T(np.zeros(1))
        out = conv2d(x, w, b, stride=1, pad=0)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out.data, 9.0)

    def test_strided_shape_formula(self):
        x = T(np.zeros((1, 1, 256, 256)))
        w = T(np.zeros((2, 1, 4, 4)))
        b = T(np.zeros(2))
        out = conv2d(x, w, b, stride=2, pad=1)
        # floor((256 + 2 - 4) / 2) + 1
        assert out.shape == (1, 2, 128, 128)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = T(rng.normal(size=(2, 1, 5, 5)))
        w = T(np.ones((1, 1, 1, 1)))
        b = T(np.zeros(1))
        out = conv2d(x, w, b)
        np.testing.assert_allclose(out.data, x.data)

    def test_invalid_geometry_reports_output(self):
        with pytest.raises(engine.ShapeError, match="output"):
            conv2d(T(np.zeros((1, 1, 2, 2))), T(np.zeros((1, 1, 5, 5))), T(np.zeros(1)))

    def test_linearity_zero_bias(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        y = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = T(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        b = T(np.zeros(3, dtype=np.float32))
        a_coef, b_coef = 1.7, -0.6
        lhs = conv2d(T(a_coef * x + b_coef * y), w, b, stride=1, pad=1).data
        rhs = (a_coef * conv2d(T(x), w, b, stride=1, pad=1).data
               + b_coef * conv2d(T(y), w, b, stride=1, pad=1).data)
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale <= 1e-4

    @pytest.mark.parametrize("stride,pad,pad_mode,cin,cout,k,size", CONV_CASES)
    def test_matches_explicit_windows(self, stride, pad, pad_mode, cin, cout, k, size):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, cin, size, size))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        with engine.precision(np.float64):
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad,
                         pad_mode=pad_mode).data
        np.testing.assert_allclose(got, explicit_conv2d(x, w, b, stride, pad, pad_mode),
                                   rtol=1e-12, atol=1e-12)

    def test_head_under_no_grad_builds_no_columns(self, monkeypatch):
        # the generator head as infer runs it: Cout < Cin at stride 1 takes the narrow forward
        built = []
        im2col = engine._im2col
        monkeypatch.setattr(engine, "_im2col", lambda *a: built.append(a) or im2col(*a))
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 4, 12, 12)).astype(np.float32)
        w = rng.normal(size=(1, 4, 7, 7)).astype(np.float32)
        b = rng.normal(size=1).astype(np.float32)
        with engine.no_grad():
            out = conv2d(T(x, grad=True), T(w, grad=True), T(b, grad=True),
                         stride=1, pad=3, pad_mode="reflect")
        assert not out.requires_grad and out._backward is None and out._parents == ()
        assert built == []
        np.testing.assert_allclose(out.data, explicit_conv2d(x, w, b, 1, 3, "reflect"),
                                   rtol=1e-5, atol=1e-4)

    def test_narrow_backward_builds_no_input_columns(self, monkeypatch):
        # the head in paired training: dW from shifted views of the padded input, and
        # the input gradient's columns come from the Cout-channel output gradient
        built = []
        im2col = engine._im2col
        monkeypatch.setattr(engine, "_im2col", lambda *a: built.append(a) or im2col(*a))
        rng = np.random.default_rng(12)
        x = T(rng.normal(size=(4, 16, 12, 12)), grad=True)
        w = T(rng.normal(size=(1, 16, 7, 7)), grad=True)
        out = conv2d(x, w, T(rng.normal(size=1), grad=True), stride=1, pad=3,
                     pad_mode="reflect")
        backward(engine.tmean(engine.square(out)))
        assert x.grad is not None and w.grad is not None
        assert built and all(a[0].shape[1] == w.shape[0] for a in built)  # Cout, never Cin

    @pytest.mark.parametrize("pad_mode", ["zeros", "reflect"])
    def test_reflect_pad_matches_manual(self, pad_mode):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        w = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                        mode="constant" if pad_mode == "zeros" else "reflect")
        got = conv2d(T(x), T(w), T(np.zeros(1)), stride=1, pad=1, pad_mode=pad_mode).data
        want = conv2d(T(padded), T(w), T(np.zeros(1)), stride=1, pad=0).data
        np.testing.assert_allclose(got, want, rtol=1e-6)


class TestConvTranspose2d:
    def test_upsample_shape(self):
        x = T(np.zeros((1, 2, 64, 64)))
        w = T(np.zeros((2, 1, 3, 3)))
        b = T(np.zeros(1))
        out = conv_transpose2d(x, w, b, stride=2, pad=1, output_pad=1)
        # (64-1)*2 - 2 + 3 + 1
        assert out.shape == (1, 1, 128, 128)

    def test_identity(self):
        rng = np.random.default_rng(3)
        x = T(rng.normal(size=(1, 1, 4, 4)))
        out = conv_transpose2d(x, T(np.ones((1, 1, 1, 1))), T(np.zeros(1)))
        np.testing.assert_allclose(out.data, x.data)

    @pytest.mark.parametrize("stride,pad,k", [(1, 0, 3), (2, 1, 3), (2, 1, 4), (1, 1, 3)])
    def test_adjoint_identity(self, stride, pad, k):
        # <conv2d(x), y> must equal <x, conv_transpose2d(y)> with shared weights
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, k, k)).astype(np.float32)
        fwd = conv2d(T(x), T(w), T(np.zeros(3)), stride=stride, pad=pad).data
        y = rng.normal(size=fwd.shape).astype(np.float32)
        # output_pad recovers the exact input extent of the strided conv
        out_pad = (5 + 2 * pad - k) % stride
        back = conv_transpose2d(T(y), T(w), T(np.zeros(2)), stride=stride, pad=pad,
                                output_pad=out_pad).data
        assert back.shape == x.shape
        lhs = float(np.sum(fwd * y))
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-6) <= 1e-4

    def test_output_pad_must_be_below_stride(self):
        with pytest.raises(engine.ShapeError):
            conv_transpose2d(T(np.zeros((1, 1, 4, 4))), T(np.zeros((1, 1, 3, 3))),
                             T(np.zeros(1)), stride=2, pad=1, output_pad=2)


class TestInstanceNorm:
    def test_constant_plane_is_zero(self):
        x = T(np.full((1, 1, 4, 4), 7.0))
        out = instance_norm(x, T(np.ones(1)), T(np.zeros(1)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_two_point_standardization(self):
        x = T(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        out = instance_norm(x, T(np.ones(1)), T(np.zeros(1)), eps=0.0)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-6)

    def test_affine_only(self):
        rng = np.random.default_rng(5)
        x = T(rng.normal(size=(2, 3, 4, 4)))
        out = instance_norm(x, T(np.zeros(3)), T(np.full(3, 5.0)))
        np.testing.assert_allclose(out.data, 5.0, atol=1e-6)

    def test_plane_too_small(self):
        with pytest.raises(engine.ShapeError):
            instance_norm(T(np.zeros((1, 1, 1, 1))), T(np.ones(1)), T(np.zeros(1)))


class TestBackward:
    def test_sum_of_squares(self):
        x = T([3.0], grad=True)
        backward(engine.tsum(engine.square(x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_mean_grad(self):
        x = T(np.zeros(4), grad=True)
        backward(engine.tmean(x))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        x = T(np.zeros(3), grad=True)
        with pytest.raises(engine.ShapeError):
            backward(engine.square(x))

    def test_grad_accumulates_across_uses(self):
        x = T([2.0], grad=True)
        y = engine.add(engine.mul(x, x), x)  # x^2 + x
        backward(engine.tsum(y))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_detach_blocks_gradient(self):
        x = T([2.0], grad=True)
        y = engine.square(x).detach()
        z = engine.mul(y, x)
        backward(engine.tsum(z))
        np.testing.assert_allclose(x.grad, [4.0])  # only the live x factor

    def test_no_grad_context(self):
        x = T([1.0], grad=True)
        with engine.no_grad():
            y = engine.square(x)
        assert not y.requires_grad and y._backward is None


class TestGradientOracle:
    """Every differentiable op against central finite differences."""

    def _rng(self):
        return np.random.default_rng(99)

    def test_elementwise_chain(self):
        rng = self._rng()
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(3, 4)).astype(np.float32)

        def build(ts):
            x, y = ts
            z = engine.add(engine.mul(x, y), engine.square(engine.sub(x, y)))
            return engine.tmean(engine.tanh(z))

        gradcheck(build, [a, b], rng)

    def test_abs_relu_leaky(self):
        rng = self._rng()
        # keep probes away from the kink at 0
        a = (rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.5).astype(np.float32)

        def build(ts):
            x = ts[0]
            return engine.tsum(engine.add(engine.absolute(x),
                                          engine.add(engine.relu(x),
                                                     engine.leaky_relu(x, 0.2))))

        gradcheck(build, [a], rng)

    @pytest.mark.parametrize("stride,pad,pad_mode,cin,cout,k,size", CONV_CASES)
    def test_conv2d_grads(self, stride, pad, pad_mode, cin, cout, k, size):
        rng = self._rng()
        x = rng.normal(size=(2, cin, size, size)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        proj = rng.normal(size=1).astype(np.float32)

        def build(ts):
            out = conv2d(ts[0], ts[1], ts[2], stride=stride, pad=pad, pad_mode=pad_mode)
            return engine.tmean(engine.mul(out, Tensor(proj[0])))

        gradcheck(build, [x, w, b], rng)

    @pytest.mark.parametrize("wrt", [pytest.param((0,), id="x"), pytest.param((1,), id="w")])
    @pytest.mark.parametrize("pad,pad_mode,batch,cin,cout,k,size", [
        pytest.param(3, "reflect", 2, 4, 1, 7, 8, id="head"),
        pytest.param(1, "zeros", 2, 8, 1, 4, 5, id="c5"),
        pytest.param(1, "zeros", 3, 5, 2, 3, 6, id="cout2-batch3"),
    ])
    def test_narrow_conv2d_partial_grads(self, pad, pad_mode, batch, cin, cout, k, size, wrt):
        # Cout < Cin at stride 1: per-tap weight gradient, flipped-kernel input gradient
        rng = self._rng()
        x = rng.normal(size=(batch, cin, size, size)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        proj = rng.normal(size=1).astype(np.float32)

        def build(ts):
            out = conv2d(ts[0], ts[1], ts[2], stride=1, pad=pad, pad_mode=pad_mode)
            return engine.tmean(engine.mul(out, Tensor(proj[0])))

        gradcheck(build, [x, w, b], rng, wrt=wrt)

    @pytest.mark.parametrize("stride,pad,output_pad,cin,cout", [
        pytest.param(1, 0, 0, 3, 2, id="1-0-0"),
        pytest.param(2, 1, 1, 3, 2, id="2-1-1"),
        pytest.param(2, 0, 0, 3, 2, id="2-0-0"),
        # Cin < Cout at stride 1: the forward takes conv2d's flipped-kernel path
        pytest.param(1, 1, 0, 2, 3, id="cin<cout-1-1-0"),
    ])
    def test_conv_transpose2d_grads(self, stride, pad, output_pad, cin, cout):
        rng = self._rng()
        x = rng.normal(size=(2, cin, 5, 5)).astype(np.float32)
        w = rng.normal(size=(cin, cout, 3, 3)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)

        def build(ts):
            out = conv_transpose2d(ts[0], ts[1], ts[2], stride=stride, pad=pad,
                                   output_pad=output_pad)
            return engine.tmean(engine.square(out))

        gradcheck(build, [x, w, b], rng)

    def test_instance_norm_grads(self):
        rng = self._rng()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        gamma = (1.0 + 0.3 * rng.normal(size=3)).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)

        def build(ts):
            return engine.tmean(engine.square(instance_norm(ts[0], ts[1], ts[2])))

        gradcheck(build, [x, gamma, beta], rng)

    def test_float64_mode_is_tight(self):
        rng = np.random.default_rng(7)
        with engine.precision(np.float64):
            x = rng.normal(size=(1, 2, 6, 6))
            w = rng.normal(size=(2, 2, 3, 3))
            b = rng.normal(size=2)

            def build(ts):
                out = conv2d(ts[0], ts[1], ts[2], stride=2, pad=1)
                return engine.tmean(engine.tanh(out))

            gradcheck(build, [x, w, b], rng, h=1e-6, tol=1e-5)


class TestDeterminism:
    @staticmethod
    def _assert_replays(x_shape, w_shape, pad):
        def run():
            rng = np.random.default_rng(1234)
            x = T(rng.normal(size=x_shape), grad=True)
            w = T(rng.normal(size=w_shape), grad=True)
            b = T(rng.normal(size=w_shape[0]), grad=True)
            out = conv2d(x, w, b, stride=1, pad=pad, pad_mode="reflect")
            loss = engine.tmean(engine.square(engine.tanh(out)))
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()

        first = run()
        second = run()
        for a, b_arr in zip(first, second):
            assert np.array_equal(a, b_arr)

    def test_replay_is_bitwise_identical(self):
        self._assert_replays((1, 1, 8, 8), (2, 1, 3, 3), 1)

    def test_head_replay_is_bitwise_identical(self):
        # the generator head's geometry: narrow forward and per-tap weight gradient
        self._assert_replays((8, 4, 16, 16), (1, 4, 7, 7), 3)

    def test_tape_topological_order(self):
        x = T([1.0], grad=True)
        y = engine.square(x)
        z = engine.mul(y, x)
        loss = engine.tsum(engine.add(z, y))
        nodes = engine._topo_order(loss)
        pos = {id(n): i for i, n in enumerate(nodes)}
        for node in nodes:
            for parent in node._parents:
                if id(parent) in pos:
                    assert pos[id(parent)] < pos[id(node)]
