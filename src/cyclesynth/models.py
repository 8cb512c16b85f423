"""The four networks: two identical generators and two identical patch discriminators.

A generator is a residual image-to-image net: 7x7 stem (reflect padded),
two stride-2 downsampling convs, nine residual blocks at the bottleneck
width, two stride-2 transposed convs back up, and a 7x7 head squashed by
tanh. A discriminator is a stack of five 4x4 convs producing a map of
raw per-patch scores; each score unit sees a 70x70 window of the input.

Parameters live in ordered name->Tensor containers so the optimizer and
the checkpoint writer can treat every network uniformly.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import engine
from .engine import Tensor, conv2d, conv_transpose2d, instance_norm

RESIDUAL_BLOCKS = 9
LEAKY_SLOPE = 0.2
INIT_STD = 0.02

# a generator halves H and W twice and doubles them back, so both must divide by this
GENERATOR_DIVISOR = 4
# (kernel, stride) per discriminator conv, input to output
DISC_LAYERS = [(4, 2), (4, 2), (4, 2), (4, 1), (4, 1)]


class ParamGroup:
    """Ordered named tensors for one network."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name, array):
        t = Tensor(array, requires_grad=True)
        self._tensors[name] = t
        return t

    def __getitem__(self, name):
        return self._tensors[name]

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    @contextlib.contextmanager
    def frozen(self):
        """No tensor of the group requires grad inside the block.

        Ops read requires_grad when backward runs, so a backward inside the
        block computes no gradient for these tensors while still passing
        gradients through them to their inputs.
        """
        for t in self._tensors.values():
            t.requires_grad = False
        try:
            yield
        finally:
            for t in self._tensors.values():
                t.requires_grad = True

    def param_count(self):
        return sum(t.data.size for t in self._tensors.values())

    def load_state_arrays(self, arrays):
        """Rebind each tensor's .data to arrays[name]; raises KeyError for a missing
        name. Shapes are the caller's to check (train._load_state)."""
        for name, t in self._tensors.items():
            t.data = np.asarray(arrays[name], dtype=t.data.dtype)


def param_shapes(kind, width):
    """Ordered name -> shape of every parameter of a network (the checkpoint layout)."""
    shapes = {}

    def conv(name, cin, cout, k, norm=True, transposed=False):
        shapes[f"{name}.w"] = (cin, cout, k, k) if transposed else (cout, cin, k, k)
        shapes[f"{name}.b"] = (cout,)
        if norm:
            shapes[f"{name}.gamma"] = shapes[f"{name}.beta"] = (cout,)

    if kind == "generator":
        f = width
        conv("stem", 1, f, 7)
        conv("down1", f, 2 * f, 3)
        conv("down2", 2 * f, 4 * f, 3)
        for i in range(1, RESIDUAL_BLOCKS + 1):
            conv(f"res{i}.c1", 4 * f, 4 * f, 3)
            conv(f"res{i}.c2", 4 * f, 4 * f, 3)
        conv("up1", 4 * f, 2 * f, 3, transposed=True)
        conv("up2", 2 * f, f, 3, transposed=True)
        conv("head", f, 1, 7, norm=False)
    elif kind == "discriminator":
        d = width
        conv("c1", 1, d, 4, norm=False)
        conv("c2", d, 2 * d, 4)
        conv("c3", 2 * d, 4 * d, 4)
        conv("c4", 4 * d, 8 * d, 4)
        conv("c5", 8 * d, 1, 4, norm=False)
    else:
        raise ValueError(f"unknown network kind {kind!r}")
    return shapes


def init_params(kind, width, rng_seed=0):
    """Build a freshly initialized parameter set.

    Weights ~ Normal(0, 0.02), biases 0, norm affine at identity;
    deterministic for a given seed.
    """
    shapes = param_shapes(kind, width)
    rng = np.random.default_rng(np.random.PCG64(rng_seed))
    p = ParamGroup()
    for name, shape in shapes.items():
        if name.endswith(".w"):
            p.add(name, rng.normal(0.0, INIT_STD, size=shape))
        else:
            p.add(name, np.ones(shape) if name.endswith(".gamma") else np.zeros(shape))
    return p


def _norm(p, name, y, slope):
    return instance_norm(y, p[f"{name}.gamma"], p[f"{name}.beta"], slope=slope)


def _conv_norm(p, name, x, stride, pad, pad_mode="zeros", slope=0.0):
    y = conv2d(x, p[f"{name}.w"], p[f"{name}.b"], stride=stride, pad=pad, pad_mode=pad_mode)
    return _norm(p, name, y, slope)


def _residual_block(p, name, x):
    # conv-norm-relu-conv-norm with additive skip, no activation afterwards
    y = _conv_norm(p, f"{name}.c1", x, stride=1, pad=1, pad_mode="reflect")
    y = _conv_norm(p, f"{name}.c2", y, stride=1, pad=1, pad_mode="reflect", slope=None)
    return engine.add(x, y)


def generator_forward(p, x):
    """Translate a [N,1,H,W] image batch; output has the input's shape, range (-1,1)."""
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise engine.ShapeError(f"generator expects [N,1,H,W], got {x.data.shape}")
    h, w = x.data.shape[2], x.data.shape[3]
    if h % GENERATOR_DIVISOR or w % GENERATOR_DIVISOR:
        raise engine.ShapeError(
            f"generator needs H,W divisible by {GENERATOR_DIVISOR}, got {h}x{w}")
    y = _conv_norm(p, "stem", x, stride=1, pad=3, pad_mode="reflect")
    y = _conv_norm(p, "down1", y, stride=2, pad=1)
    y = _conv_norm(p, "down2", y, stride=2, pad=1)
    for i in range(1, RESIDUAL_BLOCKS + 1):
        y = _residual_block(p, f"res{i}", y)
    for name in ("up1", "up2"):
        y = conv_transpose2d(y, p[f"{name}.w"], p[f"{name}.b"], stride=2, pad=1, output_pad=1)
        y = _norm(p, name, y, slope=0.0)
    y = conv2d(y, p["head.w"], p["head.b"], stride=1, pad=3, pad_mode="reflect")
    return engine.tanh(y)


def disc_output_size(n):
    """Score-map extent for an input extent, or 0 if the conv stack underflows."""
    for k, s in DISC_LAYERS:
        n = (n + 2 - k) // s + 1  # pad 1 on both sides of every conv
        if n < 1:
            return 0
    return n


def discriminator_forward(p, x):
    """Score overlapping 70x70 patches of a [N,1,H,W] batch; raw scores, no sigmoid.

    Inputs smaller than the receptive field are allowed as long as the
    conv stack still yields at least one score unit (24x24 minimum);
    scores then see zero padding instead of a full patch.
    """
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise engine.ShapeError(f"discriminator expects [N,1,H,W], got {x.data.shape}")
    h, w = x.data.shape[2], x.data.shape[3]
    if disc_output_size(h) < 1 or disc_output_size(w) < 1:
        raise engine.ShapeError(
            f"discriminator input {h}x{w} yields an empty score map; "
            f"24x24 is the smallest workable input")
    y = conv2d(x, p["c1.w"], p["c1.b"], stride=2, pad=1)
    y = engine.leaky_relu(y, LEAKY_SLOPE)
    for name, stride in (("c2", 2), ("c3", 2), ("c4", 1)):
        y = _conv_norm(p, name, y, stride=stride, pad=1, slope=LEAKY_SLOPE)
    return conv2d(y, p["c5.w"], p["c5.b"], stride=1, pad=1)


def receptive_field(layers):
    """Input extent seen by one output unit of a stack of (kernel, stride) convs."""
    if not layers:
        raise ValueError("receptive_field needs at least one layer")
    rf = 1
    jump = 1
    for k, s in layers:
        rf += (k - 1) * jump
        jump *= s
    return rf


def generator_param_count(width):
    """Closed-form parameter count; kept next to the table in the README."""
    f = width
    n = (7 * 7 * f + f + 2 * f)                      # stem conv + norm
    n += (9 * f * 2 * f + 2 * f) + 4 * f             # down1
    n += (9 * 2 * f * 4 * f + 4 * f) + 8 * f         # down2
    per_res = 2 * ((9 * 4 * f * 4 * f + 4 * f) + 8 * f)
    n += RESIDUAL_BLOCKS * per_res
    n += (9 * 4 * f * 2 * f + 2 * f) + 4 * f         # up1
    n += (9 * 2 * f * f + f) + 2 * f                 # up2
    n += 7 * 7 * f + 1                               # head
    return n


def discriminator_param_count(width):
    d = width
    n = 16 * d + d                                   # c1
    n += (16 * d * 2 * d + 2 * d) + 4 * d            # c2
    n += (16 * 2 * d * 4 * d + 4 * d) + 8 * d        # c3
    n += (16 * 4 * d * 8 * d + 8 * d) + 16 * d       # c4
    n += 16 * 8 * d + 1                              # c5
    return n
