"""Dense float32 tensors with reverse-mode automatic differentiation.

Arrays are plain numpy buffers; every differentiable op records the
tensors it consumed plus a closure that maps the output gradient to
input gradients. ``backward`` walks the recorded graph once per node in
reverse topological order, accumulating into ``.grad`` so that tensors
used in several places (e.g. a generator appearing in both cycles)
receive the sum of all contributions.

``backward`` consumes the graph it walks: once a node's closure has run,
the node drops that closure (and every array it saved), its parents and
its gradient, so the tape shrinks as the pass goes. Leaves keep their
gradients. A spent node raises if a later backward reaches it, so a
graph cannot be walked twice.

What a node keeps until its backward runs is one rule for every op: its
parents, its own output, and per-(sample, channel) statistics. Everything
else the backward needs (conv2d's padded input, instance_norm's centred
input, leaky_relu's mask) it recomputes with the forward's exact numpy op,
so each array lives on the tape once and gradients keep their bits.

Broadcasting is deliberately restricted to scalars; channel-wise biases
and affine parameters are handled inside conv2d / instance_norm, which
keeps every gradient path explicit and easy to audit.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class EmptyTensorError(ValueError):
    """Reduction or loss over a tensor with no elements."""


_DTYPE = np.float32
_GRAD_ENABLED = True


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the dtype used for newly created tensors.

    float64 exists only to tighten finite-difference gradient checks;
    training always runs in float32.
    """
    global _DTYPE
    old = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = old


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference, pool bookkeeping)."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def detach(self):
        return Tensor._result(self.data, (), None)

    def _accumulate(self, g):
        if self.grad is None:
            # a C-order copy: one g may go to two parents or be a view of a caller's
            # buffer, and keeping a transposed g's layout would change later sum orders
            self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, _wrap(-1.0))


def _wrap(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _check_binary_shapes(a, b, opname):
    # equal shapes, or one side is a scalar (broadcast over the other)
    if a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1:
        return
    raise ShapeError(f"{opname}: shape {a.data.shape} incompatible with {b.data.shape}")


def _reduce_to(g, shape):
    # gradient of a scalar operand broadcast against an array
    if g.shape == tuple(shape):
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


def _record(data, parents, *grads):
    """The node of a simple op: its backward gives each parent k that requires
    grad grads[k](g), in parent order."""

    def bwd(g):
        for p, grad in zip(parents, grads):
            if p.requires_grad:
                p._accumulate(grad(g))

    return Tensor._result(data, parents, bwd)


# -- elementwise ops ----------------------------------------------------------


def add(a, b):
    _check_binary_shapes(a, b, "add")
    return _record(a.data + b.data, (a, b), lambda g: _reduce_to(g, a.data.shape),
                   lambda g: _reduce_to(g, b.data.shape))


def sub(a, b):
    _check_binary_shapes(a, b, "sub")
    return _record(a.data - b.data, (a, b), lambda g: _reduce_to(g, a.data.shape),
                   lambda g: _reduce_to(-g, b.data.shape))


def mul(a, b):
    _check_binary_shapes(a, b, "mul")
    return _record(a.data * b.data, (a, b), lambda g: _reduce_to(g * b.data, a.data.shape),
                   lambda g: _reduce_to(g * a.data, b.data.shape))


def square(a):
    return _record(a.data * a.data, (a,), lambda g: g * (2.0 * a.data))


def absolute(a):
    return _record(np.abs(a.data), (a,), lambda g: g * np.sign(a.data))


def tanh(a):
    data = np.tanh(a.data)
    return _record(data, (a,), lambda g: g * (1.0 - data * data))


def relu(a):
    return _record(np.maximum(a.data, 0.0), (a,), lambda g: g * (a.data > 0.0))


def leaky_relu(a, slope=0.2):
    return _record(np.where(a.data > 0.0, a.data, a.data * slope).astype(a.data.dtype), (a,),
                   lambda g: g * np.where(a.data > 0.0, 1.0, slope).astype(g.dtype))


# -- reductions ---------------------------------------------------------------


def tsum(a):
    if a.data.size == 0:
        raise EmptyTensorError("sum of empty tensor")
    return _record(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,),
                   lambda g: np.full(a.data.shape, g, dtype=a.data.dtype))


def tmean(a):
    if a.data.size == 0:
        raise EmptyTensorError("mean of empty tensor")
    inv = 1.0 / a.data.size
    return _record(np.asarray(a.data.sum() * inv, dtype=a.data.dtype), (a,),
                   lambda g: np.full(a.data.shape, g * inv, dtype=a.data.dtype))


# -- batch split ----------------------------------------------------------------


def split_batch(a, n):
    """Samples [:n] and [n:] of a batch as two tensors; their gradients land in those rows."""
    if a.data.ndim == 0 or not 0 < n < len(a.data):
        raise ShapeError(f"split_batch: cannot split shape {a.data.shape} at {n}")

    def part(rows):
        def grad(g):
            full = np.zeros_like(a.data)
            full[rows] = g
            return full

        return _record(a.data[rows], (a,), grad)

    return part(slice(None, n)), part(slice(n, None))


# -- spatial padding ----------------------------------------------------------


def _pad2d(x, pad, mode):
    if pad == 0:
        return x
    if mode not in ("zeros", "reflect"):
        raise ValueError(f"unknown pad_mode {mode!r}")
    h, w = x.shape[2:]
    if mode == "reflect" and any(1 < n <= pad for n in (h, w)):
        raise ShapeError(f"reflect pad {pad} needs each side of the {h}x{w} input above {pad} or 1")
    xp = (np.zeros if mode == "zeros" else np.empty)(
        x.shape[:2] + (h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    if mode == "reflect":
        # pad-t mirrors pad+t and pad+n-1+t mirrors pad+n-1-t (a side of length 1 repeats
        # its edge, as np.pad does); columns go last, over the full height, for the corners
        for v, n in ((xp, h), (xp.swapaxes(2, 3), w)):
            edge = v[:, :, pad:pad + 1]
            v[:, :, :pad] = edge if n == 1 else v[:, :, 2 * pad:pad:-1]
            v[:, :, pad + n:] = edge if n == 1 else v[:, :, pad + n - 2:n - 2:-1]
    return xp


def _unpad2d_adjoint(g, pad, mode, out_h, out_w):
    """Adjoint of _pad2d: fold padded-border gradients back onto the source.

    g is a gradient the caller owns: the reflect fold adds into it in place, rows
    first, then columns, and the result is a view of it.
    """
    if pad == 0:
        return g
    if mode == "reflect":
        for v, n in ((g, out_h), (g.swapaxes(2, 3), out_w)):
            if n == 1:
                v[:, :, pad] += v[:, :, :pad].sum(axis=2) + v[:, :, pad + 1:].sum(axis=2)
            else:
                v[:, :, pad + 1:2 * pad + 1] += v[:, :, pad - 1::-1]
                v[:, :, n - 1:pad + n - 1] += v[:, :, pad + n:2 * pad + n][:, :, ::-1]
    return g[:, :, pad:pad + out_h, pad:pad + out_w]


# -- convolution: im2col columns for wide forwards, flat padded grids elsewhere --
#
# A flat grid lays an [N,C,Hq,Wq] array out channel-first as [C, N*Hq*Wq]. Moving
# by tap (i,j) of a stride-1 kernel is then a shift of i*Wq + j along the flat axis,
# so every per-tap sum or scatter is one contiguous 2-D slice; rows and samples
# that wrap into the next only ever meet zeros or positions cropped away.


def _im2col(xp, k, stride):
    """[N,C,H,W] -> contiguous [C*k*k, N*Ho*Wo] columns: row (c,i,j), column (n,y,x)."""
    n, c, h, w = xp.shape
    sn, sc, sh, sw = xp.strides
    win = as_strided(xp, (c, k, k, n, (h - k) // stride + 1, (w - k) // stride + 1),
                     (sc, sh, sw, sn, sh * stride, sw * stride), writeable=False)
    return np.ascontiguousarray(win).reshape(c * k * k, -1)


def _flat_grid(g, hq, wq):
    """[N,C,Ho,Wo] in a zeroed flat [C, N*hq*wq] grid, and the index after its last entry."""
    n, c, ho, wo = g.shape
    gf = np.zeros((c, n, hq, wq), dtype=g.dtype)
    gf[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
    return gf.reshape(c, -1), (n - 1) * hq * wq + (ho - 1) * wq + wo


def _sum_windows(p, wp, ho, wo):
    """Narrow forward of one sample: sum tap (i,j)'s window of p [C,k,k,Hp*Wp], which
    starts i*Wp + j along the flat axis, over span (Ho-1)*Wp + Wo; then crop to Ho x Wo."""
    c, k = p.shape[:2]
    span = (ho - 1) * wp + wo
    out = np.zeros((c, ho * wp), dtype=p.dtype)
    for i in range(k):
        for j in range(k):
            out[:, :span] += p[:, i, j, i * wp + j:i * wp + j + span]
    return out.reshape(c, ho, wp)[:, :, :wo]


def _narrow_weight_grad(g, xp, k):
    """conv2d's stride-1 weight gradient as k*k small GEMMs, no Cin*k*k columns.

    Xf is the padded input as a [Cin, N*Hp*Wp] flat grid and Gf the output gradient
    in the same grid, so tap (i,j) is Gf[:, :L] @ Xf[:, off:off+L].T with
    off = i*Wp + j, a shifted view; the zeros add nothing.
    """
    cin, hp, wp = xp.shape[1:]
    xf = xp.transpose(1, 0, 2, 3).reshape(cin, -1)
    gf, span = _flat_grid(g, hp, wp)
    dw = np.empty((g.shape[1], cin, k, k), dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            dw[:, :, i, j] = gf[:, :span] @ xf[:, i * wp + j:i * wp + j + span].T
    return dw


def _conv_input_grad(g, w, stride, ext_h, ext_w):
    """Gradient w.r.t. conv2d's padded input, [N,Cin,ext_h,ext_w].

    At stride 1 with Cout < Cin: a full correlation with the flipped kernel (Cout*k*k
    column rows). Otherwise one GEMM, W^T @ Gf, with G in a flat grid of
    Hq x Wq = ceil(ext/s) cells, cut after its last nonzero column. Its rows are
    tap-major, (i,j,c), so each tap's block P[i,j] is one contiguous [Cin, last]
    slice. Tap (i,j) lands in stride phase (i%s, j%s), the input rows i%s::s and
    columns j%s::s, shifted by (i//s)*Wq + j//s, so each phase is a stride-1
    scatter of contiguous slices.
    """
    n, cout = g.shape[:2]
    cin, k = w.shape[1], w.shape[2]
    if stride == 1 and cout < cin:
        wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        cols = _im2col(_pad2d(g, k - 1, "zeros"), k, 1)
        return (wf @ cols).reshape(cin, n, ext_h, ext_w).transpose(1, 0, 2, 3)
    s = stride
    hq, wq = -(-ext_h // s), -(-ext_w // s)
    gf, last = _flat_grid(g, hq, wq)
    # the same transposed-weight GEMM as W.reshape(Cout, -1).T with its rows permuted,
    # so every value keeps its bits; a C-ordered weight changes BLAS sums at some shapes
    p = (w.transpose(0, 2, 3, 1).reshape(cout, -1).T @ gf[:, :last]).reshape(k, k, cin, last)
    grid = np.zeros((cin, n * hq * wq), dtype=g.dtype)
    # at stride 1 the one phase's grid is the whole gradient, so it is returned as is
    full = grid.reshape(cin, n, hq, wq) if s == 1 else np.empty((cin, n, ext_h, ext_w), g.dtype)
    for a in range(s):
        for b in range(s):
            if a or b:
                grid.fill(0)
            for i in range(a, k, s):
                for j in range(b, k, s):
                    off = i // s * wq + j // s
                    grid[:, off:off + last] += p[i, j]
            if s > 1:
                phase = full[:, :, a::s, b::s]
                phase[...] = grid.reshape(cin, n, hq, wq)[:, :, :phase.shape[2], :phase.shape[3]]
    return full.transpose(1, 0, 2, 3)


def conv2d(x, w, b, stride=1, pad=0, pad_mode="zeros"):
    """2D cross-correlation over [N,Cin,H,W] with weight [Cout,Cin,k,k].

    Output spatial size is floor((H + 2*pad - k) / stride) + 1.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.data.shape} / {w.data.shape}")
    n, cin, h, wd = x.data.shape
    cout, cin_w, k, k2 = w.data.shape
    if k != k2 or cin_w != cin:
        raise ShapeError(f"conv2d weight {w.data.shape} does not match input {x.data.shape}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {b.data.shape}, expected ({cout},)")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    if k > h + 2 * pad or k > wd + 2 * pad or ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d geometry invalid: input {h}x{wd}, k={k}, stride={stride}, "
            f"pad={pad} gives output {ho}x{wo}")

    # the node keeps no array of its own: the padded input xp and the wide path's
    # Cin*k*k columns (k*k times xp at stride 1) live for the forward GEMM only, and
    # the backward pads x.data again for dW when the weight needs a gradient
    xp = _pad2d(x.data, pad, pad_mode)
    narrow = stride == 1 and cout < cin
    if narrow:
        # narrow side, as in _conv_input_grad: Cout*k*k GEMM rows per sample, then the
        # k*k shifted windows summed; dW comes from shifted views of the input that
        # backward pads again, no columns.
        # One sample at a time, so the largest buffer is one sample's P.
        wt = w.data.transpose(0, 2, 3, 1).reshape(-1, cin)
        out = np.empty((n, cout, ho, wo), dtype=xp.dtype)
        for si in range(n):
            p = (wt @ xp[si].reshape(cin, -1)).reshape(cout, k, k, -1)
            out[si] = _sum_windows(p, xp.shape[3], ho, wo)
    else:
        out = (w.data.reshape(cout, -1) @ _im2col(xp, k, stride)).reshape(cout, n, ho, wo)
        out = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    out += b.data.reshape(1, cout, 1, 1)

    def bwd(g):
        if w.requires_grad and narrow:
            w._accumulate(_narrow_weight_grad(g, _pad2d(x.data, pad, pad_mode), k))
        elif w.requires_grad:
            g2 = g.transpose(1, 0, 2, 3).reshape(cout, -1)
            cols = _im2col(_pad2d(x.data, pad, pad_mode), k, stride)
            w._accumulate((g2 @ cols.T).reshape(w.data.shape))
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gxp = _conv_input_grad(g, w.data, stride, h + 2 * pad, wd + 2 * pad)
            x._accumulate(_unpad2d_adjoint(gxp, pad, pad_mode, h, wd))

    return Tensor._result(out, (x, w, b), bwd)


def conv_transpose2d(x, w, b, stride=1, pad=0, output_pad=0):
    """Transposed convolution (adjoint of conv2d) with weight [Cin,Cout,k,k].

    Output spatial size is (H-1)*stride - 2*pad + k + output_pad. With the
    same weight array and zero bias this is the exact adjoint of conv2d at
    matching stride/pad; its forward is conv2d's input gradient.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv_transpose2d expects 4-d input/weight, got {x.data.shape} / {w.data.shape}")
    n, cin, h, wd = x.data.shape
    cin_w, cout, k, k2 = w.data.shape
    if k != k2 or cin_w != cin:
        raise ShapeError(f"conv_transpose2d weight {w.data.shape} does not match input {x.data.shape}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv_transpose2d bias shape {b.data.shape}, expected ({cout},)")
    if output_pad >= stride and output_pad != 0:
        raise ShapeError(f"output_pad {output_pad} must be < stride {stride}")
    ho = (h - 1) * stride - 2 * pad + k + output_pad
    wo = (wd - 1) * stride - 2 * pad + k + output_pad
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv_transpose2d geometry invalid: input {h}x{wd}, k={k}, stride={stride}, "
            f"pad={pad}, output_pad={output_pad} gives output {ho}x{wo}")
    ext_h = max((h - 1) * stride + k, pad + ho)
    ext_w = max((wd - 1) * stride + k, pad + wo)

    full = _conv_input_grad(x.data, w.data, stride, ext_h, ext_w)
    out = np.ascontiguousarray(full[:, :, pad:pad + ho, pad:pad + wo])
    out += b.data.reshape(1, cout, 1, 1)

    def bwd(g):
        gfull = np.pad(g, ((0, 0), (0, 0), (pad, ext_h - pad - ho), (pad, ext_w - pad - wo)))
        cols = _im2col(gfull, k, stride)  # [Cout*k*k, N*H*W]
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            x2 = x.data.transpose(1, 0, 2, 3).reshape(cin, -1)
            w._accumulate((x2 @ cols.T).reshape(w.data.shape))
        if x.requires_grad:
            gx = (w.data.reshape(cin, -1) @ cols).reshape(cin, n, h, wd)
            x._accumulate(gx.transpose(1, 0, 2, 3))

    return Tensor._result(out, (x, w, b), bwd)


# -- instance normalization ---------------------------------------------------


def instance_norm(x, gamma, beta, eps=1e-5, slope=None):
    """Standardize each (sample, channel) plane, apply a per-channel affine, then an
    optional activation: slope None is none, 0 a ReLU, in (0, 1) a leaky ReLU.

    Uses the biased 1/(H*W) variance estimator. One tape node: the per-plane sums
    are matrix-vector products over the [N*C, H*W] view, and the centring, the affine
    and the activation run in place in one buffer, the output. For the backward it
    keeps only per-plane statistics (mean, 1/std and scale) besides the output, whose
    sign is the activation's mask (out > 0 exactly where its input is, for any
    slope >= 0); the backward centres the input again with the same subtraction.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm expects [N,C,H,W], got {x.data.shape}")
    n, c, h, wd = x.data.shape
    if h * wd < 2:
        raise ShapeError(f"instance_norm needs at least 2 pixels per plane, got {h}x{wd}")
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"instance_norm affine shapes {gamma.data.shape}/{beta.data.shape}, expected ({c},)")
    if slope is not None and not 0.0 <= slope < 1.0:
        raise ValueError(f"instance_norm slope must be None or in [0, 1), got {slope}")
    m = h * wd
    x2 = x.data.reshape(n * c, m)
    mean = (x2 @ np.ones(m, dtype=x2.dtype) * (1.0 / m))[:, None]
    xc = x2 - mean
    inv_std = 1.0 / np.sqrt(np.einsum("ij,ij->i", xc, xc) * (1.0 / m) + eps)
    scale = (inv_std.reshape(n, c) * gamma.data).reshape(-1, 1)
    out = np.multiply(xc, scale, out=xc).reshape(n, c, m)
    out += beta.data[:, None]
    if slope == 0.0:
        np.maximum(out, 0.0, out=out)
    elif slope is not None:
        np.maximum(out, out * slope, out=out)
    out = out.reshape(x.data.shape)

    def bwd(g):
        g2 = gm = g.reshape(n * c, m)
        if slope == 0.0:
            gm = g2 * (out.reshape(n * c, m) > 0.0)
        elif slope is not None:
            gm = g2 * slope
            np.copyto(gm, g2, where=out.reshape(n * c, m) > 0.0)
        x2 = x.data.reshape(n * c, m)
        xc = x2 - mean
        s1 = gm @ np.ones(m, dtype=x2.dtype)                  # sum of g per plane
        s2 = np.einsum("ij,ij->i", gm, xc) * inv_std          # sum of g * xhat
        if beta.requires_grad:
            beta._accumulate(s1.reshape(n, c).sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate(s2.reshape(n, c).sum(axis=0))
        if x.requires_grad:
            # dx = a*g - b*xc - c per plane, with a = gamma/std
            a = scale[:, 0]
            dx = np.multiply(gm, scale, out=None if slope is None else gm)
            dx -= np.multiply(xc, (a * inv_std * s2 * (1.0 / m))[:, None], out=xc)
            dx -= (a * s1 * (1.0 / m))[:, None]
            x._accumulate(dx.reshape(x.data.shape))

    return Tensor._result(out, (x, gamma, beta), bwd)


# -- backward pass ------------------------------------------------------------


def _topo_order(root):
    """Nodes reachable from root with every node after its parents.

    The order is the deterministic depth-first discovery order, so two
    identical forward passes replay gradients identically.
    """
    nodes = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent._backward is not None:
                stack.append((parent, False))
    return nodes


def _spent(g):
    raise RuntimeError("backward reached a node whose graph an earlier backward consumed")


def backward(loss):
    """Populate d(loss)/d(leaf) for every requires_grad tensor feeding loss.

    Consumes the graph: each node, once its closure has run, drops that closure,
    its parents and its gradient, and a later backward that reaches it raises.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    loss.grad = np.ones_like(loss.data)
    nodes = _topo_order(loss)
    while nodes:
        node = nodes.pop()
        if node._backward is None:
            continue  # a leaf loss keeps its gradient
        if node.grad is not None:
            node._backward(node.grad)
        node._backward, node._parents, node.grad = _spent, (), None
