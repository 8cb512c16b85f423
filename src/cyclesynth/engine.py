"""Dense float32 tensors with reverse-mode automatic differentiation.

Arrays are plain numpy buffers; every differentiable op records the
tensors it consumed plus a closure that maps the output gradient to
input gradients. ``backward`` walks the recorded graph once per node in
reverse topological order, accumulating into ``.grad`` so that tensors
used in several places (e.g. a generator appearing in both cycles)
receive the sum of all contributions.

Broadcasting is deliberately restricted to scalars; channel-wise biases
and affine parameters are handled inside conv2d / instance_norm, which
keeps every gradient path explicit and easy to audit.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


# -- elementwise ops ----------------------------------------------------------


def add(a, b):
    _check_binary_shapes(a, b, "add")
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.data.shape))

    return Tensor._result(data, (a, b), bwd)


def sub(a, b):
    _check_binary_shapes(a, b, "sub")
    data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(-g, b.data.shape))

    return Tensor._result(data, (a, b), bwd)


def mul(a, b):
    _check_binary_shapes(a, b, "mul")
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.data, b.data.shape))

    return Tensor._result(data, (a, b), bwd)


def square(a):
    data = a.data * a.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * (2.0 * a.data))

    return Tensor._result(data, (a,), bwd)


def absolute(a):
    data = np.abs(a.data)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * np.sign(a.data))

    return Tensor._result(data, (a,), bwd)


def tanh(a):
    data = np.tanh(a.data)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return Tensor._result(data, (a,), bwd)


def relu(a):
    data = np.maximum(a.data, 0.0)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0))

    return Tensor._result(data, (a,), bwd)


def leaky_relu(a, slope=0.2):
    pos = a.data > 0.0
    data = np.where(pos, a.data, a.data * slope).astype(a.data.dtype)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * np.where(pos, 1.0, slope).astype(g.dtype))

    return Tensor._result(data, (a,), bwd)


# -- reductions ---------------------------------------------------------------


def tsum(a):
    if a.data.size == 0:
        raise EmptyTensorError("sum of empty tensor")
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, g, dtype=a.data.dtype))

    return Tensor._result(data, (a,), bwd)


def tmean(a):
    if a.data.size == 0:
        raise EmptyTensorError("mean of empty tensor")
    inv = 1.0 / a.data.size
    data = np.asarray(a.data.sum() * inv, dtype=a.data.dtype)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, g * inv, dtype=a.data.dtype))

    return Tensor._result(data, (a,), bwd)


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
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(xp.shape[1] * k * k, -1)


def _flat_grid(g, hq, wq):
    """[N,C,Ho,Wo] in a zeroed flat [C, N*hq*wq] grid, and the index after its last entry."""
    n, c, ho, wo = g.shape
    gf = np.zeros((c, n, hq, wq), dtype=g.dtype)
    gf[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
    return gf.reshape(c, -1), (n - 1) * hq * wq + (ho - 1) * wq + wo


def _sum_windows(p, wp, ho, wo):
    """Narrow forward: sum tap (i,j)'s window of p [N,C,k,k,Hp*Wp], which starts
    i*Wp + j along the flat axis, over span (Ho-1)*Wp + Wo; then crop to Ho x Wo."""
    n, c, k = p.shape[:3]
    span = (ho - 1) * wp + wo
    out = np.zeros((n, c, ho * wp), dtype=p.dtype)
    for i in range(k):
        for j in range(k):
            out[:, :, :span] += p[:, :, i, j, i * wp + j:i * wp + j + span]
    return np.ascontiguousarray(out.reshape(n, c, ho, wp)[:, :, :, :wo])


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
    Hq x Wq = ceil(ext/s) cells, cut after its last nonzero column. Tap (i,j) lands
    in stride phase (i%s, j%s), the input rows i%s::s and columns j%s::s, shifted by
    (i//s)*Wq + j//s, so each phase is a stride-1 scatter of contiguous slices.
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
    p = (w.reshape(cout, -1).T @ gf[:, :last]).reshape(cin, k, k, last)
    full = np.empty((cin, n, ext_h, ext_w), dtype=g.dtype)
    grid = np.empty((cin, n * hq * wq), dtype=g.dtype)
    for a in range(s):
        for b in range(s):
            grid.fill(0)
            for i in range(a, k, s):
                for j in range(b, k, s):
                    off = i // s * wq + j // s
                    grid[:, off:off + last] += p[:, i, j]
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

    xp = _pad2d(x.data, pad, pad_mode)
    if stride == 1 and cout < cin:
        # narrow side, as in _conv_input_grad: Cout*k*k GEMM rows per sample, then the
        # k*k shifted windows summed; dW comes from shifted views of xp, no columns
        wt = w.data.transpose(0, 2, 3, 1).reshape(-1, cin)
        p = (wt @ xp.reshape(n, cin, -1)).reshape(n, cout, k, k, -1)
        out, cols = _sum_windows(p, xp.shape[3], ho, wo), None
    else:
        cols, xp = _im2col(xp, k, stride), None
        out = (w.data.reshape(cout, -1) @ cols).reshape(cout, n, ho, wo)
        out = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    out += b.data.reshape(1, cout, 1, 1)

    def bwd(g):
        if w.requires_grad and cols is None:
            w._accumulate(_narrow_weight_grad(g, xp, k))
        elif w.requires_grad:
            g2 = g.transpose(1, 0, 2, 3).reshape(cout, -1)
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


def instance_norm(x, gamma, beta, eps=1e-5):
    """Standardize each (sample, channel) plane, then apply a per-channel affine.

    Uses the biased 1/(H*W) variance estimator.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm expects [N,C,H,W], got {x.data.shape}")
    n, c, h, wd = x.data.shape
    if h * wd < 2:
        raise ShapeError(f"instance_norm needs at least 2 pixels per plane, got {h}x{wd}")
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"instance_norm affine shapes {gamma.data.shape}/{beta.data.shape}, expected ({c},)")
    m = h * wd
    mu = x.data.mean(axis=(2, 3), keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gamma.data.reshape(1, c, 1, 1) + beta.data.reshape(1, c, 1, 1)

    def bwd(g):
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2, 3)))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gh = g * gamma.data.reshape(1, c, 1, 1)
            sum_gh = gh.sum(axis=(2, 3), keepdims=True)
            sum_gh_xhat = (gh * xhat).sum(axis=(2, 3), keepdims=True)
            x._accumulate((inv_std / m) * (m * gh - sum_gh - xhat * sum_gh_xhat))

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


def backward(loss):
    """Populate d(loss)/d(leaf) for every requires_grad tensor feeding loss."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topo_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
