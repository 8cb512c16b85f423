"""Volume I/O, preprocessing, head masking, and the synthetic phantom generator.

Volumes are stacks of 2D slices stored as 256-level quantized intensities
inside a fixed per-modality window: [-600, 1400] HU for CT-like data and
[0, 3500] scanner units for MR-like data. The SVOL container keeps the
repo free of clinical-format dependencies and round-trips bit-exactly.

The phantom generator emits paired two-modality head stand-ins: both
modalities render the same randomized geometry (skull ring, tissue blobs,
air cavities) under different intensity assignments, so a deterministic
ground-truth cross-modality mapping exists. Controlled per-slice shifts
of the CT copy model registration error between the pair.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

MODALITIES = ("MR", "CT", "SYNTH_MR", "SYNTH_CT")
CT_WINDOW = (-600.0, 1400.0)
MR_WINDOW = (0.0, 3500.0)

HEAD_MASK_THRESHOLD_HU = -300.0

SVOL_MAGIC = b"SVOL1"

# pad margin of the full-scale recipe: 256 -> 286 before the random crop
PAD_FRACTION_NUM = 30
PAD_FRACTION_DEN = 256


class ContainerError(Exception):
    """Base class for problems in a framed file (SVOL volumes, CSYN1 checkpoints)."""


class BadMagicError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


class HeaderError(ContainerError):
    pass


class EmptyForegroundError(ValueError):
    """Head masking found no voxels above threshold in some slice."""


def base_modality(modality):
    """The family of a real or synthesized modality: "CT" or "MR"."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    return modality.removeprefix("SYNTH_")


def window_for(modality):
    return CT_WINDOW if base_modality(modality) == "CT" else MR_WINDOW


@dataclass(eq=False)
class SliceVolume:
    """A quantized slice stack with its acquisition window.

    voxels is uint8 [slices, H, W]; mask, when present, is boolean of the
    same shape and marks the head region. dims is the voxels' shape, and
    window defaults to the modality's.
    """

    modality: str
    voxels: np.ndarray
    spacing_mm: tuple = (1.0, 1.0, 1.0)
    window: tuple | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.uint8)
        if self.voxels.ndim != 3 or 0 in self.dims:
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3:
            raise ValueError("spacing_mm must have three entries")
        lo, hi = window_bounds(window_for(self.modality) if self.window is None
                               else self.window)
        self.window = (float(lo), float(hi))
        if self.mask is not None:
            self.mask = np.ascontiguousarray(self.mask, dtype=bool)
            if self.mask.shape != self.dims:
                raise ValueError(
                    f"mask shape {self.mask.shape} does not match dims {self.dims}")

    @property
    def dims(self):
        return self.voxels.shape


# -- quantization ---------------------------------------------------------


def window_bounds(window):
    """(lo, hi) of a window, which must be ordered lo < hi."""
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window lo must be < hi, got ({lo}, {hi})")
    return lo, hi


def quantize(v, window):
    """Map native-unit values into the 256 uniform levels of `window`."""
    lo, hi = window_bounds(window)
    x = np.clip((np.asarray(v, dtype=np.float64) - lo) / (hi - lo), 0.0, 1.0)
    return np.rint(255.0 * x).astype(np.uint8)


def dequantize(q, window):
    """Level midpoint back to native units (inverse of quantize up to half a level)."""
    lo, hi = window_bounds(window)
    return lo + (np.asarray(q, dtype=np.float64) / 255.0) * (hi - lo)


def level_table(window):
    """float64 native value of each of the 256 levels: `table[q]` equals
    `dequantize(q, window)` bit for bit, since it is the same formula."""
    return dequantize(np.arange(256), window)


def to_model_range(q):
    """uint8 levels to the generator's (-1, 1) working range."""
    return (np.asarray(q, dtype=np.float32) / 255.0) * 2.0 - 1.0


def from_model_range(y):
    """Model-range values back to uint8 levels, clamping overshoot."""
    x = np.clip((np.asarray(y, dtype=np.float32) + 1.0) / 2.0, 0.0, 1.0)
    return np.rint(255.0 * x).astype(np.uint8)


# -- head masking ---------------------------------------------------------


# in-plane 4-connectivity: labelling a stack with it keeps every slice apart
_SLICE_CROSS = np.zeros((3, 3, 3), dtype=bool)
_SLICE_CROSS[1] = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]


def head_mask(ct):
    """Boolean head-region mask of a CT-like volume.

    Per slice: threshold at HEAD_MASK_THRESHOLD_HU, keep the largest 4-connected
    component (the first in raster order on ties), fill its holes, the
    background components that touch no slice border. The whole stack is
    labelled at once with in-plane connectivity, so each slice stays
    independent. Only the foreground's bounding box over the stack, grown by
    one pixel and clamped to the slice, is labelled: every pixel outside it
    is background that reaches a border in a straight line, so a background
    piece inside the box reaches a slice border exactly when it touches the
    box's edge. The result is meant to be propagated unchanged to the
    spatially paired MR volume.
    """
    from scipy import ndimage  # loaded on first use: phantom, train and infer never mask

    if base_modality(ct.modality) != "CT":
        raise ValueError(f"head_mask needs a CT-like volume, got {ct.modality!r}")
    # the table rises with the level, so the levels above threshold are a suffix
    fg = ct.voxels >= 256 - np.count_nonzero(level_table(ct.window) > HEAD_MASK_THRESHOLD_HU)
    empty = ~fg.any(axis=(1, 2))
    if empty.any():
        raise EmptyForegroundError(f"slice {int(np.argmax(empty))}: no voxels above "
                                   f"{HEAD_MASK_THRESHOLD_HU} in {ct.modality}")
    plane = fg.any(axis=0)
    rows, cols = np.flatnonzero(plane.any(axis=1)), np.flatnonzero(plane.any(axis=0))
    box = (slice(None), slice(max(rows[0] - 1, 0), rows[-1] + 2),
           slice(max(cols[0] - 1, 0), cols[-1] + 2))
    labels, n = ndimage.label(fg[box], _SLICE_CROSS, output=np.intp)
    # labels run in raster order, so slice s holds labels first[s]+1 .. last[s];
    # a slice with one component keeps it, so only the others are counted
    last = labels.reshape(len(labels), -1).max(axis=1)
    first = np.concatenate(([0], last[:-1]))
    sizes = np.bincount(labels[last - first > 1].ravel(), minlength=n + 1)[1:]
    largest = np.repeat(np.maximum.reduceat(sizes, first), last - first)
    hits = np.flatnonzero(sizes == largest)
    kept = 1 + hits[np.searchsorted(hits, first)]
    background, nb = ndimage.label(labels != kept[:, None, None], _SLICE_CROSS,
                                   output=np.intp)
    inside = np.ones(nb + 1, dtype=bool)
    inside[background[:, (0, -1), :]] = False
    inside[background[:, :, (0, -1)]] = False
    inside[0] = True
    mask = np.zeros(fg.shape, dtype=bool)
    mask[box] = inside[background]
    return mask


# -- augmentation ---------------------------------------------------------


def pad_margin(target):
    """Total pad (both sides combined) for a crop size, scaled from 30/256 and kept even."""
    exact = PAD_FRACTION_NUM * target / PAD_FRACTION_DEN
    return 2 * int(round(exact / 2.0))


def pad_and_crop(image, target, oy, ox, pad_total):
    """Edge-replicate pad to target+pad_total, then crop `target` at (oy, ox).

    Deterministic core of `augment`; exposed so aligned pairs can share one
    offset draw. Valid offsets span [0, pad_total + max(0, padded - shape)].
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2D slice, got shape {image.shape}")
    padded_size = target + pad_total
    h, w = image.shape
    if h > padded_size or w > padded_size:
        raise ValueError(
            f"slice {h}x{w} larger than padded size {padded_size}x{padded_size}")
    py, px = padded_size - h, padded_size - w
    padded = np.pad(image, ((py // 2, py - py // 2), (px // 2, px - px // 2)),
                    mode="edge")
    if not (0 <= oy <= padded_size - target and 0 <= ox <= padded_size - target):
        raise ValueError(f"crop offset ({oy}, {ox}) outside "
                         f"[0, {padded_size - target}]")
    return padded[oy:oy + target, ox:ox + target]


def augment(image, target, rng):
    """Edge-replicate pad to target + pad_margin(target), then uniform random crop of target."""
    pad_total = pad_margin(target)
    oy = int(rng.integers(0, pad_total + 1))
    ox = int(rng.integers(0, pad_total + 1))
    return pad_and_crop(image, target, oy, ox, pad_total)


# -- phantom generation ---------------------------------------------------


@dataclass
class PhantomSpec:
    """Geometry and misalignment parameters for a synthetic paired dataset."""

    n_volumes: int = 8
    slices_per_volume: int = 16
    height: int = 64
    width: int = 64
    shape_seed: int = 0
    max_shift_px: int = 0
    shift_probability: float = 0.0

    def __post_init__(self):
        if self.height % 4 or self.width % 4:
            raise ValueError("phantom H and W must be multiples of 4")
        if self.max_shift_px < 0:
            raise ValueError("max_shift_px must be >= 0")
        if not 0.0 <= self.shift_probability <= 1.0:
            raise ValueError("shift_probability must be in [0, 1]")


@dataclass
class PhantomSet:
    """Paired phantom volumes plus the per-slice shifts applied to the CT copies."""

    mr: list = field(default_factory=list)
    ct: list = field(default_factory=list)
    # [n_volumes, slices, 2] integer (dy, dx) applied to each CT slice
    shifts: np.ndarray = None


# native intensity assignments; the same geometry renders differently per modality
CT_LEVELS = {"air": -1000.0, "tissue_base": 40.0, "tissue_span": 30.0,
             "skull": 1200.0, "cavity": -1000.0, "noise_sd": 15.0}
MR_LEVELS = {"air": 30.0, "tissue_base": 1800.0, "tissue_span": 350.0,
             "skull": 380.0, "cavity": 80.0, "noise_sd": 25.0}


def _bilinear_upsample(grid, h, w):
    gh, gw = grid.shape
    yy = np.linspace(0.0, gh - 1.0, h)
    xx = np.linspace(0.0, gw - 1.0, w)
    y0 = np.clip(np.floor(yy).astype(int), 0, gh - 2)
    x0 = np.clip(np.floor(xx).astype(int), 0, gw - 2)
    fy = (yy - y0)[:, None]
    fx = (xx - x0)[None, :]
    a = grid[np.ix_(y0, x0)]
    b = grid[np.ix_(y0, x0 + 1)]
    c = grid[np.ix_(y0 + 1, x0)]
    d = grid[np.ix_(y0 + 1, x0 + 1)]
    return (a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx
            + c * fy * (1 - fx) + d * fy * fx)


def _slice_geometry(rng, h, w):
    """Randomized head cross-section: skull ring, tissue region, cavities, blob field."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy = h / 2 + rng.uniform(-0.03, 0.03) * h
    cx = w / 2 + rng.uniform(-0.03, 0.03) * w
    ay = (0.33 + 0.05 * rng.random()) * h
    ax = (0.36 + 0.05 * rng.random()) * w
    thickness = float(rng.integers(2, 4))
    r2 = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2
    head = r2 <= 1.0
    inner = (((yy - cy) / (ay - thickness)) ** 2
             + ((xx - cx) / (ax - thickness)) ** 2) <= 1.0
    skull = head & ~inner

    cavity = np.zeros((h, w), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        ky = cy + rng.uniform(-0.4, 0.4) * (ay - thickness)
        kx = cx + rng.uniform(-0.4, 0.4) * (ax - thickness)
        kr = rng.uniform(2.0, 5.0)
        cavity |= ((yy - ky) ** 2 + (xx - kx) ** 2) <= kr ** 2
    cavity &= inner

    blob = _bilinear_upsample(rng.random((6, 6)), h, w)
    blob = (blob - blob.min()) / max(blob.max() - blob.min(), 1e-9)
    return skull, inner, cavity, blob


def _render(levels, skull, tissue, cavity, blob, noise):
    img = np.full(skull.shape, levels["air"], dtype=np.float64)
    img[tissue] = (levels["tissue_base"]
                   + levels["tissue_span"] * blob[tissue])
    img[skull] = levels["skull"]
    img[cavity] = levels["cavity"]
    sd = levels["noise_sd"]
    return img + np.clip(noise * sd, -3.0 * sd, 3.0 * sd)


def phantom_generate(spec, seed):
    """Paired SYNTH_MR / SYNTH_CT volumes with recorded CT misalignment.

    Geometry and shift decisions come from separate seed streams, so
    regenerating with max_shift_px=0 yields the aligned ground truth for
    the identical anatomy.
    """
    n, s = spec.n_volumes, spec.slices_per_volume
    h, w = spec.height, spec.width
    mr_vols, ct_vols = [], []
    shifts = np.zeros((n, s, 2), dtype=np.int64)
    for vi in range(n):
        geom_rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(spec.shape_seed), 11, vi]))
        shift_rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(spec.shape_seed), 13, vi]))
        mr_stack = np.empty((s, h, w), dtype=np.uint8)
        ct_stack = np.empty((s, h, w), dtype=np.uint8)
        for si in range(s):
            skull, tissue, cavity, blob = _slice_geometry(geom_rng, h, w)
            noise_ct = geom_rng.standard_normal((h, w))
            noise_mr = geom_rng.standard_normal((h, w))
            ct_native = _render(CT_LEVELS, skull, tissue, cavity, blob, noise_ct)
            mr_native = _render(MR_LEVELS, skull, tissue, cavity, blob, noise_mr)
            if spec.max_shift_px > 0 and shift_rng.random() < spec.shift_probability:
                dy = int(shift_rng.integers(-spec.max_shift_px, spec.max_shift_px + 1))
                dx = int(shift_rng.integers(-spec.max_shift_px, spec.max_shift_px + 1))
                shifts[vi, si] = (dy, dx)
                ct_native = np.roll(ct_native, (dy, dx), axis=(0, 1))
            mr_stack[si] = quantize(mr_native, MR_WINDOW)
            ct_stack[si] = quantize(ct_native, CT_WINDOW)
        mr_vols.append(SliceVolume("SYNTH_MR", mr_stack))
        ct_vols.append(SliceVolume("SYNTH_CT", ct_stack))
    return PhantomSet(mr=mr_vols, ct=ct_vols, shifts=shifts)


# -- framed container: magic + u32 LE header length + JSON header + payload --


def write_atomic(path, chunks):
    """Write chunks (bytes, or array buffers such as `arr.view(np.uint8)`, written
    without a copy) to a temp file beside path, then os.replace it onto path.

    A write that raises leaves the previous file at path (or none) and
    removes its temp file; path never holds a partly written file. An OSError
    is raised again with its errno, naming path rather than the temp file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):  # none made, or its directory is not one
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, os.fspath(path)) from e
        raise


def write_json(path, obj):
    """write_atomic of obj as indented, sorted-key JSON, the form of every JSON file the
    program writes."""
    write_atomic(path, [json.dumps(obj, indent=2, sort_keys=True).encode()])


def check_output_paths(*paths):
    """Raise the OSError write_atomic would raise for the first of paths (None ones
    skipped) that is a directory (EISDIR) or whose parent is missing (ENOENT) or not a
    directory (ENOTDIR), naming that path: a command calls it before it computes what
    it writes."""
    for path in map(os.fspath, filter(None, paths)):
        try:
            if os.path.isdir(path):
                code = errno.EISDIR
            elif stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
                continue
            else:
                code = errno.ENOTDIR
        except OSError as e:
            code = e.errno
        raise OSError(code, os.strerror(code), path)


def write_framed(path, magic, header, payload):
    """Atomically write magic, the compact sorted-key JSON header and payload chunks."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, [magic, struct.pack("<I", len(blob)), blob, *payload])


def read_header(f, path, magic):
    """Check prefix, magic, header length and JSON of the framed file open as f.

    Reads only the prefix and the header; returns (header, payload_bytes) with f
    at the payload, whose size comes from os.fstat.
    """
    size = os.fstat(f.fileno()).st_size
    off = len(magic) + 4
    prefix = f.read(off)
    if len(prefix) < off:
        raise TruncatedError(f"{path}: file shorter than the fixed prefix")
    if prefix[:len(magic)] != magic:
        raise BadMagicError(f"{path}: bad magic {prefix[:len(magic)]!r}")
    (hlen,) = struct.unpack_from("<I", prefix, len(magic))
    blob = f.read(hlen) if size >= off + hlen else b""
    if len(blob) < hlen:
        raise TruncatedError(f"{path}: header length {hlen} exceeds file size")
    try:
        header = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise HeaderError(f"{path}: unreadable header: {e}") from e
    return header, size - off - hlen


def read_into(f, path, arr, what):
    """Fill the contiguous array arr with the next arr.nbytes bytes of f, in place."""
    if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
        raise TruncatedError(f"{path}: {what} ends before its {arr.nbytes} bytes")


def save_volume(volume, path):
    header = {
        "modality": volume.modality,
        "dims": list(volume.dims),
        "spacing_mm": list(volume.spacing_mm),
        "window": list(volume.window),
        "has_mask": volume.mask is not None,
    }
    payload = [volume.voxels.reshape(-1)]
    if volume.mask is not None:
        payload.append(volume.mask.reshape(-1).view(np.uint8))
    write_framed(path, SVOL_MAGIC, header, payload)


def load_volume(path):
    with open(path, "rb") as f:
        header, payload = read_header(f, path, SVOL_MAGIC)
        try:
            dims = tuple(int(d) for d in header["dims"])
            spacing = tuple(float(x) for x in header["spacing_mm"])
            window = tuple(float(x) for x in header["window"])
            modality = header["modality"]
            has_mask = bool(header["has_mask"])
        except (KeyError, TypeError, ValueError) as e:
            raise HeaderError(f"{path}: malformed header fields: {e}") from e
        if len(dims) != 3:
            raise HeaderError(f"{path}: dims must have three entries, got {dims}")

        nvox = math.prod(dims)
        expected = nvox * (2 if has_mask else 1)
        if payload < expected:
            raise TruncatedError(
                f"{path}: payload holds {payload} bytes, header promises {expected}")
        if payload > expected:
            raise HeaderError(
                f"{path}: {payload - expected} trailing bytes beyond declared payload")

        # flat until the checks below: a zero-size volume may declare any dims
        voxels = np.empty(nvox, dtype=np.uint8)
        read_into(f, path, voxels, "voxels")
        mask = None
        if has_mask:
            mask = np.empty(nvox, dtype=np.uint8)
            read_into(f, path, mask, "mask")
            mask = np.not_equal(mask, 0, out=mask.view(bool))
    try:
        return SliceVolume(modality, voxels.reshape(dims), spacing_mm=spacing,
                           window=window, mask=None if mask is None else mask.reshape(dims))
    except ValueError as e:
        raise HeaderError(f"{path}: {e}") from e
