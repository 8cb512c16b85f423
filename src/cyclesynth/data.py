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
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

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


def window_for(modality):
    if modality in ("CT", "SYNTH_CT"):
        return CT_WINDOW
    if modality in ("MR", "SYNTH_MR"):
        return MR_WINDOW
    raise ValueError(f"unknown modality {modality!r}")


@dataclass(eq=False)
class SliceVolume:
    """A quantized slice stack with its acquisition window.

    voxels is uint8 [slices, H, W]; mask, when present, is boolean of the
    same shape and marks the head region.
    """

    modality: str
    dims: tuple
    spacing_mm: tuple
    window: tuple
    voxels: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3 or any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3:
            raise ValueError("spacing_mm must have three entries")
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"window lo must be < hi, got ({lo}, {hi})")
        self.window = (float(lo), float(hi))
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.uint8)
        if self.voxels.shape != self.dims:
            raise ValueError(
                f"voxel shape {self.voxels.shape} does not match dims {self.dims}")
        if self.mask is not None:
            self.mask = np.ascontiguousarray(self.mask, dtype=bool)
            if self.mask.shape != self.dims:
                raise ValueError(
                    f"mask shape {self.mask.shape} does not match dims {self.dims}")


def make_volume(modality, voxels, spacing_mm=(1.0, 1.0, 1.0), window=None, mask=None):
    """SliceVolume with the modality's standard window unless overridden."""
    if window is None:
        window = window_for(modality)
    voxels = np.asarray(voxels)
    return SliceVolume(modality=modality, dims=voxels.shape,
                       spacing_mm=spacing_mm, window=window,
                       voxels=voxels, mask=mask)


# -- quantization ---------------------------------------------------------


def quantize(v, window):
    """Map native-unit values into the 256 uniform levels of `window`."""
    lo, hi = window
    if lo >= hi:
        raise ValueError(f"window lo must be < hi, got ({lo}, {hi})")
    x = np.clip((np.asarray(v, dtype=np.float64) - lo) / (hi - lo), 0.0, 1.0)
    return np.rint(255.0 * x).astype(np.uint8)


def dequantize(q, window):
    """Level midpoint back to native units (inverse of quantize up to half a level)."""
    lo, hi = window
    if lo >= hi:
        raise ValueError(f"window lo must be < hi, got ({lo}, {hi})")
    return lo + (np.asarray(q, dtype=np.float64) / 255.0) * (hi - lo)


def to_model_range(q):
    """uint8 levels to the generator's (-1, 1) working range."""
    return (np.asarray(q, dtype=np.float32) / 255.0) * 2.0 - 1.0


def from_model_range(y):
    """Model-range values back to uint8 levels, clamping overshoot."""
    x = np.clip((np.asarray(y, dtype=np.float32) + 1.0) / 2.0, 0.0, 1.0)
    return np.rint(255.0 * x).astype(np.uint8)


# -- head masking ---------------------------------------------------------


def head_mask(ct, threshold_native=HEAD_MASK_THRESHOLD_HU):
    """Boolean head-region mask of a CT-like volume.

    Per slice: threshold in native units, keep the largest 4-connected
    component, fill its holes. The result is meant to be propagated
    unchanged to the spatially paired MR volume.
    """
    if ct.modality not in ("CT", "SYNTH_CT"):
        raise ValueError(f"head_mask needs a CT-like volume, got {ct.modality!r}")
    native = dequantize(ct.voxels, ct.window)
    out = np.zeros(ct.dims, dtype=bool)
    for s in range(ct.dims[0]):
        fg = native[s] > threshold_native
        if not fg.any():
            raise EmptyForegroundError(
                f"slice {s}: no voxels above {threshold_native} in {ct.modality}")
        labels, n = ndimage.label(fg)
        largest = 1 + np.argmax(ndimage.sum_labels(fg, labels, index=range(1, n + 1)))
        out[s] = ndimage.binary_fill_holes(labels == largest)
    return out


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


def augment(image, target, rng, pad_total=None):
    """Edge-replicate pad to target+pad_total, then uniform random crop of target.

    pad_total=None applies the proportional default; pad_total=0 with an
    already target-sized image is the identity transform.
    """
    if pad_total is None:
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


def phantom_generate(spec, seed=0):
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
        mr_vols.append(make_volume("SYNTH_MR", mr_stack))
        ct_vols.append(make_volume("SYNTH_CT", ct_stack))
    return PhantomSet(mr=mr_vols, ct=ct_vols, shifts=shifts)


# -- framed container: magic + u32 LE header length + JSON header + payload --


def write_atomic(path, chunks):
    """Write byte chunks to a temp file beside path, then os.replace it onto path.

    A write that raises leaves the previous file at path (or none) and
    removes its temp file; path never holds a partly written file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_framed(path, magic, header, payload):
    """Atomically write magic, the compact sorted-key JSON header and payload chunks."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, [magic, struct.pack("<I", len(blob)), blob, *payload])


def read_framed(path, magic):
    """Check prefix, magic, header length and JSON; return (header, raw, payload_offset)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(magic) + 4:
        raise TruncatedError(f"{path}: file shorter than the fixed prefix")
    if raw[:len(magic)] != magic:
        raise BadMagicError(f"{path}: bad magic {raw[:len(magic)]!r}")
    (hlen,) = struct.unpack_from("<I", raw, len(magic))
    off = len(magic) + 4
    if len(raw) < off + hlen:
        raise TruncatedError(f"{path}: header length {hlen} exceeds file size")
    try:
        header = json.loads(raw[off:off + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise HeaderError(f"{path}: unreadable header: {e}") from e
    return header, raw, off + hlen


def save_volume(volume, path):
    header = {
        "modality": volume.modality,
        "dims": list(volume.dims),
        "spacing_mm": list(volume.spacing_mm),
        "window": list(volume.window),
        "has_mask": volume.mask is not None,
    }
    payload = [volume.voxels.tobytes()]
    if volume.mask is not None:
        payload.append(volume.mask.astype(np.uint8).tobytes())
    write_framed(path, SVOL_MAGIC, header, payload)


def load_volume(path):
    header, raw, off = read_framed(path, SVOL_MAGIC)
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

    nvox = int(np.prod(dims))
    expected = nvox * (2 if has_mask else 1)
    if len(raw) - off < expected:
        raise TruncatedError(
            f"{path}: payload holds {len(raw) - off} bytes, header promises {expected}")
    if len(raw) - off > expected:
        raise HeaderError(
            f"{path}: {len(raw) - off - expected} trailing bytes beyond declared payload")

    voxels = np.frombuffer(raw, dtype=np.uint8, count=nvox, offset=off).reshape(dims)
    mask = None
    if has_mask:
        mask = np.frombuffer(raw, dtype=np.uint8, count=nvox,
                             offset=off + nvox).reshape(dims).astype(bool)
    try:
        return SliceVolume(modality=modality, dims=dims, spacing_mm=spacing,
                           window=window, voxels=voxels.copy(), mask=mask)
    except ValueError as e:
        raise HeaderError(f"{path}: {e}") from e
