"""Binary checkpoint container for parameters, optimizer state and pool buffers.

Layout: magic "CSYN1" + u32 little-endian manifest length + JSON manifest
+ tightly packed little-endian float32 payload. The manifest carries an
ordered entry list (name, shape, dtype, offset) plus a free-form JSON
meta block for scalars like the epoch counter and the run config.
Round-trips are bitwise exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .data import write_atomic

CKPT_MAGIC = b"CSYN1"


class CheckpointError(Exception):
    """Base class for checkpoint container problems."""


class BadMagicError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


class ManifestError(CheckpointError):
    pass


def write_checkpoint(path, arrays, meta=None):
    """Write named float32 arrays plus a JSON-serializable meta block.

    Entry order in the file follows the iteration order of `arrays`.
    """
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": str(name), "shape": list(arr.shape),
                        "dtype": "f32", "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {"meta": meta if meta is not None else {}, "entries": entries}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, [CKPT_MAGIC, struct.pack("<I", len(blob)), blob] + chunks)


def read_checkpoint(path):
    """Return (arrays, meta); arrays is an ordered name -> float32 ndarray dict."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(CKPT_MAGIC) + 4:
        raise TruncatedError(f"{path}: file shorter than the fixed prefix")
    if raw[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:len(CKPT_MAGIC)]!r}")
    (mlen,) = struct.unpack_from("<I", raw, len(CKPT_MAGIC))
    off = len(CKPT_MAGIC) + 4
    if len(raw) < off + mlen:
        raise TruncatedError(f"{path}: manifest length {mlen} exceeds file size")
    try:
        manifest = json.loads(raw[off:off + mlen].decode())
        meta = manifest["meta"]
        entries = manifest["entries"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise ManifestError(f"{path}: unreadable manifest: {e}") from e
    payload_off = off + mlen

    arrays = {}
    expect = 0
    for ent in entries:
        try:
            name = ent["name"]
            shape = tuple(int(d) for d in ent["shape"])
            dtype = ent["dtype"]
            eoff = int(ent["offset"])
        except (KeyError, TypeError, ValueError) as e:
            raise ManifestError(f"{path}: malformed entry {ent!r}: {e}") from e
        if dtype != "f32":
            raise ManifestError(f"{path}: entry {name!r} has dtype {dtype!r}, only f32 is defined")
        if eoff != expect:
            raise ManifestError(
                f"{path}: entry {name!r} offset {eoff} breaks tight packing (expected {expect})")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 4
        if payload_off + eoff + nbytes > len(raw):
            raise TruncatedError(f"{path}: entry {name!r} extends past end of file")
        arrays[name] = np.frombuffer(
            raw, dtype="<f4", count=nbytes // 4,
            offset=payload_off + eoff).reshape(shape).copy()
        expect += nbytes
    if payload_off + expect != len(raw):
        raise ManifestError(
            f"{path}: {len(raw) - payload_off - expect} trailing bytes beyond declared payload")
    return arrays, meta
