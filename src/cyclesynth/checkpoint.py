"""Binary checkpoint container for parameters, optimizer state and pool buffers.

Layout: the framed container of `data` with magic "CSYN1": u32
little-endian manifest length + JSON manifest + tightly packed
little-endian float32 payload. The manifest carries an ordered entry list
(name, shape, dtype, offset) plus a free-form JSON meta block for scalars
like the epoch counter and the run config. Round-trips are bitwise exact.
"""

from __future__ import annotations

import numpy as np

from .data import HeaderError, TruncatedError, read_framed, write_framed

CKPT_MAGIC = b"CSYN1"


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
    write_framed(path, CKPT_MAGIC, manifest, chunks)


def read_checkpoint(path):
    """Return (arrays, meta); arrays is an ordered name -> float32 ndarray dict."""
    manifest, raw, payload_off = read_framed(path, CKPT_MAGIC)
    try:
        meta = manifest["meta"]
        entries = manifest["entries"]
    except (KeyError, TypeError) as e:
        raise HeaderError(f"{path}: unreadable manifest: {e}") from e

    arrays = {}
    expect = 0
    for ent in entries:
        try:
            name = ent["name"]
            shape = tuple(int(d) for d in ent["shape"])
            dtype = ent["dtype"]
            eoff = int(ent["offset"])
        except (KeyError, TypeError, ValueError) as e:
            raise HeaderError(f"{path}: malformed entry {ent!r}: {e}") from e
        if dtype != "f32":
            raise HeaderError(f"{path}: entry {name!r} has dtype {dtype!r}, only f32 is defined")
        if eoff != expect:
            raise HeaderError(
                f"{path}: entry {name!r} offset {eoff} breaks tight packing (expected {expect})")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 4
        if payload_off + eoff + nbytes > len(raw):
            raise TruncatedError(f"{path}: entry {name!r} extends past end of file")
        arrays[name] = np.frombuffer(
            raw, dtype="<f4", count=nbytes // 4,
            offset=payload_off + eoff).reshape(shape).copy()
        expect += nbytes
    if payload_off + expect != len(raw):
        raise HeaderError(
            f"{path}: {len(raw) - payload_off - expect} trailing bytes beyond declared payload")
    return arrays, meta
