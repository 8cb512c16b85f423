"""Binary checkpoint container for parameters, optimizer state and pool buffers.

Layout: the framed container of `data` with magic "CSYN1": u32
little-endian manifest length + JSON manifest + tightly packed
little-endian float32 payload. The manifest carries an ordered entry list
(name, shape, dtype, offset) plus a free-form JSON meta block for scalars
like the epoch counter and the run config. Round-trips are bitwise exact.
Both directions stream one entry at a time: a write hands each array's own
buffer to the file and a read fills each entry's array in place, so neither
holds a second copy of the payload.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .data import HeaderError, TruncatedError, read_header, read_into, write_framed

CKPT_MAGIC = b"CSYN1"


def write_checkpoint(path, arrays, meta):
    """Write named float32 arrays plus meta, a JSON-serializable dict.

    Entry order in the file follows the iteration order of `arrays`.
    """
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": str(name), "shape": list(arr.shape),
                        "dtype": "f32", "offset": offset})
        chunks.append(arr.reshape(-1).view(np.uint8))
        offset += arr.nbytes
    manifest = {"meta": meta, "entries": entries}
    write_framed(path, CKPT_MAGIC, manifest, chunks)


def read_checkpoint(path):
    """Return (arrays, meta); arrays is an ordered name -> float32 ndarray dict."""
    with open(path, "rb") as f:
        manifest, payload = read_header(f, path, CKPT_MAGIC)
        try:
            meta = manifest["meta"]
            entries = manifest["entries"]
        except (KeyError, TypeError) as e:
            raise HeaderError(f"{path}: unreadable manifest: {e}") from e
        if not isinstance(meta, dict):
            raise HeaderError(f"{path}: meta is {json.dumps(meta)}, not a JSON object")

        arrays = {}
        expect = 0
        for ent in entries:
            try:
                name = ent["name"]
                shape = tuple(int(d) for d in ent["shape"])
                dtype = ent["dtype"]
                eoff = int(ent["offset"])
                if min(shape, default=0) < 0:
                    raise ValueError(f"negative dimension in {shape}")
            except (KeyError, TypeError, ValueError) as e:
                raise HeaderError(f"{path}: malformed entry {ent!r}: {e}") from e
            if dtype != "f32":
                raise HeaderError(f"{path}: entry {name!r} has dtype {dtype!r}, only f32 is defined")
            if eoff != expect:
                raise HeaderError(
                    f"{path}: entry {name!r} offset {eoff} breaks tight packing (expected {expect})")
            nbytes = math.prod(shape) * 4
            if eoff + nbytes > payload:
                raise TruncatedError(f"{path}: entry {name!r} extends past end of file")
            arrays[name] = np.empty(shape, dtype="<f4")
            read_into(f, path, arrays[name], f"entry {name!r}")
            expect += nbytes
    if expect != payload:
        raise HeaderError(
            f"{path}: {payload - expect} trailing bytes beyond declared payload")
    return arrays, meta


def meta_field(path, parent, name, kind):
    """The meta field `name` of checkpoint `path`, read from the JSON object parent
    ("a.b" names field b of object a). It must be a JSON object (kind dict) or an
    integer >= 0 (kind int); a missing field or any other value raises ValueError
    naming the file."""
    key = name.rpartition(".")[2]
    if key not in parent:
        raise ValueError(f"checkpoint {path}: meta has no {name}")
    value = parent[key]
    if isinstance(value, dict) if kind is dict else (type(value) is int and value >= 0):
        return value
    want = "a JSON object" if kind is dict else "an integer >= 0"
    raise ValueError(f"checkpoint {path}: meta {name} must be {want}, got {json.dumps(value)}")
