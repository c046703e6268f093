"""Binary checkpoint container for model state.

Layout, all integers little-endian u32:

    magic "ABFM" | format version | config JSON length | config JSON
    | entry count | entries

Each entry is name length, utf-8 name, ndim, dims, then the values as
row-major float64. Entries are sorted by name so identical state always
produces identical bytes. The config JSON carries the SystemConfig
snapshot plus caller metadata under "meta".
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"ABFM"
FORMAT_VERSION = 1
MIN_ENTRY_BYTES = 16    # empty name, ndim 0, one value


def _bytes_left(f):
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_exact(f, n):
    # checked before reading, so a corrupted length never becomes a huge read
    if n > _bytes_left(f):
        raise ValueError("truncated checkpoint file")
    return f.read(n)


def _read_u32(f):
    return struct.unpack("<I", _read_exact(f, 4))[0]


def save_checkpoint(path, model, cfg, meta=None):
    """Write every registered parameter and buffer of `model` to `path`.

    `meta` is an optional JSON-serializable dict stored alongside the
    config snapshot (training rates, scheme names and the like).
    """
    state = model.state_dict()
    header = {"system": cfg.to_dict(), "meta": dict(meta or {})}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(state)))
        for name in sorted(state):
            arr = np.ascontiguousarray(state[name], dtype="<f8")
            enc = name.encode("utf-8")
            f.write(struct.pack("<I", len(enc)))
            f.write(enc)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes(order="C"))


def load_checkpoint(path, model=None):
    """Read a checkpoint; returns (config dict, meta dict, state dict).

    With `model` given, the state is restored into it through
    `Module.load_state_dict`, which checks every name and shape first and
    names the first tensor that disagrees. Every length, count and dims word
    is checked against the bytes left in the file before it is read, so
    corrupted structure raises ValueError.
    """
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic)")
        version = _read_u32(f)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format version {version}, this reader supports "
                f"{FORMAT_VERSION}")
        header = json.loads(_read_exact(f, _read_u32(f)).decode("utf-8"))
        if not (isinstance(header, dict) and "system" in header and "meta" in header):
            raise ValueError(f"{path} has a header without 'system' and 'meta'")
        entries = _read_u32(f)
        if entries * MIN_ENTRY_BYTES > _bytes_left(f):
            raise ValueError(f"truncated checkpoint file: {entries} entries "
                             f"cannot fit in {_bytes_left(f)} bytes")
        state = {}
        for _ in range(entries):
            name = _read_exact(f, _read_u32(f)).decode("utf-8")
            ndim = _read_u32(f)
            dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim))
            raw = _read_exact(f, 8 * math.prod(dims))
            state[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        if f.read(1):
            raise ValueError(f"{path} has trailing bytes after the last entry")
    if model is not None:
        model.load_state_dict(state)
    return header["system"], header["meta"], state
