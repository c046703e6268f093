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
import struct

import numpy as np

MAGIC = b"ABFM"
FORMAT_VERSION = 1


def _read_exact(f, n):
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError("truncated checkpoint file")
    return buf


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
    names the first tensor that disagrees.
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
        state = {}
        for _ in range(_read_u32(f)):
            name = _read_exact(f, _read_u32(f)).decode("utf-8")
            ndim = _read_u32(f)
            dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim))
            count = int(np.prod(dims)) if ndim else 1
            raw = _read_exact(f, 8 * count)
            state[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        if f.read(1):
            raise ValueError(f"{path} has trailing bytes after the last entry")
    if model is not None:
        model.load_state_dict(state)
    return header["system"], header["meta"], state
