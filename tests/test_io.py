"""Checkpoint container round trips and failure modes."""
import json
import struct

import numpy as np
import pytest

from airbeam.channel import SystemConfig
from airbeam.io import FORMAT_VERSION, load_checkpoint, save_checkpoint
from airbeam.networks import NetworkSpec, build_pipeline

SPEC = NetworkSpec(
    user_widths=(16, 12, 8), fusion_widths=(24, 16, 12),
    encoder_widths=(16, 12), decoder_widths=(24, 16, 12),
    res_c1=4, res_c2=6)


def small_cfg(**kw):
    base = dict(ny=2, nz=2, nc=4, k_users=2, q_pilots=2, pt=4.0,
                feedback_bits=6)
    base.update(kw)
    return SystemConfig(**base)


def make_pipeline(mode="tdd", seed=0, **kw):
    cfg = small_cfg(**kw)
    pipe = build_pipeline(mode, cfg, SPEC, rng=np.random.default_rng(seed))
    return cfg, pipe


def dirty_state(pipe, seed):
    rng = np.random.default_rng(seed)
    for _, p in pipe.named_parameters():
        p.values[...] = rng.normal(size=p.values.shape)


def test_round_trip_is_bit_exact(tmp_path):
    cfg, pipe = make_pipeline("fdd", seed=3)
    dirty_state(pipe, 7)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg, meta={"scheme": "proposed_fdd",
                                           "best_val_rate": 1.25})
    _, twin = make_pipeline("fdd", seed=99)
    sys_d, meta, state = load_checkpoint(path, twin)
    assert meta == {"scheme": "proposed_fdd", "best_val_rate": 1.25}
    assert sys_d == cfg.to_dict()
    want = pipe.state_dict()
    got = twin.state_dict()
    assert sorted(want) == sorted(got) == sorted(state)
    for name in want:
        assert np.array_equal(want[name], got[name]), name
        assert got[name].dtype == np.float64


def test_same_state_writes_identical_bytes(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=1)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, pipe, cfg)
    save_checkpoint(b, pipe, cfg)
    assert a.read_bytes() == b.read_bytes()


def test_load_without_model_returns_saved_state(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=2)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    _, meta, state = load_checkpoint(path)
    assert meta == {}
    want = pipe.state_dict()
    assert sorted(state) == sorted(want)
    for name in want:
        assert np.array_equal(state[name], want[name])


def test_running_stats_survive_the_trip(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=4)
    names = [name for name, _, _ in pipe.named_buffers()]
    assert any("running_mean" in n for n in names)
    for _, owner, attr in pipe.named_buffers():
        arr = getattr(owner, attr)
        object.__setattr__(owner, attr, arr + 0.25)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    _, twin = make_pipeline("tdd", seed=5)
    load_checkpoint(path, twin)
    for (_, o1, a1), (_, o2, a2) in zip(pipe.named_buffers(),
                                        twin.named_buffers()):
        assert np.array_equal(getattr(o1, a1), getattr(o2, a2))


def test_truncated_file_is_rejected(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    blob = path.read_bytes()
    for frac in (0.1, 0.6, 0.98):
        clipped = tmp_path / "clip.bin"
        clipped.write_bytes(blob[: int(len(blob) * frac)])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(clipped)


def test_trailing_garbage_is_rejected(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_names_both_versions(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(FORMAT_VERSION + 1) in str(err.value)
    assert str(FORMAT_VERSION) in str(err.value)


def test_mismatched_model_names_first_bad_tensor(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=0, ny=2)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    _, wider = make_pipeline("tdd", seed=0, ny=4)
    saved = pipe.state_dict()
    other = wider.state_dict()
    assert sorted(saved) == sorted(other)
    first = next(n for n in sorted(saved)
                 if saved[n].shape != other[n].shape)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path, wider)
    assert f"'{first}'" in str(err.value)
    assert "shape mismatch" in str(err.value)


def test_missing_and_extra_tensors_are_named(tmp_path):
    cfg, pipe = make_pipeline("tdd", seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    _, fdd = make_pipeline("fdd", seed=0)
    with pytest.raises(ValueError, match="tensor '"):
        load_checkpoint(path, fdd)


def structure_words(blob):
    """Byte offsets of every u32 word that gives a length, count or shape:
    the version, header length, entry count, and each entry's name length,
    ndim and dims."""
    hlen = struct.unpack_from("<I", blob, 8)[0]
    words, pos = [4, 8], 12 + hlen
    words.append(pos)
    count = struct.unpack_from("<I", blob, pos)[0]
    pos += 4
    for _ in range(count):
        words.append(pos)
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        words.append(pos)
        ndim = struct.unpack_from("<I", blob, pos)[0]
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 4)
        words.extend(pos + 4 + 4 * i for i in range(ndim))
        pos += 4 + 4 * ndim + 8 * int(np.prod(dims))
    assert pos == len(blob)
    return words


@pytest.mark.parametrize("value", [0xFFFFFFFF, 0x7FFFFFFF])
def test_corrupted_structure_words_raise_value_error(tmp_path, value):
    cfg, pipe = make_pipeline("fdd", seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    blob = path.read_bytes()
    words = structure_words(blob)
    assert len(words) > 50
    bad = tmp_path / "bad.bin"
    for pos in words:
        bad.write_bytes(blob[:pos] + struct.pack("<I", value) + blob[pos + 4:])
        with pytest.raises(ValueError):
            load_checkpoint(bad)


@pytest.mark.parametrize("header", [[1, 2], {"system": {}}, {"meta": {}}, "x"])
def test_header_without_system_and_meta_is_rejected(tmp_path, header):
    cfg, pipe = make_pipeline("tdd", seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, pipe, cfg)
    blob = path.read_bytes()
    rest = blob[12 + struct.unpack_from("<I", blob, 8)[0]:]
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + rest)
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(path)
