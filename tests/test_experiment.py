"""Config parsing, scheme evaluation, sweeps, CLI exit codes, reproducibility."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from airbeam import experiment
from airbeam.baselines import (
    AngleDelayDictionary,
    PathParameterQuantizer,
    pca_hb,
    ss_hb,
    zf_fully_digital,
)
from airbeam.channel import SystemConfig, sigma_from_snr
from airbeam.experiment import (
    ConfigError,
    ResultRow,
    apply_axis,
    classical_rates,
    parse_config,
    run_experiment,
    write_results,
)
from airbeam.io import load_checkpoint
from airbeam.networks import build_pipeline
from airbeam.training import (
    STREAM_INIT,
    STREAM_TEST,
    STREAM_VAL,
    evaluate_rate,
    gen_dataset,
    stream_rng,
)

from test_airlink import rate_oracle

BASE_CFG = """\
[system]
ny = 2
nz = 2
nc = 4
k_users = 2
q_pilots = 2
pt = 4.0
snr_db = 10
feedback_bits = 12

[train]
epochs = 2
batch_size = 16
n_train = 48
n_val = 16
n_test = 16
patience = 5
seed = 0

[experiment]
schemes = {schemes}
{extra}
"""


def write_cfg(tmp_path, schemes, extra="", name="exp.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CFG.format(schemes=schemes, extra=extra))
    return path


def read_rows(path, drop_wall=True):
    lines = path.read_text().strip().split("\n")
    if drop_wall:
        lines = [ln.rsplit(",", 1)[0] for ln in lines]
    return lines


SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli(args, **kw):
    # the child interpreter does not inherit pytest's pythonpath setting
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "airbeam.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kw)


# -- config parsing --------------------------------------------------------

def test_parse_full_config(tmp_path):
    path = write_cfg(tmp_path, "proposed_fdd, zf_bound",
                     "sweep_axis = snr_db\nsweep_values = -5, 0, 5\n"
                     "n_eval = 24\nout = r.csv\ngrid_az = 6\ngrid_ze = 4\n")
    exp = parse_config(path)
    assert exp.system.ny == 2 and exp.system.nc == 4
    assert exp.system.pt == 4.0
    assert exp.train.epochs == 2 and exp.train.seed == 0
    assert exp.schemes == ("proposed_fdd", "zf_bound")
    assert exp.sweep_axis == "snr_db"
    assert exp.sweep_values == (-5.0, 0.0, 5.0)
    assert exp.n_eval == 24
    assert exp.out == "r.csv"
    assert (exp.grid_az, exp.grid_ze) == (6, 4)


def test_parse_defaults(tmp_path):
    exp = parse_config(write_cfg(tmp_path, "zf_bound"))
    assert exp.sweep_axis is None
    assert exp.sweep_values == ()
    assert exp.n_eval == exp.train.n_test == 16
    assert exp.out == "results.csv"
    assert (exp.grid_az, exp.grid_ze) == (4, 4)   # 2x the array side


@pytest.mark.parametrize("extra,fragment", [
    ("sweep_values = 1, 2\n", "sweep_values"),
    ("sweep_axis = pt\n", "sweep_axis"),
    ("sweep_axis = snr_db\n", "sweep_values"),
    ("sweep_axis = snr_db\nsweep_values = low\n", "cannot parse 'low'"),
    ("n_eval = 0\n", "n_eval"),
    ("mystery = 1\n", "unknown field 'mystery'"),
])
def test_parse_experiment_section_errors(tmp_path, extra, fragment):
    path = write_cfg(tmp_path, "zf_bound", extra)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_bad_scheme_lists_valid_names(tmp_path):
    path = write_cfg(tmp_path, "zf_bound, warp_drive")
    with pytest.raises(ConfigError, match="warp_drive") as err:
        parse_config(path)
    assert "proposed_tdd" in str(err.value)


def test_parse_field_level_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nny = banana\n\n[experiment]\nschemes = zf_bound\n")
    with pytest.raises(ConfigError, match=r"\[system\] ny"):
        parse_config(path)
    path.write_text("[system]\nwarp = 9\n\n[experiment]\nschemes = zf_bound\n")
    with pytest.raises(ConfigError, match="unknown field 'warp'"):
        parse_config(path)
    path.write_text("[system]\npt = -1\n\n[experiment]\nschemes = zf_bound\n")
    with pytest.raises(ConfigError, match=r"\[system\].*power"):
        parse_config(path)
    path.write_text("[train]\nlr = 0\n\n[experiment]\nschemes = zf_bound\n")
    with pytest.raises(ConfigError, match=r"\[train\].*lr"):
        parse_config(path)
    path.write_text("[weird]\nx = 1\n\n[experiment]\nschemes = zf_bound\n")
    with pytest.raises(ConfigError, match="unknown section 'weird'"):
        parse_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.cfg")


INI_PROBES = {
    "no section header": "ny = 2\n[experiment]\nschemes = zf_bound\n",
    "duplicate section": "[system]\nny = 2\n[system]\nnz = 2\n"
                         "[experiment]\nschemes = zf_bound\n",
    "duplicate key": "[system]\nny = 2\nny = 3\n[experiment]\nschemes = zf_bound\n",
    "pt nan": "[system]\npt = nan\n[experiment]\nschemes = zf_bound\n",
    "snr_db inf": "[system]\nsnr_db = inf\n[experiment]\nschemes = zf_bound\n",
    "lr nan": "[train]\nlr = nan\n[experiment]\nschemes = zf_bound\n",
    "epochs -3": "[train]\nepochs = -3\n[experiment]\nschemes = zf_bound\n",
    "n_train 0": "[train]\nn_train = 0\n[experiment]\nschemes = zf_bound\n",
    "ts_s inf": "[system]\nts_s = inf\n[experiment]\nschemes = zf_bound\n",
    "n_val 0": "[train]\nn_val = 0\n[experiment]\nschemes = zf_bound\n",
    "n_test 0": "[train]\nn_test = 0\n[experiment]\nschemes = zf_bound\n",
    "epochs 0": "[train]\nepochs = 0\n[experiment]\nschemes = zf_bound\n",
}


@pytest.mark.parametrize("probe", sorted(INI_PROBES))
def test_malformed_ini_raises_config_error(tmp_path, probe):
    path = tmp_path / "probe.cfg"
    path.write_text(INI_PROBES[probe])
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    if probe.startswith(("no section", "duplicate")):
        assert "line" in str(err.value)
    else:
        assert probe.split()[0] in str(err.value)


def test_cli_exits_2_on_file_without_section_header(tmp_path):
    path = tmp_path / "probe.cfg"
    path.write_text(INI_PROBES["no section header"])
    done = cli(["run", "--config", str(path)])
    assert done.returncode == 2
    assert "config error" in done.stderr and "Traceback" not in done.stderr


def test_parse_missing_schemes(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("[system]\nny = 2\n")
    with pytest.raises(ConfigError, match="schemes"):
        parse_config(path)


def test_apply_axis():
    cfg = SystemConfig(ny=2, nz=2, nc=4)
    assert apply_axis(cfg, "snr_db", -5).snr_db == -5.0
    assert apply_axis(cfg, "feedback_bits", 8).feedback_bits == 8
    swept = apply_axis(cfg, "lp", 3)
    assert (swept.lp_min, swept.lp_max) == (3, 3)
    with pytest.raises(ValueError):
        apply_axis(cfg, "q_pilots", 0)


# -- result rows -----------------------------------------------------------

def test_write_results_sorted_with_header(tmp_path):
    rows = [
        ResultRow("zf_bound", 10.0, 2, 6, 2, "2", 0, 1.5, 8, 0, 0.1),
        ResultRow("perfect_pca", 10.0, 2, 6, 2, "2", 0, 1.0, 8, 0, 0.2),
        ResultRow("perfect_pca", 5.0, 2, 6, 2, "2", 0, 0.7, 8, 0, 0.3),
    ]
    out = tmp_path / "r.csv"
    write_results(rows, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("scheme,snr_db,q,b,k,lp,b_phase,sum_rate")
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["perfect_pca", "perfect_pca", "zf_bound"]
    assert lines[1].split(",")[1] == "5.0"
    assert lines[2].split(",")[7] == "1.0"


# -- classical evaluation --------------------------------------------------

def test_classical_ordering_on_shared_pool():
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=2, q_pilots=4, pt=4.0,
                       snr_db=10.0)
    pool = gen_dataset(cfg, 24, 0, 2).h
    rate = {s: classical_rates(s, cfg, pool, 0, 8, 8)
            for s in ("zf_bound", "perfect_pca", "swomp_pca",
                      "limited_feedback_pca")}
    assert rate["zf_bound"] > rate["perfect_pca"] > rate["swomp_pca"]
    assert rate["swomp_pca"] > rate["limited_feedback_pca"]
    assert all(r > 0 for r in rate.values())


def test_non_finite_pool_sample_is_named():
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=2, pt=4.0, feedback_bits=12)
    pool = gen_dataset(cfg, 8, 3, STREAM_TEST).h.copy()
    pool[5, 1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="sample 5 "):
        classical_rates("zf_bound", cfg, pool, 0, 4, 4)
    pipe = build_pipeline("tdd", cfg, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="sample 5 "):
        evaluate_rate(pipe, pool, sigma_from_snr(cfg), 0)


def test_classical_rates_deterministic():
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=2, q_pilots=2)
    pool = gen_dataset(cfg, 8, 3, 2).h
    a = classical_rates("swomp_ss", cfg, pool, 5, 4, 4)
    b = classical_rates("swomp_ss", cfg, pool, 5, 4, 4)
    assert a == b


def test_batched_scoring_matches_scalar_oracle():
    # one batched rate call must pair realization i with its own beamformer
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=2, q_pilots=2, snr_db=5.0)
    sigma2 = sigma_from_snr(cfg)
    pool = gen_dataset(cfg, 6, 3, STREAM_TEST).h
    d = AngleDelayDictionary.build(cfg, 4, 4)
    beams = {
        "zf_bound": lambda h: zf_fully_digital(h, cfg.pt, sigma2),
        "perfect_pca": lambda h: pca_hb(h, cfg.pt, sigma2).effective(),
        "perfect_ss": lambda h: ss_hb(h, d, cfg.pt, sigma2).effective(),
    }
    for scheme, beam in beams.items():
        want = np.mean([rate_oracle(h, beam(h), sigma2) for h in pool])
        got = classical_rates(scheme, cfg, pool, 3, 4, 4)
        assert abs(got - want) <= 1e-12 * abs(want), scheme


def test_feedback_codebooks_trained_once_per_seed(monkeypatch):
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=2, q_pilots=2, feedback_bits=12)
    pool = gen_dataset(cfg, 4, 3, STREAM_TEST).h
    snrs = (0.0, 10.0, 20.0)

    def sweep(seed, uncached=False):
        rates = []
        for snr in snrs:
            if uncached:
                experiment._feedback_quantizer.cache_clear()
            rates.append(classical_rates("limited_feedback_pca", apply_axis(cfg, "snr_db", snr),
                                         pool, seed, 4, 4))
        return rates

    want = {seed: sweep(seed, uncached=True) for seed in (5, 6)}
    experiment._feedback_quantizer.cache_clear()
    calls = []
    train = vars(PathParameterQuantizer)["train"].__func__

    def counted(cls, *args, **kw):
        calls.append(kw["seed"])
        return train(cls, *args, **kw)

    monkeypatch.setattr(PathParameterQuantizer, "train", classmethod(counted))
    assert sweep(5) == want[5]
    assert calls == [5]
    assert sweep(6) == want[6]
    assert calls == [5, 6]
    experiment._feedback_quantizer.cache_clear()


# -- full runs -------------------------------------------------------------

def test_run_experiment_writes_rows_and_checkpoints(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd, zf_bound",
                     f"n_eval = 16\nout = {tmp_path}/out/r.csv\n")
    exp = parse_config(path)
    rows = run_experiment(exp)
    assert {r.scheme for r in rows} == {"proposed_tdd", "zf_bound"}
    assert all(r.sum_rate_bps_hz > 0 and r.n_realizations == 16 for r in rows)
    assert (tmp_path / "out" / "r.csv").exists()
    assert (tmp_path / "out" / "ck_proposed_tdd.bin").exists()
    assert (tmp_path / "out" / "ck_proposed_tdd_final.bin").exists()
    assert (tmp_path / "out" / "history_proposed_tdd.csv").exists()


def test_checkpoint_meta_reproduces_logged_val_rate(tmp_path):
    path = write_cfg(tmp_path, "proposed_fdd",
                     f"n_eval = 16\nout = {tmp_path}/r.csv\n")
    exp = parse_config(path)
    run_experiment(exp)
    ck = tmp_path / "ck_proposed_fdd.bin"
    sys_d, meta, _ = load_checkpoint(ck)
    cfg = SystemConfig.from_dict(sys_d)
    pipe = build_pipeline(meta["mode"], cfg,
                          rng=stream_rng(meta["seed"], STREAM_INIT))
    load_checkpoint(ck, pipe)
    val = gen_dataset(cfg, exp.train.n_val, meta["seed"], STREAM_VAL).h
    rate = evaluate_rate(pipe, val, sigma_from_snr(cfg), meta["seed"])
    assert rate == pytest.approx(meta["best_val_rate"], abs=1e-9)


def test_eval_only_matches_training_run(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd, perfect_pca",
                     f"n_eval = 16\nout = {tmp_path}/r1.csv\n")
    exp = parse_config(path)
    run_experiment(exp)
    from dataclasses import replace
    rows = run_experiment(replace(exp, out=str(tmp_path / "r2.csv")),
                          eval_only=True,
                          checkpoint=str(tmp_path / "ck_proposed_tdd.bin"))
    assert read_rows(tmp_path / "r1.csv") == read_rows(tmp_path / "r2.csv")
    assert len(rows) == 2


def test_eval_only_missing_checkpoint_raises(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd",
                     f"n_eval = 16\nout = {tmp_path}/nope/r.csv\n")
    from airbeam.experiment import CheckpointMissing
    with pytest.raises(CheckpointMissing, match="proposed_tdd"):
        run_experiment(parse_config(path), eval_only=True)


@pytest.mark.parametrize("field,changed", [
    ("pt", "pt = 2.0"),
    ("channel_kind", "pt = 4.0\nchannel_kind = cluster"),
])
def test_eval_only_rejects_checkpoint_of_another_system(tmp_path, field, changed):
    path = write_cfg(tmp_path, "proposed_tdd",
                     f"n_eval = 8\nout = {tmp_path}/r.csv\n")
    run_experiment(parse_config(path))
    path.write_text(path.read_text().replace("pt = 4.0", changed))
    with pytest.raises(ConfigError, match=f": {field} is "):
        run_experiment(parse_config(path), eval_only=True)


def test_sweep_snr_monotone_for_zf(tmp_path):
    path = write_cfg(tmp_path, "zf_bound",
                     "sweep_axis = snr_db\nsweep_values = -10, 0, 10\n"
                     f"n_eval = 16\nout = {tmp_path}/r.csv\n")
    rows = sorted(run_experiment(parse_config(path)),
                  key=lambda r: r.snr_db)
    assert [r.snr_db for r in rows] == [-10.0, 0.0, 10.0]
    assert rows[0].sum_rate_bps_hz < rows[1].sum_rate_bps_hz \
        < rows[2].sum_rate_bps_hz


def test_sweep_feedback_bits_reuses_tdd_model(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd",
                     "sweep_axis = feedback_bits\nsweep_values = 6, 12\n"
                     f"n_eval = 16\nout = {tmp_path}/r.csv\n")
    rows = run_experiment(parse_config(path))
    # uplink sounding never sees the feedback budget: one model, equal rates
    assert (tmp_path / "ck_proposed_tdd.bin").exists()
    assert not (tmp_path / "ck_proposed_tdd_feedback_bits6.bin").exists()
    assert rows[0].sum_rate_bps_hz == rows[1].sum_rate_bps_hz
    assert {r.b for r in rows} == {6, 12}


def test_sweep_phase_bits_finetunes_from_base(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd",
                     "sweep_axis = phase_bits\nsweep_values = 0, 2\n"
                     f"n_eval = 16\nout = {tmp_path}/r.csv\n")
    rows = run_experiment(parse_config(path))
    assert (tmp_path / "ck_proposed_tdd.bin").exists()
    assert (tmp_path / "ck_proposed_tdd_pb2.bin").exists()
    assert (tmp_path / "history_proposed_tdd_pb2.csv").exists()
    by_pb = {r.b_phase: r.sum_rate_bps_hz for r in rows}
    assert set(by_pb) == {0, 2}
    assert all(v > 0 for v in by_pb.values())


def test_sweep_k_users_retrains(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd",
                     "sweep_axis = k_users\nsweep_values = 1, 2\n"
                     f"n_eval = 8\nout = {tmp_path}/r.csv\n")
    rows = run_experiment(parse_config(path))
    assert (tmp_path / "ck_proposed_tdd_k_users1.bin").exists()
    assert (tmp_path / "ck_proposed_tdd_k_users2.bin").exists()
    assert {r.k for r in rows} == {1, 2}


def test_checkpoint_override_rejected_for_sweeps(tmp_path):
    path = write_cfg(tmp_path, "proposed_tdd, proposed_fdd",
                     f"n_eval = 8\nout = {tmp_path}/r.csv\n")
    with pytest.raises(ConfigError, match="checkpoint"):
        run_experiment(parse_config(path), eval_only=True,
                       checkpoint=str(tmp_path / "ck.bin"))


# -- reproducibility and CLI -----------------------------------------------

def test_same_seed_runs_are_identical(tmp_path):
    for sub in ("a", "b"):
        path = write_cfg(tmp_path, "proposed_fdd, swomp_pca",
                         f"n_eval = 16\nout = {tmp_path}/{sub}/r.csv\n",
                         name=f"{sub}.cfg")
        run_experiment(parse_config(path))
    assert read_rows(tmp_path / "a" / "r.csv") == \
        read_rows(tmp_path / "b" / "r.csv")
    assert (tmp_path / "a" / "ck_proposed_fdd.bin").read_bytes() == \
        (tmp_path / "b" / "ck_proposed_fdd.bin").read_bytes()
    assert (tmp_path / "a" / "ck_proposed_fdd_final.bin").read_bytes() == \
        (tmp_path / "b" / "ck_proposed_fdd_final.bin").read_bytes()


def test_parallel_workers_match_serial(tmp_path):
    extra = ("sweep_axis = snr_db\nsweep_values = 0, 10\n"
             "n_eval = 8\nout = {out}\n")
    p1 = write_cfg(tmp_path, "zf_bound, swomp_pca",
                   extra.format(out=tmp_path / "serial.csv"), name="s.cfg")
    p2 = write_cfg(tmp_path, "zf_bound, swomp_pca",
                   extra.format(out=tmp_path / "par.csv"), name="p.cfg")
    run_experiment(parse_config(p1), workers=1)
    run_experiment(parse_config(p2), workers=2)
    assert read_rows(tmp_path / "serial.csv") == read_rows(tmp_path / "par.csv")


class SerialExecutor:
    """Stand-in for ProcessPoolExecutor: records max_workers, maps in-process."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cores,expect", [(4, [2]), (1, [])])
def test_worker_pool_capped_at_cores_and_jobs(tmp_path, monkeypatch, cores,
                                              expect):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(SerialExecutor, "requested", [])
    extra = "sweep_axis = snr_db\nsweep_values = 0, 10\nn_eval = 4\nout = {out}\n"
    capped = write_cfg(tmp_path, "zf_bound",
                       extra.format(out=tmp_path / "capped.csv"), name="c.cfg")
    serial = write_cfg(tmp_path, "zf_bound",
                       extra.format(out=tmp_path / "serial.csv"), name="s.cfg")
    run_experiment(parse_config(capped), workers=10_000)
    assert SerialExecutor.requested == expect
    run_experiment(parse_config(serial), workers=1)
    assert read_rows(tmp_path / "capped.csv") == read_rows(tmp_path / "serial.csv")


def test_one_test_pool_per_run(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    draws = []

    def counted(cfg, n, seed, stream):
        draws.append(stream)
        return gen_dataset(cfg, n, seed, stream)

    monkeypatch.setattr(experiment, "gen_dataset", counted)
    path = write_cfg(tmp_path, "proposed_tdd, zf_bound, perfect_pca",
                     f"n_eval = 8\nout = {tmp_path}/r.csv\n")
    rows = run_experiment(parse_config(path), workers=2)
    assert len(rows) == 3
    assert draws.count(STREAM_TEST) == 1


def test_cli_run_and_exit_codes(tmp_path):
    path = write_cfg(tmp_path, "zf_bound", f"n_eval = 8\nout = {tmp_path}/r.csv\n")
    done = cli(["run", "--config", str(path)])
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "r.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\nny = banana\n\n[experiment]\nschemes = zf_bound\n")
    done = cli(["run", "--config", str(bad)])
    assert done.returncode == 2
    assert "[system] ny" in done.stderr

    path2 = write_cfg(tmp_path, "proposed_tdd",
                      f"n_eval = 8\nout = {tmp_path}/fresh/r.csv\n",
                      name="fresh.cfg")
    done = cli(["eval", "--config", str(path2)])
    assert done.returncode == 3
    assert "proposed_tdd" in done.stderr

    done = cli(["sweep", "--config", str(path)])
    assert done.returncode == 2
    assert "sweep_axis" in done.stderr


def test_cli_seed_and_out_overrides(tmp_path):
    path = write_cfg(tmp_path, "perfect_pca", "n_eval = 8\n")
    out = tmp_path / "custom" / "r.csv"
    done = cli(["run", "--config", str(path), "--seed", "7",
                "--out", str(out)])
    assert done.returncode == 0, done.stderr
    line = out.read_text().strip().split("\n")[1]
    assert line.split(",")[9] == "7"
