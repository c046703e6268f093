"""Experiment orchestration: INI configs, scheme evaluation, sweeps, CSV.

A config names a system, a training recipe, a list of schemes, and
optionally one sweep axis. Learned schemes train once per architecture
point and are cached as checkpoints next to the result file; classical
schemes evaluate directly on the shared seeded test pool. Sweeping
phase_bits fine-tunes the continuous-phase base model per value instead
of retraining from scratch.
"""
from __future__ import annotations

import dataclasses
import configparser
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .airlink import sum_rate_np
from .baselines import (
    AngleDelayDictionary,
    PathParameterQuantizer,
    limited_feedback_rebuild,
    pca_hb,
    ss_hb,
    sw_omp_estimate,
    tdd_noise_cov,
    zf_fully_digital,
)
from .channel import SystemConfig, awgn, sigma_from_snr
from .io import load_checkpoint, save_checkpoint
from .networks import build_pipeline
from .training import (
    STREAM_INIT,
    STREAM_TEST,
    TrainConfig,
    evaluate_rate,
    finetune_quantized,
    gen_dataset,
    gen_splits,
    require_finite,
    stream_rng,
    train,
)

# continue the stream-id namespace from training.py
STREAM_SENSING, STREAM_MEASURE = 7, 8

LEARNED_SCHEMES = ("proposed_tdd", "proposed_fdd")
CLASSICAL_SCHEMES = ("swomp_pca", "swomp_ss", "perfect_pca", "perfect_ss",
                     "zf_bound", "limited_feedback_pca")
ALL_SCHEMES = LEARNED_SCHEMES + CLASSICAL_SCHEMES

SWEEP_AXES = ("snr_db", "feedback_bits", "q_pilots", "k_users", "lp",
              "phase_bits")

# system fields that define a trained model or the physics it was trained
# for; an eval-only run refuses a checkpoint that differs on any of them
MODEL_FIELDS = ("ny", "nz", "nc", "k_users", "q_pilots", "feedback_bits",
                "phase_bits", "pt", "ts_s", "channel_kind")

CSV_HEADER = ("scheme,snr_db,q,b,k,lp,b_phase,sum_rate_bps_hz,"
              "n_realizations,seed,wall_clock_s")


class ConfigError(ValueError):
    """Bad experiment configuration; the message names section and field."""


class CheckpointMissing(RuntimeError):
    """Eval-only run asked for a model that was never trained."""


@dataclass
class ExperimentConfig:
    system: SystemConfig
    train: TrainConfig
    schemes: tuple
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    n_eval: int = 2048
    out: str = "results.csv"
    grid_az: int = 8            # SW-OMP dictionary cells per angle axis
    grid_ze: int = 8


@dataclass
class ResultRow:
    scheme: str
    snr_db: float
    q: int
    b: int
    k: int
    lp: str
    b_phase: int
    sum_rate_bps_hz: float
    n_realizations: int
    seed: int
    wall_clock_s: float

    def sort_key(self):
        return (self.scheme, self.snr_db, self.q, self.b, self.k, self.lp,
                self.b_phase)

    def csv_line(self):
        return (f"{self.scheme},{self.snr_db},{self.q},{self.b},{self.k},"
                f"{self.lp},{self.b_phase},{self.sum_rate_bps_hz},"
                f"{self.n_realizations},{self.seed},{self.wall_clock_s}")


def write_results(rows, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in sorted(rows, key=ResultRow.sort_key):
            fh.write(row.csv_line() + "\n")


# -- config files ----------------------------------------------------------

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _convert(section, key, text, type_name):
    t = text.strip()
    try:
        if type_name == "int":
            return int(t)
        if type_name == "float":
            return float(t)
        if type_name == "str":
            return t
        if type_name == "bool":
            if t.lower() in _TRUE:
                return True
            if t.lower() in _FALSE:
                return False
            raise ValueError
        if type_name == "tuple":
            return tuple(int(x) for x in t.replace(",", " ").split())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse '{text}' as {type_name}") from None
    raise ConfigError(f"[{section}] {key}: unsupported field type {type_name}")


def _dataclass_kwargs(parser, section, cls):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    out = {}
    if not parser.has_section(section):
        return out
    for key, text in parser.items(section):
        if key not in types:
            raise ConfigError(f"[{section}] unknown field '{key}'")
        out[key] = _convert(section, key, text, types[key])
    return out


def parse_config(path):
    """Read an experiment INI file. Every malformed input raises
    ConfigError; configparser's own errors keep their line number."""
    try:
        return _parse_config(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from None


def _parse_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file '{path}'")
    unknown = set(parser.sections()) - {"system", "train", "experiment"}
    if unknown:
        raise ConfigError(f"unknown section '{sorted(unknown)[0]}'")
    try:
        system = SystemConfig(**_dataclass_kwargs(parser, "system", SystemConfig))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"[system] {err}") from None
    try:
        tc = TrainConfig(**_dataclass_kwargs(parser, "train", TrainConfig))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"[train] {err}") from None

    exp = dict(parser.items("experiment")) if parser.has_section("experiment") else {}
    allowed = {"schemes", "sweep_axis", "sweep_values", "n_eval", "out",
               "grid_az", "grid_ze"}
    for key in exp:
        if key not in allowed:
            raise ConfigError(f"[experiment] unknown field '{key}'")
    if "schemes" not in exp:
        raise ConfigError("[experiment] schemes: required, comma-separated list")
    schemes = tuple(s for s in exp["schemes"].replace(",", " ").split())
    if not schemes:
        raise ConfigError("[experiment] schemes: list is empty")
    for s in schemes:
        if s not in ALL_SCHEMES:
            raise ConfigError(
                f"[experiment] schemes: unknown scheme '{s}', valid: "
                + ", ".join(ALL_SCHEMES))

    axis = exp.get("sweep_axis", "").strip() or None
    values = ()
    if axis is not None:
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"[experiment] sweep_axis: '{axis}' is not one of "
                + ", ".join(SWEEP_AXES))
        if "sweep_values" not in exp:
            raise ConfigError(
                "[experiment] sweep_values: required when sweep_axis is set")
        typ = "float" if axis == "snr_db" else "int"
        values = tuple(_convert("experiment", "sweep_values", v, typ)
                       for v in exp["sweep_values"].replace(",", " ").split())
        if not values:
            raise ConfigError("[experiment] sweep_values: list is empty")
    elif "sweep_values" in exp:
        raise ConfigError("[experiment] sweep_values: set without a sweep_axis")

    n_eval = _convert("experiment", "n_eval", exp.get("n_eval", str(tc.n_test)),
                      "int")
    if n_eval < 1:
        raise ConfigError(f"[experiment] n_eval: must be >= 1, got {n_eval}")
    grid_az = _convert("experiment", "grid_az",
                       exp.get("grid_az", str(2 * system.ny)), "int")
    grid_ze = _convert("experiment", "grid_ze",
                       exp.get("grid_ze", str(2 * system.nz)), "int")
    if grid_az < 1 or grid_ze < 1:
        raise ConfigError(
            f"[experiment] grid: must be positive, got {grid_az}x{grid_ze}")
    return ExperimentConfig(
        system=system, train=tc, schemes=schemes, sweep_axis=axis,
        sweep_values=values, n_eval=n_eval,
        out=exp.get("out", "results.csv").strip(),
        grid_az=grid_az, grid_ze=grid_ze)


def apply_axis(cfg, axis, value):
    if axis == "lp":
        return replace(cfg, lp_min=int(value), lp_max=int(value))
    if axis == "snr_db":
        return replace(cfg, snr_db=float(value))
    return replace(cfg, **{axis: int(value)})


def lp_label(cfg):
    if cfg.lp_min == cfg.lp_max:
        return str(cfg.lp_min)
    return f"{cfg.lp_min}-{cfg.lp_max}"


# -- classical schemes -----------------------------------------------------

def _constant_modulus(rng, rows, m):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (rows, m)))


@lru_cache(maxsize=1)
def _feedback_quantizer(delay_spread_s, lp_max, feedback_bits, seed):
    """Lloyd-max codebooks for limited_feedback_pca. They depend on the system
    only through its delay spread, not on snr_db, so an SNR sweep trains them
    once."""
    prior = SimpleNamespace(delay_spread_s=delay_spread_s)
    return PathParameterQuantizer.train(prior, lp_max, feedback_bits, seed=seed)


def classical_rates(scheme, cfg, h_pool, seed, grid_az, grid_ze):
    """Mean sum rate of a non-learned scheme over a channel pool [N,K,M,Nc].

    Beamformers are built one realization at a time, in pool order, and
    scored together by one batched sum_rate_np call."""
    sigma2 = sigma_from_snr(cfg)
    _, k, m, nc = h_pool.shape
    if scheme not in CLASSICAL_SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'")
    require_finite(h_pool)
    if scheme == "zf_bound":
        effs = [zf_fully_digital(h, cfg.pt, sigma2) for h in h_pool]
    elif scheme == "perfect_pca":
        effs = [pca_hb(h, cfg.pt, sigma2).effective() for h in h_pool]
    elif scheme == "perfect_ss":
        d = AngleDelayDictionary.build(cfg, grid_az, grid_ze)
        effs = [ss_hb(h, d, cfg.pt, sigma2).effective() for h in h_pool]
    else:
        d = AngleDelayDictionary.build(cfg, grid_az, grid_ze)
        sense_rng = stream_rng(seed, STREAM_SENSING)
        noise_rng = stream_rng(seed, STREAM_MEASURE)
        effs = []
    if scheme in ("swomp_pca", "swomp_ss"):
        # uplink sounding at the base station, colored by the pilot combiner
        w = _constant_modulus(sense_rng, cfg.q_pilots * k, m) / np.sqrt(m)
        cov = tdd_noise_cov(w)
        for h in h_pool:
            h_hat = np.empty_like(h)
            for j in range(k):
                y = w @ (h[j] + awgn((m, nc), sigma2, noise_rng))
                h_hat[j] = sw_omp_estimate(y, w, d, max_paths=cfg.lp_max,
                                           noise_cov=cov).h
            if scheme == "swomp_pca":
                hb = pca_hb(h_hat, cfg.pt, sigma2)
            else:
                hb = ss_hb(h_hat, d, cfg.pt, sigma2)
            effs.append(hb.effective())
    elif scheme == "limited_feedback_pca":
        # downlink sounding at each user, scalar-quantized path parameters back
        x = (_constant_modulus(sense_rng, cfg.q_pilots, m)
             * np.sqrt(cfg.pt / (m * nc)))
        quantizer = _feedback_quantizer(cfg.delay_spread_s, cfg.lp_max,
                                        cfg.feedback_bits, seed)
        for h in h_pool:
            h_hat = np.empty_like(h)
            for j in range(k):
                y = x @ h[j] + awgn((cfg.q_pilots, nc), sigma2, noise_rng)
                h_hat[j], _ = limited_feedback_rebuild(
                    y, x, d, cfg, cfg.lp_max, quantizer)
            effs.append(pca_hb(h_hat, cfg.pt, sigma2).effective())
    return float(np.mean(sum_rate_np(h_pool, np.stack(effs), sigma2)))


def _classical_job(payload):
    cfg = SystemConfig.from_dict(payload["cfg"])
    tic = time.perf_counter()
    rate = classical_rates(payload["scheme"], cfg, payload["pool"], payload["seed"],
                           payload["grid_az"], payload["grid_ze"])
    return rate, time.perf_counter() - tic


# -- runner ----------------------------------------------------------------

def _axis_retrains(scheme, axis):
    """Whether a sweep value changes the network architecture or training
    distribution. Feedback width only exists in the FDD network."""
    if axis in ("q_pilots", "k_users"):
        return True
    return axis == "feedback_bits" and scheme == "proposed_fdd"


def _checkpoint_paths(out_csv, tag):
    d = Path(out_csv).parent
    return d / f"ck_{tag}.bin", d / f"ck_{tag}_final.bin"


def _check_checkpoint_system(path, system, cfg):
    """Raise ConfigError naming the first model field on which a
    checkpoint's system header differs from the config it is loaded for."""
    for field in MODEL_FIELDS:
        want = getattr(cfg, field)
        if system.get(field) != want:
            raise ConfigError(
                f"checkpoint {path}: {field} is {system.get(field)!r}, "
                f"the experiment has {want!r}")


def _pool_key(cfg):
    # fields that change the test channel distribution
    return (cfg.k_users, cfg.lp_min, cfg.lp_max, cfg.channel_kind,
            cfg.jc_clusters, cfg.jp_rays)


def _make_row(exp, scheme, cfg, rate, wall):
    return ResultRow(
        scheme=scheme, snr_db=cfg.snr_db, q=cfg.q_pilots,
        b=cfg.feedback_bits, k=cfg.k_users, lp=lp_label(cfg),
        b_phase=cfg.phase_bits, sum_rate_bps_hz=float(rate),
        n_realizations=exp.n_eval, seed=exp.train.seed,
        wall_clock_s=float(wall))


def run_experiment(exp: ExperimentConfig, eval_only=False, checkpoint=None,
                   workers=1, log=None):
    """Evaluate every scheme at every sweep point; returns the result rows
    and writes them to exp.out (checkpoints and history CSVs go next to it)."""
    log = log or (lambda msg: None)
    out_path = Path(exp.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    axis = exp.sweep_axis
    tc = exp.train

    points = []
    for v in exp.sweep_values or (None,):
        try:
            cfg_v = exp.system if v is None else apply_axis(exp.system, axis, v)
        except ValueError as err:
            raise ConfigError(f"[experiment] sweep_values: {err}") from None
        points.append(cfg_v)

    n_learned = sum(s in LEARNED_SCHEMES for s in exp.schemes)
    if checkpoint is not None and (n_learned != 1 or len(points) != 1):
        raise ConfigError(
            "--checkpoint needs exactly one learned scheme and no sweep; "
            "otherwise models load from their default paths")

    models = {}
    splits_cache = {}
    pools = {}

    def get_splits(cfg):
        key = _pool_key(cfg)
        if key not in splits_cache:
            splits_cache[key] = gen_splits(cfg, tc.n_train, tc.n_val,
                                           tc.n_test, tc.seed)
        return splits_cache[key]

    def pool(cfg):
        """The seeded test pool, drawn once per channel distribution and
        shared by classical and learned schemes."""
        key = _pool_key(cfg)
        if key not in pools:
            pools[key] = gen_dataset(cfg, exp.n_eval, tc.seed, STREAM_TEST).h
        return pools[key]

    def save_model(tag, pipe, cfg, hist):
        best_path, final_path = _checkpoint_paths(out_path, tag)
        meta = {"scheme": tag, "mode": pipe.mode, "seed": tc.seed,
                "best_epoch": hist.best_epoch,
                "best_val_rate": float(hist.best_val_rate),
                "aborted": hist.aborted}
        save_checkpoint(best_path, pipe, cfg, meta)
        if hist.final_state is not None:
            best = pipe.state_dict()
            pipe.load_state_dict(hist.final_state)
            save_checkpoint(final_path, pipe, cfg, meta)
            pipe.load_state_dict(best)
        hist.write_csv(out_path.parent / f"history_{tag}.csv")

    def ensure_model(scheme, cfg_point):
        mode = "tdd" if scheme == "proposed_tdd" else "fdd"
        base_cfg = exp.system
        tag = scheme
        if axis is not None and _axis_retrains(scheme, axis):
            val = getattr(cfg_point, axis)
            base_cfg = apply_axis(base_cfg, axis, val)
            tag = f"{scheme}_{axis}{val}"
        pb = cfg_point.phase_bits
        base_cfg = replace(base_cfg, phase_bits=0)
        final_tag = tag if pb == 0 else f"{tag}_pb{pb}"
        if final_tag in models:
            return models[final_tag]

        if eval_only:
            path = checkpoint if checkpoint is not None \
                else _checkpoint_paths(out_path, final_tag)[0]
            if not os.path.exists(path):
                raise CheckpointMissing(
                    f"no checkpoint for '{final_tag}' at {path}")
            cfg_model = replace(base_cfg, phase_bits=pb)
            system, _, state = load_checkpoint(path)
            _check_checkpoint_system(path, system, cfg_model)
            pipe = build_pipeline(mode, cfg_model,
                                  rng=stream_rng(tc.seed, STREAM_INIT))
            pipe.load_state_dict(state)
            models[final_tag] = pipe
            return pipe

        if tag not in models:
            log(f"training {tag} ...")
            splits = get_splits(base_cfg)
            pipe = build_pipeline(mode, base_cfg,
                                  rng=stream_rng(tc.seed, STREAM_INIT))
            hist = train(pipe, splits, tc, log=log)
            if hist.aborted:
                log(f"training {tag} aborted: {hist.aborted}")
            save_model(tag, pipe, base_cfg, hist)
            models[tag] = pipe
        if pb == 0:
            return models[tag]
        log(f"fine-tuning {tag} at {pb}-bit phases ...")
        tuned, hist_q = finetune_quantized(models[tag], pb,
                                           get_splits(base_cfg), tc, log=log)
        save_model(final_tag, tuned, tuned.cfg, hist_q)
        models[final_tag] = tuned
        return tuned

    rows = []
    classical = [(scheme, cfg) for cfg in points for scheme in exp.schemes
                 if scheme in CLASSICAL_SCHEMES]
    learned = [(scheme, cfg) for cfg in points for scheme in exp.schemes
               if scheme in LEARNED_SCHEMES]

    # fork starts every worker at the first submit, so never ask for more
    # than there are cores or jobs
    workers = min(workers, os.cpu_count() or 1, len(classical))
    if workers > 1:
        payloads = [{"scheme": scheme, "cfg": cfg.to_dict(), "pool": pool(cfg),
                     "seed": tc.seed, "grid_az": exp.grid_az,
                     "grid_ze": exp.grid_ze}
                    for scheme, cfg in classical]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            for (scheme, cfg), (rate, wall) in zip(
                    classical, ex.map(_classical_job, payloads)):
                rows.append(_make_row(exp, scheme, cfg, rate, wall))
                log(f"{scheme}: {rate:.4f} bps/Hz")
    else:
        for scheme, cfg in classical:
            h_pool = pool(cfg)
            tic = time.perf_counter()
            rate = classical_rates(scheme, cfg, h_pool, tc.seed,
                                   exp.grid_az, exp.grid_ze)
            rows.append(_make_row(exp, scheme, cfg, rate,
                                  time.perf_counter() - tic))
            log(f"{scheme}: {rate:.4f} bps/Hz")

    for scheme, cfg in learned:
        tic = time.perf_counter()
        pipe = ensure_model(scheme, cfg)
        rate = evaluate_rate(pipe, pool(cfg), sigma_from_snr(cfg), tc.seed)
        rows.append(_make_row(exp, scheme, cfg, rate,
                              time.perf_counter() - tic))
        log(f"{scheme}: {rate:.4f} bps/Hz")

    write_results(rows, out_path)
    log(f"wrote {out_path}")
    return rows
