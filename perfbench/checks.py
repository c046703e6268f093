"""Output checks. Every check is one attempted operation; the failures are
the `failed` count of the result line.

Three kinds:
- invariants: training finishes with finite losses; eval beamformers keep
  |F_RF| = 1 and per-subcarrier power <= Pt/Nc (criterion 2); each
  realization's zf_bound rate is >= its perfect_pca and perfect_ss rates.
- oracles: rates the program reports are recomputed from its beamformers
  with the independent numpy rate below.
- golden fixtures: small fixed-seed computations (a loss with its gradient
  norms per parameter group, eval rates after a checkpoint round trip,
  classical rates) compared with reference.json, which holds
  golden_fixtures() as computed on commit c4a00d3, before any optimization.

Tolerance: GOLDEN_RTOL = 1e-7 relative. Reordering float64 reductions
(another BLAS, thread count, summation order or a fused kernel) moves these
values by about 1e-15 to 1e-12; a wrong program (a zeroed or mis-signed
gradient, a scaled rate, a broken power cap) moves them by 1e-3 or more.
ORACLE_RTOL = 1e-9 compares two evaluations of the same formula.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from airbeam import autodiff, experiment, io, networks, training
from airbeam.baselines import AngleDelayDictionary
from airbeam.channel import SystemConfig, sigma_from_snr

REFERENCE = Path(__file__).with_name("reference.json")
REF_SEED = 20220117
GOLDEN_RTOL = 1e-7
ORACLE_RTOL = 1e-9
INVARIANT_TOL = 1e-9


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def close(self, name, got, want, rtol):
        """One check per element: |got - want| <= rtol * |want| (+1e-12)."""
        got, want = np.atleast_1d(got).astype(float), np.atleast_1d(want).astype(float)
        err = np.abs(got - want)
        bad = ~(err <= rtol * np.abs(want) + 1e-12)
        for k in range(got.size):
            self.expect(name, not bad[k], f"got {got[k]:.17g}, want {want[k]:.17g}")


# -- independent rate and invariants ----------------------------------------

def oracle_rate(h, eff, sigma2):
    """Sum rate per sample from channels h [B, K, M, Nc] and effective
    beamformers eff [B, Nc, M, K]: sum over users and subcarriers of
    log2(1 + SINR), divided by Nc."""
    nc = h.shape[-1]
    gains = np.abs(np.einsum("bkmn,bnmj->bnkj", h.conj(), eff)) ** 2
    wanted = np.einsum("bnkk->bnk", gains)
    sinr = wanted / (gains.sum(axis=-1) - wanted + sigma2)
    return np.log2(1.0 + sinr).sum(axis=(1, 2)) / nc


def check_hybrid(checks, label, h, f_rf, f_bb, pt, sigma2):
    """Criterion-2 invariants of a batch of hybrid beamformers f_rf [B, M, K],
    f_bb [B, Nc, K, K]; returns their oracle rates."""
    nc = h.shape[-1]
    dev = np.abs(np.abs(f_rf) - 1.0).max()
    checks.expect(f"{label}.analog_unit_modulus", dev <= INVARIANT_TOL, f"max dev {dev:.3e}")
    eff = np.einsum("bmk,bnkj->bnmj", f_rf, f_bb)
    excess = np.linalg.norm(eff, axis=(2, 3)).max() - np.sqrt(pt / nc)
    checks.expect(f"{label}.power_per_subcarrier", excess <= INVARIANT_TOL,
                  f"excess {excess:.3e}")
    return oracle_rate(h, eff, sigma2)


def pipeline_outputs(pipe, h, sigma2, seed, with_rates):
    """Eval-mode beamformers, and with_rates the program's per-sample rates,
    with evaluate_rate's noise stream, batch by batch as evaluate_rate draws it."""
    pipe.set_training(False)
    rf, bb, rates = [], [], []
    rng_a = training.stream_rng(seed, training.STREAM_EVAL_NOISE)
    rng_b = training.stream_rng(seed, training.STREAM_EVAL_NOISE)
    with autodiff.no_grad():
        for lo in range(0, h.shape[0], 256):
            batch = h[lo:lo + 256]
            out = pipe.beamformers(batch, sigma2, rng_a)
            rf.append(out[0].numpy())
            bb.append(out[1].numpy())
            if with_rates:
                rates.append(pipe.rates(batch, sigma2, rng_b).values)
    pipe.set_training(True)
    return np.concatenate(rf), np.concatenate(bb), np.concatenate(rates) if with_rates else None


def check_pipeline(checks, label, pipe, h, sigma2, seed, mean_rate=None):
    """Invariants of the eval beamformers on h. Without mean_rate the
    program's per-sample rates must equal the oracle's; with it (a rate the
    program reported for h) the oracle's mean must equal it."""
    f_rf, f_bb, rates = pipeline_outputs(pipe, h, sigma2, seed, with_rates=mean_rate is None)
    oracle = check_hybrid(checks, label, h, f_rf, f_bb, pipe.cfg.pt, sigma2)
    if mean_rate is None:
        checks.close(f"{label}.rate_oracle", rates, oracle, ORACLE_RTOL)
    else:
        checks.close(f"{label}.reported_rate", mean_rate, oracle.mean(), ORACLE_RTOL)


def perfect_csi_rates(cfg, pool, grid):
    """Per-realization zf_bound, perfect_pca and perfect_ss rates, each from
    the package's beamformer and the oracle rate."""
    sigma2 = sigma_from_snr(cfg)
    d = AngleDelayDictionary.build(cfg, grid, grid)
    effs = {"zf_bound": [], "perfect_pca": [], "perfect_ss": []}
    for h in pool:
        effs["zf_bound"].append(experiment.zf_fully_digital(h, cfg.pt, sigma2))
        effs["perfect_pca"].append(experiment.pca_hb(h, cfg.pt, sigma2).effective())
        effs["perfect_ss"].append(experiment.ss_hb(h, d, cfg.pt, sigma2).effective())
    return {s: oracle_rate(pool, np.stack(e), sigma2) for s, e in effs.items()}


def check_dominance(checks, label, cfg, pool, grid, reported):
    """zf_bound >= perfect_pca and perfect_ss on every realization, and the
    reported scheme means equal the recomputed ones."""
    r = perfect_csi_rates(cfg, pool, grid)
    for other in ("perfect_pca", "perfect_ss"):
        worst = (r[other] - r["zf_bound"]).max()
        checks.expect(f"{label}.zf_dominates_{other}", worst <= 1e-12,
                      f"max excess {worst:.3e}")
    for scheme, rates in r.items():
        checks.close(f"{label}.{scheme}_mean", reported[scheme], rates.mean(), ORACLE_RTOL)


def check_history(checks, label, hist, epochs):
    checks.expect(f"{label}.not_aborted", not hist.aborted, hist.aborted)
    checks.expect(f"{label}.all_epochs_ran", len(hist.rows) == epochs,
                  f"{len(hist.rows)} of {epochs}")
    for epoch, loss, val, _, _ in hist.rows:
        checks.expect(f"{label}.loss_finite", np.isfinite(loss), f"epoch {epoch}: {loss}")
        checks.expect(f"{label}.val_rate_finite", np.isfinite(val), f"epoch {epoch}: {val}")


# -- golden fixtures ---------------------------------------------------------

def calibrate(pipe, cfg, seed, n=512):
    """Give batch norm running statistics from training-mode forward passes
    (no gradient), so eval mode normalizes with data statistics."""
    h = training.gen_dataset(cfg, n, seed, training.STREAM_TRAIN).h
    rng = training.stream_rng(seed, training.STREAM_TRAIN_NOISE)
    pipe.set_training(True)
    with autodiff.no_grad():
        for lo in range(0, n, 256):
            pipe.rates(h[lo:lo + 256], sigma_from_snr(cfg), rng)


def _group(name, p):
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "w":
        return "conv_w" if p.values.ndim == 3 else "dense_w"
    return {"phi": "phi", "gamma": "bn_gamma"}.get(leaf, "other")


def golden_train(mode, system, batch):
    """Training-mode loss of a fixed batch and the gradient norm of each
    parameter group after one backward pass."""
    cfg = SystemConfig(**system)
    pipe = networks.build_pipeline(mode, cfg, rng=training.stream_rng(REF_SEED, training.STREAM_INIT))
    h = training.gen_dataset(cfg, batch, REF_SEED, training.STREAM_TRAIN).h
    rng = training.stream_rng(REF_SEED, training.STREAM_TRAIN_NOISE, 0)
    loss = -pipe.rates(h, sigma_from_snr(cfg), rng).mean()
    loss.backward()
    groups = {"phi": [], "conv_w": [], "dense_w": [], "bn_gamma": [], "other": []}
    for name, p in pipe.named_parameters():
        groups[_group(name, p)].append(np.zeros_like(p.values) if p.grad is None else p.grad)
    out = {"loss": float(loss.values)}
    for key, grads in groups.items():
        out[f"grad_norm.{key}"] = float(np.sqrt(sum((g * g).sum() for g in grads)))
    return out


def golden_eval(system):
    """Eval rates of both learned pipelines after a checkpoint round trip."""
    cfg = SystemConfig(**system)
    sigma2 = sigma_from_snr(cfg)
    h = training.gen_dataset(cfg, 64, REF_SEED, training.STREAM_TEST).h
    out = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for mode in ("tdd", "fdd"):
            pipe = networks.build_pipeline(mode, cfg, rng=training.stream_rng(REF_SEED, training.STREAM_INIT))
            calibrate(pipe, cfg, REF_SEED)
            path = Path(tmp) / f"ck_{mode}.bin"
            io.save_checkpoint(path, pipe, cfg, {"scheme": mode})
            fresh = networks.build_pipeline(mode, cfg, rng=np.random.default_rng(0))
            io.load_checkpoint(path, fresh)
            out[f"rate.{mode}"] = training.evaluate_rate(fresh, h, sigma2, REF_SEED)
    return out


def golden_classical(system, grid):
    cfg = SystemConfig(**system)
    pool = training.gen_dataset(cfg, 4, REF_SEED, training.STREAM_TEST).h
    return {f"rate.{s}": experiment.classical_rates(s, cfg, pool, REF_SEED, grid, grid)
            for s in experiment.CLASSICAL_SCHEMES}


def golden_fixtures():
    """name -> function computing the values reference.json holds."""
    from .workloads import DESK, PAPER
    return {
        "train_fdd_desk": lambda: golden_train("fdd", DESK, 8),
        "train_tdd_paper": lambda: golden_train("tdd", PAPER, 2),
        "eval_sweep_desk": lambda: golden_eval(DESK),
        "classical_sweep_desk": lambda: golden_classical(DESK, 8),
    }


def check_golden(checks, workload):
    want = json.loads(REFERENCE.read_text())["values"][workload]
    got = golden_fixtures()[workload]()
    for key in sorted(want):
        checks.close(f"golden.{workload}.{key}", got.get(key, np.nan), want[key], GOLDEN_RTOL)

