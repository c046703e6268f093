"""The four workloads and the run that measures one of them.

Each workload derives every input from its seed, sets up (several times,
keeping the last), warms up, runs a fixed amount of work that --seconds
sizes, and checks the outputs. The work per --seconds was sized on a
2-core x86 host (OpenBLAS 0.3.31, numpy 2.4); both commits of a comparison
run the same work, so wall_s is the time to finish it.

  train_fdd_desk        training.train, feedback mode, criterion-6 system
                        (4x4 UPA, Nc=8, K=2, Q=4, 20 bits), B=1024, whole
                        epochs with their validation passes.
  train_tdd_paper       training.train, uplink-sounded mode, paper system
                        (8x8 UPA, Nc=32, K=4, Q=8, 8.7M parameters), a few
                        steps at B=64 (B=128 peaks near 6 GB resident).
  classical_sweep_desk  experiment.run_experiment, the six classical schemes
                        along snr_db, workers=1, pool drawn inside each call.
  eval_sweep_desk       experiment.run_experiment(eval_only=True) for both
                        learned schemes along snr_db, from checkpoints
                        written in setup.

A "step" is an optimizer step on train_*, one run_experiment call on the
sweeps.
"""
from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from airbeam import experiment, io, networks, training
from airbeam.channel import SystemConfig, sigma_from_snr

from . import checks as ck
from . import tracer as tr
from .run import ROOT

DESK = dict(ny=4, nz=4, nc=8, k_users=2, q_pilots=4, pt=8.0, snr_db=10.0,
            feedback_bits=20)
PAPER = dict(ny=8, nz=8, nc=32, k_users=4, q_pilots=8, pt=8.0, snr_db=10.0)
PAPER_BATCH = 64
SNR_POINTS = (0.0, 10.0, 20.0)
SETUP_REPS = 3
# Model weights come from one fixed init stream, so the sum-rate guard varies
# with the seeded data and noise only, not with the draw of initial weights.
MODEL_SEED = 0
OUT = ROOT / "perfbench" / "out"

# (metric, unit, better), reported by every workload
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sum_rate_bps_hz", "bps/Hz", "higher"),
]


def call_seed(seed, r):
    """Seed of the r-th sweep call of a run: distinct pools per call."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def shrink(dataset, n):
    return replace(dataset, h=dataset.h[:n])


class Probe:
    """The untraced run's only hooks: a timestamp after each optimizer step
    and at the start of each validation pass. Costs about a microsecond per
    call against steps of 0.5 s and more."""

    def __init__(self):
        self.step_ends = []
        self.val_starts = []

    def install(self, p: tr.Patcher):
        step = vars(training.Adam)["step"]

        def timed_step(opt):
            step(opt)
            self.step_ends.append(time.perf_counter())
        p.set(training.Adam, "step", timed_step)

        def stamp_eval(fn):
            def wrapper(*args, **kwargs):
                self.val_starts.append(time.perf_counter())
                return fn(*args, **kwargs)
            return wrapper
        p.function(training, "evaluate_rate", stamp_eval)


@dataclass
class Outcome:
    step_ms: list
    samples: int
    sum_rate: float
    steps: int          # optimizer steps (train_*) or sweep calls


# -- training workloads ------------------------------------------------------

class TrainWorkload:
    exclude_eval = True     # per-step trace figures leave validation out

    def __init__(self, seed, mode, system, batch, n_train, n_val, epochs, warm_steps):
        self.seed, self.mode, self.batch = seed, mode, batch
        self.warm_steps = warm_steps
        self.cfg = SystemConfig(**system)
        self.tc = training.TrainConfig(
            epochs=epochs, batch_size=batch, lr=1e-3, lr_decay_epochs=(),
            patience=epochs + 1, n_train=n_train, n_val=n_val, n_test=256,
            seed=seed)

    def setup(self):
        tc = self.tc
        splits = training.gen_splits(self.cfg, tc.n_train, tc.n_val, tc.n_test, tc.seed)
        pipe = networks.build_pipeline(
            self.mode, self.cfg, rng=training.stream_rng(MODEL_SEED, training.STREAM_INIT))
        return {"splits": splits, "pipe": pipe, "init": pipe.state_dict()}

    def warm_up(self, st):
        """Whole steps at the real shapes, then the initial weights back."""
        s = st["splits"]
        warm = replace(s, train=shrink(s.train, self.warm_steps * self.batch),
                       val=shrink(s.val, 256))
        training.train(st["pipe"], warm, replace(self.tc, epochs=1))
        st["pipe"].load_state_dict(st["init"])

    def timed(self, st, probe):
        start = time.perf_counter()
        hist = training.train(st["pipe"], st["splits"], self.tc)
        st["hist"] = hist
        # step intervals within an epoch; one that spans a validation pass
        # (the first of every later epoch) is left out
        step_ms, prev = [], start
        for end in probe.step_ends:
            if not any(prev < v < end for v in probe.val_starts):
                step_ms.append(1e3 * (end - prev))
            prev = end
        steps = len(probe.step_ends)
        return Outcome(step_ms, steps * self.batch, hist.best_val_rate, steps)

    def check(self, checks, st, outcome):
        label = self.mode
        ck.check_history(checks, label, st["hist"], self.tc.epochs)
        h = st["splits"].val.h[:256]
        ck.check_pipeline(checks, f"{label}.val", st["pipe"], h,
                          sigma_from_snr(self.cfg), self.seed)

    def params(self, st):
        return sum(p.values.size for p in st["pipe"].parameters())


def train_fdd_desk(seed, seconds):
    # epochs of 8 steps of ~0.5 s and a 2048-sample validation pass
    return TrainWorkload(seed, "fdd", DESK, 1024, n_train=8192, n_val=2048,
                         epochs=max(1, round(seconds / 4.4)), warm_steps=2)


def train_tdd_paper(seed, seconds):
    # one epoch of ~2.8 s steps and a 128-sample validation pass
    steps = max(2, round(seconds / 2.8))
    return TrainWorkload(seed, "tdd", PAPER, PAPER_BATCH, n_train=steps * PAPER_BATCH,
                         n_val=2 * PAPER_BATCH, epochs=1, warm_steps=1)


# -- sweep workloads ---------------------------------------------------------

class SweepWorkload:
    exclude_eval = False

    def __init__(self, seed, seconds, schemes, n_eval, call_s, eval_only):
        self.seed, self.schemes, self.n_eval = seed, schemes, n_eval
        self.eval_only = eval_only
        self.calls = max(2, round(seconds / call_s))
        self.cfg = SystemConfig(**DESK)
        self.dir = OUT / f"{'eval' if eval_only else 'classical'}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def config(self, r, n_eval=None):
        return experiment.ExperimentConfig(
            system=self.cfg, train=training.TrainConfig(seed=call_seed(self.seed, r)),
            schemes=self.schemes, sweep_axis="snr_db", sweep_values=SNR_POINTS,
            n_eval=n_eval or self.n_eval, out=str(self.dir / "results.csv"),
            grid_az=2 * self.cfg.ny, grid_ze=2 * self.cfg.nz)

    def setup(self):
        """The inputs, then a small sweep call: the first call's one-off costs
        belong to set-up here, so it repeats with the other set-up work."""
        st = self.prepare()
        experiment.run_experiment(self.config(self.calls, n_eval=8), eval_only=self.eval_only)
        return st

    def prepare(self):
        return {}

    def warm_up(self, st):
        pass

    def timed(self, st, probe):
        step_ms, rows = [], []
        for r in range(self.calls):
            t0 = time.perf_counter()
            rows.append(experiment.run_experiment(self.config(r), eval_only=self.eval_only))
            step_ms.append(1e3 * (time.perf_counter() - t0))
        st["rows"] = rows
        rates = [row.sum_rate_bps_hz for call in rows for row in call]
        return Outcome(step_ms, len(rates) * self.n_eval, float(np.mean(rates)), self.calls)

    def check(self, checks, st, outcome):
        """Every call against its own pool: finite row rates, then the
        workload's checks of the rows."""
        for r, rows in enumerate(st["rows"]):
            for row in rows:
                checks.expect("row_rate_finite", np.isfinite(row.sum_rate_bps_hz),
                              f"call {r} {row.scheme}@{row.snr_db}: {row.sum_rate_bps_hz}")
            exp = self.config(r)
            pool = training.gen_dataset(self.cfg, exp.n_eval, exp.train.seed,
                                        training.STREAM_TEST).h
            self.check_call(checks, st, f"call{r}", exp, pool, rows)

    def params(self, st):
        return 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class ClassicalSweep(SweepWorkload):
    def __init__(self, seed, seconds):
        # ~0.6 s per call: 3 SNR points x 20 realizations x 6 schemes
        super().__init__(seed, seconds, experiment.CLASSICAL_SCHEMES, 20, 0.6, False)

    def check_call(self, checks, st, label, exp, pool, rows):
        for snr in SNR_POINTS:
            reported = {row.scheme: row.sum_rate_bps_hz for row in rows if row.snr_db == snr}
            ck.check_dominance(checks, f"{label}.classical@{snr:g}dB",
                               replace(self.cfg, snr_db=snr), pool, exp.grid_az, reported)


class EvalSweep(SweepWorkload):
    def __init__(self, seed, seconds):
        # ~0.5 s per call: 2 schemes x 3 SNR points x 384 samples
        super().__init__(seed, seconds, experiment.LEARNED_SCHEMES, 384, 0.5, True)

    def prepare(self):
        """Models with calibrated batch-norm statistics, written where
        run_experiment looks for them."""
        pipes = {}
        for scheme in self.schemes:
            mode = "tdd" if scheme == "proposed_tdd" else "fdd"
            pipe = networks.build_pipeline(
                mode, self.cfg, rng=training.stream_rng(MODEL_SEED, training.STREAM_INIT))
            ck.calibrate(pipe, self.cfg, self.seed)
            io.save_checkpoint(self.dir / f"ck_{scheme}.bin", pipe, self.cfg,
                               {"scheme": scheme, "mode": mode})
            pipes[scheme] = pipe
        return {"pipes": pipes}

    def check_call(self, checks, st, label, exp, pool, rows):
        for row in rows:
            cfg = replace(self.cfg, snr_db=row.snr_db)
            ck.check_pipeline(checks, f"{label}.{row.scheme}@{row.snr_db:g}dB",
                              st["pipes"][row.scheme], pool, sigma_from_snr(cfg),
                              exp.train.seed, mean_rate=row.sum_rate_bps_hz)

    def params(self, st):
        return sum(p.values.size for pipe in st["pipes"].values()
                   for p in pipe.parameters())


WORKLOADS = {
    "train_fdd_desk": train_fdd_desk,
    "train_tdd_paper": train_tdd_paper,
    "classical_sweep_desk": ClassicalSweep,
    "eval_sweep_desk": EvalSweep,
}


# -- the run -----------------------------------------------------------------

def tail_ms(values):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest value; the median when fewer than 21 samples leave none above it."""
    s = sorted(values)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n
    return statistics.median(s), 50.0


def measured_pass(wl, st):
    """One untraced timed pass: (outcome, wall seconds)."""
    probe = Probe()
    p = tr.Patcher()
    probe.install(p)
    gc.collect()
    try:
        t0 = time.perf_counter()
        outcome = wl.timed(st, probe)
        wall = time.perf_counter() - t0
    finally:
        p.restore()
    return outcome, wall


def end_to_end(outcome, wall, setup_s):
    tail, _ = tail_ms(outcome.step_ms)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "step_ms_p50": statistics.median(outcome.step_ms),
        "step_ms_tail": tail,
        "samples_per_s": outcome.samples / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sum_rate_bps_hz": outcome.sum_rate,
    }


def traced_pass(wl, name, seed, untraced_wall):
    """Per-layer metrics: a traced setup (for the per-call set-up figures)
    and a traced timed pass on a fresh, warmed state, then the replays."""
    tracer = tr.Tracer()
    p = tr.Patcher()
    tracer.install(p)
    probe = Probe()
    probe.install(p)
    try:
        st = wl.setup()
        wl.warm_up(st)
        probe.step_ends.clear()
        probe.val_starts.clear()
        gc.collect()
        t0 = time.perf_counter()
        outcome = wl.timed(st, probe)
        t1 = time.perf_counter()
    finally:
        p.restore()
    window = (t0, t1)
    replay = {k: tr.replay_backward_ms(k) for k in tr.replay_keys(tracer, window, wl.exclude_eval)}
    metrics = tr.layer_metrics(tracer, window, outcome.steps, wl.exclude_eval,
                               wl.params(st), replay)
    metrics["trace.overhead_s"] = (t1 - t0) - untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_wall
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    tracer.write(path)
    top = list(tracer.self_times().items())[:12]
    return metrics, {"trace_file": str(path.relative_to(ROOT)),
                     "traced_wall_s": t1 - t0,
                     "self_ms_top": {k: round(v, 3) for k, v in top}}


def run(name, seed, seconds, trace):
    wl = WORKLOADS[name](seed, seconds)
    checks = ck.Checks()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            st = None       # free the previous repetition before the next
            gc.collect()
            t0 = time.perf_counter()
            st = wl.setup()
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warm_up(st)
        warm = time.perf_counter() - t0
        outcome, wall = measured_pass(wl, st)
        metrics = end_to_end(outcome, wall, statistics.median(setups) + warm)
        t0 = time.perf_counter()
        wl.check(checks, st, outcome)
        ck.check_golden(checks, name)
        check_s = time.perf_counter() - t0
        _, tail_pct = tail_ms(outcome.step_ms)
        detail = {
            "workload": name, "seed": seed, "seconds": seconds,
            "setup_reps_s": setups, "warm_up_s": warm,
            "steps": outcome.steps, "step_ms": [round(t, 1) for t in outcome.step_ms],
            "step_ms_tail_percentile": tail_pct, "params": wl.params(st),
            "check_s": check_s,
        }
        spec = END_TO_END
        if trace:
            del st
            metrics, extra = traced_pass(wl, name, seed, wall)
            detail.update(extra)
            spec = tr.PER_LAYER
    finally:
        if hasattr(wl, "close"):
            wl.close()
    return {"metrics": {k: {"value": float(metrics[k]), "unit": unit} for k, unit, _ in spec},
            "attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures[:20], "detail": detail}
