"""Self-test of the output checks: patch a wrong program in-process and
confirm the checks trip, and confirm the unpatched program passes them.

    python3 perfbench/run.py --self-test
"""
from __future__ import annotations

import json

import numpy as np

from airbeam import airlink, baselines, experiment, layers, networks, training
from airbeam.channel import SystemConfig

from . import checks as ck
from . import tracer as tr
from .run import ROOT
from .workloads import DESK, END_TO_END, WORKLOADS, ClassicalSweep, EvalSweep


def _scaled(factor):
    def make(fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs) * factor
        return wrapper
    return make


def _zero_conv_weight_grad(orig):
    """Conv1d whose backward leaves its weight gradient untouched."""
    def wrapper(layer, x):
        out = orig(layer, x)
        bw = out._backward
        if bw is not None:
            def no_w_grad(g):
                kept = layer.w.grad
                bw(g)
                layer.w.grad = kept
            out._backward = no_w_grad
        return out
    return wrapper


def _pool_ignoring_seed(orig):
    """A pool cache keyed without the seed: every sweep call after the first
    evaluates the first call's pool."""
    cache = {}

    def wrapper(cfg, n_samples, seed, stream):
        key = (n_samples, stream)
        if key not in cache:
            cache[key] = orig(cfg, n_samples, seed, stream)
        return cache[key]
    return wrapper


MUTATIONS = {
    "sum_rate scaled by 1.01": lambda p: p.function(airlink, "sum_rate", _scaled(1.01)),
    "Conv1d weight gradient zeroed": lambda p: p.method(layers.Conv1d, "__call__",
                                                        _zero_conv_weight_grad),
    "power cap broken (digital x1.5)": lambda p: p.function(
        airlink, "normalize_digital", _scaled(1.5)),
    "zero forcing at half amplitude": lambda p: p.function(
        baselines, "zf_fully_digital", _scaled(0.5)),
    "non-finite rate": lambda p: p.function(airlink, "sum_rate", _scaled(np.nan)),
    "sweep pool cached without the call's seed": lambda p: p.set(
        experiment, "gen_dataset", _pool_ignoring_seed(experiment.gen_dataset)),
}


def run_checks():
    """A small version of every workload's checks; returns Checks."""
    checks = ck.Checks()
    cfg = SystemConfig(**DESK)
    for name in ("train_fdd_desk", "eval_sweep_desk", "classical_sweep_desk"):
        ck.check_golden(checks, name)

    # a short training run: history and oracle/invariants on its beamformers
    tc = training.TrainConfig(epochs=1, batch_size=64, lr_decay_epochs=(),
                              n_train=128, n_val=64, n_test=1, seed=5)
    splits = training.gen_splits(cfg, tc.n_train, tc.n_val, tc.n_test, tc.seed)
    pipe = networks.build_pipeline("fdd", cfg, rng=training.stream_rng(5, training.STREAM_INIT))
    hist = training.train(pipe, splits, tc)
    ck.check_history(checks, "selftest.train", hist, tc.epochs)
    ck.check_pipeline(checks, "selftest.val", pipe, splits.val.h, 1.0, 5,
                      mean_rate=training.evaluate_rate(pipe, splits.val.h, 1.0, 5))

    pool = training.gen_dataset(cfg, 8, 5, training.STREAM_TEST).h
    reported = {s: experiment.classical_rates(s, cfg, pool, 5, 8, 8)
                for s in ("zf_bound", "perfect_pca", "perfect_ss")}
    ck.check_dominance(checks, "selftest.classical", cfg, pool, 8, reported)

    # two-call versions of both sweeps, checked call by call as a run does
    for wl in (ClassicalSweep(5, 1.2), EvalSweep(5, 1.0)):
        try:
            st = wl.setup()
            wl.check(checks, st, wl.timed(st, None))
        finally:
            wl.close()
    return checks


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    return (want_e2e == END_TO_END and want_layer == tr.PER_LAYER
            and [w["name"] for w in spec["workloads"]] == list(WORKLOADS))


def main():
    ok = True
    clean = run_checks()
    print(f"unpatched program: {clean.failed} of {clean.attempted} checks failed")
    for note in clean.failures[:5]:
        print("   ", note)
    ok &= clean.failed == 0
    for label, apply in MUTATIONS.items():
        p = tr.Patcher()
        apply(p)
        try:
            result = run_checks()
        finally:
            p.restore()
        caught = result.failed > 0
        ok &= caught
        first = result.failures[0] if result.failures else "-"
        print(f"{'caught' if caught else 'MISSED'}: {label}: "
              f"{result.failed} of {result.attempted} failed (first: {first})")
    consistent = check_benchmark_json()
    print(f"BENCHMARK.json metric and workload lists match the code: {consistent}")
    ok &= consistent
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
