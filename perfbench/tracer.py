"""Outside-in tracing of the airbeam package.

Wrappers are installed from these files, only in the traced pass, around
the package's public callables: Module `__call__`s, `mish`, the airlink
functions, the complex-pair ops, `Tensor.backward`, `Adam.step`,
`evaluate_rate`, `gen_dataset`, the baselines, `classical_rates` and the io
functions. A function bound elsewhere by `from ... import` is replaced at
every binding, so `networks.sum_rate` and `experiment.pca_hb` are traced
too. Each span is (name, start, end, parent); spans stay in memory and are
written out once the run ends.

Backward time per layer: Conv1d returns a single graph node, so its
backward closure is wrapped. Mish, BatchNorm and Dense are compositions of
several nodes; their backward cost is measured afterwards by replaying each
recorded shape in isolation (see `replay_backward_ms`).
"""
from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from airbeam import (airlink, autodiff, baselines, channel, cplx, experiment,
                     io, layers, networks, training)

MODULES = (autodiff, cplx, layers, networks, airlink, channel, training,
           baselines, experiment, io)

# (metric, unit, better); every traced run reports all of them, with 0 for a
# layer the workload never calls.
PER_LAYER = [
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.graph_nodes", "count", "lower"),
    ("autodiff.graph_mb", "MB", "lower"),
    ("autodiff.mish_fwd_ms", "ms", "lower"),
    ("autodiff.mish_bwd_ms", "ms", "lower"),
    ("autodiff.mish_calls", "count", "lower"),
    ("layers.conv1d_fwd_ms", "ms", "lower"),
    ("layers.conv1d_bwd_ms", "ms", "lower"),
    ("layers.conv1d_calls", "count", "lower"),
    ("layers.conv1d_gflop", "GFLOP", "lower"),
    ("layers.conv1d_gflops", "GFLOP/s", "higher"),
    ("layers.batchnorm_fwd_ms", "ms", "lower"),
    ("layers.batchnorm_bwd_ms", "ms", "lower"),
    ("layers.dense_fwd_ms", "ms", "lower"),
    ("layers.dense_bwd_ms", "ms", "lower"),
    ("layers.dense_gflop", "GFLOP", "lower"),
    ("networks.encoder_ms", "ms", "lower"),
    ("networks.decoder_ms", "ms", "lower"),
    ("networks.head_ms", "ms", "lower"),
    ("networks.resblock_ms", "ms", "lower"),
    ("networks.params", "count", "lower"),
    ("cplx.matmul_ms", "ms", "lower"),
    ("cplx.share", "ratio", "lower"),
    ("airlink.pilots_ms", "ms", "lower"),
    ("airlink.normalize_digital_ms", "ms", "lower"),
    ("airlink.sum_rate_ms", "ms", "lower"),
    ("airlink.sum_rate_np_us", "us", "lower"),
    ("training.forward_ms", "ms", "lower"),
    ("training.adam_ms", "ms", "lower"),
    ("training.evaluate_rate_ms", "ms", "lower"),
    ("training.gen_dataset_us", "us", "lower"),
    ("training.state_dict_ms", "ms", "lower"),
    ("channel.gen_channel_us", "us", "lower"),
    ("baselines.sw_omp_us", "us", "lower"),
    ("baselines.sw_omp_calls", "count", "lower"),
    ("baselines.pca_hb_us", "us", "lower"),
    ("baselines.ss_hb_us", "us", "lower"),
    ("baselines.zf_us", "us", "lower"),
    ("baselines.lf_rebuild_us", "us", "lower"),
    ("baselines.quantizer_train_ms", "ms", "lower"),
] + [(f"experiment.classical_ms_per_realization.{s}", "ms", "lower")
     for s in experiment.CLASSICAL_SCHEMES] + [
    ("experiment.pool_gen_s", "s", "lower"),
    ("io.save_checkpoint_ms", "ms", "lower"),
    ("io.load_checkpoint_ms", "ms", "lower"),
    ("io.checkpoint_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

_AIRLINK_FUNCS = ("tdd_uplink_pilots", "fdd_downlink_pilots", "assemble_analog",
                  "normalize_digital", "normalize_digital_np", "sum_rate",
                  "sum_rate_effective", "sum_rate_np", "quantize_bits",
                  "bit_surrogate", "quantize_phases_st")
_CPLX_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__", "__matmul__",
                 "conj", "swapaxes", "conj_t", "reshape", "__getitem__", "abs2")
_MODULE_CLASSES = (layers.DenseBlock, networks.ResBlock, networks.BeamformerHead,
                   networks.FeedbackEncoderNet, networks.UplinkBeamformerNet,
                   networks.FeedbackBeamformerNet)
_BASELINE_FUNCS = ("sw_omp_estimate", "pca_hb", "ss_hb", "zf_fully_digital",
                   "limited_feedback_rebuild")
_FORWARD = ("networks.TddPipeline.rates", "networks.FddPipeline.rates")


class Patcher:
    """Replaces attributes and puts every original back on restore()."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def method(self, cls, name, make):
        self.set(cls, name, make(vars(cls)[name]))

    def function(self, home, name, make):
        """Wrap home.name at every module binding of the same object."""
        orig = getattr(home, name)
        wrapped = make(orig)
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, wrapped)

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def graph_stats(root):
    """Nodes reachable from `root` and the bytes of their values plus the
    gradients backward() will give them (computed, same size as values)."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.values.nbytes
        stack.extend(node._parents)
    return len(seen), 2 * nbytes


class Tracer:
    def __init__(self):
        self.name, self.t0, self.t1, self.parent = [], [], [], []
        self.meta = {}
        self._stack = []

    def open(self, name, meta=None):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(i)
        if meta is not None:
            self.meta[i] = meta
        self.t0.append(time.perf_counter())
        return i

    def close(self, i):
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, describe=None):
        """Wrapper factory: a span per call, meta from describe(args, result)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                i = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if describe is not None:
                    self.meta[i] = describe(args, out)
                return out
            return wrapper
        return make

    # -- installation ------------------------------------------------------

    def install(self, p: Patcher):
        for cls in _MODULE_CLASSES:
            p.method(cls, "__call__", self.timed(f"{cls.__module__.split('.')[-1]}.{cls.__name__}"))
        p.method(layers.Conv1d, "__call__", self._conv)
        p.method(layers.Dense, "__call__", self.timed(
            "layers.Dense", lambda a, out: ("dense", a[1].shape, a[0].n_out,
                                            out.requires_grad, a[1].requires_grad)))
        p.method(layers.BatchNorm, "__call__", self.timed(
            "layers.BatchNorm", lambda a, out: ("batchnorm", a[1].shape, out.requires_grad)))
        p.function(autodiff, "mish", self.timed(
            "autodiff.mish", lambda a, out: ("mish", a[0].shape, out.requires_grad)))
        p.method(autodiff.Tensor, "backward", self._backward)
        for cls in (networks.TddPipeline, networks.FddPipeline):
            p.method(cls, "rates", self.timed(f"networks.{cls.__name__}.rates"))
        for name in _AIRLINK_FUNCS:
            p.function(airlink, name, self.timed(f"airlink.{name}"))
        for name in _CPLX_METHODS:
            p.method(cplx.ComplexPair, name, self.timed(f"cplx.{name}"))
        p.function(cplx, "cexp", self.timed("cplx.cexp"))
        p.function(cplx, "as_pair", self.timed("cplx.as_pair"))
        p.method(training.Adam, "step", self.timed("training.Adam.step"))
        p.method(autodiff.Module, "state_dict", self.timed("training.state_dict"))
        p.function(training, "train", self.timed("training.train"))
        p.function(training, "evaluate_rate", self.timed("training.evaluate_rate"))
        p.function(training, "gen_dataset", self.timed(
            "training.gen_dataset", lambda a, out: len(out)))
        p.function(channel, "gen_channel", self.timed("channel.gen_channel"))
        for name in _BASELINE_FUNCS:
            p.function(baselines, name, self.timed(f"baselines.{name}"))
        quant_train = vars(baselines.PathParameterQuantizer)["train"].__func__
        p.set(baselines.PathParameterQuantizer, "train", classmethod(
            self.timed("baselines.quantizer_train")(quant_train)))
        p.function(experiment, "classical_rates", self.timed(
            "experiment.classical_rates", lambda a, out: (a[0], len(a[2]))))
        p.function(experiment, "run_experiment", self.timed("experiment.run_experiment"))
        p.function(io, "save_checkpoint", self.timed(
            "io.save_checkpoint", lambda a, out: os.path.getsize(a[0])))
        p.function(io, "load_checkpoint", self.timed(
            "io.load_checkpoint", lambda a, out: os.path.getsize(a[0])))

    def _conv(self, orig):
        tracer = self

        def wrapper(layer, x):
            i = tracer.open("layers.Conv1d")
            try:
                out = orig(layer, x)
            finally:
                tracer.close(i)
            b, c, _, length = x.shape
            tracer.meta[i] = ("conv", b, c, layer.c_out, layer.kernel, length,
                              out.requires_grad, x.requires_grad)
            bw = out._backward
            if bw is not None:
                def timed_bw(g):
                    j = tracer.open("layers.Conv1d.backward")
                    try:
                        bw(g)
                    finally:
                        tracer.close(j)
                out._backward = timed_bw
            return out
        return wrapper

    def _backward(self, orig):
        tracer = self

        def wrapper(tensor):
            stats = graph_stats(tensor)
            i = tracer.open("autodiff.backward", stats)
            try:
                return orig(tensor)
            finally:
                tracer.close(i)
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path):
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        spans = [[index[n], a, b, p] for n, a, b, p in
                 zip(self.name, self.t0, self.t1, self.parent)]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                       "spans": spans, "self_ms": self.self_times()}, fh)

    def self_times(self):
        """Self time per span name in ms: duration minus the time its child
        spans cover (children never overlap their siblings)."""
        dur = np.array(self.t1) - np.array(self.t0)
        child = np.zeros_like(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(float)
        for i, n in enumerate(self.name):
            out[n] += 1e3 * (dur[i] - child[i])
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# -- replays -----------------------------------------------------------------

def _replay_once(build, out_shape, g):
    out = build()
    loss = (out * g).sum()
    tic = time.perf_counter()
    loss.backward()
    full = time.perf_counter() - tic
    # the same mul + sum + seed on a leaf of the output shape, subtracted
    leaf = autodiff.Tensor(np.zeros(out_shape), requires_grad=True)
    loss = (leaf * g).sum()
    tic = time.perf_counter()
    loss.backward()
    return full - (time.perf_counter() - tic)


def replay_backward_ms(key, reps=3):
    """Backward time in ms of one composite-layer call, replayed in isolation
    at the shape the traced pass recorded. key: ("mish", shape, _),
    ("batchnorm", shape, _) or ("dense", shape, n_out, _, x_grad)."""
    rng = np.random.default_rng(0)
    kind, shape = key[0], key[1]
    x = autodiff.Tensor(rng.standard_normal(shape),
                        requires_grad=(kind != "dense" or key[4]))
    if kind == "mish":
        def build():
            return autodiff.mish(x)
        out_shape = shape
    elif kind == "batchnorm":
        layer = layers.BatchNorm(shape[1])

        def build():
            return layer(x)
        out_shape = shape
    else:
        layer = layers.Dense(shape[1], key[2], rng)

        def build():
            return layer(x)
        out_shape = (shape[0], key[2])
    g = rng.standard_normal(out_shape)
    times = [_replay_once(build, out_shape, g) for _ in range(reps)]
    return 1e3 * max(0.0, statistics.median(times))


# -- per-layer metrics -------------------------------------------------------

class _View:
    """Index of a finished trace: spans by name, an evaluation-path flag and
    the timed-phase window."""

    def __init__(self, tr: Tracer, window, exclude_eval):
        self.dur = np.array(tr.t1) - np.array(tr.t0)
        n = len(tr.name)
        in_eval = np.zeros(n, bool)
        in_sweep = np.zeros(n, bool)
        in_fwd = np.zeros(n, bool)
        for i, (name, p) in enumerate(zip(tr.name, tr.parent)):
            up = p >= 0
            in_eval[i] = name == "training.evaluate_rate" or (up and in_eval[p])
            in_sweep[i] = name == "experiment.run_experiment" or (up and in_sweep[p])
            in_fwd[i] = up and (tr.name[p] in _FORWARD or in_fwd[p])
        t0 = np.array(tr.t0)
        in_window = (t0 >= window[0]) & (t0 <= window[1])
        self.step_mask = in_window & ~in_eval if exclude_eval else in_window
        self.in_sweep, self.in_fwd = in_sweep, in_fwd
        self.by_name = defaultdict(list)
        for i, name in enumerate(tr.name):
            self.by_name[name].append(i)

    def idx(self, name, mask=None):
        ids = self.by_name.get(name, [])
        return [i for i in ids if mask[i]] if mask is not None else ids

    def total(self, name, mask=None):
        return float(sum(self.dur[i] for i in self.idx(name, mask)))

    def mean(self, name, mask=None):
        ids = self.idx(name, mask)
        return float(np.mean(self.dur[ids])) if ids else 0.0


def _records_graph(meta):
    """Whether a mish/BatchNorm/Dense call recorded graph nodes."""
    return meta[3] if meta[0] == "dense" else meta[2]


def _conv_flops(meta):
    _, b, c, o, k, length, graph, x_grad = meta
    fwd = 2.0 * b * o * c * k * length
    return fwd + (fwd * (1 + x_grad) if graph else 0.0)


def _dense_flops(meta):
    _, shape, n_out, graph, x_grad = meta
    fwd = 2.0 * shape[0] * shape[1] * n_out
    return fwd + (fwd * (1 + x_grad) if graph else 0.0)


def layer_metrics(tr: Tracer, window, steps, exclude_eval, params, replay_ms):
    """Per-layer metrics of one traced pass. Times and counts named *_ms,
    *_calls, *_gflop, graph_* are per step of the timed phase (on train_*
    the validation passes are left out); *_us and the io/baselines ms are
    per call over the whole traced pass."""
    v = _View(tr, window, exclude_eval)
    sm = v.step_mask
    steps = max(steps, 1)

    def per_step_ms(*names):
        return 1e3 * sum(v.total(n, sm) for n in names) / steps

    def per_call(name, scale):
        return scale * v.mean(name)

    def composite_bwd_ms(name):
        keys = Counter(tr.meta[i] for i in v.idx(name, sm) if _records_graph(tr.meta[i]))
        return sum(n * replay_ms[k] for k, n in keys.items()) / steps

    conv = v.idx("layers.Conv1d", sm)
    conv_flop = sum(_conv_flops(tr.meta[i]) for i in conv)
    conv_s = v.total("layers.Conv1d", sm) + v.total("layers.Conv1d.backward", sm)
    back = v.idx("autodiff.backward", sm)
    fwd_s = sum(v.total(n, sm) for n in _FORWARD)
    cplx_s = sum(v.dur[i] for n in v.by_name if n.startswith("cplx.")
                 for i in v.idx(n, sm) if v.in_fwd[i])
    samples = sum(tr.meta[i] for i in v.idx("training.gen_dataset"))
    pool = [i for i in v.idx("training.gen_dataset") if v.in_sweep[i]]
    classical = defaultdict(lambda: [0.0, 0])
    for i in v.idx("experiment.classical_rates"):
        scheme, n = tr.meta[i]
        classical[scheme][0] += v.dur[i]
        classical[scheme][1] += n
    ckpt = [tr.meta[i] for n in ("io.save_checkpoint", "io.load_checkpoint")
            for i in v.idx(n)]

    m = {
        "autodiff.backward_ms": per_step_ms("autodiff.backward"),
        "autodiff.graph_nodes": float(np.mean([tr.meta[i][0] for i in back])) if back else 0.0,
        "autodiff.graph_mb": float(np.mean([tr.meta[i][1] for i in back])) / 2**20 if back else 0.0,
        "autodiff.mish_fwd_ms": per_step_ms("autodiff.mish"),
        "autodiff.mish_bwd_ms": composite_bwd_ms("autodiff.mish"),
        "autodiff.mish_calls": len(v.idx("autodiff.mish", sm)) / steps,
        "layers.conv1d_fwd_ms": per_step_ms("layers.Conv1d"),
        "layers.conv1d_bwd_ms": per_step_ms("layers.Conv1d.backward"),
        "layers.conv1d_calls": len(conv) / steps,
        "layers.conv1d_gflop": conv_flop / 1e9 / steps,
        "layers.conv1d_gflops": conv_flop / 1e9 / conv_s if conv_s > 0 else 0.0,
        "layers.batchnorm_fwd_ms": per_step_ms("layers.BatchNorm"),
        "layers.batchnorm_bwd_ms": composite_bwd_ms("layers.BatchNorm"),
        "layers.dense_fwd_ms": per_step_ms("layers.Dense"),
        "layers.dense_bwd_ms": composite_bwd_ms("layers.Dense"),
        "layers.dense_gflop": sum(_dense_flops(tr.meta[i])
                                  for i in v.idx("layers.Dense", sm)) / 1e9 / steps,
        "networks.encoder_ms": per_step_ms("networks.FeedbackEncoderNet"),
        "networks.decoder_ms": per_step_ms("networks.FeedbackBeamformerNet",
                                           "networks.UplinkBeamformerNet"),
        "networks.head_ms": per_step_ms("networks.BeamformerHead"),
        "networks.resblock_ms": per_step_ms("networks.ResBlock"),
        "networks.params": float(params),
        "cplx.matmul_ms": per_step_ms("cplx.__matmul__"),
        "cplx.share": cplx_s / fwd_s if fwd_s > 0 else 0.0,
        "airlink.pilots_ms": per_step_ms("airlink.tdd_uplink_pilots",
                                         "airlink.fdd_downlink_pilots"),
        "airlink.normalize_digital_ms": per_step_ms("airlink.normalize_digital"),
        "airlink.sum_rate_ms": per_step_ms("airlink.sum_rate"),
        "airlink.sum_rate_np_us": per_call("airlink.sum_rate_np", 1e6),
        "training.forward_ms": per_step_ms(*_FORWARD),
        "training.adam_ms": per_step_ms("training.Adam.step"),
        "training.evaluate_rate_ms": per_call("training.evaluate_rate", 1e3),
        "training.gen_dataset_us": 1e6 * v.total("training.gen_dataset") / samples
        if samples else 0.0,
        "training.state_dict_ms": per_call("training.state_dict", 1e3),
        "channel.gen_channel_us": per_call("channel.gen_channel", 1e6),
        "baselines.sw_omp_us": per_call("baselines.sw_omp_estimate", 1e6),
        "baselines.sw_omp_calls": len(v.idx("baselines.sw_omp_estimate", sm)) / steps,
        "baselines.pca_hb_us": per_call("baselines.pca_hb", 1e6),
        "baselines.ss_hb_us": per_call("baselines.ss_hb", 1e6),
        "baselines.zf_us": per_call("baselines.zf_fully_digital", 1e6),
        "baselines.lf_rebuild_us": per_call("baselines.limited_feedback_rebuild", 1e6),
        "baselines.quantizer_train_ms": per_call("baselines.quantizer_train", 1e3),
    }
    for scheme in experiment.CLASSICAL_SCHEMES:
        secs, n = classical[scheme]
        m[f"experiment.classical_ms_per_realization.{scheme}"] = 1e3 * secs / n if n else 0.0
    m["experiment.pool_gen_s"] = float(np.mean(v.dur[pool])) if pool else 0.0
    m["io.save_checkpoint_ms"] = per_call("io.save_checkpoint", 1e3)
    m["io.load_checkpoint_ms"] = per_call("io.load_checkpoint", 1e3)
    m["io.checkpoint_mb"] = float(np.mean(ckpt)) / 2**20 if ckpt else 0.0
    m["trace.spans"] = float(len(tr.name))
    return m


def replay_keys(tr: Tracer, window, exclude_eval):
    """Distinct composite-layer calls that recorded a graph in the timed phase."""
    v = _View(tr, window, exclude_eval)
    keys = set()
    for name in ("autodiff.mish", "layers.BatchNorm", "layers.Dense"):
        for i in v.idx(name, v.step_mask):
            if _records_graph(tr.meta[i]):
                keys.add(tr.meta[i])
    return keys
