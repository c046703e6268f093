"""Dataset generation, Adam, the negative-sum-rate training loop, and the
pretrain/transfer/fine-tune procedure for quantized phase shifters.

Reproducibility model: every random draw comes from a Generator seeded by
(seed, stream, index) through SeedSequence spawn keys, so sample i of a
split is the same bit pattern for any pool size or chunking, and
train/val/test streams never overlap.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import no_grad, zero_grads
from .channel import SystemConfig, draw_users, path_set_channels, sigma_from_snr
from .networks import build_pipeline

# Stream ids for SeedSequence spawn keys.
STREAM_TRAIN, STREAM_VAL, STREAM_TEST = 0, 1, 2
STREAM_SHUFFLE, STREAM_TRAIN_NOISE, STREAM_EVAL_NOISE, STREAM_INIT = 3, 4, 5, 6

# Samples synthesized per batch in gen_dataset; bounds the temporaries.
GEN_CHUNK = 64


def stream_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class Dataset:
    h: np.ndarray               # [N, K, M, Nc] complex128

    def __len__(self):
        return self.h.shape[0]


@dataclass
class DataSplits:
    train: Dataset
    val: Dataset
    test: Dataset


def gen_dataset(cfg: SystemConfig, n_samples, seed, stream):
    """Draw n_samples channel realizations on the given stream id.

    Sample i is channel.gen_channel on its own generator; the channels are
    synthesized GEN_CHUNK samples at a time."""
    k, m, nc = cfg.k_users, cfg.m_antennas, cfg.nc
    h = np.empty((n_samples, k, m, nc), dtype=np.complex128)
    for lo in range(0, n_samples, GEN_CHUNK):
        hi = min(lo + GEN_CHUNK, n_samples)
        paths = [p for i in range(lo, hi) for p in draw_users(cfg, stream_rng(seed, stream, i))]
        h[lo:hi] = path_set_channels(paths, cfg).reshape(hi - lo, k, m, nc)
    return Dataset(h=h)


def gen_splits(cfg, n_train, n_val, n_test, seed):
    return DataSplits(
        train=gen_dataset(cfg, n_train, seed, STREAM_TRAIN),
        val=gen_dataset(cfg, n_val, seed, STREAM_VAL),
        test=gen_dataset(cfg, n_test, seed, STREAM_TEST),
    )


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 1024
    lr: float = 1e-3
    lr_decay_factor: float = 0.3
    lr_decay_epochs: tuple = (100, 150)
    patience: int = 30
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    n_train: int = 20480
    n_val: int = 2048
    n_test: int = 2048
    fresh_noise: bool = True    # redraw pilot noise every epoch
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("n_train", "n_val", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.lr_decay_factor < 1:
            raise ValueError(f"lr_decay_factor must be in (0,1), got {self.lr_decay_factor}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 for batch norm, got {self.batch_size}")


class Adam:
    """Adam with bias correction; raises on non-finite gradients."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.slots = [(name, p, np.zeros_like(p.values), np.zeros_like(p.values))
                      for name, p in named_params]
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def zero_grad(self):
        zero_grads([p for _, p, _, _ in self.slots])

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p, m, v in self.slots:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in parameter '{name}'")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass
class TrainHistory:
    rows: list = field(default_factory=list)   # (epoch, train_loss, val_rate, lr, seconds)
    best_epoch: int = -1
    best_val_rate: float = -np.inf
    stopped_early: bool = False
    aborted: str = ""
    final_state: dict | None = None            # last-epoch weights, pre restore

    def append(self, epoch, train_loss, val_rate, lr, seconds):
        self.rows.append((epoch, float(train_loss), float(val_rate), float(lr), float(seconds)))

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_rate,lr,seconds\n")
            for row in self.rows:
                fh.write(",".join(str(x) for x in row) + "\n")


def require_finite(h_pool, what="channel pool"):
    """Raise ValueError naming the first sample of a channel pool [N, ...]
    with a NaN or infinite entry, so that it never becomes a rate."""
    bad = ~np.isfinite(h_pool).reshape(len(h_pool), -1).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} sample {int(np.argmax(bad))} has a non-finite entry")


def evaluate_rate(pipeline, h_pool, sigma2, seed, batch_size=256):
    """Mean sum rate over a pool, eval mode, fixed per-call noise draws."""
    require_finite(h_pool)
    pipeline.set_training(False)
    rng = stream_rng(seed, STREAM_EVAL_NOISE)
    total = 0.0
    with no_grad():
        for lo in range(0, h_pool.shape[0], batch_size):
            batch = h_pool[lo:lo + batch_size]
            rates = pipeline.rates(batch, sigma2, rng)
            total += float(rates.values.sum())
    pipeline.set_training(True)
    return total / h_pool.shape[0]


def train(pipeline, splits: DataSplits, tc: TrainConfig, sigma2=None, log=None):
    """Minimize the negative mean sum rate with Adam, lr steps, and early
    stopping on the validation rate. The pipeline ends up holding the best
    validation parameters; returns the TrainHistory. A non-finite sample in
    the training or validation split raises ValueError before any step."""
    require_finite(splits.train.h, "training split")
    require_finite(splits.val.h, "validation split")
    sigma2 = sigma_from_snr(pipeline.cfg) if sigma2 is None else sigma2
    opt = Adam(pipeline.named_parameters(), lr=tc.lr,
               beta1=tc.beta1, beta2=tc.beta2, eps=tc.adam_eps)
    history = TrainHistory()
    best_state = pipeline.state_dict()
    stale = 0
    lr = tc.lr
    n = len(splits.train)
    bs = min(tc.batch_size, n)
    for epoch in range(tc.epochs):
        tic = time.perf_counter()
        if epoch in tc.lr_decay_epochs:
            lr *= tc.lr_decay_factor
        opt.lr = lr
        order = stream_rng(tc.seed, STREAM_SHUFFLE, epoch).permutation(n)
        noise_epoch = epoch if tc.fresh_noise else 0
        noise_rng = stream_rng(tc.seed, STREAM_TRAIN_NOISE, noise_epoch)
        pipeline.set_training(True)
        losses = []
        try:
            for lo in range(0, n - bs + 1, bs):
                batch = splits.train.h[order[lo:lo + bs]]
                rates = pipeline.rates(batch, sigma2, noise_rng)
                loss = -rates.mean()
                if not np.isfinite(loss.values):
                    raise FloatingPointError(f"non-finite loss at epoch {epoch}")
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(float(loss.values))
        except FloatingPointError as err:
            history.aborted = str(err)
            break
        val_rate = evaluate_rate(pipeline, splits.val.h, sigma2, tc.seed)
        history.append(epoch, np.mean(losses), val_rate, lr, time.perf_counter() - tic)
        if log:
            log(f"epoch {epoch:3d}  loss {np.mean(losses):+.4f}  "
                f"val {val_rate:.4f}  lr {lr:.2e}")
        if val_rate > history.best_val_rate:
            history.best_val_rate = val_rate
            history.best_epoch = epoch
            best_state = pipeline.state_dict()
            stale = 0
        else:
            stale += 1
            if stale >= tc.patience:
                history.stopped_early = True
                break
    history.final_state = pipeline.state_dict()
    pipeline.load_state_dict(best_state)
    return history


def finetune_quantized(pipeline, phase_bits, splits, tc, sigma2=None, log=None):
    """Transfer a continuous-phase model onto the quantized-phase variant and
    fine-tune briefly at a reduced learning rate (pretrain -> transfer ->
    fine-tune). Returns the new pipeline and its history."""
    if phase_bits < 1:
        raise ValueError(f"phase_bits must be >= 1 for fine-tuning, got {phase_bits}")
    cfg_q = replace(pipeline.cfg, phase_bits=phase_bits)
    rng = np.random.default_rng(0)    # shapes come from the transfer below
    tuned = build_pipeline(pipeline.mode, cfg_q, pipeline.spec, rng)
    tuned.load_state_dict(pipeline.state_dict())
    tc_ft = replace(tc, lr=tc.lr / 10.0, epochs=max(1, tc.epochs // 4))
    history = train(tuned, splits, tc_ft, sigma2=sigma2, log=log)
    return tuned, history
