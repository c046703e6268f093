"""Training loop contract: streams, Adam, schedule, stopping, transfer."""
import numpy as np
import pytest

from airbeam.autodiff import Module, Tensor, astensor
from airbeam.channel import SystemConfig, draw_cluster, draw_multipath
from airbeam.networks import NetworkSpec, build_pipeline
from airbeam.training import (
    GEN_CHUNK,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_VAL,
    Adam,
    Dataset,
    DataSplits,
    TrainConfig,
    evaluate_rate,
    finetune_quantized,
    gen_dataset,
    gen_splits,
    stream_rng,
    train,
)

from helpers import channel_matrix_loop

SPEC = NetworkSpec(user_widths=(12, 10, 8), fusion_widths=(16, 12, 10),
                   encoder_widths=(12, 10), decoder_widths=(16, 12, 10),
                   res_c1=4, res_c2=6)


def tiny_cfg(**kw):
    base = dict(ny=2, nz=1, nc=2, k_users=2, q_pilots=1, pt=2.0,
                feedback_bits=4)
    base.update(kw)
    return SystemConfig(**base)


def stub_splits(n_train=4, n_val=2):
    def block(n):
        return Dataset(h=np.zeros((n, 1, 2, 2), dtype=complex))
    return DataSplits(train=block(n_train), val=block(n_val), test=block(2))


class ProbePipeline(Module):
    """Constant-rate stand-in that records the noise draws train() hands it."""

    mode = "probe"

    def __init__(self):
        super().__init__()
        self.w = Tensor(np.zeros(1), requires_grad=True)
        self.draws = []

    def rates(self, h, sigma2, rng, soft=False):
        self.draws.append(float(rng.uniform()))
        return astensor(np.zeros(len(h))) + (self.w * 0.0).sum()


class NanPipeline(ProbePipeline):
    def rates(self, h, sigma2, rng, soft=False):
        return astensor(np.full(len(h), np.nan)) + (self.w * 0.0).sum()


# -- seeding ---------------------------------------------------------------

def test_stream_rng_is_keyed_and_stable():
    a = stream_rng(3, 1, 2).standard_normal(4)
    b = stream_rng(3, 1, 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = stream_rng(3, 1, 3).standard_normal(4)
    assert not np.array_equal(a, c)


def test_dataset_samples_do_not_depend_on_pool_size():
    cfg = tiny_cfg()
    small = gen_dataset(cfg, 3, seed=5, stream=STREAM_TRAIN)
    large = gen_dataset(cfg, 6, seed=5, stream=STREAM_TRAIN)
    np.testing.assert_array_equal(small.h, large.h[:3])
    # a pool that spans two synthesis chunks
    crossing = gen_dataset(cfg, GEN_CHUNK + 5, seed=5, stream=STREAM_TRAIN)
    np.testing.assert_array_equal(large.h, crossing.h[:6])
    below = gen_dataset(cfg, GEN_CHUNK - 1, seed=5, stream=STREAM_TRAIN)
    np.testing.assert_array_equal(below.h, crossing.h[:GEN_CHUNK - 1])


def per_sample_oracle(cfg, n_samples, seed, stream):
    """The per-sample loop: one generator per sample, K per-user draws, and
    one per-path synthesis per user."""
    draw = draw_multipath if cfg.channel_kind == "multipath" else draw_cluster
    h = np.empty((n_samples, cfg.k_users, cfg.m_antennas, cfg.nc), dtype=complex)
    for i in range(n_samples):
        rng = stream_rng(seed, stream, i)
        for k in range(cfg.k_users):
            h[i, k] = channel_matrix_loop(draw(cfg, rng), cfg)
    return h


@pytest.mark.parametrize("system", [
    dict(ny=4, nz=4, nc=8, k_users=2, lp_min=2, lp_max=2),     # desk
    dict(ny=8, nz=8, nc=32, k_users=4, lp_min=2, lp_max=2),    # paper
    dict(ny=4, nz=4, nc=8, k_users=2, lp_min=1, lp_max=8),
    dict(ny=4, nz=4, nc=8, k_users=2, channel_kind="cluster"),
    dict(ny=3, nz=5, nc=8, k_users=3, lp_min=1, lp_max=4),
], ids=["desk", "paper", "lp1-8", "cluster", "ny3-nz5-k3"])
def test_batched_dataset_matches_per_sample_oracle_bitwise(system):
    cfg = SystemConfig(**system)
    want = per_sample_oracle(cfg, 300, seed=11, stream=STREAM_TEST)
    for n in (0, 1, GEN_CHUNK - 1, GEN_CHUNK, GEN_CHUNK + 1, 300):
        got = gen_dataset(cfg, n, seed=11, stream=STREAM_TEST).h
        assert got.shape == (n, cfg.k_users, cfg.m_antennas, cfg.nc)
        assert np.array_equal(got, want[:n]), f"n={n}"


def test_splits_are_disjoint_and_reproducible():
    cfg = tiny_cfg()
    a = gen_splits(cfg, 3, 2, 2, seed=1)
    b = gen_splits(cfg, 3, 2, 2, seed=1)
    np.testing.assert_array_equal(a.train.h, b.train.h)
    np.testing.assert_array_equal(a.val.h, b.val.h)
    assert not np.array_equal(a.train.h[0], a.val.h[0])
    assert not np.array_equal(a.val.h[0], a.test.h[0])
    assert len(a.train) == 3 and len(a.val) == 2


# -- optimizer -------------------------------------------------------------

def test_adam_matches_reference_updates():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    x = p.values.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    grads = [np.array([0.5, -1.0]), np.array([-0.25, 0.75]), np.array([2.0, 0.1])]
    for t, g in enumerate(grads, 1):
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        x = x - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(p.values, x, atol=1e-15)


def test_adam_skips_unused_and_rejects_nonfinite():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([("p", p), ("q", q)], lr=0.1)
    p.grad = np.ones(2)
    q.grad = None
    opt.step()
    np.testing.assert_array_equal(q.values, np.ones(2))
    assert not np.array_equal(p.values, np.ones(2))
    p.grad = np.array([1.0, np.inf])
    with pytest.raises(FloatingPointError, match="'p'"):
        opt.step()


def test_train_config_validation():
    for kw in [dict(lr=0.0), dict(lr_decay_factor=1.0),
               dict(lr_decay_factor=0.0), dict(patience=0), dict(batch_size=1)]:
        with pytest.raises(ValueError):
            TrainConfig(**kw)


# -- loop mechanics --------------------------------------------------------

def test_lr_schedule_steps_at_configured_epochs():
    pipe = ProbePipeline()
    tc = TrainConfig(epochs=3, batch_size=4, lr=1e-3, lr_decay_epochs=(1, 2),
                     patience=10)
    hist = train(pipe, stub_splits(), tc, sigma2=0.1)
    lrs = [row[3] for row in hist.rows]
    np.testing.assert_allclose(lrs, [1e-3, 3e-4, 9e-5])


def test_early_stopping_on_flat_validation():
    pipe = ProbePipeline()
    tc = TrainConfig(epochs=50, batch_size=4, patience=2)
    hist = train(pipe, stub_splits(), tc, sigma2=0.1)
    # epoch 0 sets the best; two stale epochs then stop
    assert hist.stopped_early
    assert hist.best_epoch == 0
    assert len(hist.rows) == 3


def test_fresh_noise_flag_controls_per_epoch_redraw():
    for fresh, same in [(True, False), (False, True)]:
        pipe = ProbePipeline()
        tc = TrainConfig(epochs=2, batch_size=4, patience=10, fresh_noise=fresh)
        train(pipe, stub_splits(), tc, sigma2=0.1)
        # one train batch and one validation batch per epoch
        epoch_train_draws = pipe.draws[0], pipe.draws[2]
        assert (epoch_train_draws[0] == epoch_train_draws[1]) is same
        # validation noise comes from its own fixed stream either way
        assert pipe.draws[1] == pipe.draws[3]


def test_nonfinite_loss_aborts_cleanly():
    pipe = NanPipeline()
    tc = TrainConfig(epochs=5, batch_size=4, patience=10)
    hist = train(pipe, stub_splits(), tc, sigma2=0.1)
    assert hist.aborted and "non-finite" in hist.aborted
    assert hist.rows == []


@pytest.mark.parametrize("split,name", [("train", "training"), ("val", "validation")])
def test_non_finite_split_sample_raises_before_any_step(split, name, monkeypatch):
    splits = stub_splits(n_train=64, n_val=64)
    getattr(splits, split).h[5, 0, 1, 0] = np.nan
    pipe = ProbePipeline()
    steps = []
    monkeypatch.setattr(Adam, "step", lambda opt: steps.append(opt))
    with pytest.raises(ValueError, match=f"^{name} split sample 5 has a non-finite entry$"):
        train(pipe, splits, TrainConfig(epochs=1, batch_size=8), sigma2=0.1)
    assert steps == [] and pipe.draws == []


def test_training_restores_best_validation_state():
    cfg = tiny_cfg()
    splits = gen_splits(cfg, 8, 4, 2, seed=2)
    pipe = build_pipeline("fdd", cfg, SPEC, np.random.default_rng(1))
    tc = TrainConfig(epochs=4, batch_size=4, lr=5e-2, patience=10, seed=2)
    hist = train(pipe, splits, tc, sigma2=0.25)
    assert hist.best_epoch >= 0
    got = evaluate_rate(pipe, splits.val.h, 0.25, seed=2)
    assert got == pytest.approx(hist.best_val_rate, abs=1e-12)


def test_training_is_bitwise_reproducible():
    cfg = tiny_cfg()
    splits = gen_splits(cfg, 6, 4, 2, seed=3)
    tc = TrainConfig(epochs=2, batch_size=3, patience=10, seed=3)
    runs = []
    for _ in range(2):
        pipe = build_pipeline("tdd", cfg, SPEC, np.random.default_rng(7))
        hist = train(pipe, splits, tc, sigma2=0.2)
        runs.append((pipe.state_dict(), [r[:4] for r in hist.rows]))
    assert runs[0][1] == runs[1][1]
    for name in runs[0][0]:
        np.testing.assert_array_equal(runs[0][0][name], runs[1][0][name])


def test_evaluate_rate_is_seed_deterministic():
    cfg = tiny_cfg()
    splits = gen_splits(cfg, 2, 4, 2, seed=4)
    pipe = build_pipeline("fdd", cfg, SPEC, np.random.default_rng(2))
    a = evaluate_rate(pipe, splits.val.h, 0.3, seed=0)
    b = evaluate_rate(pipe, splits.val.h, 0.3, seed=0)
    c = evaluate_rate(pipe, splits.val.h, 0.3, seed=8)
    assert a == b
    assert a != c


# -- transfer to quantized phases ------------------------------------------

def test_quantized_variant_accepts_continuous_state():
    from dataclasses import replace
    cfg = tiny_cfg()
    pipe = build_pipeline("tdd", cfg, SPEC, np.random.default_rng(5))
    twin = build_pipeline("tdd", replace(cfg, phase_bits=3), SPEC,
                          np.random.default_rng(99))
    twin.load_state_dict(pipe.state_dict())
    for (na, pa), (nb, pb) in zip(pipe.named_parameters(), twin.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.values, pb.values)


def test_finetune_reduces_lr_and_shortens_schedule():
    cfg = tiny_cfg()
    splits = gen_splits(cfg, 6, 4, 2, seed=6)
    pipe = build_pipeline("tdd", cfg, SPEC, np.random.default_rng(3))
    tc = TrainConfig(epochs=4, batch_size=3, lr=2e-3, patience=10, seed=6)
    tuned, hist = finetune_quantized(pipe, 2, splits, tc, sigma2=0.2)
    assert tuned.cfg.phase_bits == 2
    assert pipe.cfg.phase_bits == 0
    assert len(hist.rows) <= 1
    assert hist.rows[0][3] == pytest.approx(2e-4)
    with pytest.raises(ValueError):
        finetune_quantized(pipe, 0, splits, tc)
