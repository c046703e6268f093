"""End-to-end acceptance suite, one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the one-line verdicts;
the two training criteria dominate the runtime (several minutes on CPU).
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from airbeam.airlink import (
    assemble_analog,
    downlink_pilot_symbols,
    normalize_digital,
    sum_rate,
    sum_rate_np,
    uplink_pilot_combiner,
)
from airbeam.autodiff import Tensor, cap_scale, concat, log2, mish, straight_through
from airbeam.baselines import (
    AngleDelayDictionary,
    nmse_db,
    pca_hb,
    ss_hb,
    sw_omp_estimate,
    tdd_noise_cov,
    zf_fully_digital,
)
from airbeam.channel import (
    PathSet,
    SystemConfig,
    channel_matrix,
    gen_channel,
    sigma_from_snr,
)
from airbeam.cplx import as_pair
from airbeam.experiment import classical_rates, parse_config, run_experiment
from airbeam.layers import BatchNorm, Conv1d, Dense
from airbeam.networks import NetworkSpec, build_pipeline
from airbeam.training import (
    STREAM_INIT,
    STREAM_TEST,
    TrainConfig,
    evaluate_rate,
    finetune_quantized,
    gen_dataset,
    gen_splits,
    stream_rng,
    train,
)

from helpers import check_grads


def verdict(num, title, ok, detail):
    print(f"\n[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


TINY_SPEC = NetworkSpec(
    user_widths=(8, 8, 8), fusion_widths=(12, 8, 8),
    encoder_widths=(8, 8), decoder_widths=(12, 8, 8),
    res_c1=3, res_c2=4)

DESK = dict(ny=4, nz=4, nc=8, k_users=2, q_pilots=4, pt=8.0, snr_db=10.0)


# -- criterion 1: gradient correctness --------------------------------------

def _op_cases():
    rng = np.random.default_rng(10)

    def t(*shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    a, b = t(3, 4), t(4)
    yield "add-broadcast", [a, b], lambda: ((a + b) * 2.0 + 0.5).sum()
    a, b = t(3, 4), t(3, 4)
    yield "sub-neg", [a, b], lambda: (a - b + (-a)).sum()
    a, b = t(3, 4), t(4)
    yield "mul-broadcast", [a, b], lambda: (a * b).sum()
    a, b = t(3, 4), t(3, 4, lo=2.0, hi=3.0)
    yield "div", [a, b], lambda: (a / b).sum()
    b = t(3, 4, lo=2.0, hi=3.0)
    yield "rdiv", [b], lambda: (2.0 / b).sum()
    a, b = t(3, 4), t(4, 2)
    yield "matmul", [a, b], lambda: (a @ b).sum()
    a, b = t(2, 3, 4), t(2, 4, 2)
    yield "matmul-batched", [a, b], lambda: ((a @ b) * (a @ b)).sum()
    a = t(2, 3, 4)
    yield "reshape", [a], lambda: (a.reshape(6, 4) @ a.reshape(4, 6)).sum()
    a = t(2, 3, 4)
    yield "transpose", [a], lambda: (a.transpose((2, 0, 1)) * 1.5).sum()
    a = t(2, 3, 4)
    yield "swapaxes", [a], lambda: (a.swapaxes(1, 2) * a.swapaxes(1, 2)).sum()
    a = t(4, 6)
    yield "getitem", [a], lambda: (a[1:3, ::2] * 3.0).sum()
    a = t(3, 4, 5)
    yield "sum-axis", [a], lambda: (a.sum(axis=(0, 2)) * a.sum(axis=(0, 2))).sum()
    a = t(3, 4)
    yield "mean", [a], lambda: (a.mean(axis=1) * 2.0).sum()
    a = t(3, 4)
    yield "exp", [a], lambda: a.exp().sum()
    a = t(3, 4, lo=0.5, hi=2.0)
    yield "log", [a], lambda: a.log().sum()
    a = t(3, 4, lo=0.5, hi=2.0)
    yield "sqrt", [a], lambda: a.sqrt().sum()
    a = t(3, 4)
    yield "tanh", [a], lambda: a.tanh().sum()
    a = t(3, 4)
    yield "sigmoid", [a], lambda: a.sigmoid().sum()
    a = t(3, 4, lo=-3.0, hi=3.0)
    yield "softplus", [a], lambda: a.softplus().sum()
    a = t(3, 4)
    yield "sin-cos", [a], lambda: (a.sin() * a.cos()).sum()
    a, b = t(2, 3), t(2, 5)
    yield "concat", [a, b], lambda: (concat([a, b], axis=1)
                                     * concat([a, b], axis=1)).sum()
    a = t(3, 4, lo=0.5, hi=2.0)
    yield "log2", [a], lambda: log2(a).sum()
    a = t(3, 4, lo=-3.0, hi=3.0)
    yield "mish", [a], lambda: mish(a).sum()
    a = t(5, lo=2.0, hi=4.0)
    yield "cap-scale-over", [a], lambda: (cap_scale(a, 1.0) * a).sum()
    a = t(5, lo=0.1, hi=0.4)
    yield "cap-scale-under", [a], lambda: (cap_scale(a, 1.0) * a).sum()

    dense = Dense(4, 3, np.random.default_rng(11))
    x = t(5, 4)
    yield "dense", [x, dense.w, dense.b], lambda: (dense(x) * dense(x)).sum()
    conv = Conv1d(3, 2, np.random.default_rng(12))
    xc = t(2, 3, 1, 6)
    yield "conv1d", [xc, conv.w, conv.b], lambda: (conv(xc) * conv(xc)).sum()
    bn = BatchNorm(3)
    xb = t(6, 3, 1, 4)
    yield "batchnorm", [xb, bn.gamma, bn.beta], lambda: (bn(xb) * bn(xb)).sum()
    bn_eval = BatchNorm(3)
    bn_eval.gamma.values = rng.uniform(0.5, 1.5, 3)
    bn_eval.beta.values = rng.uniform(-0.5, 0.5, 3)
    bn_eval.running_mean = rng.uniform(-0.5, 0.5, 3)
    bn_eval.running_var = rng.uniform(0.5, 2.0, 3)
    bn_eval.set_training(False)
    xe = t(4, 3, 1, 5)
    yield "batchnorm-eval", [xe, bn_eval.gamma, bn_eval.beta], \
        lambda: (bn_eval(xe) * bn_eval(xe)).sum()
    conv3 = Conv1d(3, 2, np.random.default_rng(13), kernel=3)
    xk = t(2, 3, 1, 2)
    yield "conv1d-k3-len2", [xk, conv3.w, conv3.b], lambda: (conv3(xk) * conv3(xk)).sum()


def _tiny_cfg(**kw):
    base = dict(ny=2, nz=2, nc=2, k_users=1, q_pilots=1, pt=2.0,
                snr_db=10.0, feedback_bits=4)
    base.update(kw)
    return SystemConfig(**base)


def test_criterion_1_gradient_correctness():
    tic = time.perf_counter()
    worst_op = 0.0
    bad = []
    for name, params, build in _op_cases():
        try:
            err = check_grads(build, params, rtol=1e-4, h=1e-6)
        except AssertionError:
            bad.append(name)
            continue
        worst_op = max(worst_op, err)

    # straight-through: backward identical to the quantizer-free graph
    base = np.random.default_rng(14).normal(size=(3, 4))
    readout = np.random.default_rng(15).normal(size=(3, 4))
    x1 = Tensor(base.copy(), requires_grad=True)
    (straight_through(x1, np.round) * readout).sum().backward()
    x2 = Tensor(base.copy(), requires_grad=True)
    (x2 * readout).sum().backward()
    if not np.allclose(x1.grad, x2.grad, atol=1e-15):
        bad.append("straight-through")

    worst_graph = 0.0
    cfg = _tiny_cfg()
    for mode in ("tdd", "fdd"):
        pipe = build_pipeline(mode, cfg, TINY_SPEC,
                              rng=np.random.default_rng(16))
        h = gen_dataset(cfg, 2, 17, STREAM_TEST).h
        sigma2 = sigma_from_snr(cfg)

        def build():
            rng = stream_rng(18, 0)
            return -pipe.rates(h, sigma2, rng, soft=True).mean()

        params = [p for _, p in pipe.named_parameters()]
        try:
            err = check_grads(build, params, rtol=1e-3, h=1e-6)
        except AssertionError:
            bad.append(f"{mode}-graph")
            continue
        worst_graph = max(worst_graph, err)
    wall = time.perf_counter() - tic
    ok = not bad and wall < 60.0
    verdict(1, "gradient correctness", ok,
            f"per-op {worst_op:.2e} <= 1e-4, graphs {worst_graph:.2e} <= 1e-3, "
            f"{wall:.1f}s" + (f"; failed: {bad}" if bad else ""))


# -- criterion 2: constraint invariants -------------------------------------

def test_criterion_2_constraint_invariants():
    rng = np.random.default_rng(20)
    n, m, k, nc, pt = 10000, 8, 2, 4, 6.5
    theta = Tensor(rng.uniform(-12.0, 12.0, (n, m, k)))
    f_rf = assemble_analog(theta)
    dev_rf = np.abs(np.abs(f_rf.numpy()) - 1.0).max()

    phi = Tensor(rng.uniform(-12.0, 12.0, (n, m)))
    w = uplink_pilot_combiner(phi, m)
    dev_w = np.abs(np.abs(w.numpy()) - np.sqrt(1.0 / m)).max()

    x = downlink_pilot_symbols(Tensor(rng.uniform(-12.0, 12.0, (n, m))), pt, m, nc)
    dev_x = np.abs(np.abs(x.numpy()) - np.sqrt(pt / (m * nc))).max()

    scale = rng.uniform(0.01, 3.0, (n, 1, 1, 1))
    raw = as_pair(scale * (rng.normal(size=(n, nc, k, k))
                           + 1j * rng.normal(size=(n, nc, k, k))))
    f_bb = normalize_digital(f_rf, raw, pt, nc)
    eff = np.einsum("bmk,bnkj->bnmj", f_rf.numpy(), f_bb.numpy())
    norms = np.linalg.norm(eff, axis=(2, 3))
    over = norms.max() - np.sqrt(pt / nc)

    ok = dev_rf <= 1e-9 and dev_w <= 1e-9 and dev_x <= 1e-9 and over <= 1e-9
    verdict(2, "constraint invariants", ok,
            f"|F_RF| dev {dev_rf:.1e}, combiner dev {dev_w:.1e}, "
            f"pilot dev {dev_x:.1e}, power excess {over:.1e}, n={n}")


# -- criterion 3: rate oracle ----------------------------------------------

def _rate_loop(h, eff, sigma2):
    k, m, nc = h.shape
    total = 0.0
    for n in range(nc):
        for u in range(k):
            hv = h[u, :, n]
            sig = abs(np.vdot(hv, eff[n][:, u])) ** 2
            interf = sum(abs(np.vdot(hv, eff[n][:, j])) ** 2
                         for j in range(k) if j != u)
            total += math.log2(1.0 + sig / (interf + sigma2))
    return total / nc


def test_criterion_3_rate_oracle():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 9))
        m = int(rng.integers(k, 17))
        h = rng.normal(size=(k, m, nc)) + 1j * rng.normal(size=(k, m, nc))
        f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (m, k)))
        f_bb = 0.3 * (rng.normal(size=(nc, k, k)) + 1j * rng.normal(size=(nc, k, k)))
        sigma2 = float(10.0 ** rng.uniform(-2, 1))
        eff = f_rf[None] @ f_bb
        want = _rate_loop(h, eff, sigma2)
        got_np = sum_rate_np(h, eff, sigma2)
        got_t = sum_rate(h, as_pair(f_rf), as_pair(f_bb), sigma2).item()
        worst = max(worst, abs(got_np - want) / abs(want),
                    abs(got_t - want) / abs(want))
    verdict(3, "rate oracle", worst <= 1e-12,
            f"1000 instances, worst rel err {worst:.2e}")


# -- criterion 4: compressed sensing sanity ---------------------------------

def _draw_grid_support(rng, d, lp, g_az, g_ze):
    """On-grid columns away from the zenith extremes where neighboring
    atoms become numerically identical, kept pairwise incoherent."""
    while True:
        i_az = rng.integers(0, g_az, lp)
        i_ze = rng.integers(3, g_ze - 3, lp)
        cols = sorted(set(int(a) * g_ze + int(z) for a, z in zip(i_az, i_ze)))
        if len(cols) < lp:
            continue
        sub = d.atoms[:, cols]
        gram = np.abs(sub.conj().T @ sub)
        np.fill_diagonal(gram, 0.0)
        if lp == 1 or gram.max() <= 0.9:
            return cols


def test_criterion_4_swomp_sanity():
    cfg = SystemConfig(**DESK)
    g = 16
    d = AngleDelayDictionary.build(cfg, g, g)
    rng = np.random.default_rng(40)
    worst = -np.inf
    missed = 0
    for lp in (1, 2):
        for _ in range(5):
            cols = _draw_grid_support(rng, d, lp, g, g)
            ang = d.angles[cols]
            gains = ((0.5 + rng.uniform(0, 1, lp))
                     * np.exp(1j * rng.uniform(0, 2 * np.pi, lp)))
            paths = PathSet(gain=gains, azimuth=ang[:, 0], zenith=ang[:, 1],
                            delay=d.tau_grid[rng.integers(0, cfg.nc, lp)])
            h = channel_matrix(paths, cfg)
            sensing = np.exp(1j * rng.uniform(0, 2 * np.pi, (32, 16))) / 4.0
            est = sw_omp_estimate(sensing @ h, sensing, d, max_paths=lp)
            if sorted(int(s) for s in est.support) != cols:
                missed += 1
                continue
            worst = max(worst, nmse_db(est.h, h))

    cfg_m = replace(cfg, k_users=1)
    sensing = np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 16))) / 4.0
    chans = [gen_channel(cfg_m, stream_rng(41, 0, i)).h[0] for i in range(8)]
    means = []
    for grid in (32, 64, 128):
        dg = AngleDelayDictionary.build(cfg_m, grid, grid)
        means.append(np.mean([
            nmse_db(sw_omp_estimate(sensing @ h, sensing, dg, max_paths=2).h, h)
            for h in chans]))
    ok = missed == 0 and worst <= -50.0 and means[0] > means[1] > means[2]
    verdict(4, "compressed sensing sanity", ok,
            f"on-grid support {10 - missed}/10 exact, worst NMSE {worst:.0f} dB; "
            f"refinement {means[0]:.1f} > {means[1]:.1f} > {means[2]:.1f} dB")


# -- criterion 5: dominance ordering ----------------------------------------

def test_criterion_5_dominance_ordering():
    cfg = SystemConfig(**DESK)
    sigma2 = sigma_from_snr(cfg)
    pool = gen_dataset(cfg, 100, 50, STREAM_TEST).h
    d = AngleDelayDictionary.build(cfg, 8, 8)
    r_zf = np.empty(100)
    r_pca = np.empty(100)
    r_ss = np.empty(100)
    for i, h in enumerate(pool):
        r_zf[i] = sum_rate_np(h, zf_fully_digital(h, cfg.pt, sigma2), sigma2)
        r_pca[i] = sum_rate_np(h, pca_hb(h, cfg.pt, sigma2).effective(), sigma2)
        r_ss[i] = sum_rate_np(h, ss_hb(h, d, cfg.pt, sigma2).effective(), sigma2)
    zf_dominates = bool(np.all(r_zf >= r_pca - 1e-12)
                        and np.all(r_zf >= r_ss - 1e-12))

    rng_s = stream_rng(50, 7)
    w = np.exp(1j * rng_s.uniform(0, 2 * np.pi,
                                  (cfg.q_pilots * cfg.k_users, 16))) / 4.0
    cov = tdd_noise_cov(w)
    noise = stream_rng(50, 8)
    r_est = np.empty(100)
    for i, h in enumerate(pool):
        h_hat = np.empty_like(h)
        for j in range(cfg.k_users):
            z = (np.sqrt(sigma2 / 2)
                 * (noise.standard_normal((16, cfg.nc))
                    + 1j * noise.standard_normal((16, cfg.nc))))
            h_hat[j] = sw_omp_estimate(w @ (h[j] + z), w, d,
                                       max_paths=cfg.lp_max, noise_cov=cov).h
        r_est[i] = sum_rate_np(h, pca_hb(h_hat, cfg.pt, sigma2).effective(),
                               sigma2)
    ok = zf_dominates and r_pca.mean() >= r_est.mean()
    verdict(5, "dominance ordering", ok,
            f"ZF {r_zf.mean():.2f} >= PCA {r_pca.mean():.2f} and "
            f"SS {r_ss.mean():.2f} on all 100; "
            f"perfect PCA >= estimated {r_est.mean():.2f}")


# -- criteria 6 and 7: training smoke, quantized-phase transfer --------------

C6_CFG = SystemConfig(feedback_bits=20, **DESK)
C6_TC = TrainConfig(epochs=25, batch_size=1024, lr=1e-3,
                    lr_decay_epochs=(15, 20), patience=30,
                    n_train=20480, n_val=2048, n_test=2048, seed=0)


@pytest.fixture(scope="module")
def fdd_run():
    sigma2 = sigma_from_snr(C6_CFG)
    splits = gen_splits(C6_CFG, C6_TC.n_train, C6_TC.n_val, C6_TC.n_test,
                        C6_TC.seed)
    pipe = build_pipeline("fdd", C6_CFG, rng=stream_rng(C6_TC.seed, STREAM_INIT))
    untrained = evaluate_rate(pipe, splits.test.h, sigma2, C6_TC.seed)
    tic = time.perf_counter()
    hist = train(pipe, splits, C6_TC)
    wall = time.perf_counter() - tic
    trained = evaluate_rate(pipe, splits.test.h, sigma2, C6_TC.seed)
    return dict(pipe=pipe, splits=splits, sigma2=sigma2, hist=hist,
                untrained=untrained, trained=trained, wall=wall)


def test_criterion_6_training_smoke(fdd_run):
    r = fdd_run
    baseline = classical_rates("limited_feedback_pca", C6_CFG,
                               r["splits"].test.h, C6_TC.seed, 8, 8)
    ok = (not r["hist"].aborted and r["wall"] <= 3600.0
          and r["trained"] >= 1.5 * r["untrained"]
          and r["trained"] >= baseline)
    verdict(6, "training smoke", ok,
            f"trained {r['trained']:.3f} vs untrained {r['untrained']:.3f} "
            f"(x{r['trained'] / max(r['untrained'], 1e-12):.1f}) and baseline "
            f"{baseline:.3f}, {r['wall']:.0f}s")


def test_criterion_7_quantized_phase_transfer(fdd_run):
    r = fdd_run
    zero_shot_pipe = build_pipeline("fdd", replace(C6_CFG, phase_bits=3),
                                    rng=stream_rng(C6_TC.seed, STREAM_INIT))
    zero_shot_pipe.load_state_dict(r["pipe"].state_dict())
    zero_shot = evaluate_rate(zero_shot_pipe, r["splits"].test.h, r["sigma2"],
                              C6_TC.seed)
    tuned, hist_q = finetune_quantized(r["pipe"], 3, r["splits"], C6_TC)
    tuned_rate = evaluate_rate(tuned, r["splits"].test.h, r["sigma2"],
                               C6_TC.seed)
    ok = (not hist_q.aborted and tuned_rate > zero_shot
          and tuned_rate >= 0.85 * r["trained"])
    verdict(7, "quantized-phase transfer", ok,
            f"fine-tuned {tuned_rate:.3f} > zero-shot {zero_shot:.3f}, "
            f"{100 * tuned_rate / r['trained']:.1f}% of continuous "
            f"{r['trained']:.3f}")


# -- criterion 8: path-count generalization ---------------------------------

def test_criterion_8_path_count_generalization():
    cfg = SystemConfig(lp_min=1, lp_max=8, **DESK)
    tc = TrainConfig(epochs=12, batch_size=512, lr=1e-3, lr_decay_epochs=(8,),
                     patience=12, n_train=5120, n_val=512, n_test=512, seed=0)
    sigma2 = sigma_from_snr(cfg)
    splits = gen_splits(cfg, tc.n_train, tc.n_val, tc.n_test, tc.seed)
    pipe = build_pipeline("tdd", cfg, rng=stream_rng(tc.seed, STREAM_INIT))
    hist = train(pipe, splits, tc)
    rates = {}
    for lp in range(1, 9):
        pool = gen_dataset(replace(cfg, lp_min=lp, lp_max=lp), 256, tc.seed,
                           STREAM_TEST).h
        rates[lp] = evaluate_rate(pipe, pool, sigma2, tc.seed)
    ok = (not hist.aborted
          and all(np.isfinite(r) and r > 0 for r in rates.values())
          and rates[8] >= 0.5 * rates[2])
    verdict(8, "path-count generalization", ok,
            "rates " + " ".join(f"{rates[lp]:.2f}" for lp in range(1, 9))
            + f"; rate(8)/rate(2) = {rates[8] / rates[2]:.2f}")


# -- criterion 9: reproducibility -------------------------------------------

REPRO_CFG = """\
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
schemes = proposed_tdd, zf_bound, swomp_pca
n_eval = 16
out = {out}
"""


def test_criterion_9_reproducibility(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg_path = tmp_path / f"{sub}.cfg"
        (tmp_path / sub).mkdir()
        out = tmp_path / sub / "r.csv"
        cfg_path.write_text(REPRO_CFG.format(out=out))
        run_experiment(parse_config(cfg_path))
        outs.append(out)

    def strip_wall(path):
        return [ln.rsplit(",", 1)[0]
                for ln in path.read_text().strip().split("\n")]

    csv_same = strip_wall(outs[0]) == strip_wall(outs[1])
    ck_same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("ck_proposed_tdd.bin", "ck_proposed_tdd_final.bin"))
    verdict(9, "reproducibility", csv_same and ck_same,
            f"CSV identical minus wall clock: {csv_same}; "
            f"checkpoints bit-identical: {ck_same}")
