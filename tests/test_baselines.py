"""Classical-scheme contracts: sparse recovery, quantizers, beamformers."""
import numpy as np
import pytest

from airbeam.airlink import sum_rate_np
from airbeam.baselines import (
    AngleDelayDictionary,
    PathParameterQuantizer,
    extract_path_params,
    limited_feedback_rebuild,
    lloyd_max,
    pca_hb,
    quantize_scalar,
    ss_hb,
    sw_omp_estimate,
    tdd_noise_cov,
    zf_fully_digital,
)
from airbeam.channel import PathSet, SystemConfig, channel_matrix

from helpers import array_response, nmse_db, validate_hybrid

RNG = np.random.default_rng(23)


def cfg16(**kw):
    base = dict(ny=4, nz=4, nc=8, k_users=2, q_pilots=2, pt=8.0)
    base.update(kw)
    return SystemConfig(**base)


def random_sensing(rows, m, rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=(rows, m))) / np.sqrt(m)


def grid_paths(dictionary, cols, delay_idx, gains):
    ang = dictionary.angles[list(cols)]
    return PathSet(gain=np.asarray(gains, dtype=complex),
                   azimuth=ang[:, 0].copy(), zenith=ang[:, 1].copy(),
                   delay=dictionary.tau_grid[list(delay_idx)].copy())


# -- dictionary ------------------------------------------------------------

def test_dictionary_columns_are_unit_norm_steering_vectors():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=6, g_ze=5)
    assert d.atoms.shape == (16, 30)
    np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(d.steering), 1.0, atol=1e-12)
    # column g indexes azimuth-major cell centers; check one against the
    # direct steering construction
    g = 2 * 5 + 3
    az, ze = d.angles[g]
    want = array_response(az, ze, cfg.ny, cfg.nz) / 4.0
    np.testing.assert_allclose(d.atoms[:, g], want, atol=1e-12)
    # combined angle-delay columns keep unit norm
    col = np.kron(d.atoms[:, g], d.delay_phasors[2] / np.sqrt(cfg.nc))
    assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
    assert d.tau_grid[0] == 0.0
    assert d.tau_grid[-1] < cfg.delay_spread_s


# -- sparse recovery -------------------------------------------------------

def test_swomp_recovers_on_grid_two_path_channel_exactly():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=16, g_ze=16)
    cols = [3 * 16 + 7, 10 * 16 + 2]
    paths = grid_paths(d, cols, [4, 1], [1.0 + 0.5j, -0.7 + 0.2j])
    h = channel_matrix(paths, cfg)
    # neighbor atoms on this grid are ~0.99 coherent, so two-path support
    # identification needs the measurement to keep full column rank
    sensing = random_sensing(32, 16, np.random.default_rng(0))
    est = sw_omp_estimate(sensing @ h, sensing, d, max_paths=2)
    assert sorted(est.support) == sorted(cols)
    assert nmse_db(est.h, h) <= -50.0


def test_swomp_zero_measurement_gives_empty_estimate():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=4, g_ze=4)
    sensing = random_sensing(4, 16, np.random.default_rng(1))
    est = sw_omp_estimate(np.zeros((4, cfg.nc)), sensing, d, max_paths=3)
    assert est.support == []
    assert np.all(est.h == 0)


def test_swomp_off_grid_error_shrinks_with_grid_refinement():
    cfg = cfg16(k_users=1)
    # angle on a 32-grid cell edge: every refinement halves the miss
    az = -np.pi / 2 + 5 * np.pi / 32
    ze = -np.pi / 2 + 20 * np.pi / 32
    paths = PathSet(gain=np.array([1.0 + 0.3j]), azimuth=np.array([az]),
                    zenith=np.array([ze]), delay=np.array([0.0]))
    h = channel_matrix(paths, cfg)
    sensing = random_sensing(16, 16, np.random.default_rng(2))
    errs = []
    for g in [32, 64, 128]:
        d = AngleDelayDictionary.build(cfg, g_az=g, g_ze=g)
        est = sw_omp_estimate(sensing @ h, sensing, d, max_paths=1)
        errs.append(nmse_db(est.h, h))
    assert errs[0] > errs[1] > errs[2]


def test_swomp_whitening_keeps_exact_recovery():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=16, g_ze=16)
    paths = grid_paths(d, [5 * 16 + 5], [3], [0.8 - 0.6j])
    h = channel_matrix(paths, cfg)
    w = random_sensing(4, 16, np.random.default_rng(3))
    cov = tdd_noise_cov(w)
    est = sw_omp_estimate(w @ h, w, d, max_paths=1, noise_cov=cov)
    assert est.support == [5 * 16 + 5]
    assert nmse_db(est.h, h) <= -50.0


def test_swomp_row_mismatch_error():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=4, g_ze=4)
    with pytest.raises(ValueError):
        sw_omp_estimate(np.zeros((3, cfg.nc)), np.zeros((4, 16)), d, max_paths=1)


def test_extracted_parameters_match_generating_paths():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=16, g_ze=16)
    cols = [2 * 16 + 9, 14 * 16 + 4]
    paths = grid_paths(d, cols, [5, 2], [0.9 + 0.1j, 0.3 - 1.1j])
    h = channel_matrix(paths, cfg)
    sensing = random_sensing(8, 16, np.random.default_rng(4))
    est = sw_omp_estimate(sensing @ h, sensing, d, max_paths=2)
    got = extract_path_params(est, d, cfg)
    order = np.argsort(got.azimuth)
    want_order = np.argsort(paths.azimuth)
    np.testing.assert_allclose(got.azimuth[order], paths.azimuth[want_order], atol=1e-12)
    np.testing.assert_allclose(got.zenith[order], paths.zenith[want_order], atol=1e-12)
    np.testing.assert_allclose(got.delay[order], paths.delay[want_order], atol=1e-12)
    np.testing.assert_allclose(got.gain[order], paths.gain[want_order], atol=1e-10)
    rebuilt, _ = limited_feedback_rebuild(sensing @ h, sensing, d, cfg, max_paths=2)
    np.testing.assert_allclose(rebuilt, h, atol=1e-10)


def test_extract_rejects_empty_support():
    cfg = cfg16()
    d = AngleDelayDictionary.build(cfg, g_az=4, g_ze=4)
    est = sw_omp_estimate(np.zeros((4, cfg.nc)),
                          random_sensing(4, 16, np.random.default_rng(5)),
                          d, max_paths=1)
    with pytest.raises(ValueError):
        extract_path_params(est, d, cfg)


# -- scalar quantization ---------------------------------------------------

def test_lloyd_uniform_one_bit_fixed_point():
    samples = np.random.default_rng(6).uniform(0, 1, 4096)
    levels = lloyd_max(samples, 1)
    np.testing.assert_allclose(levels, [0.25, 0.75], atol=0.02)


def test_lloyd_two_point_set_and_zero_bits():
    levels = lloyd_max(np.array([0.2, 0.9, 0.2, 0.9]), 1)
    np.testing.assert_allclose(levels, [0.2, 0.9], atol=1e-12)
    np.testing.assert_allclose(lloyd_max(np.array([1.0, 3.0]), 0), [2.0])
    with pytest.raises(ValueError):
        lloyd_max(np.array([1.0]), -1)


def test_lloyd_mse_non_increasing_in_bits():
    samples = np.random.default_rng(7).normal(0, 1, 4096)
    prev = np.inf
    for bits in range(1, 7):
        levels = lloyd_max(samples, bits)
        assert levels.size == 2 ** bits
        mse = np.mean((samples - quantize_scalar(samples, levels)) ** 2)
        assert mse <= prev + 1e-12
        prev = mse


def test_lloyd_is_deterministic():
    samples = np.random.default_rng(8).normal(0, 1, 512)
    np.testing.assert_array_equal(lloyd_max(samples, 3), lloyd_max(samples, 3))


def test_quantizer_even_allocation_and_shortfall():
    cfg = cfg16()
    q = PathParameterQuantizer.train(cfg, lp=2, total_bits=30)
    assert np.all(q.alloc == 3)
    with pytest.warns(UserWarning, match="below one bit"):
        q = PathParameterQuantizer.train(cfg, lp=2, total_bits=7)
    assert q.alloc.sum() == 7
    assert np.all(q.alloc.reshape(-1)[:7] == 1) and np.all(q.alloc.reshape(-1)[7:] == 0)


def test_quantizer_snaps_to_codebook_levels():
    cfg = cfg16()
    q = PathParameterQuantizer.train(cfg, lp=2, total_bits=20)
    paths = PathSet(gain=np.array([0.3 + 0.4j, -1.2 - 0.1j]),
                    azimuth=np.array([0.3, -0.8]), zenith=np.array([1.0, 0.2]),
                    delay=np.array([1e-7, 3e-7]))
    snapped = q.quantize_paths(paths)
    for i in range(2):
        assert snapped.gain[i].real in q.codebooks[("re_gain", 2)]
        assert snapped.gain[i].imag in q.codebooks[("im_gain", 2)]
        assert snapped.azimuth[i] in q.codebooks[("azimuth", 2)]
        assert snapped.delay[i] in q.codebooks[("delay", 2)]
    with pytest.raises(ValueError):
        q.quantize_paths(PathSet(gain=np.ones(3, dtype=complex),
                                 azimuth=np.zeros(3), zenith=np.zeros(3),
                                 delay=np.zeros(3)))


def test_limited_feedback_nmse_improves_with_budget():
    cfg = cfg16(ny=2, nz=2)
    d = AngleDelayDictionary.build(cfg, g_az=8, g_ze=8)
    rng = np.random.default_rng(9)
    draws = []
    for _ in range(20):
        cols = rng.choice(64, size=2, replace=False)
        delays = rng.integers(0, cfg.nc, size=2)
        gains = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
        paths = grid_paths(d, cols, delays, gains)
        h = channel_matrix(paths, cfg)
        sensing = random_sensing(4, 4, rng)
        draws.append((sensing @ h, sensing, h))
    mean_err = []
    for budget in [10, 20, 40, 80]:
        q = PathParameterQuantizer.train(cfg, lp=2, total_bits=budget)
        errs = []
        for y, s, h in draws:
            rebuilt, _ = limited_feedback_rebuild(y, s, d, cfg, max_paths=2,
                                                  quantizer=q)
            errs.append(np.linalg.norm(rebuilt - h) ** 2 / np.linalg.norm(h) ** 2)
        mean_err.append(np.mean(errs))
    assert mean_err[0] > mean_err[1] > mean_err[2] > mean_err[3]


# -- beamformers -----------------------------------------------------------

def random_channel(cfg, lp, rng):
    users = []
    h = np.empty((cfg.k_users, cfg.m_antennas, cfg.nc), dtype=complex)
    for k in range(cfg.k_users):
        paths = PathSet(
            gain=(rng.standard_normal(lp) + 1j * rng.standard_normal(lp)) / np.sqrt(2),
            azimuth=rng.uniform(-np.pi / 2, np.pi / 2, lp),
            zenith=rng.uniform(-np.pi / 2, np.pi / 2, lp),
            delay=rng.uniform(0, cfg.delay_spread_s, lp))
        h[k] = channel_matrix(paths, cfg)
        users.append(paths)
    return h, users


def test_zf_single_user_closed_form():
    cfg = cfg16(k_users=1)
    h, _ = random_channel(cfg, 2, np.random.default_rng(10))
    sigma2 = 0.4
    eff = zf_fully_digital(h, cfg.pt, sigma2)
    got = sum_rate_np(h, eff, sigma2)
    want = np.mean([np.log2(1 + cfg.pt * np.linalg.norm(h[0, :, n]) ** 2
                            / (cfg.nc * sigma2)) for n in range(cfg.nc)])
    assert got == pytest.approx(want, rel=1e-12)


def test_zf_nulls_cross_user_interference():
    cfg = cfg16(k_users=3)
    h, _ = random_channel(cfg, 3, np.random.default_rng(11))
    eff = zf_fully_digital(h, cfg.pt, 0.1)
    for n in range(cfg.nc):
        gains = np.abs(h[:, :, n].conj() @ eff[n]) ** 2
        direct = np.diag(gains)
        cross = gains - np.diag(direct)
        assert cross.max() <= 1e-12 * direct.min()
    with pytest.raises(ValueError):
        zf_fully_digital(np.zeros((17, 16, 2), dtype=complex), 1.0, 0.1)


def test_pca_single_path_matches_steering_phases():
    cfg = cfg16(k_users=1)
    az, ze = 0.4, -0.7
    paths = PathSet(gain=np.array([1.2 - 0.3j]), azimuth=np.array([az]),
                    zenith=np.array([ze]), delay=np.array([2.0e-7]))
    h = channel_matrix(paths, cfg)[None]
    hb = pca_hb(h, cfg.pt, 0.1)
    validate_hybrid(hb, cfg.pt, cfg.nc)
    want = array_response(az, ze, cfg.ny, cfg.nz)
    np.testing.assert_allclose(hb.f_rf[:, 0], np.exp(1j * np.angle(want)),
                               atol=1e-9)


def test_pca_zero_channel_falls_back_to_flat_phases():
    cfg = cfg16(k_users=2)
    h, _ = random_channel(cfg, 2, np.random.default_rng(12))
    h[1] = 0
    with pytest.warns(UserWarning, match="zero channel"):
        hb = pca_hb(h, cfg.pt, 0.1)
    np.testing.assert_array_equal(hb.f_rf[:, 1], np.ones(16))


def test_pca_zero_forces_effective_interference():
    cfg = cfg16(k_users=2)
    h, _ = random_channel(cfg, 4, np.random.default_rng(13))
    hb = pca_hb(h, cfg.pt, 0.1)
    validate_hybrid(hb, cfg.pt, cfg.nc)
    eff = hb.effective()
    for n in range(cfg.nc):
        gains = np.abs(h[:, :, n].conj() @ eff[n]) ** 2
        direct = np.diag(gains).min()
        cross = (gains - np.diag(np.diag(gains))).max()
        assert cross <= 1e-9 * direct


def test_ss_hb_single_path_selects_true_atom():
    cfg = cfg16(k_users=1)
    d = AngleDelayDictionary.build(cfg, g_az=16, g_ze=16)
    col = 6 * 16 + 11
    paths = grid_paths(d, [col], [2], [1.0 + 0.2j])
    h = channel_matrix(paths, cfg)[None]
    hb = ss_hb(h, d, cfg.pt, 0.1)
    validate_hybrid(hb, cfg.pt, cfg.nc)
    np.testing.assert_allclose(hb.f_rf[:, 0], d.steering[:, col], atol=1e-12)


def test_ss_hb_requires_enough_atoms():
    cfg = cfg16(k_users=2)
    d = AngleDelayDictionary.build(cfg, g_az=1, g_ze=1)
    h, _ = random_channel(cfg, 2, np.random.default_rng(14))
    with pytest.raises(ValueError):
        ss_hb(h, d, cfg.pt, 0.1)


def test_ss_hb_tracks_zf_for_single_user():
    cfg = cfg16(k_users=1)
    d = AngleDelayDictionary.build(cfg, g_az=64, g_ze=64)
    sigma2 = 0.1
    for seed in range(5):
        h, _ = random_channel(cfg, 1, np.random.default_rng(100 + seed))
        zf_rate = sum_rate_np(h, zf_fully_digital(h, cfg.pt, sigma2), sigma2)
        hb = ss_hb(h, d, cfg.pt, sigma2)
        ss_rate = sum_rate_np(h, hb.effective(), sigma2)
        assert ss_rate >= 0.85 * zf_rate


def test_fully_digital_dominates_hybrids():
    cfg = cfg16(k_users=2)
    d = AngleDelayDictionary.build(cfg, g_az=32, g_ze=32)
    sigma2 = 0.2
    for seed in range(10):
        h, _ = random_channel(cfg, 2, np.random.default_rng(200 + seed))
        zf_rate = sum_rate_np(h, zf_fully_digital(h, cfg.pt, sigma2), sigma2)
        for hb in [pca_hb(h, cfg.pt, sigma2), ss_hb(h, d, cfg.pt, sigma2)]:
            assert sum_rate_np(h, hb.effective(), sigma2) <= zf_rate
