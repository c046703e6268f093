"""Channel generator contracts: steering vectors, path synthesis, noise,
statistics, and the delay-domain transform."""
import numpy as np
import pytest

from airbeam.channel import (ChannelRealization, PathSet, SystemConfig,
                             awgn, channel_matrix, dft_matrix, draw_cluster,
                             draw_multipath, gen_channel, sigma_from_snr)

from helpers import array_response, channel_matrix_loop, dft_delay_transform


def direct_channel_oracle(paths, cfg):
    """Literal per-element evaluation of the synthesis formula."""
    m = cfg.m_antennas
    h = np.zeros((m, cfg.nc), dtype=complex)
    for n in range(cfg.nc):
        for l in range(len(paths.gain)):
            for idx in range(m):
                ny_idx = idx % cfg.ny
                nz_idx = idx // cfg.ny
                phase = np.pi * (ny_idx * np.sin(paths.azimuth[l]) * np.cos(paths.zenith[l])
                                 + nz_idx * np.sin(paths.zenith[l]))
                a = np.exp(1j * phase)
                h[idx, n] += (paths.gain[l] * a
                              * np.exp(-2j * np.pi * n * paths.delay[l] / (cfg.nc * cfg.ts_s)))
    return h / np.sqrt(len(paths.gain))


def test_array_response_trivial_cases():
    assert np.allclose(array_response(0.0, 0.0, 3, 2), np.ones(6))
    assert np.allclose(array_response(np.pi / 2, 0.0, 2, 1), [1.0, -1.0])


def test_array_response_matches_formula_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        az, ze = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        got = array_response(az, ze, 8, 8)
        want = np.empty(64, dtype=complex)
        for idx in range(64):
            n, m = idx % 8, idx // 8
            want[idx] = np.exp(1j * np.pi * (n * np.sin(az) * np.cos(ze) + m * np.sin(ze)))
        assert np.allclose(got, want, atol=1e-12)


def test_single_path_zero_delay_columns():
    cfg = SystemConfig(ny=2, nz=2, nc=4, lp_min=1, lp_max=1)
    p = PathSet(gain=np.array([1.0 + 0j]), azimuth=np.array([0.4]),
                zenith=np.array([-0.2]), delay=np.array([0.0]))
    h = channel_matrix(p, cfg)
    a = array_response(0.4, -0.2, 2, 2)
    for n in range(4):
        assert np.allclose(h[:, n], a, atol=1e-14)


def test_single_path_on_grid_delay_phase():
    cfg = SystemConfig(ny=2, nz=1, nc=4, lp_min=1, lp_max=1)
    p = PathSet(gain=np.array([1.0 + 0j]), azimuth=np.array([0.0]),
                zenith=np.array([0.0]), delay=np.array([cfg.ts_s]))
    h = channel_matrix(p, cfg)
    for n in range(4):
        assert np.allclose(h[:, n], np.ones(2) * np.exp(-1j * np.pi * n / 2), atol=1e-14)


def test_channel_matches_direct_oracle():
    cfg = SystemConfig(ny=3, nz=2, nc=5, lp_min=3, lp_max=3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        real = gen_channel(cfg, rng)
        for k in range(cfg.k_users):
            want = direct_channel_oracle(real.paths[k], cfg)
            scale = np.abs(want).max()
            assert np.abs(real.h[k] - want).max() / scale < 1e-12


@pytest.mark.parametrize("system", [
    dict(),
    dict(ny=8, nz=8, nc=32, k_users=4),
    dict(lp_min=1, lp_max=8),
    dict(channel_kind="cluster"),
    dict(ny=3, nz=5, k_users=3, lp_min=1, lp_max=4),
    dict(ny=1, nz=1, nc=1, k_users=1, lp_min=1, lp_max=3),
], ids=["desk", "paper", "lp1-8", "cluster", "ny3-nz5-k3", "scalar"])
def test_synthesis_matches_per_path_loop_bitwise(system):
    cfg = SystemConfig(**system)
    draw = draw_multipath if cfg.channel_kind == "multipath" else draw_cluster
    rng = np.random.default_rng(9)
    for _ in range(20):
        real = gen_channel(cfg, rng)
        assert real.h.shape == (cfg.k_users, cfg.m_antennas, cfg.nc)
        for k, p in enumerate(real.paths):
            assert np.array_equal(real.h[k], channel_matrix_loop(p, cfg))
        p = draw(cfg, rng)
        assert np.array_equal(channel_matrix(p, cfg), channel_matrix_loop(p, cfg))


def test_mean_entry_power_multipath():
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=1, lp_min=2, lp_max=2)
    rng = np.random.default_rng(1)
    acc = 0.0
    n_draws = 10000
    for _ in range(n_draws):
        p = draw_multipath(cfg, rng)
        h = channel_matrix(p, cfg)
        acc += np.mean(np.abs(h) ** 2)
    assert acc / n_draws == pytest.approx(1.0, rel=0.05)


def test_mean_entry_power_cluster():
    cfg = SystemConfig(ny=2, nz=2, nc=4, k_users=1, channel_kind="cluster",
                       jc_clusters=4, jp_rays=10)
    rng = np.random.default_rng(2)
    acc = 0.0
    n_draws = 3000
    for _ in range(n_draws):
        p = draw_cluster(cfg, rng)
        assert len(p.gain) == 40
        acc += np.mean(np.abs(channel_matrix(p, cfg)) ** 2)
    assert acc / n_draws == pytest.approx(1.0, rel=0.05)


def test_cluster_degenerates_to_single_path():
    cfg = SystemConfig(ny=2, nz=2, nc=4, channel_kind="cluster", jc_clusters=1,
                       jp_rays=1, sigma_theta_rad=0.0, sigma_tau_s=1e-300)
    rng = np.random.default_rng(3)
    real = gen_channel(cfg, rng)
    p = real.paths[0]
    assert len(p.gain) == 1
    want = channel_matrix(PathSet(gain=p.gain, azimuth=p.azimuth,
                                  zenith=p.zenith, delay=p.delay), cfg)
    assert np.allclose(real.h[0], want, atol=1e-14)


def test_draw_supports():
    cfg = SystemConfig(nc=8, lp_min=1, lp_max=8)
    rng = np.random.default_rng(4)
    for _ in range(2000):
        p = draw_multipath(cfg, rng)
        assert 1 <= len(p.gain) <= 8
        assert np.all(np.abs(p.azimuth) < np.pi / 2)
        assert np.all(np.abs(p.zenith) < np.pi / 2)
        assert np.all(p.delay >= 0) and np.all(p.delay < cfg.nc * cfg.ts_s)
        assert np.all(p.delay < 0.25 * cfg.nc * cfg.ts_s)
    cfgc = SystemConfig(nc=8, channel_kind="cluster")
    for _ in range(500):
        p = draw_cluster(cfgc, rng)
        assert np.all(np.abs(p.azimuth) < np.pi / 2)
        assert np.all(np.abs(p.zenith) < np.pi / 2)
        assert np.all(p.delay >= 0) and np.all(p.delay < cfgc.nc * cfgc.ts_s)


def test_seeded_generation_reproducible():
    cfg = SystemConfig()
    a = gen_channel(cfg, np.random.default_rng(42))
    b = gen_channel(cfg, np.random.default_rng(42))
    assert np.array_equal(a.h, b.h)


def test_sigma_from_snr():
    cfg = SystemConfig(nc=8, pt=8.0, snr_db=0.0)
    assert sigma_from_snr(cfg) == pytest.approx(1.0)
    cfg = SystemConfig(nc=8, pt=8.0, snr_db=10.0)
    assert sigma_from_snr(cfg) == pytest.approx(0.1)
    cfg = SystemConfig(nc=8, pt=8.0, snr_db=10.0, snr_literal_sqrt=True)
    assert sigma_from_snr(cfg) == pytest.approx(0.01)


def test_awgn_zero_variance():
    rng = np.random.default_rng(0)
    z = awgn((4, 4), 0.0, rng)
    assert np.all(z == 0)


def test_awgn_statistics():
    rng = np.random.default_rng(1)
    z = awgn((1000, 1000), 0.37, rng)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(0.37, rel=0.01)
    corr = np.corrcoef(z.real.ravel(), z.imag.ravel())[0, 1]
    assert abs(corr) < 0.01


def test_dft_constant_column_and_unitarity():
    y = np.ones((8, 3), dtype=complex)
    out = dft_delay_transform(y)
    assert np.allclose(out[0], np.sqrt(8.0) * np.ones(3))
    assert np.allclose(out[1:], 0.0, atol=1e-12)
    rng = np.random.default_rng(2)
    y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    out = dft_delay_transform(y)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(y), abs=1e-10)
    back = np.conj(dft_matrix(8)).T @ out
    assert np.allclose(back, y, atol=1e-10)


def test_dft_on_grid_delay_concentrates():
    # Uplink convention conjugates the pilot block before the transform,
    # which is what parks an on-grid delay p*Ts in bin p.
    cfg = SystemConfig(ny=2, nz=2, nc=8)
    p_bin = 2
    path = PathSet(gain=np.array([1.0 + 0j]), azimuth=np.array([0.3]),
                   zenith=np.array([0.1]), delay=np.array([p_bin * cfg.ts_s]))
    h = channel_matrix(path, cfg)
    out = dft_delay_transform(np.conj(h).T)        # [Nc, M]
    energy = np.sum(np.abs(out) ** 2, axis=1)
    assert energy[p_bin] == pytest.approx(np.sum(energy), rel=1e-10)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="subcarrier"):
        SystemConfig(nc=0)
    with pytest.raises(ValueError, match="path-count"):
        SystemConfig(lp_min=3, lp_max=2)
    with pytest.raises(ValueError, match="channel_kind"):
        SystemConfig(channel_kind="rayleigh")
    with pytest.raises(ValueError, match="power"):
        SystemConfig(pt=0.0)


def test_pathset_validation():
    with pytest.raises(ValueError, match="length"):
        PathSet(gain=np.ones(2, complex), azimuth=np.zeros(1),
                zenith=np.zeros(2), delay=np.zeros(2))


def test_config_round_trip():
    cfg = SystemConfig(ny=3, snr_db=5.0, channel_kind="cluster")
    assert SystemConfig.from_dict(cfg.to_dict()) == cfg
