"""Wideband multi-user channel simulation for a UPA base station.

Frequency-domain channels over Nc subcarriers for K single-antenna users,
either independent sparse paths or clustered rays. All draws go through an
explicit numpy Generator; dataset-level seeding lives in training.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import lru_cache

import numpy as np


@dataclass
class SystemConfig:
    """Geometry, pilot and power settings shared by every component."""

    ny: int = 4                 # UPA elements along y
    nz: int = 4                 # UPA elements along z
    nc: int = 8                 # subcarriers
    k_users: int = 2
    q_pilots: int = 2           # pilot symbols (uplink frames or downlink soundings)
    pt: float = 8.0             # total transmit power across subcarriers
    snr_db: float = 10.0
    feedback_bits: int = 20     # per-user feedback budget B
    phase_bits: int = 0         # phase-shifter resolution; 0 = continuous
    lp_min: int = 2             # paths per user, inclusive range
    lp_max: int = 2
    ts_s: float = 1.0 / 20e6    # sampling interval (seconds)
    channel_kind: str = "multipath"   # "multipath" | "cluster"
    jc_clusters: int = 4
    jp_rays: int = 6
    sigma_theta_rad: float = np.deg2rad(7.5)
    sigma_tau_s: float = 1.0 / 20e6
    snr_literal_sqrt: bool = False    # alternate SNR reading, see sigma_from_snr
    seed: int = 0

    def __post_init__(self):
        if self.ny < 1 or self.nz < 1:
            raise ValueError(f"array size must be positive, got ny={self.ny} nz={self.nz}")
        if self.nc < 1:
            raise ValueError(f"need at least one subcarrier, got nc={self.nc}")
        if self.k_users < 1:
            raise ValueError(f"need at least one user, got k_users={self.k_users}")
        if self.q_pilots < 1:
            raise ValueError(f"need at least one pilot symbol, got q_pilots={self.q_pilots}")
        if not 0 < self.pt < np.inf:
            raise ValueError(f"transmit power must be positive and finite, got pt={self.pt}")
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if not (1 <= self.lp_min <= self.lp_max):
            raise ValueError(f"bad path-count range [{self.lp_min}, {self.lp_max}]")
        if not 0 < self.ts_s < np.inf:
            raise ValueError(f"sampling interval must be positive and finite, got ts_s={self.ts_s}")
        if self.channel_kind not in ("multipath", "cluster"):
            raise ValueError(f"unknown channel_kind '{self.channel_kind}'")
        if self.feedback_bits < 1:
            raise ValueError(f"feedback budget must be positive, got {self.feedback_bits}")
        if self.phase_bits < 0:
            raise ValueError(f"phase_bits must be >= 0, got {self.phase_bits}")

    @property
    def m_antennas(self):
        return self.ny * self.nz

    @property
    def delay_spread_s(self):
        # Path delays live in [0, Nc/4 * Ts): a quarter of the OFDM symbol.
        return 0.25 * self.nc * self.ts_s

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class PathSet:
    """Per-user path parameters: complex gains, angles (rad), delays (s)."""

    gain: np.ndarray
    azimuth: np.ndarray
    zenith: np.ndarray
    delay: np.ndarray

    def __post_init__(self):
        n = len(self.gain)
        if not (len(self.azimuth) == len(self.zenith) == len(self.delay) == n):
            raise ValueError("path parameter arrays must share one length")
        if n < 1:
            raise ValueError("a PathSet needs at least one path")


@dataclass
class ChannelRealization:
    """Channels for all users: h[k] is M x Nc."""

    paths: list
    h: np.ndarray               # [K, M, Nc] complex128


def channel_matrices(gain, azimuth, zenith, delay, cfg: SystemConfig):
    """Frequency responses [P, M, Nc] of P path sets with L paths each
    ([P, L] parameter arrays), Eq-style synthesis: column n sums
    gain * steering * exp(-j*2*pi*n*tau/(Nc*Ts)) over paths, normalized by
    1/sqrt(L).

    The UPA steering vector has length ny*nz with the y index varying
    fastest; element (n, m) has phase pi*(n*sin(az)*cos(ze) + m*sin(ze))
    under half-wavelength spacing. Every element is formed by the same
    scalar operations whatever P is, so a path set's channel does not depend
    on which others share its batch.
    """
    n_sets, n_paths = gain.shape
    ay = np.exp(1j * np.pi * np.arange(cfg.ny) * (np.sin(azimuth) * np.cos(zenith))[..., None])
    az = np.exp(1j * np.pi * np.arange(cfg.nz) * np.sin(zenith)[..., None])
    steer = (az[..., :, None] * ay[..., None, :]).reshape(n_sets, n_paths, -1)
    # [P, M, L] in C order: every stacked matmul takes the operand layout of a
    # lone [M, L] @ [L, Nc] product, so batch size does not change rounding
    steer = np.ascontiguousarray(steer.transpose(0, 2, 1))
    n_idx = np.arange(cfg.nc)
    phasor = np.exp(-2j * np.pi * (delay[..., None] * n_idx) / (cfg.nc * cfg.ts_s))  # [P, L, Nc]
    return (steer * gain[:, None, :]) @ phasor / np.sqrt(n_paths)


def path_set_channels(paths, cfg: SystemConfig):
    """Channels [len(paths), M, Nc] of a list of PathSets, one
    channel_matrices call per distinct path count."""
    h = np.empty((len(paths), cfg.m_antennas, cfg.nc), dtype=np.complex128)
    for n_paths in sorted({len(p.gain) for p in paths}):
        idx = [i for i, p in enumerate(paths) if len(p.gain) == n_paths]
        group = [paths[i] for i in idx]
        h[idx] = channel_matrices(*(np.stack([getattr(p, name) for p in group])
                                    for name in ("gain", "azimuth", "zenith", "delay")), cfg)
    return h


def channel_matrix(paths: PathSet, cfg: SystemConfig):
    """Frequency response [M, Nc] of one PathSet (see channel_matrices)."""
    return channel_matrices(paths.gain[None], paths.azimuth[None], paths.zenith[None],
                            paths.delay[None], cfg)[0]


def _draw_gains(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def draw_multipath(cfg: SystemConfig, rng) -> PathSet:
    n_paths = int(rng.integers(cfg.lp_min, cfg.lp_max + 1))
    return PathSet(
        gain=_draw_gains(rng, n_paths),
        azimuth=rng.uniform(-np.pi / 2, np.pi / 2, n_paths),
        zenith=rng.uniform(-np.pi / 2, np.pi / 2, n_paths),
        delay=rng.uniform(0.0, cfg.delay_spread_s, n_paths),
    )


def draw_cluster(cfg: SystemConfig, rng) -> PathSet:
    """Clustered rays: each cluster has a center angle pair and a delay; rays
    scatter around them. Gains stay unit-variance; normalization by the total
    ray count happens in channel_matrices."""
    jc, jp = cfg.jc_clusters, cfg.jp_rays
    az = np.empty(jc * jp)
    ze = np.empty(jc * jp)
    delay = np.empty(jc * jp)
    for c in range(jc):
        c_az = rng.uniform(-np.pi / 2, np.pi / 2)
        c_ze = rng.uniform(-np.pi / 2, np.pi / 2)
        c_delay = rng.uniform(0.0, cfg.delay_spread_s)
        sl = slice(c * jp, (c + 1) * jp)
        az[sl] = c_az + rng.uniform(-cfg.sigma_theta_rad, cfg.sigma_theta_rad, jp)
        ze[sl] = c_ze + rng.uniform(-cfg.sigma_theta_rad, cfg.sigma_theta_rad, jp)
        delay[sl] = c_delay + rng.uniform(0.0, cfg.sigma_tau_s, jp)
    lim = np.nextafter(np.pi / 2, 0.0)
    return PathSet(
        gain=_draw_gains(rng, jc * jp),
        azimuth=np.clip(az, -lim, lim),
        zenith=np.clip(ze, -lim, lim),
        delay=delay,
    )


def draw_users(cfg: SystemConfig, rng):
    """Independent path sets of the K users of one realization, drawn in
    user order."""
    draw = draw_multipath if cfg.channel_kind == "multipath" else draw_cluster
    return [draw(cfg, rng) for _ in range(cfg.k_users)]


def gen_channel(cfg: SystemConfig, rng) -> ChannelRealization:
    """One realization: independent per-user path draws."""
    paths = draw_users(cfg, rng)
    return ChannelRealization(paths=paths, h=path_set_channels(paths, cfg))


def sigma_from_snr(cfg: SystemConfig):
    """Noise variance from the configured SNR.

    Conventional reading: SNR = Pt/(Nc*sigma^2). The literal flag instead
    solves 10*log10(sqrt(Pt/(Nc*sigma^2))) = snr_db, which doubles the dB
    exponent (at 10 dB and Pt=Nc it gives sigma^2 = 0.01)."""
    if cfg.snr_literal_sqrt:
        return cfg.pt / (cfg.nc * 10.0 ** (cfg.snr_db / 5.0))
    return cfg.pt / (cfg.nc * 10.0 ** (cfg.snr_db / 10.0))


def awgn(shape, sigma2, rng):
    """Circularly-symmetric complex noise with per-entry variance sigma2."""
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@lru_cache(maxsize=8)
def dft_matrix(nc):
    """Unitary DFT of size nc (1/sqrt(nc) scaling)."""
    idx = np.arange(nc)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / nc) / np.sqrt(nc)
