"""Differentiable air interface: pilot sounding, beamformer assembly,
power normalization, quantization, and the downlink sum rate.

Everything here runs batched with a leading sample axis and accepts plain
numpy channels; gradient flows into whatever Tensors participate (pilot
phases, network outputs). The sum rate has one formula,
`sum_rate_effective`, and the power cap one rule, `autodiff.cap_scale`;
learned and classical schemes are scored and capped by the same code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import astensor, cap_scale, log2, no_grad, straight_through
from .cplx import ComplexPair, as_pair, cexp
from .channel import awgn


# -- pilot sounding --------------------------------------------------------


def uplink_pilot_combiner(phi_ul, m_antennas):
    """Constant-modulus combiner stack (1/sqrt(M)) * exp(j*phi), QK x M."""
    return cexp(phi_ul) * (1.0 / np.sqrt(m_antennas))


def downlink_pilot_symbols(phi_dl, pt, m_antennas, nc):
    """Constant-modulus sounding stack sqrt(Pt/(M*Nc)) * exp(j*phi), Q x M.

    Each row then carries power Pt/Nc, the per-subcarrier budget."""
    return cexp(phi_dl) * np.sqrt(pt / (m_antennas * nc))


def tdd_uplink_pilots(phi_ul, h, sigma2, rng, k_users):
    """Uplink sounding: users send flat pilots, the base station combines.

    phi_ul: Tensor [Q*K, M] of combiner phases.
    h: ndarray [B, K, M, Nc].
    Returns ComplexPair [B, K, Q*K, Nc]. Noise is drawn at the antennas and
    passes through the combiner, so the measurement noise is colored with
    covariance sigma2 * W W^H rather than white.
    """
    nb, ku, m, nc = h.shape
    qk = phi_ul.shape[0]
    if qk % k_users != 0:
        raise ValueError(f"combiner rows {qk} not a multiple of K={k_users}")
    if phi_ul.shape[1] != m:
        raise ValueError(f"combiner has {phi_ul.shape[1]} columns, channel has {m} antennas")
    w = uplink_pilot_combiner(phi_ul, m)
    z = awgn((nb, ku, m, nc), sigma2, rng)
    return w @ as_pair(h + z)                                 # [B, K, QK, Nc]


def fdd_downlink_pilots(phi_dl, h, sigma2, rng, pt):
    """Downlink sounding: the base station beams Q constant-modulus probes,
    each user observes its own Q x Nc pilot block plus white noise.

    phi_dl: Tensor [Q, M]; h: ndarray [B, K, M, Nc].
    Returns ComplexPair [B, K, Q, Nc].
    """
    nb, ku, m, nc = h.shape
    x = downlink_pilot_symbols(phi_dl, pt, m, nc)
    signal = x @ as_pair(h)                                   # [B, K, Q, Nc]
    z = awgn(signal.shape, sigma2, rng)
    return signal + as_pair(z)


# -- beamformer assembly ---------------------------------------------------


def assemble_analog(theta):
    """Phases -> unit-modulus analog beamformer exp(j*theta)."""
    return cexp(astensor(theta))


def normalize_digital(f_rf, fbb_raw, pt, nc):
    """Scale each per-subcarrier digital beamformer so the hybrid product
    stays inside the power budget: ||F_RF F_BB[n]||_F <= sqrt(Pt/Nc), with
    beamformers already inside the budget left untouched."""
    eff = effective_beamformer(f_rf, fbb_raw)                 # [.., Nc, M, K]
    sumsq = eff.abs2().sum(axis=(-2, -1), keepdims=True)      # [.., Nc, 1, 1]
    return fbb_raw * cap_scale(sumsq, np.sqrt(pt / nc))


def normalize_digital_np(f_rf, f_bb, pt, nc):
    """normalize_digital for one classical beamformer held as plain complex
    arrays, f_rf [M, K] and f_bb [Nc, K, K]; same cap rule, no graph."""
    eff = f_rf[None] @ f_bb                                    # [Nc, M, K]
    sumsq = (eff.conj() * eff).real.sum(axis=(1, 2))
    scale = cap_scale(sumsq, np.sqrt(pt / nc)).values
    return f_bb * scale[:, None, None]


# -- sum rate --------------------------------------------------------------


def effective_beamformer(f_rf, f_bb):
    """Per-subcarrier product F_RF F_BB[n]: [.., Nc, M, K] ComplexPair."""
    single = f_rf.re.ndim == 2
    if single:
        f_rf = f_rf.reshape(1, *f_rf.shape)
        f_bb = f_bb.reshape(1, *f_bb.shape)
    nb, m, k = f_rf.shape
    eff = f_rf.reshape(nb, 1, m, k) @ f_bb
    return eff[0] if single else eff


def sum_rate(h, f_rf, f_bb, sigma2):
    """Downlink sum spectral efficiency, averaged over subcarriers.

    h: ndarray [K, M, Nc] or [B, K, M, Nc] (constant w.r.t. the graph).
    f_rf: ComplexPair [M, K] or [B, M, K]; f_bb: [Nc, K, K] or [B, Nc, K, K].
    Returns a Tensor, scalar or [B]. Differentiable in both beamformers.
    """
    f_rf = f_rf if isinstance(f_rf, ComplexPair) else as_pair(f_rf)
    f_bb = f_bb if isinstance(f_bb, ComplexPair) else as_pair(f_bb)
    return sum_rate_effective(h, effective_beamformer(f_rf, f_bb), sigma2)


def sum_rate_effective(h, eff, sigma2):
    """Sum rate given the effective per-subcarrier beamformer [.., Nc, M, K].

    The one SINR/log2 rate formula: every learned and classical scheme is
    scored here."""
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    h = np.asarray(h)
    single = h.ndim == 3
    if single:
        h = h[None]
    eff = eff if isinstance(eff, ComplexPair) else as_pair(eff)
    if eff.re.ndim == 3:
        eff = eff.reshape(1, *eff.shape)
    nb, k, m, nc = h.shape
    # rows of hh are the users' conjugated channels per subcarrier
    hh = as_pair(np.conj(h).transpose(0, 3, 1, 2))            # [B, Nc, K, M]
    gains = (hh @ eff).abs2()                                  # [B, Nc, K, K']
    eye = np.eye(k).reshape(1, 1, k, k)
    wanted = (gains * eye).sum(axis=-1)                        # [B, Nc, K]
    interference = gains.sum(axis=-1) - wanted
    sinr = wanted / (interference + sigma2)
    rate = log2(1.0 + sinr).sum(axis=(1, 2)) * (1.0 / nc)
    return rate[0] if single else rate


def sum_rate_np(h, eff, sigma2):
    """sum_rate_effective without a graph, for complex ndarray beamformers:
    a float for one realization, an ndarray [B] for a batch."""
    with no_grad():
        rate = sum_rate_effective(h, eff, sigma2).values
    return float(rate) if rate.ndim == 0 else rate


# -- quantization ----------------------------------------------------------


def quantize_phases(values, phase_bits):
    """Snap phases to the 2^bits-point grid on [0, 2*pi), wrap-around nearest,
    ties resolved toward the lower grid index."""
    if phase_bits < 1:
        raise ValueError(f"phase_bits must be >= 1 to quantize, got {phase_bits}")
    levels = 2 ** phase_bits
    step = 2.0 * np.pi / levels
    v = np.mod(np.asarray(values, dtype=np.float64), 2.0 * np.pi)
    idx = np.ceil(v / step - 0.5).astype(np.int64) % levels
    return idx * step


def quantize_phases_st(theta, phase_bits):
    """Straight-through phase quantization: grid values forward, unit gradient."""
    return straight_through(theta, lambda v: quantize_phases(v, phase_bits))


def quantize_bits(values):
    """Hard feedback bits: 1 where the soft value is >= 0, else 0."""
    return (np.asarray(values) >= 0).astype(np.uint8)


def bit_surrogate(x):
    """Bipolar +-0.5 representation of the hard bits, straight-through grad."""
    return straight_through(x, lambda v: np.where(v >= 0, 0.5, -0.5))


# -- containers ------------------------------------------------------------


@dataclass
class HybridBeamformer:
    """A classical hybrid beamformer: the unit-modulus analog matrix and the
    per-subcarrier digital beamformers, capped by normalize_digital_np."""

    f_rf: np.ndarray            # [M, K] unit-modulus entries
    f_bb: np.ndarray            # [Nc, K, K]

    def effective(self):
        return self.f_rf[None] @ self.f_bb
