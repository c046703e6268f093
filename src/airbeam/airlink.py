"""Differentiable air interface: pilot sounding, beamformer assembly,
power normalization, quantization, and the downlink sum rate.

Everything here runs batched with a leading sample axis and accepts plain
numpy channels; gradient flows into whatever Tensors participate (pilot
phases, network outputs). The sum rate has one formula, `_rate`, and the
power cap one rule, `_power_cap`; learned and classical schemes are scored
and capped by the same code. The cap works in Gram form through
F_RF^H F_RF and the rate through the cross gains H F_RF, so neither forms
the effective beamformer F_RF F_BB[n]. For training, `normalize_digital`
and `sum_rate` are each one complex128 graph node with a hand-written
backward pass (cplx.fused).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import astensor, straight_through
from .cplx import as_pair, cexp, fused
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
    beamformers already inside the budget left untouched.

    f_rf: ComplexPair [M, K] or [B, M, K]; fbb_raw: [Nc, K, K] or
    [B, Nc, K, K]. One graph node (see _power_cap)."""
    f_rf, fbb_raw = as_pair(f_rf), as_pair(fbb_raw)
    f, x = _batch(f_rf, 2), _batch(fbb_raw, 3)
    cap = np.sqrt(pt / nc)
    scale, rx = _power_cap(f, x, cap)

    def backward(g):
        g = g.reshape(x.shape)
        # A capped x_n has scale = cap / sqrt(sumsq), so d scale / d sumsq
        # = -scale^3 / (2 cap^2). sumsq = sum_j x_j^H R x_j with R = F^H F:
        # d/dx = 2 R x, and d/dF = F (dR + dR^H) with dR = sum_n g_n x_n x_n^H
        slope = np.where(scale < 1.0, -0.5 * scale ** 3 / cap ** 2, 0.0)
        g_sumsq = slope * np.einsum("...ij,...ij->...", g.conj(), x).real
        g_x = g * scale[..., None, None] + 2.0 * g_sumsq[..., None, None] * rx
        d_gram = _mm(x * g_sumsq[..., None, None], _herm(x)).sum(axis=1)
        return 2.0 * (f @ d_gram), g_x

    out = x * scale[..., None, None]
    return fused(out.reshape(fbb_raw.shape), (f_rf, fbb_raw), backward)


def normalize_digital_np(f_rf, f_bb, pt, nc):
    """normalize_digital for one classical beamformer held as plain complex
    arrays, f_rf [M, K] and f_bb [Nc, K, K]; same cap rule, no graph."""
    scale, _ = _power_cap(f_rf[None], f_bb[None], np.sqrt(pt / nc))
    return f_bb * scale[0, :, None, None]


def _power_cap(f, x, cap):
    """The one power-cap rule, for f [B, M, K] and x [B, Nc, K, K].

    In Gram form, ||F x_n||_F^2 = sum_j x_nj^H R x_nj with R = F^H F [B, K, K],
    so no [B, Nc, M, K] product is formed. Each x_n is to be scaled by
    min(cap / ||F x_n||_F, 1); a zero beamformer keeps scale 1. Returns the
    scale [B, Nc] and R x."""
    rx = _mm((_herm(f) @ f)[:, None], x)
    norm = np.sqrt(np.maximum(np.einsum("...ij,...ij->...", x.conj(), rx).real, 0.0))
    over = norm > cap
    scale = np.ones_like(norm)
    scale[over] = cap / norm[over]
    return scale, rx


# -- sum rate --------------------------------------------------------------


def sum_rate(h, f_rf, f_bb, sigma2):
    """Downlink sum spectral efficiency, averaged over subcarriers.

    h: ndarray [K, M, Nc] or [B, K, M, Nc] (constant w.r.t. the graph).
    f_rf: ComplexPair [M, K] or [B, M, K]; f_bb: [Nc, K, K] or [B, Nc, K, K].
    Returns a Tensor, scalar or [B]. Differentiable in both beamformers.

    One graph node that never forms F_RF F_BB[n]: the users' conjugated
    channels H [B, Nc*K, M] meet F_RF in one GEMM, G = H F_RF, and the
    cross gains are G_n F_BB[n], K x K per subcarrier. In backward the GEMM
    H^H dG sums over the subcarriers.
    """
    f_rf, f_bb = as_pair(f_rf), as_pair(f_bb)
    users, single = _users(h)
    nb, nc, k, m = users.shape
    users = users.reshape(nb, nc * k, m)
    f, x = _batch(f_rf, 2), _batch(f_bb, 3)
    cross = (users @ f).reshape(nb, nc, k, k)
    rate, rate_vjp = _rate(_mm(cross, x), sigma2)

    def backward(g):
        g_a = rate_vjp(g.reshape(-1))
        g_cross = _mm(g_a, _herm(x)).reshape(nb, nc * k, k)
        return _herm(users) @ g_cross, _mm(_herm(cross), g_a)

    return fused(rate[0] if single else rate, (f_rf, f_bb), backward)


def sum_rate_effective(h, eff, sigma2):
    """Sum rate given the effective per-subcarrier beamformer, a complex
    ndarray [Nc, M, K] or [B, Nc, M, K]; no graph. Returns an ndarray,
    0-d or [B]."""
    users, single = _users(h)
    eff = np.asarray(eff)
    rate, _ = _rate(users @ eff.reshape(-1, *eff.shape[-3:]), sigma2)
    return rate[0] if single else rate


def sum_rate_np(h, eff, sigma2):
    """sum_rate_effective for scoring: a float for one realization, an
    ndarray [B] for a batch."""
    rate = sum_rate_effective(h, eff, sigma2)
    return float(rate) if rate.ndim == 0 else rate


def _rate(a, sigma2):
    """The one SINR/log2 rate formula, on the cross gains a [B, Nc, K, K]:
    a[b, n, k, j] is what user k hears of stream j on subcarrier n.

    Returns the rate per sample [B], the sum over users and the mean over
    subcarriers of log2(1 + SINR), and its vector-Jacobian product: the
    cotangent of the rates [B] to the cotangent of a, dL/d Re a + j dL/d Im a.
    """
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    nc, k = a.shape[1], a.shape[-1]
    gains = a.real * a.real + a.imag * a.imag
    wanted = np.einsum("...kk->...k", gains)
    noise = gains.sum(axis=-1) - wanted + sigma2               # interference + sigma2
    sinr = wanted / noise
    rate = (np.log(1.0 + sinr) * (1.0 / np.log(2.0))).sum(axis=(1, 2)) * (1.0 / nc)

    def vjp(g):
        # d rate / d sinr = u / (1 + sinr). A gain to another stream enters
        # the interference only; the wanted gain enters both, which sums to
        # u / noise on the diagonal.
        u = g[:, None, None] * (1.0 / (np.log(2.0) * nc))
        off = -u * sinr / ((1.0 + sinr) * noise)
        g_gains = off[..., None] + np.eye(k) * (u / noise)[..., None]
        return 2.0 * a * g_gains

    return rate, vjp


def _users(h):
    """Conjugated channels [B, Nc, K, M] of h [K, M, Nc] or [B, K, M, Nc]:
    row k of block n is user k's h_k[n]^H. Also whether h was one
    realization."""
    h = np.asarray(h)
    single = h.ndim == 3
    h = h.reshape(-1, *h.shape[-3:])
    return np.conjugate(h.transpose(0, 3, 1, 2), order="C"), single


def _batch(pair, ndim):
    """A ComplexPair of `ndim` trailing axes as complex128 [B, ...]."""
    z = pair.numpy()
    return z.reshape(-1, *z.shape[-ndim:])


def _mm(a, b):
    """a @ b for stacks of K x K matrices, as K broadcast products: numpy's
    matmul makes one BLAS call per matrix, which costs more than the
    arithmetic at these sizes."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _herm(z):
    """Hermitian transpose over the trailing two axes."""
    return np.conjugate(z.swapaxes(-1, -2))


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
