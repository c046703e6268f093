"""Learned pilot / feedback / beamforming networks and the two end-to-end
pipelines (uplink-sounded reciprocal mode and feedback-limited mode).

All forwards are batched; channels enter as plain numpy arrays and gradients
flow into the pilot phases and network weights only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Module, Tensor, concat, mish
from .cplx import ComplexPair, as_pair
from .airlink import (assemble_analog, bit_surrogate, fdd_downlink_pilots,
                      normalize_digital, quantize_bits, quantize_phases_st,
                      sum_rate, tdd_uplink_pilots)
from .channel import dft_matrix
from .layers import BatchNorm, Conv1d, Dense, DenseBlock


@dataclass
class NetworkSpec:
    """Layer widths. Defaults are the full-scale values; scaled() shrinks
    them proportionally to the antenna-subcarrier product for desk runs."""

    user_widths: tuple = (1024, 512, 128)      # per-user branch, uplink-sounded decoder
    fusion_widths: tuple = (2048, 1024, 512)   # post-concatenation stack
    encoder_widths: tuple = (1024, 512)        # user-side feedback encoder
    decoder_widths: tuple = (2048, 1024, 512)  # feedback-fed decoder stack
    res_c1: int = 256
    res_c2: int = 512

    @classmethod
    def scaled(cls, cfg, dense_floor=64, conv_floor=16):
        s = (cfg.m_antennas * cfg.nc) / (64 * 32)

        def d(w):
            return max(dense_floor, int(round(w * s)))

        def c(w):
            return max(conv_floor, int(round(w * s)))

        return cls(
            user_widths=(d(1024), d(512), d(128)),
            fusion_widths=(d(2048), d(1024), d(512)),
            encoder_widths=(d(1024), d(512)),
            decoder_widths=(d(2048), d(1024), d(512)),
            res_c1=c(256),
            res_c2=c(512),
        )


class ResBlock(Module):
    """Conv(C1) -> BN -> Mish -> Conv(C2) -> BN -> Mish -> Conv(ch) -> + x.

    The closing conv restores the input channel count and feeds the residual
    add directly; no norm or activation after the add."""

    def __init__(self, channels, c1, c2, rng):
        super().__init__()
        self.conv1 = Conv1d(channels, c1, rng)
        self.bn1 = BatchNorm(c1)
        self.conv2 = Conv1d(c1, c2, rng)
        self.bn2 = BatchNorm(c2)
        self.conv3 = Conv1d(c2, channels, rng)

    def __call__(self, x):
        y = mish(self.bn1(self.conv1(x)))
        y = mish(self.bn2(self.conv2(y)))
        return self.conv3(y) + x


def _to_delay_planes(y, conjugate):
    """Frequency-domain pilot block [B, rows, Nc] -> real [B, 2*rows, 1, Nc].

    Rotates the subcarrier axis into the delay domain with the unitary DFT
    (Hermitian-transposed first in the uplink-sounding convention), then
    stacks real parts on top of imaginary parts as channels.
    """
    nb, rows, nc = y.shape
    f = as_pair(dft_matrix(nc))
    yt = y.conj_t() if conjugate else y.swapaxes(-1, -2)       # [B, Nc, rows]
    delay = (f @ yt).swapaxes(-1, -2)                          # [B, rows, Nc]
    planes = concat([delay.re, delay.im], axis=1)              # [B, 2*rows, Nc]
    return planes.reshape(nb, 2 * rows, 1, nc)


class BeamformerHead(Module):
    """Shared output stage: dense to MK + 2NcK^2, phases off the top, the
    rest through a subcarrier-axis ResBlock into raw digital beamformers."""

    def __init__(self, n_in, cfg, spec, rng):
        super().__init__()
        m, k, nc = cfg.m_antennas, cfg.k_users, cfg.nc
        self.fc = Dense(n_in, m * k + 2 * nc * k * k, rng)
        self.res = ResBlock(2 * k * k, spec.res_c1, spec.res_c2, rng)
        self._dims = (m, k, nc)

    def __call__(self, x):
        m, k, nc = self._dims
        out = self.fc(x)
        nb = out.shape[0]
        theta = out[:, :m * k].reshape(nb, m, k)
        digital = out[:, m * k:].reshape(nb, 2 * k * k, 1, nc)
        digital = self.res(digital)
        re = digital[:, :k * k, 0, :].reshape(nb, k, k, nc).transpose((0, 3, 1, 2))
        im = digital[:, k * k:, 0, :].reshape(nb, k, k, nc).transpose((0, 3, 1, 2))
        return theta, ComplexPair(re, im)


class FeedbackEncoderNet(Module):
    """User-side encoder: received pilots to a hard bit vector. One shared
    parameter set serves every user."""

    def __init__(self, cfg, spec, rng):
        super().__init__()
        if cfg.feedback_bits < 1:
            raise ValueError(f"feedback_bits must be >= 1, got {cfg.feedback_bits}")
        in_ch = 2 * cfg.q_pilots
        self.res = ResBlock(in_ch, spec.res_c1, spec.res_c2, rng)
        e1, e2 = spec.encoder_widths
        self.fc1 = DenseBlock(in_ch * cfg.nc, e1, rng)
        self.fc2 = DenseBlock(e1, e2, rng)
        self.head = Dense(e2, cfg.feedback_bits, rng)
        self._in_ch = in_ch

    def __call__(self, y, hard=True):
        """y: ComplexPair [B, Q, Nc]. Returns (code Tensor [B, bits], hard
        bits ndarray). With hard=False the code stays at the soft
        sigmoid-minus-half values (straight-through disabled)."""
        nb = y.shape[0]
        x = _to_delay_planes(y, conjugate=False)
        x = self.res(x).reshape(nb, -1)
        x = self.fc2(self.fc1(x))
        soft = self.head(x).sigmoid() - 0.5
        bits = quantize_bits(soft.values)
        code = bit_surrogate(soft) if hard else soft
        return code, bits


class UplinkBeamformerNet(Module):
    """Reciprocal-mode decoder: per-user pilot blocks to beamformer phases
    and raw digital beamformers. The per-user branch is weight-shared."""

    def __init__(self, cfg, spec, rng):
        super().__init__()
        in_ch = 2 * cfg.q_pilots * cfg.k_users
        self.res = ResBlock(in_ch, spec.res_c1, spec.res_c2, rng)
        u1, u2, u3 = spec.user_widths
        self.fc1 = DenseBlock(in_ch * cfg.nc, u1, rng)
        self.fc2 = DenseBlock(u1, u2, rng)
        self.fc3 = DenseBlock(u2, u3, rng)
        f1, f2, f3 = spec.fusion_widths
        self.fuse1 = DenseBlock(cfg.k_users * u3, f1, rng)
        self.fuse2 = DenseBlock(f1, f2, rng)
        self.fuse3 = DenseBlock(f2, f3, rng)
        self.head = BeamformerHead(f3, cfg, spec, rng)
        self._k = cfg.k_users

    def __call__(self, y):
        """y: ComplexPair [B, K, QK, Nc] of combined uplink pilots."""
        if y.shape[1] != self._k:
            raise ValueError(f"expected {self._k} user blocks, got {y.shape[1]}")
        nb = y.shape[0]
        feats = []
        for k in range(self._k):
            x = _to_delay_planes(y[:, k], conjugate=True)
            x = self.res(x).reshape(nb, -1)
            feats.append(self.fc3(self.fc2(self.fc1(x))))
        x = concat(feats, axis=1)
        x = self.fuse3(self.fuse2(self.fuse1(x)))
        return self.head(x)


class FeedbackBeamformerNet(Module):
    """Feedback-mode decoder: concatenated bipolar codes to beamformers."""

    def __init__(self, cfg, spec, rng):
        super().__init__()
        n_in = cfg.k_users * cfg.feedback_bits
        d1, d2, d3 = spec.decoder_widths
        self.fc1 = DenseBlock(n_in, d1, rng)
        self.fc2 = DenseBlock(d1, d2, rng)
        self.fc3 = DenseBlock(d2, d3, rng)
        self.head = BeamformerHead(d3, cfg, spec, rng)
        self._n_in = n_in

    def __call__(self, code):
        if code.shape[1] != self._n_in:
            raise ValueError(f"expected code length {self._n_in}, got {code.shape[1]}")
        return self.head(self.fc3(self.fc2(self.fc1(code))))


def pilot_phases(mode, cfg, rng):
    """Trainable sounding phases: [QK, M] uplink, [Q, M] downlink, U(0, 2pi)."""
    if mode == "tdd":
        shape = (cfg.q_pilots * cfg.k_users, cfg.m_antennas)
    elif mode == "fdd":
        shape = (cfg.q_pilots, cfg.m_antennas)
    else:
        raise ValueError(f"unknown mode '{mode}'")
    return Tensor(rng.uniform(0.0, 2.0 * np.pi, shape), requires_grad=True)


class Pipeline(Module):
    """Set-up shared by both pipelines: the config, the layer widths, and the
    trainable sounding phases. The phases are drawn before the networks;
    that order fixes the initial weights a seed gives. Subclasses set `mode`
    and add their networks in _build."""

    def __init__(self, cfg, spec=None, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        spec = spec if spec is not None else NetworkSpec.scaled(cfg)
        self.cfg = cfg
        self.spec = spec
        self.phi = pilot_phases(self.mode, cfg, rng)
        self._build(cfg, spec, rng)

    def _phases(self, theta, soft):
        if self.cfg.phase_bits > 0 and not soft:
            return quantize_phases_st(theta, self.cfg.phase_bits)
        return theta


class TddPipeline(Pipeline):
    """Uplink sounding -> decoder -> hybrid beamformer, end to end."""

    mode = "tdd"

    def _build(self, cfg, spec, rng):
        self.net = UplinkBeamformerNet(cfg, spec, rng)

    def beamformers(self, h, sigma2, rng, soft=False):
        phi = self._phases(self.phi, soft)
        y = tdd_uplink_pilots(phi, h, sigma2, rng, self.cfg.k_users)
        theta, fbb_raw = self.net(y)
        f_rf = assemble_analog(self._phases(theta, soft))
        f_bb = normalize_digital(f_rf, fbb_raw, self.cfg.pt, self.cfg.nc)
        return f_rf, f_bb

    def rates(self, h, sigma2, rng, soft=False):
        f_rf, f_bb = self.beamformers(h, sigma2, rng, soft)
        return sum_rate(h, f_rf, f_bb, sigma2)


class FddPipeline(Pipeline):
    """Downlink sounding -> per-user feedback bits -> decoder -> beamformer."""

    mode = "fdd"

    def _build(self, cfg, spec, rng):
        self.encoder = FeedbackEncoderNet(cfg, spec, rng)
        self.decoder = FeedbackBeamformerNet(cfg, spec, rng)

    def beamformers(self, h, sigma2, rng, soft=False):
        phi = self._phases(self.phi, soft)
        y = fdd_downlink_pilots(phi, h, sigma2, rng, self.cfg.pt)
        codes, bits = [], []
        for k in range(self.cfg.k_users):
            code_k, bits_k = self.encoder(y[:, k], hard=not soft)
            codes.append(code_k)
            bits.append(bits_k)
        code = concat(codes, axis=1)
        theta, fbb_raw = self.decoder(code)
        f_rf = assemble_analog(self._phases(theta, soft))
        f_bb = normalize_digital(f_rf, fbb_raw, self.cfg.pt, self.cfg.nc)
        return f_rf, f_bb, np.concatenate(bits, axis=1)

    def rates(self, h, sigma2, rng, soft=False):
        f_rf, f_bb, _ = self.beamformers(h, sigma2, rng, soft)
        return sum_rate(h, f_rf, f_bb, sigma2)


def build_pipeline(mode, cfg, spec=None, rng=None):
    if mode == "tdd":
        return TddPipeline(cfg, spec, rng)
    if mode == "fdd":
        return FddPipeline(cfg, spec, rng)
    raise ValueError(f"unknown mode '{mode}'")
