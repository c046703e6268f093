"""Classical comparison schemes: sparse channel estimation over an angle
dictionary, two hybrid beamformers built from explicit CSI, scalar Lloyd-max
codebooks for parameter feedback, and a fully-digital zero-forcing reference.

Everything here is plain numpy on single realizations; Monte-Carlo loops and
batching live in the experiment runner.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .airlink import HybridBeamformer, normalize_digital_np
from .channel import PathSet, SystemConfig, channel_matrix


def _solve_gram(gram, rhs):
    """Normal-equation solve with a ridge fallback for rank deficiency."""
    if np.linalg.cond(gram) > 1e12:
        warnings.warn("rank-deficient least squares, adding ridge 1e-8")
        gram = gram + 1e-8 * np.eye(gram.shape[0])
    return np.linalg.solve(gram, rhs)


# -- dictionary ------------------------------------------------------------

@dataclass
class AngleDelayDictionary:
    """Cell-centered azimuth/zenith steering grid plus a delay phasor grid.

    atoms holds unit-norm steering columns (modulus 1/sqrt(M)); steering is
    the modulus-1 version used directly as analog beamformer columns.
    """

    atoms: np.ndarray           # [M, G] unit-norm columns
    angles: np.ndarray          # [G, 2] (azimuth, zenith) per column
    tau_grid: np.ndarray        # [G_d] seconds
    delay_phasors: np.ndarray   # [G_d, Nc], rows exp(-j*2*pi*n*tau/(Nc*Ts))

    @classmethod
    def build(cls, cfg: SystemConfig, g_az=64, g_ze=64, g_d=None):
        if g_az < 1 or g_ze < 1:
            raise ValueError(f"angle grid must be positive, got {g_az}x{g_ze}")
        g_d = cfg.nc if g_d is None else g_d
        az = -np.pi / 2 + (np.arange(g_az) + 0.5) * np.pi / g_az
        ze = -np.pi / 2 + (np.arange(g_ze) + 0.5) * np.pi / g_ze
        az_mesh = np.repeat(az, g_ze)
        ze_mesh = np.tile(ze, g_az)
        u = np.sin(az_mesh) * np.cos(ze_mesh)
        v = np.sin(ze_mesh)
        ay = np.exp(1j * np.pi * np.outer(np.arange(cfg.ny), u))   # [ny, G]
        azp = np.exp(1j * np.pi * np.outer(np.arange(cfg.nz), v))  # [nz, G]
        m = cfg.m_antennas
        atoms = (azp[:, None, :] * ay[None, :, :]).reshape(m, -1) / np.sqrt(m)
        tau = np.arange(g_d) * cfg.delay_spread_s / g_d
        n = np.arange(cfg.nc)
        phasors = np.exp(-2j * np.pi * np.outer(tau, n) / (cfg.nc * cfg.ts_s))
        return cls(atoms=atoms, angles=np.stack([az_mesh, ze_mesh], axis=1),
                   tau_grid=tau, delay_phasors=phasors)

    @property
    def steering(self):
        """Modulus-1 steering codebook for analog beamformer selection."""
        return self.atoms * np.sqrt(self.atoms.shape[0])


# -- sparse estimation -----------------------------------------------------

@dataclass
class SparseEstimate:
    h: np.ndarray               # [M, Nc] reconstructed channel
    support: list               # chosen dictionary column indices, pick order
    coeffs: np.ndarray          # [S, Nc] per-subcarrier atom gains


def sw_omp_estimate(y, sensing, dictionary, max_paths, eps=1e-3, noise_cov=None):
    """Greedy sparse recovery with one support shared by all subcarriers.

    y: [R, Nc] measurements; sensing: [R, M] so that y[:, n] = sensing @ h_n
    plus noise. With noise_cov (R x R, e.g. the combined uplink covariance)
    both sides are whitened before atom selection. Stops at max_paths atoms
    or when the residual drops below eps * ||y||^2.
    """
    y = np.asarray(y)
    r, nc = y.shape
    if sensing.shape[0] != r:
        raise ValueError(f"sensing rows {sensing.shape[0]} != measurement rows {r}")
    if noise_cov is not None:
        try:
            chol = np.linalg.cholesky(noise_cov)
        except np.linalg.LinAlgError:
            warnings.warn("noise covariance not positive definite, adding jitter")
            jitter = 1e-10 * np.trace(noise_cov).real / r
            chol = np.linalg.cholesky(noise_cov + jitter * np.eye(r))
        y = np.linalg.solve(chol, y)
        sensing = np.linalg.solve(chol, sensing)
    m = sensing.shape[1]
    psi = sensing @ dictionary.atoms                       # [R, G]
    # compressed atoms have unequal norms, so normalize the match score or a
    # strong wrong atom can beat the true one even without noise
    norms2 = np.maximum((np.abs(psi) ** 2).sum(axis=0), 1e-30)
    energy = np.linalg.norm(y) ** 2
    support = []
    coeffs = np.zeros((0, nc), dtype=complex)
    resid = y.copy()
    if energy == 0:
        return SparseEstimate(h=np.zeros((m, nc), dtype=complex),
                              support=support, coeffs=coeffs)
    for _ in range(max_paths):
        corr = np.abs(psi.conj().T @ resid) ** 2           # [G, Nc]
        score = corr.sum(axis=1) / norms2
        score[support] = -1.0
        pick = int(np.argmax(score))
        support.append(pick)
        phi = psi[:, support]                              # [R, S]
        gram = phi.conj().T @ phi
        coeffs = _solve_gram(gram, phi.conj().T @ y)       # [S, Nc]
        resid = y - phi @ coeffs
        if np.linalg.norm(resid) ** 2 <= eps * energy:
            break
    h = dictionary.atoms[:, support] @ coeffs
    return SparseEstimate(h=h, support=support, coeffs=coeffs)


def extract_path_params(estimate: SparseEstimate, dictionary, cfg: SystemConfig):
    """Angles from the chosen atoms, delay and gain from each atom's gain
    sequence across subcarriers (delay-grid correlation, then the matched
    average). Scaling matches the 1/sqrt(paths) synthesis convention."""
    s = len(estimate.support)
    if s == 0:
        raise ValueError("cannot extract parameters from an empty support")
    gains = np.empty(s, dtype=complex)
    delays = np.empty(s)
    for i, c in enumerate(estimate.coeffs):
        corr = dictionary.delay_phasors.conj() @ c         # [G_d]
        d = int(np.argmax(np.abs(corr)))
        delays[i] = dictionary.tau_grid[d]
        gains[i] = corr[d] / cfg.nc
    gains *= np.sqrt(s) / np.sqrt(cfg.m_antennas)
    ang = dictionary.angles[estimate.support]
    return PathSet(gain=gains, azimuth=ang[:, 0].copy(),
                   zenith=ang[:, 1].copy(), delay=delays)


# -- scalar quantization ---------------------------------------------------

def lloyd_max(samples, bits, tol=1e-6, max_iter=500, seed=0):
    """Scalar Lloyd-max codebook: 2^bits levels minimizing empirical MSE,
    distance-weighted seeded init, midpoint partitions, centroid updates
    until the levels move less than tol."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("need at least one training sample")
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if bits == 0:
        return np.array([samples.mean()])
    n_levels = 2 ** bits
    rng = np.random.default_rng(seed)
    levels = [samples[rng.integers(samples.size)]]
    for _ in range(n_levels - 1):
        d2 = np.min((samples[:, None] - np.array(levels)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total == 0:
            levels.append(levels[0])
            continue
        levels.append(samples[rng.choice(samples.size, p=d2 / total)])
    levels = np.sort(np.array(levels))
    for _ in range(max_iter):
        edges = (levels[1:] + levels[:-1]) / 2
        idx = np.searchsorted(edges, samples)
        new = levels.copy()
        for j in range(n_levels):
            region = samples[idx == j]
            if region.size:
                new[j] = region.mean()
        new = np.sort(new)
        moved = np.abs(new - levels).max()
        levels = new
        if moved < tol:
            break
    return levels


def quantize_scalar(values, levels):
    """Snap values to the nearest codebook level."""
    values = np.asarray(values, dtype=np.float64)
    idx = np.argmin(np.abs(values[..., None] - levels), axis=-1)
    return levels[idx]


class PathParameterQuantizer:
    """Per-parameter Lloyd-max codebooks for the five path descriptors
    (Re gain, Im gain, azimuth, zenith, delay), trained on prior draws.

    The feedback budget is spread evenly over the 5*Lp parameters; when it
    cannot cover one bit each, the leading parameters in path-major order
    get a single bit and the rest collapse to their prior mean.
    """

    PARAMS = ("re_gain", "im_gain", "azimuth", "zenith", "delay")

    def __init__(self, codebooks, alloc):
        self.codebooks = codebooks      # (param name, bits) -> levels
        self.alloc = alloc              # [Lp, 5] bits

    @classmethod
    def train(cls, cfg: SystemConfig, lp, total_bits, n_train=4096, seed=0):
        n_params = 5 * lp
        bits_per = total_bits // n_params
        alloc = np.full(n_params, bits_per, dtype=int)
        if bits_per < 1:
            warnings.warn(
                f"feedback budget {total_bits} below one bit per parameter "
                f"({n_params} needed); zeroing the tail")
            alloc[:] = 0
            alloc[:total_bits] = 1
        alloc = alloc.reshape(lp, 5)
        rng = np.random.default_rng(seed)
        draws = {
            "re_gain": rng.normal(0.0, np.sqrt(0.5), n_train),
            "im_gain": rng.normal(0.0, np.sqrt(0.5), n_train),
            "azimuth": rng.uniform(-np.pi / 2, np.pi / 2, n_train),
            "zenith": rng.uniform(-np.pi / 2, np.pi / 2, n_train),
            "delay": rng.uniform(0.0, cfg.delay_spread_s, n_train),
        }
        codebooks = {}
        for col, name in enumerate(cls.PARAMS):
            for bits in np.unique(alloc[:, col]):
                codebooks[(name, int(bits))] = lloyd_max(draws[name], int(bits))
        return cls(codebooks=codebooks, alloc=alloc)

    def quantize_paths(self, paths: PathSet) -> PathSet:
        s = len(paths.gain)
        if s > self.alloc.shape[0]:
            raise ValueError(
                f"{s} paths exceed the {self.alloc.shape[0]}-path bit allocation")
        cols = {
            "re_gain": paths.gain.real.copy(),
            "im_gain": paths.gain.imag.copy(),
            "azimuth": paths.azimuth.copy(),
            "zenith": paths.zenith.copy(),
            "delay": paths.delay.copy(),
        }
        for i in range(s):
            for col, name in enumerate(self.PARAMS):
                levels = self.codebooks[(name, int(self.alloc[i, col]))]
                cols[name][i] = quantize_scalar(cols[name][i], levels)
        return PathSet(gain=cols["re_gain"] + 1j * cols["im_gain"],
                       azimuth=cols["azimuth"], zenith=cols["zenith"],
                       delay=cols["delay"])


def limited_feedback_rebuild(y, sensing, dictionary, cfg, max_paths,
                             quantizer=None, eps=1e-3, noise_cov=None):
    """User-side sparse estimation, parameter extraction, optional scalar
    quantization, and the reconstruction the other end would form. With
    quantizer=None the parameters travel unquantized (infinite feedback)."""
    est = sw_omp_estimate(y, sensing, dictionary, max_paths, eps=eps,
                          noise_cov=noise_cov)
    if not est.support:
        return np.zeros_like(est.h), None
    paths = extract_path_params(est, dictionary, cfg)
    if quantizer is not None:
        paths = quantizer.quantize_paths(paths)
    return channel_matrix(paths, cfg), paths


# -- beamformers -----------------------------------------------------------

def zf_fully_digital(h, pt, sigma2):
    """Per-subcarrier zero forcing with equal per-user power, Pt/Nc total
    per subcarrier. h: [K, M, Nc]. Returns eff [Nc, M, K]."""
    k, m, nc = h.shape
    if k > m:
        raise ValueError(f"zero forcing needs K <= M, got K={k} M={m}")
    eff = np.empty((nc, m, k), dtype=complex)
    for n in range(nc):
        rows = h[:, :, n].conj()                            # [K, M], row = h_k^H
        gram = rows @ rows.conj().T
        f0 = rows.conj().T @ _solve_gram(gram, np.eye(k))   # [M, K]
        norms = np.linalg.norm(f0, axis=0)
        norms[norms == 0] = 1.0
        eff[n] = f0 * (np.sqrt(pt / (nc * k)) / norms)
    return eff


def pca_hb(h, pt, sigma2):
    """Analog columns from the phase of each user's principal component,
    digital zero forcing on the effective channel. h: [K, M, Nc]."""
    k, m, nc = h.shape
    f_rf = np.empty((m, k), dtype=complex)
    for j in range(k):
        if np.linalg.norm(h[j]) == 0:
            warnings.warn(f"zero channel for user {j}, using flat phases")
            f_rf[:, j] = 1.0
            continue
        u = np.linalg.svd(h[j], full_matrices=False)[0][:, 0]
        u = u * np.exp(-1j * np.angle(u[np.argmax(np.abs(u))]))
        f_rf[:, j] = np.exp(1j * np.angle(u))
    f_bb = np.empty((nc, k, k), dtype=complex)
    for n in range(nc):
        g = f_rf.conj().T @ h[:, :, n].T                    # [K, K], col = user
        # user k hears column j as g[:, k]^H f_bb[:, j]: invert G^H
        f_bb[n] = g @ _solve_gram(g.conj().T @ g, np.eye(k))
    f_bb = normalize_digital_np(f_rf, f_bb, pt, nc)
    return HybridBeamformer(f_rf=f_rf, f_bb=f_bb)


def ss_hb(h, dictionary, pt, sigma2):
    """Greedy analog codebook selection against the fully-digital target:
    pick K modulus-1 steering atoms by summed correlation with the running
    residual, least-squares digital fit each round. h: [K, M, Nc]."""
    k, m, nc = h.shape
    codebook = dictionary.steering                          # [M, G]
    if codebook.shape[1] < k:
        raise ValueError(
            f"codebook has {codebook.shape[1]} atoms, need at least {k}")
    target = zf_fully_digital(h, pt, sigma2)                # [Nc, M, K]
    resid = target.copy()
    chosen = []
    f_bb = None
    for _ in range(k):
        corr = np.einsum("mg,nmk->gnk", codebook.conj(), resid)
        score = (np.abs(corr) ** 2).sum(axis=(1, 2))
        score[chosen] = -1.0
        chosen.append(int(np.argmax(score)))
        f_rf = codebook[:, chosen]                          # [M, S]
        gram = f_rf.conj().T @ f_rf
        rhs = np.einsum("ms,nmk->nsk", f_rf.conj(), target)
        f_bb = np.stack([_solve_gram(gram, rhs[n]) for n in range(nc)])
        resid = target - np.einsum("ms,nsk->nmk", f_rf, f_bb)
    f_rf = codebook[:, chosen]
    f_bb = normalize_digital_np(f_rf, f_bb, pt, nc)
    return HybridBeamformer(f_rf=f_rf, f_bb=f_bb)


def tdd_noise_cov(w_tilde):
    """Covariance shape of combined uplink noise (unit antenna variance)."""
    return w_tilde @ w_tilde.conj().T
