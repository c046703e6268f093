"""Shared test utilities: finite-difference gradient oracle, the per-path
channel synthesis loop that batched synthesis must reproduce bit for bit,
the hybrid beamformer feasibility check, and small conversions only tests
use."""
import numpy as np

from airbeam.channel import dft_matrix


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at ndarray x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


def check_grads(build_loss, params, rtol=1e-4, h=1e-6):
    """Compare autodiff gradients of build_loss() against finite differences
    for every Tensor in params. build_loss must re-run the forward pass from
    the current parameter values each call.

    Returns the worst relative error seen."""
    loss = build_loss()
    for p in params:
        p.grad = None
    loss.backward()
    worst = 0.0
    for p in params:
        got = p.grad if p.grad is not None else np.zeros_like(p.values)

        def f(x, p=p):
            return float(build_loss().values)

        want = numeric_grad(f, p.values, h=h)
        scale = max(np.abs(want).max(), np.abs(got).max(), 1.0)
        err = np.abs(got - want).max() / scale
        worst = max(worst, err)
        assert err <= rtol, f"gradient mismatch {err:.3e} (shape {p.values.shape})"
    return worst


def array_response(azimuth, zenith, ny, nz):
    """UPA steering vector of one path, length ny*nz, y-index varying fastest."""
    ay = np.exp(1j * np.pi * np.arange(ny) * (np.sin(azimuth) * np.cos(zenith)))
    az = np.exp(1j * np.pi * np.arange(nz) * np.sin(zenith))
    return (az[:, None] * ay[None, :]).reshape(-1)


def channel_matrix_loop(paths, cfg):
    """Per-path synthesis: one steering vector per path, one matmul. The
    batched channel.channel_matrices must equal it bit for bit."""
    steer = np.stack([array_response(a, z, cfg.ny, cfg.nz)
                      for a, z in zip(paths.azimuth, paths.zenith)], axis=1)   # [M, L]
    n_idx = np.arange(cfg.nc)
    phasor = np.exp(-2j * np.pi * np.outer(paths.delay, n_idx) / (cfg.nc * cfg.ts_s))  # [L, Nc]
    return (steer * paths.gain[None, :]) @ phasor / np.sqrt(len(paths.gain))


def dft_delay_transform(y):
    """Rotate the subcarrier axis (axis -2) into the delay domain."""
    return dft_matrix(y.shape[-2]) @ y


def bits_to_surrogate(bits):
    """Map hard bits {0,1} to the +-0.5 levels the beamformer network eats."""
    return np.asarray(bits, dtype=np.float64) - 0.5


def nmse_db(h_hat, h):
    """10*log10(||h_hat - h||^2 / ||h||^2); -inf for an exact match."""
    err = np.linalg.norm(h_hat - h) ** 2
    ref = np.linalg.norm(h) ** 2
    if ref == 0:
        raise ValueError("reference channel has zero energy")
    if err == 0:
        return -np.inf
    return 10.0 * np.log10(err / ref)


def validate_hybrid(hb, pt, nc, tol=1e-9):
    """Raise ValueError unless the HybridBeamformer `hb` has unit-modulus
    analog entries and meets the per-subcarrier power budget pt / nc."""
    if not np.allclose(np.abs(hb.f_rf), 1.0, atol=tol):
        raise ValueError("analog beamformer entries must have unit modulus")
    norms = np.linalg.norm(hb.effective(), axis=(1, 2))
    if np.any(norms > np.sqrt(pt / nc) + tol):
        raise ValueError("hybrid beamformer exceeds the per-subcarrier power budget")
