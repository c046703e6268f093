"""Air-interface contract: pilot sounding, assembly, power cap, rate, quantizers."""
import numpy as np
import pytest

from airbeam.airlink import (
    HybridBeamformer,
    assemble_analog,
    bit_surrogate,
    downlink_pilot_symbols,
    fdd_downlink_pilots,
    normalize_digital,
    normalize_digital_np,
    quantize_bits,
    quantize_phases,
    quantize_phases_st,
    sum_rate,
    sum_rate_np,
    tdd_uplink_pilots,
    uplink_pilot_combiner,
)
from airbeam.autodiff import Tensor, concat
from airbeam.cplx import ComplexPair, as_pair

import composed
from helpers import bits_to_surrogate, check_grads, validate_hybrid

RNG = np.random.default_rng(7)


def random_h(nb, k, m, nc, rng=RNG):
    return (rng.standard_normal((nb, k, m, nc))
            + 1j * rng.standard_normal((nb, k, m, nc))) / np.sqrt(2)


def pair_params(z):
    """Complex array -> trainable ComplexPair plus its parameter list."""
    re = Tensor(z.real.copy(), requires_grad=True)
    im = Tensor(z.imag.copy(), requires_grad=True)
    return ComplexPair(re, im), [re, im]


def rate_oracle(h, eff, sigma2):
    """Scalar-loop SINR reference for a single realization."""
    k_users, m, nc = h.shape
    total = 0.0
    for k in range(k_users):
        for n in range(nc):
            hv = h[k, :, n]
            want = abs(np.vdot(hv, eff[n][:, k])) ** 2
            interf = sum(abs(np.vdot(hv, eff[n][:, kp])) ** 2
                         for kp in range(k_users) if kp != k)
            total += np.log2(1.0 + want / (interf + sigma2))
    return total / nc


# -- uplink pilots ---------------------------------------------------------

def test_tdd_zero_phases_gives_scaled_column_sums():
    m, nc, k, q = 4, 3, 2, 2
    h = random_h(1, k, m, nc)
    phi = Tensor(np.zeros((q * k, m)))
    y = tdd_uplink_pilots(phi, h, 0.0, np.random.default_rng(0), k)
    expect = h.sum(axis=2) / np.sqrt(m)            # [1, K, Nc]
    got = y.re.values + 1j * y.im.values
    for row in range(q * k):
        np.testing.assert_allclose(got[:, :, row, :], expect, atol=1e-12)


def test_tdd_degenerate_dims_passthrough():
    h = random_h(1, 1, 1, 1)
    phi = Tensor(np.array([[0.3]]))
    y = tdd_uplink_pilots(phi, h, 0.0, np.random.default_rng(0), 1)
    got = complex(y.re.values[0, 0, 0, 0] + 1j * y.im.values[0, 0, 0, 0])
    assert abs(got - np.exp(1j * 0.3) * h[0, 0, 0, 0]) < 1e-12


def test_tdd_matches_matrix_oracle():
    m, nc, k, q, nb = 5, 4, 2, 3, 2
    h = random_h(nb, k, m, nc)
    phases = RNG.uniform(0, 2 * np.pi, size=(q * k, m))
    y = tdd_uplink_pilots(Tensor(phases), h, 0.0, np.random.default_rng(0), k)
    w = np.exp(1j * phases) / np.sqrt(m)
    expect = np.einsum("rm,bkmn->bkrn", w, h)
    got = y.re.values + 1j * y.im.values
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_tdd_noise_shared_across_combiner_rows():
    # noise enters at the antennas, so with M=1 every measurement row sees
    # the same draw rotated by its own combiner phase
    m, nc, qk = 1, 3, 4
    h = random_h(2, 1, m, nc)
    phases = RNG.uniform(0, 2 * np.pi, size=(qk, m))
    y = tdd_uplink_pilots(Tensor(phases), h, 0.5, np.random.default_rng(3), 1)
    got = y.re.values + 1j * y.im.values
    w = np.exp(1j * phases)
    resid = got - np.einsum("rm,bkmn->bkrn", w, h)
    derotated = resid * np.exp(-1j * phases[:, 0])[None, None, :, None]
    for row in range(1, qk):
        np.testing.assert_allclose(derotated[:, :, row], derotated[:, :, 0],
                                   atol=1e-12)


def test_tdd_least_squares_recovers_channel():
    m, nc, q = 3, 4, 5
    h = random_h(1, 1, m, nc)
    phases = RNG.uniform(0, 2 * np.pi, size=(q, m))
    y = tdd_uplink_pilots(Tensor(phases), h, 0.0, np.random.default_rng(0), 1)
    w = np.exp(1j * phases) / np.sqrt(m)
    got = y.re.values[0, 0] + 1j * y.im.values[0, 0]
    h_hat = np.linalg.lstsq(w, got, rcond=None)[0]
    assert np.linalg.norm(w @ h_hat - got) <= 1e-8
    np.testing.assert_allclose(h_hat, h[0, 0], atol=1e-8)


def test_tdd_shape_mismatch_errors():
    h = random_h(1, 2, 4, 3)
    with pytest.raises(ValueError):
        tdd_uplink_pilots(Tensor(np.zeros((5, 4))), h, 0.0,
                          np.random.default_rng(0), 2)
    with pytest.raises(ValueError):
        tdd_uplink_pilots(Tensor(np.zeros((4, 3))), h, 0.0,
                          np.random.default_rng(0), 2)


def test_tdd_pilot_gradients():
    m, nc, k, q = 3, 2, 1, 2
    h = random_h(1, k, m, nc)
    phi = Tensor(RNG.uniform(0, 2 * np.pi, size=(q * k, m)), requires_grad=True)
    a = RNG.standard_normal((1, k, q * k, nc))
    b = RNG.standard_normal((1, k, q * k, nc))

    def loss():
        y = tdd_uplink_pilots(phi, h, 0.0, np.random.default_rng(0), k)
        return (y.re * a).sum() + (y.im * b).sum()

    check_grads(loss, [phi], rtol=1e-6)


# -- downlink pilots -------------------------------------------------------

def test_fdd_all_ones_pilot_gives_column_sums():
    m, nc, k, q = 4, 3, 2, 2
    pt = float(m * nc)
    h = random_h(2, k, m, nc)
    y = fdd_downlink_pilots(Tensor(np.zeros((q, m))), h, 0.0,
                            np.random.default_rng(0), pt)
    got = y.re.values + 1j * y.im.values
    expect = h.sum(axis=2)
    for row in range(q):
        np.testing.assert_allclose(got[:, :, row, :], expect, atol=1e-12)


def test_fdd_per_row_pilot_power():
    m, nc, q, pt = 8, 4, 3, 5.0
    x = downlink_pilot_symbols(Tensor(RNG.uniform(0, 7, size=(q, m))), pt, m, nc)
    xc = x.re.values + 1j * x.im.values
    np.testing.assert_allclose(np.sum(np.abs(xc) ** 2, axis=1), pt / nc,
                               atol=1e-12)


def test_fdd_dft_sounding_recovers_channel():
    m, nc, pt = 4, 3, 2.0
    q = m
    h = random_h(1, 1, m, nc)
    grid = 2 * np.pi * np.outer(np.arange(q), np.arange(m)) / m
    y = fdd_downlink_pilots(Tensor(grid), h, 0.0, np.random.default_rng(0), pt)
    x = np.sqrt(pt / (m * nc)) * np.exp(1j * grid)
    got = y.re.values[0, 0] + 1j * y.im.values[0, 0]
    h_hat = np.linalg.solve(x, got)
    np.testing.assert_allclose(h_hat, h[0, 0], atol=1e-9)


def test_fdd_pilot_gradients():
    m, nc, k, q = 3, 2, 2, 2
    h = random_h(1, k, m, nc)
    phi = Tensor(RNG.uniform(0, 2 * np.pi, size=(q, m)), requires_grad=True)
    a = RNG.standard_normal((1, k, q, nc))

    def loss():
        y = fdd_downlink_pilots(phi, h, 0.0, np.random.default_rng(0), 4.0)
        return (y.re * a).sum() + (y.im * a).sum()

    check_grads(loss, [phi], rtol=1e-6)


def test_pilot_matrices_are_constant_modulus():
    for _ in range(100):
        phases = RNG.uniform(-10, 10, size=(6, 5))
        w = uplink_pilot_combiner(Tensor(phases), 5)
        mod = np.sqrt(w.re.values ** 2 + w.im.values ** 2)
        assert np.abs(mod - 1 / np.sqrt(5)).max() <= 1e-9
        x = downlink_pilot_symbols(Tensor(phases), 3.0, 5, 4)
        mod = np.sqrt(x.re.values ** 2 + x.im.values ** 2)
        assert np.abs(mod - np.sqrt(3.0 / 20)).max() <= 1e-9


# -- analog assembly and power cap -----------------------------------------

def test_assemble_analog_axis_points():
    f = assemble_analog(np.zeros((3, 2)))
    np.testing.assert_allclose(f.re.values, 1.0, atol=1e-12)
    np.testing.assert_allclose(f.im.values, 0.0, atol=1e-12)
    f = assemble_analog(np.full((3, 2), np.pi / 2))
    np.testing.assert_allclose(f.re.values, 0.0, atol=1e-12)
    np.testing.assert_allclose(f.im.values, 1.0, atol=1e-12)


def test_assemble_analog_gradients():
    theta = Tensor(RNG.uniform(0, 2 * np.pi, size=(3, 2)), requires_grad=True)
    a = RNG.standard_normal((3, 2))
    b = RNG.standard_normal((3, 2))

    def loss():
        f = assemble_analog(theta)
        return (f.re * a).sum() + (f.im * b).sum()

    check_grads(loss, [theta], rtol=1e-6)
    # closed form: d re / d theta = -sin, d im / d theta = cos
    theta.grad = None
    loss().backward()
    expect = -np.sin(theta.values) * a + np.cos(theta.values) * b
    np.testing.assert_allclose(theta.grad, expect, atol=1e-12)


def test_normalize_digital_scales_down_to_cap():
    pt, nc = 8.0, 4
    cap = np.sqrt(pt / nc)
    f_rf = as_pair(np.eye(2).astype(complex))
    raw = np.zeros((nc, 2, 2), dtype=complex)
    raw[:] = np.eye(2) * (2 * cap / np.sqrt(2))   # Frobenius norm 2*cap
    out = normalize_digital(f_rf, as_pair(raw), pt, nc)
    np.testing.assert_allclose(out.re.values, raw.real / 2, atol=1e-12)
    eff = composed.effective_beamformer(f_rf, out)
    norms = np.sqrt(eff.abs2().values.sum(axis=(1, 2)))
    np.testing.assert_allclose(norms, cap, atol=1e-12)


def test_normalize_digital_leaves_feasible_input_alone():
    pt, nc = 8.0, 4
    cap = np.sqrt(pt / nc)
    f_rf = as_pair(np.eye(2).astype(complex))
    raw = np.zeros((nc, 2, 2), dtype=complex)
    raw[:] = np.eye(2) * (0.5 * cap / np.sqrt(2))
    out = normalize_digital(f_rf, as_pair(raw), pt, nc)
    assert np.array_equal(out.re.values, raw.real)
    assert np.array_equal(out.im.values, raw.imag)


def test_normalize_digital_zero_input_unchanged():
    f_rf = as_pair((RNG.standard_normal((3, 2)) * 1j).astype(complex))
    raw = as_pair(np.zeros((4, 2, 2), dtype=complex))
    out = normalize_digital(f_rf, raw, 2.0, 4)
    assert np.all(out.re.values == 0) and np.all(out.im.values == 0)
    assert np.all(np.isfinite(out.re.values))


def test_normalize_digital_random_respects_budget_and_matches_np():
    pt, nc, m, k = 5.0, 6, 4, 2
    cap = np.sqrt(pt / nc)
    for _ in range(20):
        f_rf_c = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(m, k)))
        raw_c = random_h(1, 1, k, k * nc)[0, 0].reshape(k, nc, k)
        raw_c = 3.0 * np.moveaxis(raw_c, 1, 0)    # [Nc, K, K], some over cap
        out = normalize_digital(as_pair(f_rf_c), as_pair(raw_c), pt, nc)
        out_c = out.re.values + 1j * out.im.values
        norms = np.linalg.norm(f_rf_c[None] @ out_c, axis=(1, 2))
        assert np.all(norms <= cap + 1e-12)
        np.testing.assert_allclose(out_c, normalize_digital_np(f_rf_c, raw_c, pt, nc),
                                   atol=1e-12)


def test_normalize_digital_batched_matches_single():
    pt, nc, m, k, nb = 3.0, 2, 3, 2, 4
    f_rf_c = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(nb, m, k)))
    raw_c = 2.5 * (random_h(nb, nc, k, k) + 0.1)  # [B, Nc, K, K]
    out = normalize_digital(as_pair(f_rf_c), as_pair(raw_c), pt, nc)
    for b in range(nb):
        one = normalize_digital(as_pair(f_rf_c[b]), as_pair(raw_c[b]), pt, nc)
        np.testing.assert_allclose(out.re.values[b], one.re.values, atol=1e-12)
        np.testing.assert_allclose(out.im.values[b], one.im.values, atol=1e-12)


def test_normalize_digital_gradients_both_branches():
    pt, nc, m, k = 2.0, 2, 3, 2
    f_rf_c = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(m, k)))
    # one subcarrier far over the cap, one far under: both branches exercised
    raw_c = np.stack([5.0 * np.eye(k, dtype=complex),
                      0.1 * np.eye(k, dtype=complex)])
    raw, params = pair_params(raw_c)
    a = RNG.standard_normal((nc, k, k))

    def loss():
        out = normalize_digital(as_pair(f_rf_c), raw, pt, nc)
        return (out.re * a).sum() + (out.im * a).sum()

    check_grads(loss, params, rtol=1e-5)


# -- sum rate --------------------------------------------------------------

def test_sum_rate_zero_beamformer_is_zero():
    h = random_h(1, 2, 4, 3)[0]
    f_rf = as_pair(np.ones((4, 2), dtype=complex))
    f_bb = as_pair(np.zeros((3, 2, 2), dtype=complex))
    assert float(sum_rate(h, f_rf, f_bb, 1.0).values) == 0.0


def test_sum_rate_scalar_case():
    pt = 3.0
    h = np.ones((1, 1, 1), dtype=complex)
    f_rf = as_pair(np.ones((1, 1), dtype=complex))
    f_bb = as_pair(np.full((1, 1, 1), np.sqrt(pt), dtype=complex))
    got = float(sum_rate(h, f_rf, f_bb, 1.0).values)
    assert abs(got - np.log2(1 + pt)) < 1e-12


def test_sum_rate_matches_scalar_loop_oracle():
    k, m, nc = 2, 4, 4
    for _ in range(10):
        h = random_h(1, k, m, nc)[0]
        f_rf_c = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(m, k)))
        f_bb_c = random_h(1, nc, k, k)[0]
        eff = f_rf_c[None] @ f_bb_c
        want = rate_oracle(h, eff, 0.3)
        got = float(sum_rate(h, as_pair(f_rf_c), as_pair(f_bb_c), 0.3).values)
        assert abs(got - want) / abs(want) <= 1e-12
        assert abs(sum_rate_np(h, eff, 0.3) - want) / abs(want) <= 1e-12


def test_sum_rate_batched_matches_per_sample():
    k, m, nc, nb = 2, 3, 2, 3
    h = random_h(nb, k, m, nc)
    f_rf_c = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(nb, m, k)))
    f_bb_c = random_h(nb, nc, k, k)
    rates = sum_rate(h, as_pair(f_rf_c), as_pair(f_bb_c), 0.5).values
    assert rates.shape == (nb,)
    for b in range(nb):
        one = float(sum_rate(h[b], as_pair(f_rf_c[b]), as_pair(f_bb_c[b]), 0.5).values)
        assert abs(rates[b] - one) <= 1e-12
    eff = f_rf_c[:, None] @ f_bb_c
    np.testing.assert_allclose(sum_rate_np(h, eff, 0.5), rates, atol=1e-12)


def test_sum_rate_invariant_under_column_phase_rotation():
    k, m, nc = 2, 4, 3
    h = random_h(1, k, m, nc)[0]
    f_rf_c = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(m, k)))
    f_bb_c = random_h(1, nc, k, k)[0]
    base = float(sum_rate(h, as_pair(f_rf_c), as_pair(f_bb_c), 0.2).values)
    d = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=k))
    rot = float(sum_rate(h, as_pair(f_rf_c * d[None, :]),
                         as_pair(f_bb_c * np.conj(d)[None, :, None]), 0.2).values)
    assert abs(base - rot) <= 1e-10


def test_sum_rate_monotone_in_power_without_interference():
    m, nc = 4, 3
    h = random_h(1, 1, m, nc)[0]
    f_rf_c = np.exp(-1j * np.angle(h[0, :, 0]))[:, None]
    prev = -1.0
    for pt in [0.5, 1.0, 2.0, 4.0, 8.0]:
        f_bb_c = np.full((nc, 1, 1), np.sqrt(pt / nc) / np.sqrt(m), dtype=complex)
        r = float(sum_rate(h, as_pair(f_rf_c), as_pair(f_bb_c), 1.0).values)
        assert r >= prev
        prev = r


def test_sum_rate_rejects_nonpositive_noise():
    h = random_h(1, 1, 2, 2)[0]
    f_rf = as_pair(np.ones((2, 1), dtype=complex))
    f_bb = as_pair(np.ones((2, 1, 1), dtype=complex))
    for bad in [0.0, -1.0]:
        with pytest.raises(ValueError):
            sum_rate(h, f_rf, f_bb, bad)


def test_sum_rate_gradients_through_full_chain():
    # pilots -> linear map -> power cap -> rate, differentiating the pilot
    # phases and the map together
    m, nc, k, q = 2, 2, 1, 2
    pt = 4.0
    h = random_h(1, k, m, nc)
    phi = Tensor(RNG.uniform(0, 2 * np.pi, size=(q * k, m)), requires_grad=True)
    theta = Tensor(RNG.uniform(0, 2 * np.pi, size=(m, k)), requires_grad=True)
    wmap = Tensor(0.3 * RNG.standard_normal((2 * q * k * nc, 2 * nc * k * k)),
                  requires_grad=True)

    def loss():
        y = tdd_uplink_pilots(phi, h, 0.0, np.random.default_rng(0), k)
        feats = concat([y.re.reshape(1, -1), y.im.reshape(1, -1)], axis=1)
        raw = feats @ wmap
        half = nc * k * k
        fbb = ComplexPair(raw[:, :half].reshape(1, nc, k, k),
                          raw[:, half:].reshape(1, nc, k, k))
        f_rf = assemble_analog(theta)
        fbb = normalize_digital(f_rf.reshape(1, m, k), fbb, pt, nc)
        return sum_rate(h, f_rf.reshape(1, m, k), fbb, 1.0).sum()

    check_grads(loss, [phi, theta, wmap], rtol=1e-4, h=1e-5)


# -- quantizers ------------------------------------------------------------

def test_quantize_phases_examples():
    assert quantize_phases(np.array([2.0]), 1)[0] == np.pi
    assert quantize_phases(np.array([0.8 * np.pi]), 2)[0] == np.pi
    # wrap-around: nearly 2*pi snaps to 0, not to the top grid point
    assert quantize_phases(np.array([2 * np.pi - 1e-6]), 2)[0] == 0.0
    # tie exactly between 0 and step goes to the lower value
    step = 2 * np.pi / 4
    assert quantize_phases(np.array([step / 2]), 2)[0] == 0.0


def test_quantize_phases_nearest_on_wrapped_circle():
    bits = 3
    step = 2 * np.pi / 2 ** bits
    grid = np.arange(2 ** bits) * step
    theta = RNG.uniform(-15, 15, size=1000)
    got = quantize_phases(theta, bits)
    wrapped = np.mod(theta, 2 * np.pi)
    dist = np.abs(wrapped[:, None] - grid[None, :])
    dist = np.minimum(dist, 2 * np.pi - dist)
    assert np.all(np.min(dist, axis=1) <= step / 2 + 1e-12)
    # exhaustive nearest-point oracle; random draws never land on exact ties
    expect = grid[np.argmin(dist, axis=1)]
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_quantize_phases_rejects_nonpositive_bits():
    for bad in [0, -1]:
        with pytest.raises(ValueError):
            quantize_phases(np.array([1.0]), bad)


def test_quantize_phases_straight_through_gradient():
    theta = Tensor(RNG.uniform(0, 2 * np.pi, size=(4,)), requires_grad=True)
    a = RNG.standard_normal(4)
    out = quantize_phases_st(theta, 2)
    np.testing.assert_allclose(out.values, quantize_phases(theta.values, 2))
    (out * a).sum().backward()
    np.testing.assert_allclose(theta.grad, a)


def test_quantize_bits_examples_and_tie():
    np.testing.assert_array_equal(quantize_bits(np.array([0.3, -0.2])), [1, 0])
    assert quantize_bits(np.array([0.0]))[0] == 1
    assert quantize_bits(np.array([0.3])).dtype == np.uint8


def test_bit_surrogate_matches_removed_quantizer_gradient():
    x = Tensor(RNG.uniform(-0.5, 0.5, size=(6,)), requires_grad=True)
    w = RNG.standard_normal(6)
    out = bit_surrogate(x)
    np.testing.assert_allclose(out.values, np.where(x.values >= 0, 0.5, -0.5))
    (out * w).sum().backward()
    g_quantized = x.grad.copy()
    x.grad = None
    (x * w).sum().backward()
    np.testing.assert_allclose(g_quantized, x.grad)


def test_bits_to_surrogate_levels():
    np.testing.assert_allclose(bits_to_surrogate(np.array([0, 1, 1, 0])),
                               [-0.5, 0.5, 0.5, -0.5])


# -- container -------------------------------------------------------------

def test_hybrid_beamformer_validate():
    m, k, nc, pt = 4, 2, 3, 6.0
    theta = RNG.uniform(0, 2 * np.pi, size=(m, k))
    f_rf = np.exp(1j * theta)
    f_bb = normalize_digital_np(f_rf, random_h(1, nc, k, k)[0], pt, nc)
    hb = HybridBeamformer(f_rf=f_rf, f_bb=f_bb)
    validate_hybrid(hb, pt, nc)
    assert hb.effective().shape == (nc, m, k)
    with pytest.raises(ValueError):
        validate_hybrid(HybridBeamformer(f_rf=2.0 * f_rf, f_bb=f_bb), pt, nc)
    with pytest.raises(ValueError):
        validate_hybrid(HybridBeamformer(f_rf=f_rf, f_bb=100.0 * f_bb), pt, nc)
