"""Degenerate channels at the desk system: a zero user, a collinear user
(h_1 = 2j h_0) and an all-zero channel. Every learned and classical rate
must stay finite on them, and so must every gradient of a training step.
"""
import warnings

import numpy as np
import pytest

from airbeam.airlink import assemble_analog, normalize_digital, sum_rate
from airbeam.autodiff import Tensor
from airbeam.channel import SystemConfig, sigma_from_snr
from airbeam.cplx import ComplexPair, as_pair
from airbeam.experiment import CLASSICAL_SCHEMES, classical_rates
from airbeam.networks import build_pipeline
from airbeam.training import STREAM_INIT, STREAM_TEST, gen_dataset, stream_rng

DESK = SystemConfig(ny=4, nz=4, nc=8, k_users=2, q_pilots=4, pt=8.0, snr_db=10.0,
                    feedback_bits=20)
SIGMA2 = sigma_from_snr(DESK)


def degenerate_pool(kind, n=4):
    h = gen_dataset(DESK, n, seed=9, stream=STREAM_TEST).h
    if kind == "zero_user":
        h[:, 1] = 0.0
    elif kind == "collinear":
        h[:, 1] = 2j * h[:, 0]
    else:
        h[:] = 0.0
    return h


KINDS = ["zero_user", "collinear", "all_zero"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["tdd", "fdd"])
def test_learned_rates_and_gradients_are_finite(kind, mode):
    h = degenerate_pool(kind)
    pipe = build_pipeline(mode, DESK, rng=stream_rng(0, STREAM_INIT))
    rates = pipe.rates(h, SIGMA2, np.random.default_rng(1))
    assert np.all(np.isfinite(rates.values))
    (-rates.mean()).backward()
    for name, p in pipe.named_parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name


@pytest.mark.parametrize("kind", KINDS)
def test_fused_chain_is_finite(kind):
    h = degenerate_pool(kind)
    rng = np.random.default_rng(2)
    theta = Tensor(rng.uniform(0, 2 * np.pi, (len(h), DESK.m_antennas, 2)), requires_grad=True)
    re = Tensor(rng.standard_normal((len(h), DESK.nc, 2, 2)), requires_grad=True)
    im = Tensor(rng.standard_normal((len(h), DESK.nc, 2, 2)), requires_grad=True)
    f_rf = assemble_analog(theta)
    f_bb = normalize_digital(f_rf, ComplexPair(re, im), DESK.pt, DESK.nc)
    rate = sum_rate(h, f_rf, f_bb, SIGMA2)
    rate.sum().backward()
    assert np.all(np.isfinite(rate.values))
    for p in (theta, re, im):
        assert np.all(np.isfinite(p.grad))
    if kind == "all_zero":
        assert np.all(rate.values == 0.0)


def test_zero_power_keeps_scale_one_with_finite_gradient():
    rng = np.random.default_rng(3)
    f_rf = as_pair(np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 16, 2))))
    re = Tensor(np.zeros((2, 8, 2, 2)), requires_grad=True)
    im = Tensor(np.zeros((2, 8, 2, 2)), requires_grad=True)
    out = normalize_digital(f_rf, ComplexPair(re, im), DESK.pt, DESK.nc)
    a, b = rng.standard_normal(re.shape), rng.standard_normal(re.shape)
    ((out.re * a).sum() + (out.im * b).sum()).backward()
    assert np.all(out.re.values == 0.0) and np.all(out.im.values == 0.0)
    # scale 1: the cotangent passes through unchanged
    np.testing.assert_array_equal(re.grad, a)
    np.testing.assert_array_equal(im.grad, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheme", CLASSICAL_SCHEMES)
def test_classical_rates_are_finite(kind, scheme):
    h = degenerate_pool(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # ridged solves warn, by design
        rate = classical_rates(scheme, DESK, h, seed=4, grid_az=2 * DESK.ny,
                               grid_ze=2 * DESK.nz)
    assert np.isfinite(rate)
