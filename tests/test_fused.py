"""Fused Mish, Conv1d, BatchNorm, power cap and sum rate against their
composed oracles.

Each fused op is one graph node with a hand-written backward pass; the
composed forms in composed.py build the same function from smaller pieces.
Outputs and every gradient must agree to 1e-12 relative at the desk
system's shapes (batch 1024, Nc = 8 subcarriers), Conv1d on both sides of
the length at which it switches from the banded GEMM to im2col, and the
rate chain also at paper shapes and on one unbatched realization. The rate
chain is checked against finite differences too.
"""
import numpy as np
import pytest

from airbeam import airlink
from airbeam.airlink import (assemble_analog, normalize_digital, normalize_digital_np,
                             sum_rate, sum_rate_np)
from airbeam.autodiff import Tensor, mish
from airbeam.cplx import ComplexPair
from airbeam.layers import BatchNorm, Conv1d

import composed
from helpers import check_grads

RTOL = 1e-12


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def run(build, leaves, readout):
    """Output values and the gradient of sum(out * readout) on each leaf."""
    for p in leaves:
        p.grad = None
    out = build()
    (out * readout).sum().backward()
    return out.values, [p.grad for p in leaves]


def assert_same(fused, oracle, leaves, out_shape, seed=0):
    readout = np.random.default_rng(seed).standard_normal(out_shape)
    got, got_grads = run(fused, leaves, readout)
    want, want_grads = run(oracle, leaves, readout)
    assert rel_err(got, want) <= RTOL
    for p, g, w in zip(leaves, got_grads, want_grads):
        assert g.shape == p.shape
        assert rel_err(g, w) <= RTOL, f"gradient of shape {p.shape}"


# -- Mish --------------------------------------------------------------------

def test_mish_matches_composed_at_desk_shape():
    x = Tensor(np.random.default_rng(1).normal(scale=2.0, size=(1024, 64)),
               requires_grad=True)
    assert_same(lambda: mish(x), lambda: composed.mish(x), [x], x.shape)


def test_mish_extremes_stay_finite():
    v = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    x = Tensor(v, requires_grad=True)
    assert_same(lambda: mish(x), lambda: composed.mish(x), [x], x.shape)
    x.grad = None
    y = mish(x)
    y.sum().backward()
    assert np.all(np.isfinite(y.values)) and np.all(np.isfinite(x.grad))
    assert y.values[-1] == 800.0 and y.values[-2] == pytest.approx(30.0, abs=1e-9)
    assert x.grad[-1] == 1.0 and x.grad[0] == 0.0


def test_mish_is_one_node():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mish(x)
    assert y._parents == (x,)


# -- Conv1d ------------------------------------------------------------------

@pytest.mark.parametrize("c_in,c_out,kernel,length", [
    (16, 32, 5, 8),     # desk ResBlock middle conv
    (8, 16, 3, 8),
    (32, 8, 7, 8),
    (8, 16, 5, 1),      # length shorter than the kernel
    (8, 16, 3, 1),
    (8, 16, 5, 2),
    (8, 16, 3, 2),
    (8, 16, 7, 2),
    (8, 16, 5, 10),     # longest banded length for kernel 5
    (8, 16, 5, 11),     # shortest im2col length for kernel 5
    (8, 16, 5, 16),
    (8, 16, 5, 32),     # paper-scale subcarrier count
    (8, 16, 3, 7),
])
def test_conv1d_matches_composed(c_in, c_out, kernel, length):
    rng = np.random.default_rng(kernel * 10 + length)
    layer = Conv1d(c_in, c_out, rng, kernel=kernel)
    layer.b.values = rng.standard_normal(c_out)
    x = Tensor(rng.uniform(-1, 1, (1024, c_in, 1, length)), requires_grad=True)
    assert_same(lambda: layer(x), lambda: composed.conv1d(layer, x),
                [x, layer.w, layer.b], (1024, c_out, 1, length))


def test_conv1d_is_one_node():
    layer = Conv1d(2, 3, np.random.default_rng(0))
    x = Tensor(np.ones((2, 2, 1, 4)), requires_grad=True)
    y = layer(x)
    assert set(map(id, y._parents)) == {id(x), id(layer.w), id(layer.b)}


# -- BatchNorm ---------------------------------------------------------------

def _twin_bns(n, rng):
    """Two BatchNorms with the same random affine and running statistics."""
    gamma, beta = rng.uniform(0.5, 1.5, n), rng.normal(size=n)
    mean, var = rng.normal(size=n), rng.uniform(0.5, 2.0, n)
    out = []
    for _ in range(2):
        bn = BatchNorm(n)
        bn.gamma.values, bn.beta.values = gamma.copy(), beta.copy()
        bn.running_mean, bn.running_var = mean.copy(), var.copy()
        out.append(bn)
    return out


@pytest.mark.parametrize("shape", [(1024, 32, 1, 8), (1024, 64), (256, 32, 1, 8),
                                   (64, 64, 1, 32)])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_matches_composed(shape, training):
    rng = np.random.default_rng(shape[1])
    fused, oracle = _twin_bns(shape[1], rng)
    fused.set_training(training)
    oracle.set_training(training)
    x = Tensor(rng.uniform(-2, 3, shape), requires_grad=True)
    readout = rng.standard_normal(shape)
    got, (gx, gg, gb) = run(lambda: fused(x), [x, fused.gamma, fused.beta], readout)
    want, (wx, wg, wb) = run(lambda: composed.batchnorm(oracle, x),
                             [x, oracle.gamma, oracle.beta], readout)
    assert rel_err(got, want) <= RTOL
    for g, w in ((gx, wx), (gg, wg), (gb, wb)):
        assert rel_err(g, w) <= RTOL
    np.testing.assert_array_equal(fused.running_mean, oracle.running_mean)
    np.testing.assert_array_equal(fused.running_var, oracle.running_var)


def test_batchnorm_is_one_node():
    bn = BatchNorm(2)
    x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    for training in (True, False):
        bn.set_training(training)
        y = bn(x)
        assert set(map(id, y._parents)) == {id(x), id(bn.gamma), id(bn.beta)}


# -- power cap and sum rate ---------------------------------------------------

DESK_SHAPE = dict(nb=1024, k=2, m=16, nc=8)
PAPER_SHAPE = dict(nb=8, k=4, m=64, nc=32)
PT, SIGMA2 = 8.0, 0.3


def chain_inputs(nb, k, m, nc, seed=0):
    """Channels, phases and raw digital beamformers with each sample's
    subcarriers scaled between far below and far above the power cap.
    nb=None gives one unbatched realization."""
    rng = np.random.default_rng(seed)
    lead = () if nb is None else (nb,)
    h = (rng.standard_normal(lead + (k, m, nc))
         + 1j * rng.standard_normal(lead + (k, m, nc))) / np.sqrt(2)
    theta = Tensor(rng.uniform(0, 2 * np.pi, lead + (m, k)), requires_grad=True)
    scale = np.geomspace(0.01, 3.0, nc).reshape(nc, 1, 1) / np.sqrt(m)
    re = Tensor(rng.standard_normal(lead + (nc, k, k)) * scale, requires_grad=True)
    im = Tensor(rng.standard_normal(lead + (nc, k, k)) * scale, requires_grad=True)
    return h, theta, re, im


def chain(ops, h, theta, re, im):
    """theta and raw F_BB to the power-capped F_BB and the sum rate."""
    f_rf = assemble_analog(theta)
    f_bb = ops.normalize_digital(f_rf, ComplexPair(re, im), PT, h.shape[-1])
    return f_bb, ops.sum_rate(h, f_rf, f_bb, SIGMA2)


def cap_share(h, theta, re, im):
    """Fraction of subcarriers whose raw digital beamformer is over the cap."""
    f = np.exp(1j * theta.values)
    eff = f[..., None, :, :] @ (re.values + 1j * im.values)
    return np.mean(np.linalg.norm(eff, axis=(-2, -1)) > np.sqrt(PT / h.shape[-1]))


@pytest.mark.parametrize("shape", [DESK_SHAPE, PAPER_SHAPE, dict(nb=None, k=2, m=5, nc=3)],
                         ids=["desk", "paper", "single"])
def test_rate_chain_matches_composed(shape):
    h, theta, re, im = chain_inputs(**shape)
    assert 0.0 < cap_share(h, theta, re, im) < 1.0
    leaves = [theta, re, im]
    readout = np.random.default_rng(1).standard_normal(h.shape[:-3])
    results = []
    for ops in (airlink, composed):
        for p in leaves:
            p.grad = None
        f_bb, rate = chain(ops, h, theta, re, im)
        (rate * readout).sum().backward()
        results.append((f_bb.numpy(), rate.values, [p.grad for p in leaves]))
    (got_bb, got, got_grads), (want_bb, want, want_grads) = results
    assert rate.shape == h.shape[:-3]
    assert rel_err(got_bb, want_bb) <= RTOL
    assert rel_err(got, want) <= RTOL
    for p, g, w in zip(leaves, got_grads, want_grads):
        assert g.shape == p.shape
        assert rel_err(g, w) <= RTOL, f"gradient of shape {p.shape}"


def test_rate_chain_finite_differences():
    h, theta, re, im = chain_inputs(nb=3, k=2, m=4, nc=4, seed=3)
    assert 0.0 < cap_share(h, theta, re, im) < 1.0
    readout = np.array([0.7, -1.2, 0.4])
    check_grads(lambda: (chain(airlink, h, theta, re, im)[1] * readout).sum(),
                [theta, re, im], rtol=1e-4, h=1e-6)


def test_power_cap_finite_differences_on_digital_output():
    h, theta, re, im = chain_inputs(nb=2, k=2, m=3, nc=4, seed=4)
    assert 0.0 < cap_share(h, theta, re, im) < 1.0
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(re.shape), rng.standard_normal(re.shape)

    def loss():
        f_bb = normalize_digital(assemble_analog(theta), ComplexPair(re, im), PT, 4)
        return (f_bb.re * a).sum() + (f_bb.im * b).sum()

    check_grads(loss, [theta, re, im], rtol=1e-4, h=1e-6)


def test_numpy_scoring_matches_composed():
    h, theta, re, im = chain_inputs(**DESK_SHAPE)
    f_rf = np.exp(1j * theta.values)
    raw = re.values + 1j * im.values
    capped = np.stack([normalize_digital_np(f, x, PT, 8) for f, x in zip(f_rf[:64], raw[:64])])
    want = composed.normalize_digital(ComplexPair.from_complex(f_rf[:64]),
                                      ComplexPair.from_complex(raw[:64]), PT, 8).numpy()
    assert rel_err(capped, want) <= RTOL
    eff = f_rf[:, None] @ raw
    want = composed.sum_rate_effective(h, eff, SIGMA2).values
    assert rel_err(sum_rate_np(h, eff, SIGMA2), want) <= RTOL
    one = sum_rate_np(h[0], eff[0], SIGMA2)
    assert isinstance(one, float) and abs(one - want[0]) <= RTOL * abs(want[0])


def test_rate_chain_is_three_nodes():
    h, theta, re, im = chain_inputs(nb=2, k=2, m=3, nc=2)
    f_rf = assemble_analog(theta)
    raw = ComplexPair(re, im)
    rate = sum_rate(h, f_rf, normalize_digital(f_rf, raw, PT, 2), SIGMA2)
    inputs = {id(t) for t in (f_rf.re, f_rf.im, raw.re, raw.im)}
    nodes, stack = set(), [rate]
    while stack:
        node = stack.pop()
        if id(node) in inputs or id(node) in nodes:
            continue
        nodes.add(id(node))
        stack.extend(node._parents)
    assert len(nodes) <= 3
