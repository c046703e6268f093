"""Fused Mish, Conv1d and BatchNorm against their composed oracles.

Each fused op is one graph node with a hand-written backward pass; the
composed forms in composed.py build the same function from smaller pieces.
Outputs and every gradient must agree to 1e-12 relative at the desk
system's shapes (batch 1024, Nc = 8 subcarriers).
"""
import numpy as np
import pytest

from airbeam.autodiff import Tensor, mish
from airbeam.layers import BatchNorm, Conv1d

import composed

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


@pytest.mark.parametrize("shape", [(1024, 32, 1, 8), (1024, 64)])
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
