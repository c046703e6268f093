"""Tensor.backward consumes the graph it walks.

Each interior node drops its grad, closure and parents once its closure has
run; leaves keep their grads. Values must stay bit-identical to the walk
that keeps the graph (composed.backward_retained), and a second backward
through a consumed node must raise instead of giving wrong grads.
"""
import types

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from airbeam.autodiff import Tensor, _released, mish
from airbeam.channel import SystemConfig, sigma_from_snr
from airbeam.layers import Conv1d
from airbeam.networks import build_pipeline
from airbeam.training import (
    STREAM_INIT,
    STREAM_TRAIN,
    STREAM_TRAIN_NOISE,
    gen_dataset,
    stream_rng,
)

import composed

# the criterion-6 system, seed and batch (test_acceptance.C6_CFG / C6_TC)
DESK = dict(ny=4, nz=4, nc=8, k_users=2, q_pilots=4, pt=8.0, snr_db=10.0,
            feedback_bits=20)
SEED, BATCH = 0, 1024


def graph_nodes(root):
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node._parents)
    return out


@pytest.fixture(scope="module")
def desk():
    cfg = SystemConfig(**DESK)
    pipe = build_pipeline("fdd", cfg, rng=stream_rng(SEED, STREAM_INIT))
    h = gen_dataset(cfg, BATCH, SEED, STREAM_TRAIN).h

    def loss():
        rng = stream_rng(SEED, STREAM_TRAIN_NOISE, 0)
        return -pipe.rates(h, sigma_from_snr(cfg), rng).mean()
    return pipe, loss


def grads_after(walk, loss, params):
    for p in params:
        p.grad = None
    out = loss()
    walk(out)
    return out.values.copy(), [p.grad for p in params]


def test_backward_frees_interior_nodes_and_keeps_leaf_grads(desk):
    pipe, loss = desk
    params = pipe.parameters()
    for p in params:
        p.grad = None
    out = loss()
    nodes = graph_nodes(out)
    interior = [n for n in nodes if n._backward is not None]
    assert out in interior and len(interior) > 100
    out.backward()
    for node in interior:
        assert node.grad is None and node._parents == ()
        assert node._backward is _released
    for name, p in pipe.named_parameters():
        assert p.grad is not None and p.grad.shape == p.shape, name


def test_release_is_bit_identical_at_criterion_6_seed(desk):
    pipe, loss = desk
    params = pipe.parameters()
    want, want_grads = grads_after(composed.backward_retained, loss, params)
    got, got_grads = grads_after(Tensor.backward, loss, params)
    assert np.array_equal(got, want)
    for (name, _), g, w in zip(pipe.named_parameters(), got_grads, want_grads):
        assert np.array_equal(g, w), name


def paper_conv_pair(batch):
    """Two chained im2col convs at a paper ResBlock's widths (L = 32)."""
    rng = np.random.default_rng(3)
    first, second = Conv1d(64, 256, rng), Conv1d(256, 64, rng)
    x = Tensor(rng.standard_normal((batch, 64, 1, 32)), requires_grad=True)
    readout = rng.standard_normal((batch, 64, 1, 32))

    def loss():
        return (second(mish(first(x))) * readout).sum()
    return first, second, x, loss


def test_release_is_bit_identical_on_paper_conv():
    first, second, x, loss = paper_conv_pair(8)
    leaves = [x, first.w, first.b, second.w, second.b]
    want, want_grads = grads_after(composed.backward_retained, loss, leaves)
    got, got_grads = grads_after(Tensor.backward, loss, leaves)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.array_equal(g, w)


def test_rebuilt_columns_give_the_stored_columns_weight_grad():
    # the weight gradient against columns formed once, as forward forms them
    rng = np.random.default_rng(4)
    layer = Conv1d(64, 256, rng)
    x = Tensor(rng.standard_normal((8, 64, 1, 32)), requires_grad=True)
    g = rng.standard_normal((8, 256, 1, 32))
    (layer(x) * g).sum().backward()
    nb, c, _, length = x.shape
    k, pad, o = layer.kernel, layer.kernel // 2, layer.c_out
    xp = np.zeros((nb, length + 2 * pad, c))
    xp[:, pad:pad + length, :] = x.values[:, :, 0, :].transpose(0, 2, 1)
    cols = sliding_window_view(xp, k, axis=1).transpose(0, 1, 3, 2).reshape(
        nb * length, k * c)
    gm = g[:, :, 0, :].transpose(0, 2, 1).reshape(nb * length, o)
    assert np.array_equal(layer.w.grad,
                          (gm.T @ cols).reshape(o, k, c).transpose(0, 2, 1))


def test_second_backward_raises():
    x = Tensor([0.0, 2.0, 4.0], requires_grad=True)
    y = (x * x).sum()
    y.backward()
    assert np.array_equal(x.grad, [0.0, 4.0, 8.0])
    with pytest.raises(RuntimeError, match="already freed"):
        y.backward()
    assert np.array_equal(x.grad, [0.0, 4.0, 8.0])


def test_backward_through_a_released_interior_node_raises():
    x = Tensor([1.0, -3.0], requires_grad=True)
    h = composed.tanh(x)
    h.sum().backward()
    with pytest.raises(RuntimeError, match="already freed"):
        (h * 2.0).sum().backward()


def closure_arrays(fn):
    """Every ndarray a closure reaches through its cells, nested closures
    and the values of the tensors it holds."""
    out, stack, seen = [], [fn], set()
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                out.append(v)
            elif isinstance(v, Tensor):
                out.append(v.values)
            elif isinstance(v, types.FunctionType):
                stack.append(v)
    return out


def test_im2col_backward_keeps_nothing_the_size_of_the_columns():
    batch, c, length = 64, 64, 32
    layer = Conv1d(c, 256, np.random.default_rng(5))
    x = Tensor(np.ones((batch, c, 1, length)), requires_grad=True)
    out = layer(x)
    assert length > 2 * layer.kernel            # the im2col path
    sizes = [a.size for a in closure_arrays(out._backward)]
    assert sizes and max(sizes) < layer.kernel * batch * length * c
