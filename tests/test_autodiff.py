"""Engine-level gradient checks against the finite-difference oracle."""
import numpy as np
import pytest

from airbeam.autodiff import (Module, Tensor, cap_scale, concat, log2, mish,
                              no_grad, straight_through)
from airbeam.cplx import ComplexPair, as_pair, cexp

from helpers import check_grads, numeric_grad

RNG = np.random.default_rng(7)


def leaf(shape, scale=1.0):
    return Tensor(RNG.uniform(-scale, scale, shape), requires_grad=True)


def test_backward_identity_and_square():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    y.backward()
    assert y.item() == 9.0
    assert x.grad == pytest.approx(6.0)


def test_item_on_one_element_vector():
    x = Tensor([2.5], requires_grad=True)
    y = x * x
    y.backward()
    assert y.item() == 6.25 and isinstance(y.item(), float)
    assert x.grad == pytest.approx([5.0])
    with pytest.raises(ValueError, match="one-element"):
        Tensor([1.0, 2.0]).item()


def test_repeated_subexpression_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = x + x
    y.backward()
    assert x.grad == pytest.approx(2.0)


def test_fanout_through_two_paths():
    x = Tensor(0.7, requires_grad=True)
    y = x.tanh() * x.exp() + x * x
    y.backward()

    def f(v):
        return float(np.tanh(v) * np.exp(v) + v * v)

    want = numeric_grad(f, np.array(0.7))
    assert x.grad == pytest.approx(float(want), rel=1e-6)


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (b + 3.0),
])
def test_elementwise_binary_grads(op):
    a, b = leaf((3, 4)), leaf((3, 4))
    check_grads(lambda: op(a, b).sum(), [a, b])


def test_broadcasting_grads():
    a, b = leaf((2, 3, 4)), leaf((1, 4))
    c = leaf((3, 1))
    check_grads(lambda: (a * b + c).sum(), [a, b, c])


def test_matmul_grads_2d():
    a, b = leaf((4, 8)), leaf((8, 3))
    check_grads(lambda: (a @ b).sum(), [a, b])


def test_matmul_grads_batched_broadcast():
    a, b = leaf((5, 2)), leaf((3, 4, 2, 6))
    w = Tensor(RNG.standard_normal((3, 4, 5, 6)))
    check_grads(lambda: ((a @ b) * w).sum(), [a, b])


def test_matmul_shape_errors():
    a, b = leaf((4, 3)), leaf((4, 3))
    with pytest.raises(ValueError, match="mismatch"):
        a @ b
    with pytest.raises(ValueError, match="2-d"):
        Tensor(np.ones(3), requires_grad=True) @ b


@pytest.mark.parametrize("fn", [
    lambda x: x.exp(), lambda x: (x + 2.0).log(), lambda x: (x + 2.0).sqrt(),
    lambda x: x.tanh(), lambda x: x.sigmoid(), lambda x: x.softplus(),
    lambda x: x.sin(), lambda x: x.cos(), mish, lambda x: log2(x + 2.0),
])
def test_unary_grads(fn):
    x = leaf((4, 5))
    w = Tensor(RNG.standard_normal((4, 5)))
    check_grads(lambda: (fn(x) * w).sum(), [x])


def test_shaping_grads():
    x = leaf((2, 3, 4))
    w = Tensor(np.random.default_rng(0).standard_normal((6, 4)))

    def loss():
        y = x.transpose((1, 0, 2)).reshape(6, 4)
        z = concat([y[:2], y[2:]], axis=0)
        return ((z @ Tensor(np.eye(4))) * w).sum()

    check_grads(loss, [x])


def test_sum_axis_keepdims_grads():
    x = leaf((3, 4, 5))
    check_grads(lambda: (x.sum(axis=(0, 2)) * Tensor([1.0, -2.0, 3.0, 0.5])).sum(), [x])
    check_grads(lambda: (x.mean(axis=1, keepdims=True) * Tensor(np.ones((3, 1, 5)))).sum(), [x])


def test_getitem_grads():
    x = leaf((4, 6))
    check_grads(lambda: (x[1:3, ::2] * 2.0).sum() + x[0, 0], [x])


def test_softplus_stable_and_exact():
    x = Tensor([-1000.0, 0.0, 1000.0])
    y = x.softplus()
    assert np.all(np.isfinite(y.values))
    assert y.values[0] == pytest.approx(0.0, abs=1e-12)
    assert y.values[1] == pytest.approx(np.log(2.0))
    assert y.values[2] == pytest.approx(1000.0)


def test_sigmoid_matches_logistic_without_overflow():
    v = np.linspace(-20.0, 20.0, 401)
    np.testing.assert_allclose(Tensor(v).sigmoid().values, 1.0 / (1.0 + np.exp(-v)),
                               rtol=1e-9, atol=1e-15)
    y = Tensor([-1000.0, 0.0, 1000.0]).sigmoid().values
    assert list(y) == [0.0, 0.5, 1.0]


def test_mish_values():
    assert mish(Tensor(0.0)).item() == 0.0
    assert mish(Tensor(1.0)).item() == pytest.approx(0.865098, abs=1e-6)
    assert mish(Tensor(50.0)).item() == pytest.approx(50.0, abs=1e-9)


def test_mish_monotone_nonnegative_axis():
    x = np.linspace(0.0, 20.0, 4001)
    y = mish(Tensor(x)).values
    assert np.all(np.diff(y) > 0)
    assert abs(mish(Tensor(30.0)).item() - 30.0) < 1e-9


def test_straight_through_sign_quantizer():
    x = Tensor(0.3, requires_grad=True)
    y = straight_through(x, np.sign)
    y.backward()
    assert y.item() == 1.0
    assert x.grad == pytest.approx(1.0)


def test_straight_through_graph_equivalence():
    # With a fixed linear readout the leaf gradient must match the graph
    # where the quantizer is replaced by the identity.
    w = np.array([0.7, -1.3, 2.1, 0.4])
    x0 = np.array([0.3, -0.8, 1.7, -2.2])

    def run(quantize):
        x = Tensor(x0, requires_grad=True)
        h = (x * 1.5).tanh()
        out = straight_through(h, np.sign) if quantize else h
        (out * Tensor(w)).sum().backward()
        return x.grad

    assert run(True) == pytest.approx(run(False))


def test_cap_scale_both_branches():
    x = leaf((5,), scale=1.0)
    x.values = np.abs(x.values) + 0.1
    # below the cap: multiplier 1, zero derivative
    y = cap_scale(x, cap=10.0)
    assert np.allclose(y.values, 1.0)
    # above the cap: multiplier cap/||.||, FD-checked away from the kink
    big = Tensor(np.array([9.0, 16.0, 30.0]), requires_grad=True)
    w = Tensor([1.0, 2.0, 3.0])
    check_grads(lambda: (cap_scale(big, 2.0) * w).sum(), [big])
    assert cap_scale(Tensor([0.0]), 1.0).values[0] == 1.0


def test_no_grad_builds_no_graph():
    x = Tensor(1.0, requires_grad=True)
    with no_grad():
        y = x * 2.0 + 1.0
    assert y._backward is None and not y.requires_grad


def test_backward_requires_scalar():
    x = leaf((3,))
    with pytest.raises(ValueError, match="scalar"):
        x.backward()


def test_complex_matmul_and_abs2():
    a = np.array([[1 + 2j, 0.5 - 1j], [2.0 + 0j, -1j]])
    b = np.array([[0.3 - 0.4j], [1 + 1j]])
    got = (as_pair(a) @ as_pair(b)).numpy()
    assert np.allclose(got, a @ b, atol=1e-14)
    assert np.allclose(as_pair(b).abs2().values, np.abs(b) ** 2)


def test_complex_matmul_grads():
    ar, ai = leaf((3, 4)), leaf((3, 4))
    br, bi = leaf((4, 2)), leaf((4, 2))
    w = np.random.default_rng(1).standard_normal((3, 2))

    def loss():
        prod = ComplexPair(ar, ai) @ ComplexPair(br, bi)
        return (prod.abs2() * Tensor(w)).sum()

    check_grads(loss, [ar, ai, br, bi])


def test_cexp_unit_modulus_and_grads():
    th = leaf((4, 3), scale=np.pi)
    e = cexp(th)
    assert np.allclose(e.abs2().values, 1.0, atol=1e-12)
    w = np.random.default_rng(2).standard_normal((4, 3))
    check_grads(lambda: (cexp(th).re * Tensor(w) + cexp(th).im).sum(), [th])


def test_module_registry_unique_names():
    class Child(Module):
        def __init__(self):
            super().__init__()
            self.w = Tensor(np.ones(3), requires_grad=True)

    class Parent(Module):
        def __init__(self):
            super().__init__()
            self.a = Child()
            self.b = Child()
            self.bias = Tensor(np.zeros(2), requires_grad=True)

    p = Parent()
    names = [n for n, _ in p.named_parameters()]
    assert names == ["bias", "a.w", "b.w"]
    assert len(names) == len(set(names))
    tensors = [t for _, t in p.named_parameters()]
    assert len({id(t) for t in tensors}) == len(tensors)


def test_state_dict_round_trip_and_mismatch():
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.w = Tensor(np.arange(4.0), requires_grad=True)

    a, b = Net(), Net()
    b.w.values[:] = 0
    b.load_state_dict(a.state_dict())
    assert np.array_equal(b.w.values, a.w.values)
    with pytest.raises(ValueError, match="w"):
        bad = a.state_dict()
        bad["w"] = np.zeros((2, 2))
        b.load_state_dict(bad)
    with pytest.raises(ValueError, match="mismatch"):
        b.load_state_dict({"nope": np.zeros(4)})
