"""Complex arithmetic on top of the real autodiff engine.

A complex array is carried as a (re, im) pair of Tensors. Pilot sounding and
the delay-domain transform compose ComplexPair operations, where a complex
matmul costs four real matmuls. Hot compositions are instead one `fused`
node that computes on complex128 arrays and writes its own backward pass
with Wirtinger cotangents; the power cap and the sum rate are built so.
`__sub__`, `__rmul__`, `conj`, `reshape` and `abs2` have no caller in the
package any more: the composed oracles in tests/composed.py use them, and
perfbench's tracer patches every ComplexPair method by name.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _node, astensor


class ComplexPair:
    """Complex-valued array as paired real tensors."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = astensor(re)
        self.im = astensor(im)
        if self.re.shape != self.im.shape:
            raise ValueError(f"re/im shape mismatch: {self.re.shape} vs {self.im.shape}")

    @classmethod
    def from_complex(cls, arr, requires_grad=False):
        arr = np.asarray(arr)
        return cls(Tensor(arr.real.copy(), requires_grad), Tensor(arr.imag.copy(), requires_grad))

    def numpy(self):
        return self.re.values + 1j * self.im.values

    @property
    def shape(self):
        return self.re.shape

    def __repr__(self):
        return f"ComplexPair(shape={self.re.shape})"

    def __add__(self, other):
        return ComplexPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        # Elementwise complex product; `other` may be a real Tensor/scalar.
        if isinstance(other, ComplexPair):
            return ComplexPair(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        return ComplexPair(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        # (A + jB)(C + jD) = (AC - BD) + j(AD + BC)
        return ComplexPair(self.re @ other.re - self.im @ other.im,
                           self.re @ other.im + self.im @ other.re)

    def conj(self):
        return ComplexPair(self.re, -self.im)

    def swapaxes(self, ax1, ax2):
        return ComplexPair(self.re.swapaxes(ax1, ax2), self.im.swapaxes(ax1, ax2))

    def conj_t(self):
        """Hermitian transpose over the trailing two axes."""
        return ComplexPair(self.re.swapaxes(-1, -2), -self.im.swapaxes(-1, -2))

    def reshape(self, *shape):
        return ComplexPair(self.re.reshape(*shape), self.im.reshape(*shape))

    def __getitem__(self, key):
        return ComplexPair(self.re[key], self.im[key])

    def abs2(self):
        """Squared modulus as a real Tensor."""
        return self.re * self.re + self.im * self.im


def cexp(theta):
    """exp(j*theta) for a real Tensor theta: entries of unit modulus."""
    theta = astensor(theta)
    return ComplexPair(theta.cos(), theta.sin())


def as_pair(x):
    if isinstance(x, ComplexPair):
        return x
    return ComplexPair.from_complex(np.asarray(x, dtype=np.complex128))


def fused(values, pairs, backward):
    """One graph node over the ComplexPairs `pairs`, computed on complex128.

    A real `values` array becomes a Tensor, a complex one a ComplexPair.
    backward(g) gets the output cotangent, for a complex output as one
    array g = dL/d re + j dL/d im, and returns one cotangent of that form
    per input pair, shaped like the pair (or with a leading axis of 1).
    A complex output is two tensors but one backward pass: the imaginary
    part is a child of the real part and hands its cotangent over, so the
    reverse walk reaches the real part last, with both cotangents in hand.
    """
    parents = tuple(t for p in pairs for t in (p.re, p.im))

    def scatter(g):
        for p, c in zip(pairs, backward(g)):
            c = c.reshape(p.shape)
            if p.re.requires_grad:
                p.re._accum(c.real)
            if p.im.requires_grad:
                p.im._accum(c.imag)

    if not np.iscomplexobj(values):
        return _node(values, parents, scatter)
    shape, handed = values.shape, []

    def backward_re(g_re):
        g = np.zeros(shape, dtype=np.complex128)
        if g_re is not None:
            g.real = g_re
        if handed and handed[0] is not None:
            g.imag = handed[0]
        scatter(g)

    re = _node(np.ascontiguousarray(values.real), parents, backward_re)
    im = _node(np.ascontiguousarray(values.imag), (re,), handed.append)
    return ComplexPair(re, im)
