"""Differentiable layer primitives: dense, 1-d convolution, batch norm.

Convolutions run along the last axis of [batch, channels, 1, length] inputs
(the dummy axis keeps the planar-image layout the beamformer networks use);
batch norm normalizes per channel over every other axis.

Conv1d and BatchNorm are each a single fused graph node with a hand-written
backward pass, as is `autodiff.mish`. Conv1d picks its form from the input
length L and the kernel width k:

- L <= 2k (the desk system's 8 subcarriers): one GEMM of the flattened input
  [B, C*L] against a banded [C*L, O*L] matrix that holds each tap on one
  diagonal, so the output comes out in [B, O, 1, L] order with no padding,
  im2col or transpose. It does L/k times the multiply-adds of im2col, which
  pays only while that ratio is small, and the backward pass is two GEMMs
  plus a fold of each tap's diagonal back into the weight gradient.
- L > 2k (paper scale, 32 subcarriers): one im2col GEMM forward and two
  GEMMs plus a col2im scatter-add backward (Chellapilla et al. 2006). The
  node keeps only its input for backward: the columns, k times the input's
  size, are rebuilt from it for the weight gradient (Chen et al. 2016)
  instead of being held from forward to backward.

BatchNorm keeps the closed-form backward of Ioffe & Szegedy (2015) and does
its per-channel broadcasts on rows [B, C*S], S the product of the trailing
axes, so the inner loops run over whole rows rather than S elements. Dense
stays a composition of matmul and add.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Module, Tensor, _node, mish


def uniform_fan_in(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Dense(Module):
    def __init__(self, n_in, n_out, rng):
        super().__init__()
        self.w = Tensor(uniform_fan_in(rng, n_in, (n_in, n_out)), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)
        self.n_in = n_in
        self.n_out = n_out

    def __call__(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense expects [batch, {self.n_in}], got {x.shape}")
        return x @ self.w + self.b


class Conv1d(Module):
    """Same-padded conv over the length axis, kernel 1x5 by default."""

    def __init__(self, c_in, c_out, rng, kernel=5):
        super().__init__()
        if kernel % 2 == 0:
            raise ValueError("kernel width must be odd for same padding")
        self.w = Tensor(uniform_fan_in(rng, c_in * kernel, (c_out, c_in, kernel)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel

    def __call__(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in or x.shape[2] != 1:
            raise ValueError(
                f"conv expects [batch, {self.c_in}, 1, length], got {x.shape}")
        length = x.shape[3]
        if length < 1:
            raise ValueError(f"conv input length must be >= 1, got {length}")
        if length <= 2 * self.kernel:
            return self._banded(x)
        return self._im2col(x)

    def _banded(self, x):
        w, b, k = self.w, self.b, self.kernel
        nb, c, _, length = x.shape
        o = self.c_out
        # shift[t, j, l] = 1 where input position j feeds output l through tap t
        offset = np.arange(length)[:, None] - np.arange(length) + k // 2
        shift = (offset == np.arange(k)[:, None, None]).astype(np.float64)
        # band[(c, j), (o, l)] = w[o, c, j - l + k//2] inside the band, else 0
        band = np.tensordot(w.values, shift, axes=(2, 0)).transpose(1, 2, 0, 3)
        band = band.reshape(c * length, o * length)
        xf = x.values.reshape(nb, c * length)
        out = xf @ band
        out += np.repeat(b.values, length)

        def bw(g):
            gf = g.reshape(nb, o * length)
            if w.requires_grad:
                gband = (xf.T @ gf).reshape(c, length, o, length)
                w._accum(np.tensordot(gband, shift, axes=([1, 3], [1, 2]))
                         .transpose(1, 0, 2))
            if b.requires_grad:
                b._accum(gf.sum(axis=0).reshape(o, length).sum(axis=1))
            if x.requires_grad:
                x._accum((gf @ band.T).reshape(x.shape))

        return _node(out.reshape(nb, o, 1, length), (x, w, b), bw)

    def _im2col(self, x):
        w, b, k = self.w, self.b, self.kernel
        nb, c, _, length = x.shape
        pad = k // 2
        o = self.c_out

        def columns():
            """cols[(b, l), (t, c)] = xp[b, l + t, c], xp zero-padded along l"""
            xp = np.zeros((nb, length + 2 * pad, c))
            xp[:, pad:pad + length, :] = x.values[:, :, 0, :].transpose(0, 2, 1)
            return sliding_window_view(xp, k, axis=1).transpose(0, 1, 3, 2).reshape(
                nb * length, k * c)

        wm = w.values.transpose(0, 2, 1).reshape(o, k * c)
        out = columns() @ wm.T
        out += b.values
        out = np.ascontiguousarray(out.reshape(nb, length, o).transpose(0, 2, 1))

        def bw(g):
            gm = g[:, :, 0, :].transpose(0, 2, 1).reshape(nb * length, o)
            if w.requires_grad:
                # rebuilt rather than kept from forward: k times x's size
                w._accum((gm.T @ columns()).reshape(o, k, c).transpose(0, 2, 1))
            if b.requires_grad:
                b._accum(gm.sum(axis=0))
            if x.requires_grad:
                # col2im: scatter-add each kernel tap back onto the padded input
                gcols = (gm @ wm).reshape(nb, length, k, c)
                gxp = np.zeros((nb, length + 2 * pad, c))
                for t in range(k):
                    gxp[:, t:t + length, :] += gcols[:, :, t, :]
                x._accum(gxp[:, pad:pad + length, :].transpose(0, 2, 1)[:, :, None, :])

        return _node(out[:, :, None, :], (x, w, b), bw)


class BatchNorm(Module):
    """Batch normalization over axis 1, with running statistics for eval.

    Training uses biased batch variance for the normalization and updates the
    running variance with the unbiased estimate (the usual convention).
    """

    def __init__(self, n_features, eps=1e-5, momentum=0.1):
        super().__init__()
        self.gamma = Tensor(np.ones(n_features), requires_grad=True)
        self.beta = Tensor(np.zeros(n_features), requires_grad=True)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.eps = eps
        self.momentum = momentum
        self.n_features = n_features

    def __call__(self, x):
        if x.ndim < 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"batchnorm expects axis 1 of size {self.n_features}, got {x.shape}")
        axes = (0,) + tuple(range(2, x.ndim))
        nb = x.shape[0]
        s = int(np.prod(x.shape[2:]))
        n = nb * s
        rows = x.values.reshape(nb, self.n_features * s)

        def per_row(v):
            """A per-channel vector laid out along one row [C*S]."""
            return np.repeat(v, s)

        training = self.training
        if training:
            if nb < 2:
                raise ValueError("batchnorm in training mode needs batch size >= 2")
            # both statistics reduce on x's own shape, in the order the
            # composed form uses, so the running statistics match it exactly
            mean = x.values.sum(axis=axes) * (1.0 / n)
            xhat = rows - per_row(mean)
            var = (xhat * xhat).reshape(x.shape).sum(axis=axes) * (1.0 / n)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            unbiased = var * n / max(n - 1, 1)
            self.running_var = (1 - m) * self.running_var + m * unbiased
            std = np.sqrt(var + self.eps)
        else:
            xhat = rows - per_row(self.running_mean)
            std = np.sqrt(self.running_var + self.eps)
        xhat /= per_row(std)
        gamma, beta = self.gamma, self.beta
        scale = gamma.values
        out = xhat * per_row(scale)
        out += per_row(beta.values)

        def bw(g):
            g = g.reshape(nb, self.n_features * s)
            gsum = g.sum(axis=0).reshape(-1, s).sum(axis=1)
            gdot = (g * xhat).sum(axis=0).reshape(-1, s).sum(axis=1)
            if beta.requires_grad:
                beta._accum(gsum)
            if gamma.requires_grad:
                gamma._accum(gdot)
            if x.requires_grad:
                gain = per_row(scale / std)
                if training:
                    # the batch statistics depend on x (Ioffe & Szegedy 2015)
                    gx = xhat * per_row(gdot * (-1.0 / n))
                    gx += g
                    gx -= per_row(gsum * (1.0 / n))
                    gx *= gain
                else:
                    gx = g * gain
                x._accum(gx.reshape(x.shape))

        return _node(out.reshape(x.shape), (x, gamma, beta), bw)


class DenseBlock(Module):
    """Dense -> batch norm -> Mish, the hidden-layer pattern used throughout."""

    def __init__(self, n_in, n_out, rng):
        super().__init__()
        self.fc = Dense(n_in, n_out, rng)
        self.bn = BatchNorm(n_out)

    def __call__(self, x):
        return mish(self.bn(self.fc(x)))
