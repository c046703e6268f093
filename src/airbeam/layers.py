"""Differentiable layer primitives: dense, 1-d convolution, batch norm.

Convolutions run along the last axis of [batch, channels, 1, length] inputs
(the dummy axis keeps the planar-image layout the beamformer networks use);
batch norm normalizes per channel over every other axis.

Conv1d and BatchNorm are each a single fused graph node with a hand-written
backward pass, as is `autodiff.mish`: Conv1d is one im2col GEMM forward and
two GEMMs plus a col2im scatter-add backward (Chellapilla et al. 2006);
BatchNorm uses the closed-form backward of Ioffe & Szegedy (2015). Dense
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
        nb, c, _, length = x.shape
        if length < 1:
            raise ValueError(f"conv input length must be >= 1, got {length}")
        w, b, k = self.w, self.b, self.kernel
        pad = k // 2
        o = self.c_out
        # im2col: cols[(b, l), (t, c)] = xp[b, l + t, c], zero-padded along l
        xp = np.zeros((nb, length + 2 * pad, c))
        xp[:, pad:pad + length, :] = x.values[:, :, 0, :].transpose(0, 2, 1)
        cols = sliding_window_view(xp, k, axis=1).transpose(0, 1, 3, 2).reshape(
            nb * length, k * c)
        wm = w.values.transpose(0, 2, 1).reshape(o, k * c)
        out = cols @ wm.T
        out += b.values
        out = np.ascontiguousarray(out.reshape(nb, length, o).transpose(0, 2, 1))

        def bw(g):
            gm = g[:, :, 0, :].transpose(0, 2, 1).reshape(nb * length, o)
            if w.requires_grad:
                w._accum((gm.T @ cols).reshape(o, k, c).transpose(0, 2, 1))
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
        shape = (1, self.n_features) + (1,) * (x.ndim - 2)
        n = int(np.prod([x.shape[i] for i in axes]))
        training = self.training
        if training:
            if x.shape[0] < 2:
                raise ValueError("batchnorm in training mode needs batch size >= 2")
            mean = x.values.sum(axis=axes, keepdims=True) * (1.0 / n)
            xhat = x.values - mean
            var = (xhat * xhat).sum(axis=axes, keepdims=True) * (1.0 / n)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean.reshape(-1)
            unbiased = var.reshape(-1) * n / max(n - 1, 1)
            self.running_var = (1 - m) * self.running_var + m * unbiased
            std = np.sqrt(var + self.eps)
        else:
            xhat = x.values - self.running_mean.reshape(shape)
            std = np.sqrt(self.running_var.reshape(shape) + self.eps)
        xhat /= std
        gamma, beta = self.gamma, self.beta
        scale = gamma.values.reshape(shape)
        out = xhat * scale + beta.values.reshape(shape)

        def bw(g):
            gsum = g.sum(axis=axes, keepdims=True)
            gdot = (g * xhat).sum(axis=axes, keepdims=True)
            if beta.requires_grad:
                beta._accum(gsum.reshape(-1))
            if gamma.requires_grad:
                gamma._accum(gdot.reshape(-1))
            if x.requires_grad:
                gain = scale / std
                if training:
                    # the batch statistics depend on x (Ioffe & Szegedy 2015)
                    gx = xhat * (gdot * (-1.0 / n))
                    gx += g
                    gx -= gsum * (1.0 / n)
                    gx *= gain
                else:
                    gx = g * gain
                x._accum(gx)

        return _node(out, (x, gamma, beta), bw)


class DenseBlock(Module):
    """Dense -> batch norm -> Mish, the hidden-layer pattern used throughout."""

    def __init__(self, n_in, n_out, rng):
        super().__init__()
        self.fc = Dense(n_in, n_out, rng)
        self.bn = BatchNorm(n_out)

    def __call__(self, x):
        return mish(self.bn(self.fc(x)))
