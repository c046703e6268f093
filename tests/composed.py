"""Composed reference forms of the fused layer ops, kept as test oracles.

The package computes Mish, Conv1d and BatchNorm as single graph nodes with
hand-written backward passes. The forms below build the same functions the
long way: Mish and BatchNorm from elementary Tensor ops, whose gradients
come from the engine's per-op rules, and Conv1d as an einsum over stacked
shifted windows with its own direct backward. They take the package's layer
objects so both sides share parameters and running statistics.
"""
import numpy as np

from airbeam.autodiff import _node, astensor


def mish(x):
    """x * tanh(softplus(x)) as three graph nodes."""
    x = astensor(x)
    return x * x.softplus().tanh()


def conv1d(layer, x):
    """Same-padded conv of `layer` over [batch, c_in, 1, length] via einsum."""
    w, b, k = layer.w, layer.b, layer.kernel
    length = x.shape[3]
    pad = k // 2
    xv = x.values[:, :, 0, :]                      # [B, C, L]
    xp = np.pad(xv, ((0, 0), (0, 0), (pad, pad)))
    # windows[b, c, t, l] = xp[b, c, l + t]
    windows = np.stack([xp[:, :, t:t + length] for t in range(k)], axis=2)
    out = np.einsum("oct,bctl->bol", w.values, windows, optimize=True)
    out = out + b.values[None, :, None]

    def bw(g):
        gv = g[:, :, 0, :]                         # [B, O, L]
        if w.requires_grad:
            w._accum(np.einsum("bol,bctl->oct", gv, windows, optimize=True))
        if b.requires_grad:
            b._accum(gv.sum(axis=(0, 2)))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for t in range(k):
                gxp[:, :, t:t + length] += np.einsum(
                    "oct,bol->bcl", w.values[:, :, t:t + 1], gv, optimize=True)
            x._accum(gxp[:, :, None, pad:pad + length])

    return _node(out[:, :, None, :], (x, w, b), bw)


def batchnorm(layer, x):
    """`layer`'s batch norm as a chain of Tensor ops, running-statistics
    update included (training mode) or read (eval mode)."""
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, layer.n_features) + (1,) * (x.ndim - 2)
    if layer.training:
        n = int(np.prod([x.shape[i] for i in axes]))
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        m = layer.momentum
        layer.running_mean = (1 - m) * layer.running_mean + m * mean.values.reshape(-1)
        unbiased = var.values.reshape(-1) * n / max(n - 1, 1)
        layer.running_var = (1 - m) * layer.running_var + m * unbiased
        xhat = centered / (var + layer.eps).sqrt()
    else:
        xhat = (x - layer.running_mean.reshape(shape)) / np.sqrt(
            layer.running_var.reshape(shape) + layer.eps)
    return xhat * layer.gamma.reshape(shape) + layer.beta.reshape(shape)
