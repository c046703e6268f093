"""Composed reference forms of the fused ops, kept as test oracles.

The package computes Mish, Conv1d, BatchNorm, the power cap and the sum
rate as single graph nodes with hand-written backward passes. The forms
below build the same functions the long way: Mish and BatchNorm from
elementary Tensor ops, whose gradients come from the engine's per-op rules,
Conv1d as an einsum over stacked shifted windows with its own direct
backward, and the power cap and the sum rate from ComplexPair operations
through the effective beamformer F_RF F_BB[n]. The layer oracles take the
package's layer objects so both sides share parameters and running
statistics.

The elementary ops the package no longer calls (division, exp, log, sqrt,
tanh, softplus, log2 and the cap multiplier) live here as graph nodes too.

`backward_retained` is the engine's reverse walk without the release:
every node keeps its grad, closure and parents afterwards.
"""
import numpy as np

from airbeam.autodiff import _node, _sigmoid, _softplus, _unbroadcast, astensor
from airbeam.cplx import as_pair


# -- elementary ops ----------------------------------------------------------

def div(x, y):
    """x / y, either side broadcast."""
    a, b = astensor(x), astensor(y)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.values, a.values.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return _node(a.values / b.values, (a, b), bw)


def exp(x):
    a = astensor(x)
    out = np.exp(a.values)
    return _node(out, (a,), lambda g: a._accum(g * out))


def log(x):
    a = astensor(x)
    return _node(np.log(a.values), (a,), lambda g: a._accum(g / a.values))


def sqrt(x):
    a = astensor(x)
    out = np.sqrt(a.values)
    return _node(out, (a,), lambda g: a._accum(g * 0.5 / out))


def tanh(x):
    a = astensor(x)
    out = np.tanh(a.values)
    return _node(out, (a,), lambda g: a._accum(g * (1.0 - out * out)))


def softplus(x):
    a = astensor(x)
    return _node(_softplus(a.values), (a,), lambda g: a._accum(g * _sigmoid(a.values)))


def log2(x):
    return log(x) * (1.0 / np.log(2.0))


def cap_scale(sumsq, cap):
    """Multiplier that rescales a vector of squared norm `sumsq` so the norm
    never exceeds `cap`: min(cap/||.||, 1), with sumsq == 0 mapping to 1."""
    a = astensor(sumsq)
    v = a.values
    norm = np.sqrt(v)
    over = norm > cap
    out = np.ones_like(v)
    out[over] = cap / norm[over]

    def bw(g):
        d = np.zeros_like(v)
        d[over] = -0.5 * cap / (norm[over] ** 3)
        a._accum(g * d)

    return _node(out, (a,), bw)


def mish(x):
    """x * tanh(softplus(x)) as three graph nodes."""
    x = astensor(x)
    return x * tanh(softplus(x))


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
        xhat = div(centered, sqrt(var + layer.eps))
    else:
        xhat = div(x - layer.running_mean.reshape(shape),
                   np.sqrt(layer.running_var.reshape(shape) + layer.eps))
    return xhat * layer.gamma.reshape(shape) + layer.beta.reshape(shape)


# -- power cap and sum rate --------------------------------------------------

def effective_beamformer(f_rf, f_bb):
    """Per-subcarrier product F_RF F_BB[n]: [.., Nc, M, K] ComplexPair."""
    single = f_rf.re.ndim == 2
    if single:
        f_rf = f_rf.reshape(1, *f_rf.shape)
        f_bb = f_bb.reshape(1, *f_bb.shape)
    nb, m, k = f_rf.shape
    eff = f_rf.reshape(nb, 1, m, k) @ f_bb
    return eff[0] if single else eff


def normalize_digital(f_rf, fbb_raw, pt, nc):
    """airlink.normalize_digital through the effective beamformer."""
    f_rf, fbb_raw = as_pair(f_rf), as_pair(fbb_raw)
    eff = effective_beamformer(f_rf, fbb_raw)                 # [.., Nc, M, K]
    sumsq = eff.abs2().sum(axis=(-2, -1), keepdims=True)      # [.., Nc, 1, 1]
    return fbb_raw * cap_scale(sumsq, np.sqrt(pt / nc))


def sum_rate_effective(h, eff, sigma2):
    """The sum rate of effective beamformers [.., Nc, M, K] as a Tensor."""
    h = np.asarray(h)
    single = h.ndim == 3
    if single:
        h = h[None]
    eff = as_pair(eff)
    if eff.re.ndim == 3:
        eff = eff.reshape(1, *eff.shape)
    nb, k, m, nc = h.shape
    hh = as_pair(np.conj(h).transpose(0, 3, 1, 2))            # [B, Nc, K, M]
    gains = (hh @ eff).abs2()                                  # [B, Nc, K, K']
    eye = np.eye(k).reshape(1, 1, k, k)
    wanted = (gains * eye).sum(axis=-1)                        # [B, Nc, K]
    interference = gains.sum(axis=-1) - wanted
    sinr = div(wanted, interference + sigma2)
    rate = log2(1.0 + sinr).sum(axis=(1, 2)) * (1.0 / nc)
    return rate[0] if single else rate


def sum_rate(h, f_rf, f_bb, sigma2):
    """airlink.sum_rate through the effective beamformer."""
    return sum_rate_effective(h, effective_beamformer(as_pair(f_rf), as_pair(f_bb)), sigma2)


# -- graph walk ----------------------------------------------------------------

def backward_retained(root):
    """Tensor.backward's walk, in the same topological order, that leaves
    the graph intact (the oracle for the walk that consumes it)."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    root._accum(np.ones_like(root.values))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
