"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-free engine in the micrograd style: every operation returns a new
Tensor whose `_backward` closure scatters the output cotangent onto its
parents, and `backward()` walks the graph in reverse topological order.
Values are float64 throughout. Complex quantities are handled one level up
(see cplx.py) as paired re/im tensors, so the engine itself stays real.

`backward()` consumes the graph (PyTorch's `retain_graph=False`): as soon as
a node's closure has run, the node drops its gradient, closure and parents,
so the graph's memory is released during the walk instead of staying alive
until the next forward pass has built a second graph. Only leaves keep their
`.grad`, and a second `backward()` through a consumed node raises. Since a
training step thus frees most of its memory at once, the import tunes
glibc's allocator to keep the freed pages in the process (`_keep_freed_pages`).
"""
from __future__ import annotations

import ctypes

import numpy as np

_grad_enabled = True


def _keep_freed_pages():
    # glibc gives the free top of its heap back to the kernel past
    # M_TRIM_THRESHOLD and serves blocks above a dynamic M_MMAP_THRESHOLD
    # with their own mmap. With the graph freed by backward(), both unmap a
    # step's arrays and the next forward pass faults them back in (about
    # 28,000 minor faults per desk training step at batch 1024, against 3
    # with these settings). So arrays below 64 MB come from the heap, and
    # the heap is trimmed only past 1 GB of free top. Both are needed:
    # fixing the trim threshold alone also freezes the mmap threshold at
    # 128 KB. A no-op where the C library has no mallopt.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 64 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_keep_freed_pages()


class no_grad:
    """Context manager that disables graph recording (evaluation mode)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


def _unbroadcast(grad, shape):
    # Reverse of numpy broadcasting: sum the cotangent down to `shape`.
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """N-d real array tracked by the reverse-mode graph."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def item(self):
        if self.values.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.values.shape}")
        return self.values.item()

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        self must be scalar-sized; the seed cotangent is 1. The graph is
        consumed: each interior node, self included, gives up its grad,
        closure and parents once its closure has run, and a later backward()
        that reaches it raises RuntimeError.
        """
        if self.values.size != 1:
            raise ValueError(f"backward() needs a scalar output, got shape {self.values.shape}")
        topo, seen, stack = [], set(), [(self, False)]
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
        self._accum(np.ones_like(self.values))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._parents = ()
                node._backward = _released

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        b = astensor(other)
        a = self

        def bw(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.values.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.values.shape))

        return _node(a.values + b.values, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bw(g):
            a._accum(-g)

        return _node(-a.values, (a,), bw)

    def __sub__(self, other):
        return self + (-astensor(other))

    def __mul__(self, other):
        b = astensor(other)
        a = self

        def bw(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.values, a.values.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.values, b.values.shape))

        return _node(a.values * b.values, (a, b), bw)

    __rmul__ = __mul__

    # -- linear algebra / shaping -----------------------------------------

    def __matmul__(self, other):
        b = astensor(other)
        a = self
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner dimension mismatch: {a.shape} @ {b.shape}")

        def bw(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g @ b.values.swapaxes(-1, -2), a.values.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(a.values.swapaxes(-1, -2) @ g, b.values.shape))

        return _node(a.values @ b.values, (a, b), bw)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.values.shape

        def bw(g):
            a._accum(g.reshape(old))

        return _node(a.values.reshape(shape), (a,), bw)

    def transpose(self, axes):
        a = self
        inv = np.argsort(axes)

        def bw(g):
            a._accum(g.transpose(inv))

        return _node(a.values.transpose(axes), (a,), bw)

    def swapaxes(self, ax1, ax2):
        a = self

        def bw(g):
            a._accum(g.swapaxes(ax1, ax2))

        return _node(a.values.swapaxes(ax1, ax2), (a,), bw)

    def __getitem__(self, key):
        # Basic indexing only (ints / slices / ellipsis); enough for
        # splitting network outputs and per-user views.
        a = self

        def bw(g):
            full = np.zeros_like(a.values)
            full[key] = g
            a._accum(full)

        return _node(a.values[key], (a,), bw)

    def sum(self, axis=None, keepdims=False):
        a = self

        def bw(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.values.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.values.shape).copy())

        return _node(a.values.sum(axis=axis, keepdims=keepdims), (a,), bw)

    def mean(self, axis=None, keepdims=False):
        n = self.values.size if axis is None else np.prod(
            [self.values.shape[i] for i in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- transcendental ----------------------------------------------------

    def sigmoid(self):
        a = self
        out = _sigmoid(a.values)

        def bw(g):
            a._accum(g * out * (1.0 - out))

        return _node(out, (a,), bw)

    def sin(self):
        a = self

        def bw(g):
            a._accum(g * np.cos(a.values))

        return _node(np.sin(a.values), (a,), bw)

    def cos(self):
        a = self

        def bw(g):
            a._accum(-g * np.sin(a.values))

        return _node(np.cos(a.values), (a,), bw)


def _released(g):
    raise RuntimeError(
        "this graph was already freed by an earlier backward(); "
        "run the forward pass again to differentiate it")


def _sigmoid(v):
    # 1 / (1 + exp(-v)) as (1 + tanh(v/2)) / 2: overflow-free in one pass,
    # with no masking on the sign of v.
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def _softplus(v):
    # max(v,0) + log1p(exp(-|v|)) is exact and overflow-free.
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def _node(values, parents, backward):
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def astensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis=0):
    tensors = [astensor(t) for t in tensors]
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return _node(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors), bw)


def mish(x):
    """x * tanh(softplus(x)); smooth, non-monotone below zero.

    One graph node. With t = tanh(softplus(x)) kept from the forward pass,
    the derivative is t + x (1 - t^2) sigmoid(x) (Misra 2019)."""
    a = astensor(x)
    v = a.values
    t = np.tanh(_softplus(v))

    def bw(g):
        a._accum(g * (t + v * (1.0 - t * t) * _sigmoid(v)))

    return _node(v * t, (a,), bw)


def straight_through(x, quantizer):
    """Apply `quantizer` to the forward values; pass the cotangent through
    unchanged on the way back (the quantizer's gradient is taken as 1)."""
    a = astensor(x)
    q = np.asarray(quantizer(a.values), dtype=np.float64)
    if q.shape != a.values.shape:
        raise ValueError(f"quantizer changed shape {a.values.shape} -> {q.shape}")

    def bw(g):
        a._accum(g)

    return _node(q, (a,), bw)


# -- modules ---------------------------------------------------------------


class Module:
    """Container with automatic parameter / submodule registration.

    Assigning a Tensor with requires_grad=True registers a trainable
    parameter; assigning a Module registers a child. Names follow attribute
    names, dotted through the hierarchy.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", [])
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        elif isinstance(value, np.ndarray) and name not in self._buffers:
            # non-trainable state (e.g. batch-norm running statistics) that
            # must travel with checkpoints
            self._buffers.append(name)
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix=""):
        out = []
        for name, p in self._params.items():
            out.append((prefix + name, p))
        for name, child in self._children.items():
            out.extend(child.named_parameters(prefix + name + "."))
        return out

    def named_buffers(self, prefix=""):
        out = []
        for name in self._buffers:
            out.append((prefix + name, self, name))
        for name, child in self._children.items():
            out.extend(child.named_buffers(prefix + name + "."))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def set_training(self, flag):
        object.__setattr__(self, "training", bool(flag))
        for child in self._children.values():
            child.set_training(flag)

    def state_dict(self):
        out = {name: p.values.copy() for name, p in self.named_parameters()}
        for name, owner, attr in self.named_buffers():
            out[name] = getattr(owner, attr).copy()
        return out

    def load_state_dict(self, state):
        """Restore every parameter and buffer from `state`. All names and
        shapes are checked, in sorted order, before anything is written: a
        failed load leaves the module unchanged, and the error names the
        first tensor that disagrees."""
        slots = {name: (p, "values") for name, p in self.named_parameters()}
        slots.update((name, (owner, attr)) for name, owner, attr in self.named_buffers())
        arrays = {}
        for name in sorted(slots.keys() | state.keys()):
            if name not in state:
                raise ValueError(f"name mismatch: checkpoint is missing tensor '{name}'")
            if name not in slots:
                raise ValueError(f"name mismatch: checkpoint has unexpected tensor '{name}'")
            arr = np.asarray(state[name], dtype=np.float64)
            want = getattr(*slots[name]).shape
            if arr.shape != want:
                raise ValueError(f"shape mismatch for tensor '{name}': "
                                 f"checkpoint {arr.shape}, model {want}")
            arrays[name] = arr
        for name, (owner, attr) in slots.items():
            object.__setattr__(owner, attr, arrays[name].copy())


def zero_grads(params):
    for p in params:
        p.grad = None
