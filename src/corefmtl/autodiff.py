"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape-based engine: just the operations the span scorer and the
loss stack need, nothing more. Every tensor is float64 end to end, which
keeps finite-difference gradient checks tight and training runs bitwise
reproducible on a fixed seed.
"""

import hashlib

import numpy as np

DTYPE = np.float64


def stream_seed(*parts) -> int:
    """Derive a stable 64-bit seed from the given parts.

    Each named random stream (one per parameter, one per dropout site,
    one for shuffling) is seeded independently, so creating or removing
    a parameter never shifts the draws of any other stream.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def named_rng(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream_seed(*parts)))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes that broadcasting expanded, back to shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 ndarray plus the tape bookkeeping to backprop through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=None):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def backward(self, seed=None):
        """Accumulate gradients of self w.r.t. every reachable parameter.

        seed defaults to ones; for the scalar-loss case that is d(loss)/d(loss)=1.
        """
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        if seed is None:
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed, dtype=DTYPE).reshape(self.data.shape).copy()
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, grad: np.ndarray):
        # Accumulation always rebinds (never mutates in place), so sharing
        # the incoming array between siblings is safe.
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=DTYPE)
        else:
            self.grad = self.grad + grad

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=DTYPE))


def constant(value, name=None) -> Tensor:
    return Tensor(np.asarray(value, dtype=DTYPE), name=name)


# -- arithmetic -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, _parents=(a, b))

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, _parents=(a, b))

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, _parents=(a, b))

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum. Indices may not repeat inside one operand."""
    inputs, out_spec = spec.replace(" ", "").split("->")
    spec_a, spec_b = inputs.split(",")
    for s in (spec_a, spec_b, out_spec):
        if len(set(s)) != len(s):
            raise ValueError(f"repeated index within one operand: {spec!r}")
    out = Tensor(np.einsum(spec, a.data, b.data), _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            ga = np.einsum(f"{out_spec},{spec_b}->{spec_a}", g, b.data)
            a._accumulate(ga)
        if b.requires_grad:
            gb = np.einsum(f"{out_spec},{spec_a}->{spec_b}", g, a.data)
            b._accumulate(gb)

    out._backward = backward
    return out


# -- shape ops ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _parents=(a,))

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    out._backward = backward
    return out


def concat(parts: list, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), _parents=tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            p._accumulate(g[tuple(idx)])

    out._backward = backward
    return out


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather along axis 0. Backward scatter-adds, so repeated rows are fine."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx], _parents=(a,))

    def backward(g):
        if not a.requires_grad:
            return
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        a._accumulate(acc)

    out._backward = backward
    return out


def scatter2d(values: Tensor, rows, cols, shape, fill: float) -> Tensor:
    """Place values[p] at (rows[p], cols[p]) of a fill-initialized matrix.

    (row, col) pairs must be distinct; slots that receive no value keep fill.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    data = np.full(shape, fill, dtype=DTYPE)
    data[rows, cols] = values.data
    out = Tensor(data, _parents=(values,))

    def backward(g):
        values._accumulate(g[rows, cols])

    out._backward = backward
    return out


# -- elementwise nonlinearities -------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data), _parents=(a,))

    def backward(g):
        a._accumulate(g * out.data)

    out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data), _parents=(a,))

    def backward(g):
        a._accumulate(g * (1.0 - out.data * out.data))

    out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), _parents=(a,))

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    out._backward = backward
    return out


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), _parents=(a,))

    def backward(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    out._backward = backward
    return out


def tensor_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp; -inf entries are treated as absent.

    A primitive (not composed from exp/log) so rows containing -inf padding
    backprop cleanly: the gradient is the softmax, which is exactly 0 there.
    """
    mx = np.max(a.data, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    ex = np.exp(a.data - mx)
    total = ex.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.log(total) + mx
        # rows that are all -inf have total 0; their logsumexp is -inf
        # and their gradient is 0, not nan
        soft = np.where(total > 0.0, ex / np.where(total > 0.0, total, 1.0), 0.0)
    if not keepdims:
        value = np.squeeze(value, axis=axis)
    out = Tensor(value, _parents=(a,))

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(g * soft)

    out._backward = backward
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the mask is drawn from the caller's named stream."""
    if rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep).astype(DTYPE) / keep
    return mul(a, constant(mask))


# -- parameters -----------------------------------------------------------


class ParameterStore:
    """Named trainable tensors, each initialized from its own seeded stream."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, shape, init: str = "normal", std: float | None = None) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter already exists: {name}")
        shape = tuple(int(n) for n in shape)
        if init == "zeros":
            data = np.zeros(shape, dtype=DTYPE)
        elif init == "constant":
            data = np.full(shape, std, dtype=DTYPE)
        elif init == "normal":
            if std is None:
                fan_in = shape[0] if shape else 1
                std = 1.0 / np.sqrt(max(fan_in, 1))
            data = named_rng(self.seed, name).normal(0.0, std, size=shape)
        else:
            raise ValueError(f"unknown init: {init}")
        t = Tensor(data, requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def tensors(self, prefix: str = "") -> list[Tensor]:
        return [self._params[n] for n in self.names() if n.startswith(prefix)]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {n: self._params[n].data.copy() for n in self.names()}

    def load_state(self, state: dict):
        for name, t in self._params.items():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name}")
            arr = np.asarray(state[name], dtype=DTYPE)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {arr.shape}, model {t.data.shape}"
                )
            t.data = arr.copy()
