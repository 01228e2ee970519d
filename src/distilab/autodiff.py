"""Dense float64 tensors with define-by-run reverse-mode differentiation.

The graph is rebuilt on every forward pass: each op returns a new Tensor
holding references to its parents and a closure implementing the local
backward rule. ``Tensor.backward()`` runs one reverse topological sweep,
resetting the gradients of every node it reaches first, so repeated
backward calls on the same graph are idempotent.

Design constraints honored throughout:

* everything is float64; no silent downcasts,
* any op producing NaN/Inf raises ``NumericsError`` immediately,
* broadcasting is restricted to identical shapes or tensor-vs-scalar
  (the dense layer adds its biases itself),
* gradients flow to inputs as well as parameters, which the perturbation
  strategies rely on.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class NumericsError(ArithmeticError):
    """An operation produced a NaN or Inf value."""


def ensure_finite(arr: np.ndarray, op: str) -> None:
    """Raise ``NumericsError`` naming op unless every value of arr is finite."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite value produced by '{op}'")


class Tensor:
    """A dense float64 array that may participate in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "Tensor":
        """A constant leaf holding arr itself, with no copy and no finiteness
        check: arr must be a finite float64 array that nothing else holds."""
        out = cls.__new__(cls)
        out.data = arr
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        out._op = "leaf"
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(op={self._op}, shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal ---------------------------------------------------

    def _topo(self) -> list["Tensor"]:
        """Reverse-mode visit order: parents after children when reversed.

        Iterative postorder; only nodes that require grad are collected,
        so the constants of a frozen net (teachers) cost nothing.
        """
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into ``grad`` over the whole graph.

        Requires a scalar output. Gradients of every node reachable from
        here are reset first, so two backward calls after a reset produce
        bit-identical results.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output, got shape "
                             f"{self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        order = self._topo()
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _node(data: np.ndarray, parents: Sequence[Tensor], op: str,
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    if op not in ("dense", "dense_relu"):  # dense_values checks before the relu
        ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._parents = tuple(parents)
    out._backward = backward if out.requires_grad else None
    out._op = op
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # g + 0.0 has the bits of 0.0 + g, without filling zeros first
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


# -- member-stacked dense layer ---------------------------------------------

def member_weights(weight: Tensor, r: Tensor | None, s: Tensor | None) -> np.ndarray:
    """(M, out, in) member weights: the (M, out, in) weight itself, or the
    shared (1, out, in) weight Hadamard-multiplied by each member's r_m s_m^T
    from r (M, out) and s (M, in)."""
    if r is None:
        return weight.data
    return weight.data * (r.data[:, :, None] * s.data[:, None, :])


def dense_weight_t(weight: Tensor, r: Tensor | None, s: Tensor | None) -> np.ndarray:
    """(M, in, out) member weights for ``dense_values``: member_weights(weight,
    r, s) transposed, built in (M, in, out) order."""
    if r is None:
        return np.ascontiguousarray(weight.data.transpose(0, 2, 1))
    return weight.data.transpose(0, 2, 1) * (s.data[:, :, None] * r.data[:, None, :])


def dense_values(x: np.ndarray, w_t: np.ndarray, bias: np.ndarray, relu: bool) -> np.ndarray:
    """x_m w_t[m] + b_m for every member m, (M, B, out), from a (B, in) input
    shared by the members or an (M, B, in) one, then a relu when relu is true.

    The values are checked finite as op 'dense' before the relu, which would
    hide a -inf; the relu runs in place, so out > 0 marks pre > 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(x, w_t)
    out += bias[:, None, :]
    ensure_finite(out, "dense")
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def dense_pre_grad(g: np.ndarray, out: np.ndarray, relu: bool) -> np.ndarray:
    """The gradient g of a layer's output ``out`` taken back through its relu."""
    return g * (out > 0.0) if relu else g


def dense_input_grad(g_pre: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """(M, B, in) gradient of each member's input, from the (M, B, out)
    gradient of the layer before its relu."""
    return np.matmul(g_pre, w_t.transpose(0, 2, 1))


def dense(x: Tensor, weight: Tensor, r: Tensor | None, s: Tensor | None,
          bias: Tensor, relu: bool) -> Tensor:
    """x_m W_m^T + b_m for every member m in one node, (M, B, out), followed
    by a relu when relu is true.

    W_m is ``member_weights(weight, r, s)[m]`` and b_m is row m of the
    (M, out) bias. x is a (B, in) input shared by every member or an
    (M, B, in) input with one slice per member. Each member runs the same
    float operations as a one-member layer would, and the gradients of a
    shared weight, and of a shared input, sum the members in order 0..M-1.
    The backward forms a gradient only for the tensors that collect one, so
    a net of constants (teachers) costs one input-gradient matmul per layer.
    """
    members = bias.shape[0]
    if x.data.ndim not in (2, 3) or x.shape[-1] != weight.shape[2] \
            or (x.data.ndim == 3 and x.shape[0] != members):
        raise ShapeError(f"dense layer of {members} members with weight "
                         f"{weight.shape} got input {x.shape}")
    w_t = dense_weight_t(weight, r, s)
    # the graph holds this one array per layer
    out_data = dense_values(x.data, w_t, bias.data, relu)

    def backward(g: np.ndarray) -> None:
        g = dense_pre_grad(g, out_data, relu)
        rank_grad = r is not None and (r.requires_grad or s.requires_grad)
        if weight.requires_grad or rank_grad:
            x_t = x.data.T if x.data.ndim == 2 else x.data.transpose(0, 2, 1)
            g_w = np.matmul(x_t, g).transpose(0, 2, 1)      # d/dW_m, (M, out, in)
            if r is None:
                _accum(weight, g_w)
            elif weight.requires_grad:
                rank_one = r.data[:, :, None] * s.data[:, None, :]
                _accum(weight, (g_w * rank_one).sum(axis=0, keepdims=True))
            if rank_grad:
                g_rank = g_w * weight.data
                _accum(r, np.matmul(g_rank, s.data[:, :, None])[..., 0])
                _accum(s, np.matmul(g_rank.transpose(0, 2, 1), r.data[:, :, None])[..., 0])
        if bias.requires_grad:
            _accum(bias, g.sum(axis=1))
        if x.requires_grad:
            g_x = dense_input_grad(g, w_t)
            _accum(x, g_x if x.data.ndim == 3 else g_x.sum(axis=0))

    parents = (x, weight, bias) if r is None else (x, weight, r, s, bias)
    return _node(out_data, parents, "dense_relu" if relu else "dense", backward)


# -- elementwise suite -------------------------------------------------------

def _elementwise_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"{op} supports identical shapes or tensor-vs-scalar, "
                         f"got {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, t: Tensor) -> np.ndarray:
    # only the scalar-vs-tensor case ever needs reduction here
    if t.data.size == 1 and g.size != 1:
        return np.array(g.sum()).reshape(t.data.shape)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes(a, b, "add")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g, a))
        _accum(b, _unbroadcast(g, b))

    return _node(out_data, (a, b), "add", backward)


def add_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data + c

    def backward(g: np.ndarray) -> None:
        _accum(a, g)

    return _node(out_data, (a,), "add_scalar", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes(a, b, "sub")
    out_data = a.data - b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g, a))
        _accum(b, -_unbroadcast(g, b))

    return _node(out_data, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes(a, b, "mul")
    with np.errstate(over="ignore", invalid="ignore"):
        out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g * b.data, a))
        _accum(b, _unbroadcast(g * a.data, b))

    return _node(out_data, (a, b), "mul", backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def backward(g: np.ndarray) -> None:
        _accum(a, g * c)

    return _node(out_data, (a,), "scale", backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        _accum(a, g * out_data)

    return _node(out_data, (a,), "exp", backward)


def sum(a: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - numpy-style name
    out_data = np.array(a.data.sum(axis=axis))

    def backward(g: np.ndarray) -> None:
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _node(out_data, (a,), "sum", backward)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum(a, axis=axis), 1.0 / count)


# -- softmax family ----------------------------------------------------------

def softmax_temp(logits: Tensor, tau: float) -> Tensor:
    """Temperature-scaled softmax over the last axis, max-stabilized."""
    if tau <= 0.0:
        raise DomainError(f"temperature must be positive, got {tau}")
    z = logits.data / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accum(logits, p * (g - inner) / tau)

    return _node(p, (logits,), "softmax_temp", backward)


def log_softmax_values(logits: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """log softmax(logits / tau) over the last axis, computed stably via
    max-subtracted log-sum-exp, and its exp."""
    z = logits / tau
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    return out, np.exp(out)


def log_softmax_grad(g: np.ndarray, p: np.ndarray, tau: float) -> np.ndarray:
    """The gradient g of log softmax(logits / tau) taken back to the logits,
    from the probabilities p that ``log_softmax_values`` returns."""
    return (g - p * g.sum(axis=-1, keepdims=True)) / tau


def log_softmax_temp(logits: Tensor, tau: float) -> Tensor:
    """log of softmax_temp (see ``log_softmax_values``)."""
    if tau <= 0.0:
        raise DomainError(f"temperature must be positive, got {tau}")
    out_data, p = log_softmax_values(logits.data, tau)

    def backward(g: np.ndarray) -> None:
        _accum(logits, log_softmax_grad(g, p, tau))

    return _node(out_data, (logits,), "log_softmax_temp", backward)


# -- gamma-family special functions ------------------------------------------
#
# Kernels accept positive floats or arrays. The log-gamma uses the g=7,
# n=9 Lanczos coefficients (abs error well under 1e-10 on [0.1, 100]);
# digamma and trigamma shift the argument above 10 by recurrence and
# finish with the Bernoulli asymptotic series.

_LANCZOS_G = 7.0
_LANCZOS_COEFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_raw(x: np.ndarray) -> np.ndarray:
    # valid for x >= 0.5
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_COEFS[0])
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        acc = acc + c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)


def _lgamma_arr(x: np.ndarray) -> np.ndarray:
    if np.any(x <= 0.0):
        raise DomainError("lgamma requires strictly positive input")
    small = x < 0.5
    shifted = np.where(small, x + 1.0, x)
    out = _lgamma_raw(shifted)
    # ln Gamma(x) = ln Gamma(x+1) - ln x below the series' comfort zone
    return np.where(small, out - np.log(np.where(small, x, 1.0)), out)


def _digamma_arr(x: np.ndarray) -> np.ndarray:
    if np.any(x <= 0.0):
        raise DomainError("digamma requires strictly positive input")
    acc = np.zeros_like(x)
    xv = x.astype(np.float64, copy=True)
    for _ in range(10):
        m = xv < 10.0
        if not m.any():
            break
        acc = np.where(m, acc - 1.0 / xv, acc)
        xv = np.where(m, xv + 1.0, xv)
    u = 1.0 / (xv * xv)
    tail = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0))))))
    return acc + np.log(xv) - 0.5 / xv - tail


def _trigamma_arr(x: np.ndarray) -> np.ndarray:
    if np.any(x <= 0.0):
        raise DomainError("trigamma requires strictly positive input")
    acc = np.zeros_like(x)
    xv = x.astype(np.float64, copy=True)
    for _ in range(10):
        m = xv < 10.0
        if not m.any():
            break
        acc = np.where(m, acc + 1.0 / (xv * xv), acc)
        xv = np.where(m, xv + 1.0, xv)
    u = 1.0 / (xv * xv)
    inv3 = u / xv
    tail = inv3 * (1.0 / 6.0 - u * (1.0 / 30.0 - u * (1.0 / 42.0 - u * (
        1.0 / 30.0 - u * (5.0 / 66.0 - u * (691.0 / 2730.0))))))
    return acc + 1.0 / xv + 0.5 * u + tail


def lgamma(x):
    """Log-gamma for positive input; Tensor in, Tensor out (d lgamma = digamma)."""
    if isinstance(x, Tensor):
        out_data = _lgamma_arr(x.data)

        def backward(g: np.ndarray) -> None:
            _accum(x, g * _digamma_arr(x.data))

        return _node(out_data, (x,), "lgamma", backward)
    out = _lgamma_arr(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Digamma for positive input; Tensor in, Tensor out (d digamma = trigamma)."""
    if isinstance(x, Tensor):
        out_data = _digamma_arr(x.data)

        def backward(g: np.ndarray) -> None:
            _accum(x, g * _trigamma_arr(x.data))

        return _node(out_data, (x,), "digamma", backward)
    out = _digamma_arr(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out

