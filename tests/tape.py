"""The define-by-run reverse-mode tape: the reference that the closed-form
gradients of distilab are compared against, bit for bit.

The graph is rebuilt on every forward pass: each op returns a new Tensor
holding references to its parents and a closure implementing the local
backward rule. ``Tensor.backward()`` runs one reverse topological sweep,
resetting the gradients of every node it reaches first, so repeated
backward calls on the same graph are idempotent. A gradient's first arrival
is g + 0.0 and each later one is added to it, in the order of that sweep.

``forward(net, x)`` wraps the parameter arrays of a distilab net as leaves
and hands them back with the logits, so ``backward()`` stores in each
leaf's ``grad`` the gradient ``nets.MLP.backward`` returns for that array.
The losses at the end are the tape formulations of the closed forms in
``optim``, ``distill`` and ``perturb``.

Design constraints honored throughout:

* everything is float64; no silent downcasts,
* any op producing NaN/Inf raises ``NumericsError`` immediately,
* broadcasting is restricted to identical shapes or tensor-vs-scalar
  (the dense layer adds its biases itself),
* gradients flow to inputs as well as parameters.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

import distilab.autodiff as ad
from distilab.autodiff import DomainError, ShapeError, ensure_finite
from distilab.metrics import softmax_np
from distilab.optim import one_hot


class Tensor:
    """A float64 array that is a node of the graph: a leaf, or the output of
    an op; its gradient from the last backward, and whether it takes one."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph traversal ---------------------------------------------------

    def _topo(self) -> list["Tensor"]:
        """Reverse-mode visit order: parents after children when reversed.

        Iterative postorder; only nodes that require grad are collected,
        so constants cost nothing.
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
            for p in getattr(node, "_parents", ()):
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
            if getattr(node, "_backward", None) is not None and node.grad is not None:
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

def dense(x: Tensor, weight: Tensor, r: Tensor | None, s: Tensor | None,
          bias: Tensor, relu: bool) -> Tensor:
    """x_m W_m + b_m for every member m in one node, (M, B, out), followed
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
    if x.data.ndim not in (2, 3) or x.shape[-1] != weight.shape[1] \
            or (x.data.ndim == 3 and x.shape[0] != members):
        raise ShapeError(f"dense layer of {members} members with weight "
                         f"{weight.shape} got input {x.shape}")
    w = ad.member_weights(weight.data, None if r is None else r.data,
                          None if s is None else s.data)
    # the graph holds this one array per layer
    out_data = ad.dense_values(x.data, w, bias.data, relu)

    def backward(g: np.ndarray) -> None:
        g = ad.dense_pre_grad(g, out_data, relu)
        rank_grad = r is not None and (r.requires_grad or s.requires_grad)
        if weight.requires_grad or rank_grad:
            x_t = x.data.T if x.data.ndim == 2 else x.data.transpose(0, 2, 1)
            g_w = np.matmul(x_t, g)                         # d/dW_m, (M, in, out)
            if r is None:
                _accum(weight, g_w)
            elif weight.requires_grad:
                rank_one = s.data[:, :, None] * r.data[:, None, :]
                _accum(weight, (g_w * rank_one).sum(axis=0, keepdims=True))
            if rank_grad:
                # (M, out, in) rows, as the closed form sums them
                g_rank = np.multiply(g_w.transpose(0, 2, 1), weight.data.transpose(0, 2, 1),
                                     order="C")
                _accum(r, np.matmul(g_rank, s.data[:, :, None])[..., 0])
                _accum(s, np.matmul(g_rank.transpose(0, 2, 1), r.data[:, :, None])[..., 0])
        if bias.requires_grad:
            _accum(bias, g.sum(axis=1))
        if x.requires_grad:
            g_x = ad.dense_input_grad(g, w)
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


def log_softmax_temp(logits: Tensor, tau: float) -> Tensor:
    """log of softmax_temp (see ``log_softmax_values``)."""
    if tau <= 0.0:
        raise DomainError(f"temperature must be positive, got {tau}")
    out_data, p = ad.log_softmax_values(logits.data, tau)

    def backward(g: np.ndarray) -> None:
        _accum(logits, ad.log_softmax_grad(g, p, tau))

    return _node(out_data, (logits,), "log_softmax_temp", backward)


# -- gamma family ----------------------------------------------------------------

def lgamma(x: Tensor) -> Tensor:
    """Log-gamma of positive input (d lgamma = digamma)."""
    out_data = ad._lgamma_arr(x.data)

    def backward(g: np.ndarray) -> None:
        _accum(x, g * ad._digamma_arr(x.data))

    return _node(out_data, (x,), "lgamma", backward)


def digamma(x: Tensor) -> Tensor:
    """Digamma of positive input (d digamma = trigamma)."""
    out_data = ad._digamma_arr(x.data)

    def backward(g: np.ndarray) -> None:
        _accum(x, g * ad._trigamma_arr(x.data))

    return _node(out_data, (x,), "digamma", backward)


# -- nets and losses on the tape ----------------------------------------------

def forward(net, x) -> tuple[Tensor, list[Tensor]]:
    """(M, B, K) logits of every member of a distilab net, one dense node per
    layer, from a (B, in) or (M, B, in) input array or Tensor; and the leaves
    that hold copies of the net's arrays, in ``net.parameters()`` order."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    leaves = {id(a): Tensor(a, requires_grad=True) for a in net.parameters()}

    def leaf(a):
        return None if a is None else leaves[id(a)]

    last = len(net.layers) - 1
    for i, l in enumerate(net.layers):
        h = dense(h, leaf(l.weight), leaf(l.r), leaf(l.s), leaf(l.bias), i != last)
    return h, list(leaves.values())


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The teachers' loss, ``optim.cross_entropy``'s value."""
    log_probs = log_softmax_temp(logits, 1.0)
    y_hot = Tensor(one_hot(labels, logits.shape[-1]).reshape(log_probs.shape))
    return scale(sum(mul(y_hot, log_probs)), -1.0 / labels.shape[-1])


def kd_loss(teacher_logits: np.ndarray, student_logits: Tensor, y_onehot: np.ndarray,
            cfg, weights: np.ndarray | None = None) -> Tensor:
    """``distill.kd_loss``'s value: KD, or AE-KD with per-sample weights."""
    log_p = log_softmax_temp(student_logits, cfg.tau)
    n = log_p.data.size // log_p.shape[-1]
    terms = None
    if cfg.alpha > 0.0:
        for m, logits in enumerate(teacher_logits):
            probs = softmax_np(logits, cfg.tau)
            if weights is not None:
                probs = probs * weights[:, m][:, None]
            h = scale(sum(mul(Tensor(probs.reshape(log_p.shape)), log_p)), -1.0 / n)
            terms = h if terms is None else add(terms, h)
        c = cfg.alpha * cfg.tau ** 2
        if weights is None:
            c /= len(teacher_logits)
        kd = scale(terms, c)
        if cfg.alpha == 1.0:
            return kd
    label_ce = scale(sum(mul(Tensor(y_onehot.reshape(log_p.shape)), log_p)),
                     -(1.0 - cfg.alpha) / n)
    return label_ce if cfg.alpha == 0.0 else add(label_ce, kd)


def one_to_one_loss(teacher_logits: np.ndarray, student_logits: Tensor,
                    tau: float) -> Tensor:
    """``distill.one_to_one_loss``'s value."""
    log_p = log_softmax_temp(student_logits, tau)
    return scale(sum(mul(Tensor(softmax_np(teacher_logits, tau)), log_p)),
                 -tau ** 2 / student_logits.shape[1])


def dirichlet_kl(conc: Tensor, target_beta: np.ndarray) -> Tensor:
    """KL(Dir(conc) || Dir(target)) per sample.

    Rearranged so the digamma of the concentration total multiplies the
    total-vs-target gap, avoiding any broadcast against the class axis.
    """
    beta = np.asarray(target_beta, dtype=np.float64)
    a0 = sum(conc, axis=-1)
    const = (np.asarray(ad.lgamma(beta)).sum(axis=-1) - ad.lgamma(beta.sum(axis=-1)))
    out = sub(lgamma(a0), sum(lgamma(conc), axis=-1))
    out = add(out, Tensor(np.asarray(const)))
    out = add(out, sum(mul(sub(conc, Tensor(beta)), digamma(conc)), axis=-1))
    return sub(out, mul(digamma(a0), sub(a0, Tensor(beta.sum(axis=-1)))))


def proxy_end2_loss(student_logits: Tensor, target) -> Tensor:
    """``distill.proxy_end2_loss``'s value, in the tape's own rounding."""
    conc = add_scalar(exp(student_logits), 1.0)
    kl = dirichlet_kl(conc, target.beta.reshape(conc.shape))
    weights = Tensor(np.where(target.defined, 1.0 / target.beta.sum(axis=-1),
                              0.0).reshape(kl.shape))
    return mean(mul(kl, weights))


def ods_objective(logits: Tensor, guidance: np.ndarray, tau: float) -> Tensor:
    """w^T p(logits; tau) summed over the rows: the functional the ODS step
    ascends, whose logits gradient ``perturb._ods_gradients`` forms."""
    return sum(mul(Tensor(guidance), softmax_temp(logits, tau)))
