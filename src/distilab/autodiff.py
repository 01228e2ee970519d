"""The closed-form pieces of every gradient.

There is no graph. A net's parameters are float64 arrays.
``nets.MLP.forward_kept`` runs a net from ``member_weights`` and
``dense_values`` and keeps each layer's input, weights and output;
``nets.MLP.backward`` takes a logits gradient back through them with
``dense_pre_grad``, ``dense_param_grads`` and ``dense_input_grad``, and
returns the gradients it forms. Every loss forms its value and its logits
gradient in closed form from ``log_softmax_values`` / ``log_softmax_grad``
and the gamma-family kernels below.

Design constraints honored throughout:

* everything is float64; no silent downcasts,
* a value that comes out NaN or Inf raises ``NumericsError`` naming the
  op or loss that formed it,
* gradients reach a net's inputs as well as its parameters, which the
  perturbation strategies rely on.
"""

from __future__ import annotations

import math

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


def first_arrival(g: np.ndarray) -> np.ndarray:
    """g + 0.0 in place: a gradient's bits as the first term of a sum that
    starts from zero, which turns each -0.0 into 0.0."""
    return np.add(g, 0.0, out=g)


# -- member-stacked dense layer ---------------------------------------------

def member_weights(weight: np.ndarray, r: np.ndarray | None,
                   s: np.ndarray | None) -> np.ndarray:
    """(M, in, out) member weights for ``dense_values``: a plain layer's
    (M, in, out) weight itself, or the shared (1, in, out) weight
    Hadamard-multiplied by each member's s_m r_m^T from r (M, out) and
    s (M, in)."""
    if r is None:
        return weight
    return weight * (s[:, :, None] * r[:, None, :])


def dense_values(x: np.ndarray, w: np.ndarray, bias: np.ndarray, relu: bool) -> np.ndarray:
    """x_m w[m] + b_m for every member m, (M, B, out), from a (B, in) input
    shared by the members or an (M, B, in) one, then a relu when relu is true.

    The values are checked finite as op 'dense' before the relu, which would
    hide a -inf; the relu runs in place, so out > 0 marks pre > 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(x, w)
    out += bias[:, None, :]
    ensure_finite(out, "dense")
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def dense_pre_grad(g: np.ndarray, out: np.ndarray, relu: bool) -> np.ndarray:
    """The gradient g of a layer's output ``out`` taken back through its relu,
    by a float mask (a boolean one would be cast inside the multiply, slower)."""
    if not relu:
        return g
    mask = (out > 0.0).astype(np.float64)
    return np.multiply(g, mask, out=mask)


def dense_input_grad(g_pre: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(M, B, in) gradient of each member's input, from the (M, B, out)
    gradient of the layer before its relu and the (M, in, out) member weights."""
    return np.matmul(g_pre, w.transpose(0, 2, 1))


def dense_param_grads(x: np.ndarray, g_pre: np.ndarray, weight: np.ndarray,
                      r: np.ndarray | None, s: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """The gradients of a layer's weight, r, s and bias (None for the r and s
    of a plain layer), from its (B, in) or (M, B, in) input x and the
    (M, B, out) gradient before its relu.

    A plain weight collects each member's own x_m^T g_m; a shared weight
    sums the members' gradients, each taken through its rank-one factors,
    in order 0..M-1; r and s take the member gradient through the shared
    weight. Each is a first arrival (see ``first_arrival``).
    """
    x_t = x.T if x.ndim == 2 else x.transpose(0, 2, 1)
    g_w = np.matmul(x_t, g_pre)                         # d/dW_m, (M, in, out)
    g_bias = first_arrival(g_pre.sum(axis=1))
    if r is None:
        return first_arrival(g_w), None, None, g_bias
    g_weight = first_arrival((g_w * (s[:, :, None] * r[:, None, :])).sum(axis=0, keepdims=True))
    # (M, out, in) in C order: the r and s matmuls then sum each row in the
    # order that keeps a factored student's bits
    g_rank = np.multiply(g_w.transpose(0, 2, 1), weight.transpose(0, 2, 1), order="C")
    g_r = first_arrival(np.matmul(g_rank, s[:, :, None])[..., 0])
    g_s = first_arrival(np.matmul(g_rank.transpose(0, 2, 1), r[:, :, None])[..., 0])
    return g_weight, g_r, g_s, g_bias


# -- log-softmax ---------------------------------------------------------------

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
    """Log-gamma of a positive float or array."""
    out = _lgamma_arr(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Digamma of a positive float or array (the derivative of ``lgamma``)."""
    out = _digamma_arr(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out
