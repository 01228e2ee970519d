"""Relu MLPs with a member axis: plain nets and rank-one-factored students.

An ``MLP`` has ``len(net)`` members, and each layer stores its parameters
as member-stacked float64 arrays: a weight, a bias, and the rank-one
factors r and s of a factored layer. ``net.forward_kept`` runs every member
at once and keeps each layer's output, and ``net.backward`` takes a logits
gradient back through those and returns the parameter gradients or the
input gradients, writing nothing onto the net; ``net.forward`` returns the
logits alone. ``net[m]`` and ``net[[i, j]]`` are copies of those members'
rows.

A plain layer holds one weight per member, an (M, in, out) weight, the
layout its matmul reads: the teacher ensemble trains as one M-member net,
each teacher is saved as a one-member net, and ``join`` concatenates loaded
ones. A factored ("batch ensemble") layer holds one shared (1, in, out)
weight plus rank-one factors r (M, out) and s (M, in); member m's effective
weight is the shared matrix Hadamard-multiplied by the outer product
s_m r_m^T (``autodiff.member_weights``). Averaging those
rank-one products collapses the student back to a single plain network
with ordinary inference cost.

Biases are kept per member (the factored construction is silent on biases;
per-member keeps member expressiveness symmetric with the rank-one weights)
and averaging takes their arithmetic mean.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError

PLAIN = "plain"
BATCH_ENSEMBLE = "batch_ensemble"
CHECKPOINT_VERSION = 1
RANK_INITS = ("ones", "random_sign")
HEADS = ("softmax", "dirichlet")


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed, or inconsistent."""


def is_int(value) -> bool:
    """True for a Python or numpy integer; False for a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy integer or float; False for a bool or a string."""
    return is_int(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description shared by teachers and students."""

    in_dim: int
    num_classes: int
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        for name in ("in_dim", "num_classes"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if not isinstance(self.hidden, (list, tuple)):
            raise ValueError(f"hidden widths must be a list, got {self.hidden!r}")
        if not all(is_int(h) and h >= 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be integers >= 1, got {list(self.hidden)!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.in_dim < 1:
            raise ValueError(f"in_dim must be >= 1, got {self.in_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.hidden) < 1:
            raise ValueError("at least one hidden layer is required")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation '{self.activation}'")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.in_dim, *self.hidden, self.num_classes)

    def to_dict(self) -> dict:
        return {"in_dim": self.in_dim, "num_classes": self.num_classes,
                "hidden": list(self.hidden), "activation": self.activation}


class Layer:
    """Dense layer of M members with a bias (M, out). A plain layer has a
    weight (M, in, out), one per member; a factored one has a shared weight
    (1, in, out) and rank-one factors r (M, out) and s (M, in)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, r: np.ndarray | None = None,
                 s: np.ndarray | None = None):
        if any(a is not None and getattr(a, "dtype", None) != np.float64
               for a in (weight, bias, r, s)):
            raise TypeError("a dense layer's weight, bias, r and s are float64 arrays")
        if bias.ndim != 2:
            raise ShapeError(f"a dense layer's bias is (M, out), got {bias.shape}")
        members, out_dim = bias.shape
        in_dim = weight.shape[1] if weight.ndim == 3 else None
        got = tuple(None if a is None else a.shape for a in (weight, r, s))
        want = ((members, in_dim, out_dim), None, None) if r is None else \
            ((1, in_dim, out_dim), (members, out_dim), (members, in_dim))
        if got != want:
            raise ShapeError(f"weight, r and s shapes {got} do not fit bias {bias.shape}; "
                             f"expected {want}")
        self.weight = weight
        self.bias = bias
        self.r = r
        self.s = s


class MLP:
    """Relu MLP producing K logits per member.

    ``head`` records how logits map to probabilities at evaluation time:
    "softmax" for ordinary classifiers, "dirichlet" for students whose
    logits are log concentration parameters.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer], head: str = "softmax"):
        if head not in HEADS:
            raise ValueError(f"unknown head '{head}'")
        if len({(l.bias.shape[0], l.r is None) for l in layers}) != 1:
            raise ShapeError("layers disagree on member count or factoring")
        self.spec = spec
        self.layers = layers
        self.head = head

    def __len__(self) -> int:
        return self.layers[0].bias.shape[0]

    def __getitem__(self, idx: int | Iterable[int]) -> "MLP":
        """A net holding copies of member idx (an int) or of members idx (a
        sequence), in that order."""
        rows = [idx] if isinstance(idx, (int, np.integer)) else list(idx)
        if not rows or any(not 0 <= m < len(self) for m in rows):
            raise IndexError(f"member index {idx} out of range for M={len(self)}")

        def take(a: np.ndarray | None) -> np.ndarray | None:
            # the fancy index is the one copy
            return None if a is None else a[rows]

        layers = [Layer(l.weight.copy() if self.factored else take(l.weight),
                        take(l.bias), take(l.r), take(l.s)) for l in self.layers]
        return MLP(self.spec, layers, self.head)

    def __iter__(self):
        return (self[m] for m in range(len(self)))

    @property
    def factored(self) -> bool:
        return self.layers[0].r is not None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(M, B, K) logits of every member, from a (B, in) input shared by the
        members or an (M, B, in) input with one slice per member."""
        return self.forward_kept(x)[-1][2]

    def forward_kept(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each layer's (input, (M, in, out) member weights, output), in
        order, for ``backward``; the last output is the logits of ``forward``.
        Each member runs the float operations of a one-member net."""
        members, in_dim = len(self), self.layers[0].weight.shape[1]
        if x.ndim not in (2, 3) or x.shape[-1] != in_dim \
                or (x.ndim == 3 and x.shape[0] != members):
            raise ShapeError(f"a net of {members} members on {in_dim} inputs got input "
                             f"{x.shape}")
        kept = []
        last = len(self.layers) - 1
        for i, l in enumerate(self.layers):
            w = ad.member_weights(l.weight, l.r, l.s)
            out = ad.dense_values(x, w, l.bias, i != last)
            kept.append((x, w, out))
            x = out
        return kept

    def backward(self, kept: list, g: np.ndarray,
                 params: bool) -> list[np.ndarray] | np.ndarray:
        """Take the (M, B, K) logits gradient g back through the layers
        ``forward_kept`` kept, writing nothing onto the net.

        With params, return the gradient of each array of ``parameters()``,
        in that order (see ``autodiff.dense_param_grads``); the net's input
        gets no gradient. Without, form no parameter gradient and return the
        (M, B, in) gradient of each member's input. The gradient of each
        layer's input is a first arrival, as every other gradient is.
        """
        last = len(self.layers) - 1
        grads = [None] * len(self.layers)
        for i in range(last, -1, -1):
            x, w, out = kept[i]
            l = self.layers[i]
            g = ad.dense_pre_grad(g, out, i != last)
            if params:
                grads[i] = ad.dense_param_grads(x, g, l.weight, l.r, l.s)
                if i == 0:
                    weights, r, s, b = zip(*grads)
                    return [*weights, *(a for rs in zip(r, s) for a in rs if a is not None), *b]
            g = ad.first_arrival(ad.dense_input_grad(g, w))
        return g

    def parameters(self) -> list[np.ndarray]:
        return self.shared_parameters() + self.rank_parameters() + self.member_bias_parameters()

    def shared_parameters(self) -> list[np.ndarray]:
        return [l.weight for l in self.layers]

    def rank_parameters(self) -> list[np.ndarray]:
        return [a for l in self.layers if l.r is not None for a in (l.r, l.s)]

    def member_bias_parameters(self) -> list[np.ndarray]:
        return [l.bias for l in self.layers]


def join(nets: Iterable[MLP]) -> MLP:
    """One plain net whose members are copies of the member weights and
    biases of nets, plain or factored, in order."""
    nets = list(nets)
    layers = [Layer(np.concatenate([ad.member_weights(l.weight, l.r, l.s) for l in parts]),
                    np.concatenate([l.bias for l in parts]))
              for parts in zip(*(n.layers for n in nets))]
    return MLP(nets[0].spec, layers, nets[0].head)


def stack(nets: Sequence[MLP]) -> list[MLP]:
    """The members of nets, in order, as plain nets that run them in one pass:
    ``join`` of each run of nets with equal widths, so ``forward_kept`` forms
    no member weight. numpy's stacked matmul runs one gemm per member: each
    keeps its bits."""
    return [join(run) for _, run in itertools.groupby(nets, lambda n: n.spec.widths)]


def restack(stacked: list[MLP], net: MLP) -> None:
    """Write net's member weights and biases over its rows of ``stack([..., net])``."""
    for s, l in zip(stacked[-1].layers, net.layers):
        s.weight[-len(net):] = ad.member_weights(l.weight, l.r, l.s)
        s.bias[-len(net):] = l.bias


# -- construction -------------------------------------------------------------

def build_plain(spec: ModelSpec, rng: np.random.Generator | Sequence[np.random.Generator],
                head: str = "softmax") -> MLP:
    """He-normal weights, zero biases; one member per generator of a sequence.

    Each weight is drawn as (out, in) rows, which fixes which value each draw
    lands on, then stored (in, out) in C order: a strided weight slows every
    update of it."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    layers = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        w = np.stack([g.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in)) for g in rngs])
        layers.append(Layer(np.ascontiguousarray(w.transpose(0, 2, 1)),
                            np.zeros((len(rngs), fan_out))))
    return MLP(spec, layers, head=head)


def build_be(spec: ModelSpec, rng: np.random.Generator,
             rank_init: str = "ones", *, members: int) -> MLP:
    """Factored MLP with all-ones or random-sign rank factors.

    Ones initialization makes every member identical to the shared network;
    random signs start the members in genuinely different weight patterns.
    The shared weight is drawn and stored as ``build_plain``'s are.
    """
    if rank_init not in RANK_INITS:
        raise ValueError(f"unknown rank_init '{rank_init}'")
    if members < 1:
        raise ValueError(f"a factored net needs members >= 1, got {members}")
    layers = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        shared = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(1, fan_out, fan_in))
        shared = np.ascontiguousarray(shared.transpose(0, 2, 1))
        if rank_init == "ones":
            r, s = np.ones((members, fan_out)), np.ones((members, fan_in))
        else:
            # one r then one s draw per member, in member order
            signs = [(rng.integers(0, 2, size=fan_out) * 2.0 - 1.0,
                      rng.integers(0, 2, size=fan_in) * 2.0 - 1.0) for _ in range(members)]
            r, s = (np.stack(f) for f in zip(*signs))
        layers.append(Layer(shared, np.zeros((members, fan_out)), r, s))
    return MLP(spec, layers)


def average_rank_one(model: MLP) -> MLP:
    """Collapse a factored student into one plain network.

    Per layer the plain weight is shared ∘ (mean over members of s_m r_m^T)
    and the bias is the member mean, so inference afterwards costs exactly
    one forward pass.
    """
    if not model.factored:
        raise ValueError("rank-one averaging needs a factored net")
    layers = []
    m_count = len(model)
    for l in model.layers:
        rank_mean = (l.s[:, :, None] * l.r[:, None, :]).sum(axis=0) / m_count
        bias = l.bias.sum(axis=0, keepdims=True) / m_count
        layers.append(Layer(l.weight * rank_mean, bias))
    return MLP(model.spec, layers)


# -- checkpoint round trip -----------------------------------------------------

def _fmt_values(arr: np.ndarray) -> str:
    return " ".join(map(format, arr.ravel().tolist(), itertools.repeat(".17g")))


def _parse_values(text: str, shape: Sequence[int]) -> np.ndarray:
    vals = np.array([float(tok) for tok in text.split()], dtype=np.float64)
    if vals.size != int(np.prod(shape)):
        raise ValueError(f"{vals.size} values for shape {tuple(shape)}")
    return vals.reshape(tuple(shape))


def _tensor_names(i: int, factored: bool, members: int) -> tuple[str, list, list, list]:
    """Format-v1 names of layer i's weight, biases, r and s factors."""
    if not factored:
        return f"layer{i}.W", [f"layer{i}.b"], [], []
    return (f"layer{i}.shared", [f"layer{i}.b{m}" for m in range(members)],
            [f"layer{i}.r{m}" for m in range(members)],
            [f"layer{i}.s{m}" for m in range(members)])


def checkpoint_save(model: MLP, path: str | Path) -> None:
    """Serialize to deterministic JSON, one format-v1 tensor per member row;
    values carry 17 significant digits and a weight is saved as (out, in)
    rows. Format v1 stores plain nets of one member, so save a joined teacher
    ensemble one member at a time."""
    if not model.factored and len(model) > 1:
        raise ValueError(f"format v1 holds one-member plain nets; save each of the "
                         f"{len(model)} members on its own")
    tensors = {}
    for i, l in enumerate(model.layers):
        w, b, r, s = _tensor_names(i, model.factored, len(model))
        # format v1 holds a weight as (out, in) rows
        rows = [l.weight[0].T, *l.bias]
        if model.factored:
            rows += [*l.r, *l.s]
        for name, arr in zip([w, *b, *r, *s], rows):
            tensors[name] = {"shape": list(arr.shape), "values": _fmt_values(arr)}
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": BATCH_ENSEMBLE if model.factored else PLAIN,
        "M": len(model) if model.factored else None,
        "head": model.head,
        "spec": model.spec.to_dict(),
        "tensors": tensors,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def checkpoint_load(path: str | Path, expected_spec: ModelSpec | None = None) -> MLP:
    p = Path(path)
    if not p.exists():
        raise CheckpointError(f"checkpoint not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise CheckpointError(f"unparseable checkpoint {p}: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"{p}: a checkpoint must be a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{p}: unsupported checkpoint version "
                              f"{doc.get('format_version')!r}")
    try:
        kind, sd, tensors = doc["kind"], doc["spec"], doc["tensors"]
        if not isinstance(sd, dict) or not isinstance(tensors, dict):
            raise CheckpointError("spec and tensors must be JSON objects")
        spec = ModelSpec(sd["in_dim"], sd["num_classes"], sd["hidden"], sd["activation"])
    except KeyError as e:
        raise CheckpointError(f"{p}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{p}: {e}") from e
    if kind not in (PLAIN, BATCH_ENSEMBLE):
        raise CheckpointError(f"{p}: unknown model kind {kind!r}")
    head = doc.get("head", "softmax")
    if head not in HEADS:
        raise CheckpointError(f"{p}: unknown head {head!r}")
    factored = kind == BATCH_ENSEMBLE
    members = doc.get("M") if factored else 1
    if not is_int(members) or members < 1:
        raise CheckpointError(f"{p}: factored checkpoint needs M >= 1, got {members!r}")
    if expected_spec is not None:
        if spec.num_classes != expected_spec.num_classes:
            raise CheckpointError(
                f"{p}: checkpoint has {spec.num_classes} classes, "
                f"requested spec has {expected_spec.num_classes}")
        if (spec.in_dim, spec.hidden) != (expected_spec.in_dim, expected_spec.hidden):
            raise CheckpointError(f"{p}: checkpoint architecture disagrees with requested spec")

    def load(names: list[str], shape: tuple[int, ...]) -> np.ndarray | None:
        """The named rows stacked on a member axis; None for no names."""
        rows = []
        for name in names:
            if name not in tensors:
                raise CheckpointError(f"{p}: missing tensor '{name}'")
            rec = tensors[name]
            if not isinstance(rec, dict):
                raise CheckpointError(f"{p}: tensor '{name}' must be a JSON object")
            try:
                arr = _parse_values(rec["values"], rec["shape"])
            except KeyError as e:
                raise CheckpointError(f"{p}: tensor '{name}' has no {e} key") from e
            except (AttributeError, TypeError, ValueError) as e:
                raise CheckpointError(f"{p}: tensor '{name}' is malformed: {e}") from e
            if arr.shape != shape:
                raise CheckpointError(
                    f"{p}: tensor '{name}' shape {arr.shape} != expected {shape}")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{p}: tensor '{name}' has a non-finite value")
            rows.append(arr)
        return np.stack(rows) if rows else None

    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        w, b, r, s = _tensor_names(i, factored, members)
        # format v1 holds a weight as (out, in) rows
        weight = np.ascontiguousarray(load([w], (fan_out, fan_in)).transpose(0, 2, 1))
        layers.append(Layer(weight, load(b, (fan_out,)), load(r, (fan_out,)), load(s, (fan_in,))))
    return MLP(spec, layers, head=head)
