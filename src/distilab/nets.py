"""Relu MLPs with a member axis: plain nets and rank-one-factored students.

An ``MLP`` has ``len(net)`` members, ``net[m]`` is member m as a one-member
net that shares net's parameter tensors, and ``net.forward`` runs every
member at once, one autodiff node per layer, for training and evaluation
alike. A plain net keeps one weight per member: a trained teacher is a
one-member net, and ``join`` makes one net of a list of them, the teacher
ensemble.

A factored ("batch ensemble") dense layer stores one shared weight matrix
plus M pairs of rank-one factor vectors; member m's effective weight is the
shared matrix Hadamard-multiplied by the outer product of its factor pair.
Averaging those rank-one products collapses the student back to a single
plain network with ordinary inference cost.

Biases are kept per member (the factored construction is silent on biases;
per-member keeps member expressiveness symmetric with the rank-one weights)
and averaging takes their arithmetic mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

PLAIN = "plain"
BATCH_ENSEMBLE = "batch_ensemble"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description shared by teachers and students."""

    in_dim: int
    num_classes: int
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
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
    """Dense layer with M members and one bias (out,) per member. A plain
    layer has one weight (out, in) per member; a factored one has a single
    shared weight and one rank-one factor pair r_m (out,), s_m (in,) per
    member."""

    def __init__(self, weights: Sequence[Tensor], bias: Sequence[Tensor],
                 r: Sequence[Tensor] = (), s: Sequence[Tensor] = ()):
        weights, bias, r, s = list(weights), list(bias), list(r), list(s)
        if not bias or any(w.data.ndim != 2 for w in weights) \
                or len(weights) != (1 if r or s else len(bias)) \
                or (r or s) and not len(r) == len(s) == len(bias):
            raise ShapeError(f"a dense layer has one bias per member and one weight per "
                             f"member, or one shared weight and one factor pair per "
                             f"member; got {len(weights)} weights, {len(bias)} biases, "
                             f"{len(r)} r and {len(s)} s factors")
        out_dim, in_dim = weights[0].shape
        if any(w.shape != (out_dim, in_dim) for w in weights) \
                or any(t.shape != (out_dim,) for t in (*bias, *r)) \
                or any(t.shape != (in_dim,) for t in s):
            raise ShapeError(f"weight, bias or rank-one factor shapes inconsistent with "
                             f"weight {weights[0].shape}")
        self.weights = weights
        self.bias = bias
        self.r = r
        self.s = s

    @property
    def weight(self) -> Tensor:
        """The shared weight of a factored layer, or a one-member layer's weight."""
        if len(self.weights) != 1:
            raise ValueError(f"a plain layer of {len(self.weights)} members has one "
                             "weight per member; index a member first")
        return self.weights[0]

    def member(self, m: int) -> "Layer":
        weights = self.weights if self.r else self.weights[m:m + 1]
        return Layer(weights, [self.bias[m]], self.r[m:m + 1], self.s[m:m + 1])


class MLP:
    """Relu MLP producing K logits per member.

    ``head`` records how logits map to probabilities at evaluation time:
    "softmax" for ordinary classifiers, "dirichlet" for students whose
    logits are log concentration parameters.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer], head: str = "softmax"):
        if head not in ("softmax", "dirichlet"):
            raise ValueError(f"unknown head '{head}'")
        if len({(len(l.bias), bool(l.r)) for l in layers}) != 1:
            raise ShapeError("layers disagree on member count or factoring")
        self.spec = spec
        self.layers = layers
        self.head = head

    def __len__(self) -> int:
        return len(self.layers[0].bias)

    def __getitem__(self, m: int) -> "MLP":
        """Member m as a one-member net sharing this net's tensors."""
        if not 0 <= m < len(self):
            raise IndexError(f"member index {m} out of range for M={len(self)}")
        return MLP(self.spec, [l.member(m) for l in self.layers], self.head)

    def __iter__(self):
        return (self[m] for m in range(len(self)))

    @property
    def factored(self) -> bool:
        return bool(self.layers[0].r)

    def forward(self, x: Tensor) -> Tensor:
        """(M, B, K) logits of every member, from a (B, in) input shared by the
        members or an (M, B, in) input with one slice per member."""
        h = x
        last = len(self.layers) - 1
        for i, l in enumerate(self.layers):
            h = ad.dense(h, l.weights, l.r, l.s, l.bias, i != last)
        return h

    def parameters(self) -> list[Tensor]:
        return [p for l in self.layers for p in (*l.weights, *l.r, *l.s, *l.bias)]

    def shared_parameters(self) -> list[Tensor]:
        return [l.weight for l in self.layers]

    def rank_parameters(self) -> list[Tensor]:
        return [t for l in self.layers for t in (*l.r, *l.s)]

    def member_bias_parameters(self) -> list[Tensor]:
        return [b for l in self.layers for b in l.bias]

    def copy(self) -> "MLP":
        def fresh(ts: Sequence[Tensor]) -> list[Tensor]:
            return [Tensor(t.data, requires_grad=True) for t in ts]

        layers = [Layer(fresh(l.weights), fresh(l.bias), fresh(l.r), fresh(l.s))
                  for l in self.layers]
        return MLP(self.spec, layers, head=self.head)


def join(nets: "MLP | Iterable[MLP]") -> MLP:
    """One net whose members are those of nets, in order.

    A net is returned as it is. A list of plain nets becomes one plain net
    with one weight per member; factored nets join only when they share
    their weight, as the member views of one factored net do.
    """
    if isinstance(nets, MLP):
        return nets
    nets = list(nets)
    layers = []
    for parts in zip(*(n.layers for n in nets)):
        weights = [w for p in parts for w in p.weights]
        if parts[0].r and all(w is weights[0] for w in weights):
            weights = weights[:1]
        layers.append(Layer(weights, [b for p in parts for b in p.bias],
                            [t for p in parts for t in p.r],
                            [t for p in parts for t in p.s]))
    return MLP(nets[0].spec, layers, nets[0].head)


# -- construction -------------------------------------------------------------

def build_plain(spec: ModelSpec, rng: np.random.Generator, head: str = "softmax") -> MLP:
    """He-normal weights, zero biases."""
    layers = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        layers.append(Layer([Tensor(w, requires_grad=True)],
                            [Tensor(np.zeros(fan_out), requires_grad=True)]))
    return MLP(spec, layers, head=head)


def build_be(spec: ModelSpec, rng: np.random.Generator,
             rank_init: str = "ones", *, members: int) -> MLP:
    """Factored MLP with all-ones or random-sign rank factors.

    Ones initialization makes every member identical to the shared network;
    random signs start the members in genuinely different weight patterns.
    """
    if rank_init not in ("ones", "random_sign"):
        raise ValueError(f"unknown rank_init '{rank_init}'")
    if members < 1:
        raise ValueError(f"a factored net needs members >= 1, got {members}")
    layers = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        shared = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        r, s, b = [], [], []
        for _ in range(members):
            if rank_init == "ones":
                rv, sv = np.ones(fan_out), np.ones(fan_in)
            else:
                rv = rng.integers(0, 2, size=fan_out) * 2.0 - 1.0
                sv = rng.integers(0, 2, size=fan_in) * 2.0 - 1.0
            r.append(Tensor(rv, requires_grad=True))
            s.append(Tensor(sv, requires_grad=True))
            b.append(Tensor(np.zeros(fan_out), requires_grad=True))
        layers.append(Layer([Tensor(shared, requires_grad=True)], b, r, s))
    return MLP(spec, layers)


def average_rank_one(model: MLP) -> MLP:
    """Collapse a factored student into one plain network.

    Per layer the plain weight is shared ∘ (mean over members of r_m s_m^T)
    and the bias is the member mean, so inference afterwards costs exactly
    one forward pass.
    """
    if not model.factored:
        raise ValueError("rank-one averaging needs a factored net")
    layers = []
    m_count = len(model)
    for l in model.layers:
        r = np.stack([t.data for t in l.r])
        s = np.stack([t.data for t in l.s])
        rank_mean = (r[:, :, None] * s[:, None, :]).sum(axis=0) / m_count
        bias = np.stack([b.data for b in l.bias]).sum(axis=0) / m_count
        layers.append(Layer([Tensor(l.weight.data * rank_mean, requires_grad=True)],
                            [Tensor(bias, requires_grad=True)]))
    return MLP(model.spec, layers)


# -- checkpoint round trip -----------------------------------------------------

def _fmt_values(arr: np.ndarray) -> str:
    return " ".join(format(v, ".17g") for v in arr.reshape(-1))


def _parse_values(text: str, shape: Sequence[int], name: str) -> np.ndarray:
    vals = np.array([float(tok) for tok in text.split()], dtype=np.float64)
    if vals.size != int(np.prod(shape)):
        raise CheckpointError(f"tensor '{name}' has {vals.size} values, "
                              f"expected shape {tuple(shape)}")
    return vals.reshape(tuple(shape))


def _tensor_names(i: int, factored: bool, members: int) -> tuple[str, list, list, list]:
    """Format-v1 names of layer i's weight, biases, r and s factors."""
    if not factored:
        return f"layer{i}.W", [f"layer{i}.b"], [], []
    return (f"layer{i}.shared", [f"layer{i}.b{m}" for m in range(members)],
            [f"layer{i}.r{m}" for m in range(members)],
            [f"layer{i}.s{m}" for m in range(members)])


def checkpoint_save(model: MLP, path: str | Path) -> None:
    """Serialize to deterministic JSON; values carry 17 significant digits.
    Format v1 stores plain nets of one member, so save a joined teacher
    ensemble one member at a time."""
    tensors = {}
    for i, l in enumerate(model.layers):
        w, b, r, s = _tensor_names(i, model.factored, len(model))
        for name, t in zip([w, *b, *r, *s], [l.weight, *l.bias, *l.r, *l.s]):
            tensors[name] = {"shape": list(t.shape), "values": _fmt_values(t.data)}
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
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')}")
    kind = doc["kind"]
    if kind not in (PLAIN, BATCH_ENSEMBLE):
        raise CheckpointError(f"unknown model kind '{kind}'")
    factored = kind == BATCH_ENSEMBLE
    members = doc.get("M") if factored else 1
    if not isinstance(members, int) or members < 1:
        raise CheckpointError(f"factored checkpoint needs M >= 1, got {members!r}")
    sd = doc["spec"]
    spec = ModelSpec(int(sd["in_dim"]), int(sd["num_classes"]),
                     tuple(sd["hidden"]), sd["activation"])
    if expected_spec is not None:
        if spec.num_classes != expected_spec.num_classes:
            raise CheckpointError(
                f"checkpoint has {spec.num_classes} classes, "
                f"requested spec has {expected_spec.num_classes}")
        if (spec.in_dim, spec.hidden) != (expected_spec.in_dim, expected_spec.hidden):
            raise CheckpointError("checkpoint architecture disagrees with requested spec")
    tensors = doc["tensors"]

    def load(name: str, shape: tuple[int, ...]) -> Tensor:
        if name not in tensors:
            raise CheckpointError(f"missing tensor '{name}'")
        rec = tensors[name]
        arr = _parse_values(rec["values"], rec["shape"], name)
        if arr.shape != shape:
            raise CheckpointError(f"tensor '{name}' shape {arr.shape} != expected {shape}")
        return Tensor(arr, requires_grad=True)

    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        w, b, r, s = _tensor_names(i, factored, members)
        layers.append(Layer([load(w, (fan_out, fan_in))], [load(n, (fan_out,)) for n in b],
                            [load(n, (fan_out,)) for n in r], [load(n, (fan_in,)) for n in s]))
    return MLP(spec, layers, head=doc.get("head", "softmax"))
