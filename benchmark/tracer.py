"""Traced mode: spans and counts around the calls into each distilab layer.

Nothing inside the program changes. ``Tracer.install`` replaces each traced
function under every name through which it is looked up (``cli`` and
``distill`` import functions by name, so their module attributes are patched
too) and ``Tracer.uninstall`` puts the originals back. A span records
(layer, function, start, end, parent); a layer's self time is its spans'
durations minus the traced child spans inside them. Autodiff ops are counted
at ``autodiff._node``, through which every op builds its output, not spanned.
A function that a later change removes is skipped, and its metrics read 0.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (layer, module, class or None, function)
SPANNED = (
    ("perturb.build", "distilab.perturb", None, "build_perturbation"),
    ("perturb.shift", "distilab.perturb", None, "diversity_shift_values"),
    ("distill.run", "distilab.distill", None, "distill_kd"),
    ("distill.run", "distilab.distill", None, "distill_aekd"),
    ("distill.run", "distilab.distill", None, "distill_proxy_end2"),
    ("distill.run", "distilab.distill", None, "distill_be"),
    ("distill.run", "distilab.distill", None, "distill_latentbe"),
    ("distill.loop", "distilab.distill", None, "_plain_distill_loop"),
    ("distill.loop", "distilab.distill", None, "_one_to_one_loop"),
    ("distill.loss", "distilab.distill", None, "kd_loss"),
    ("distill.loss", "distilab.distill", None, "proxy_dirichlet_target"),
    ("distill.loss", "distilab.distill", None, "proxy_end2_loss"),
    ("distill.aekd", "distilab.distill", None, "_aekd_weights_batch"),
    ("autodiff.backward", "distilab.autodiff", "Tensor", "backward"),
    ("nets.graph_forward", "distilab.nets", "MLP", "forward"),
    ("nets.graph_forward", "distilab.nets", "BEMLP", "forward_member"),
    ("nets.predict", "distilab.nets", "MLP", "predict_logits"),
    ("nets.predict", "distilab.nets", "BEMLP", "predict_member_logits"),
    ("nets.predict", "distilab.nets", "BEMLP", "predict_all_member_logits"),
    ("nets.checkpoint", "distilab.nets", None, "checkpoint_save"),
    ("nets.checkpoint", "distilab.nets", None, "checkpoint_load"),
    ("nets.average", "distilab.nets", None, "average_rank_one"),
    ("optim.teacher_train", "distilab.optim", None, "train_teachers"),
    ("optim.teacher_train", "distilab.optim", None, "train_classifier"),
    ("optim.sgd_step", "distilab.optim", "SGD", "step"),
    ("metrics.evaluate", "distilab.metrics", None, "evaluate_model"),
    ("metrics.fit_temperature", "distilab.metrics", None, "fit_temperature"),
    ("subspace.scan", "distilab.subspace", None, "line_scan"),
    ("subspace.scan", "distilab.subspace", None, "pairwise_barriers"),
    ("subspace.trace", "distilab.subspace", "EndpointTrace", "record"),
    ("data.generate", "distilab.data", None, "make_mixture"),
    ("data.generate", "distilab.data", None, "make_ood"),
    ("data.generate", "distilab.data", None, "corrupt"),
    ("seeding.digest", "distilab.data", "Dataset", "digest"),
    ("cli.main", "distilab.cli", None, "main"),
    *(("cli.command", "distilab.cli", None, f"cmd_{c}")
      for c in ("train_teachers", "distill", "evaluate", "line_scan", "perturb_diag",
                "average")),
)

# The per-layer metrics and their units, in the order they are reported.
METRICS = (
    ("perturb.build_s", "s"), ("perturb.calls", "count"),
    ("perturb.graph_forwards_per_call", "forwards/call"), ("perturb.diag_s", "s"),
    ("distill.steps", "count"), ("distill.step_ms_p50", "ms"),
    ("distill.step_ms_p90", "ms"), ("distill.loop_self_s", "s"), ("distill.loss_s", "s"),
    ("distill.aekd_solve_s", "s"), ("distill.aekd_solves", "count"),
    ("autodiff.nodes", "count"), ("autodiff.nodes_per_distill_step", "nodes/step"),
    ("autodiff.matmul_gflop", "GFLOP"), ("autodiff.backward_s", "s"),
    ("autodiff.backwards", "count"), ("nets.graph_forward_s", "s"),
    ("nets.graph_forwards", "count"), ("nets.predict_s", "s"),
    ("nets.predict_rows", "rows"), ("nets.checkpoint_s", "s"),
    ("nets.checkpoint_bytes", "bytes"), ("nets.average_s", "s"),
    ("optim.teacher_train_s", "s"), ("optim.sgd_step_s", "s"), ("optim.sgd_steps", "count"),
    ("metrics.evaluate_s", "s"), ("metrics.evaluations", "count"),
    ("metrics.fit_temperature_s", "s"), ("metrics.nll_calls", "count"),
    ("subspace.scan_s", "s"), ("subspace.scan_points", "points"), ("subspace.trace_s", "s"),
    ("data.generate_s", "s"), ("data.rows_generated", "rows"), ("seeding.digest_s", "s"),
    ("seeding.digest_bytes", "bytes"), ("cli.commands", "count"), ("cli.self_s", "s"),
    ("trace.exceptions", "count"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)
# Metrics that are counts of work; they must repeat exactly between rounds.
COUNTS = tuple(name for name, unit in METRICS if unit not in ("s", "ms", "%"))

# Layer, start, end, parent index, value (rows, bytes or points) of one span.
LAYER, LABEL, START, END, PARENT, VALUE = range(6)


def _value(label: str, args: tuple, result) -> float:
    """The work measure a span carries, taken from its arguments or result."""
    if label in ("predict_logits", "predict_member_logits"):
        return args[-1].shape[0]
    if label == "_aekd_weights_batch":
        return np.shape(args[1])[0]
    if label == "checkpoint_save":
        return Path(args[1]).stat().st_size
    if label == "checkpoint_load":
        return Path(args[0]).stat().st_size
    if label == "line_scan":
        return len(result.ts)
    if label == "make_mixture":
        return sum(len(d) for d in result)
    if label in ("make_ood", "corrupt"):
        return len(result)
    if label == "digest":
        ds = args[0]
        return (len(ds.split.encode()) + 8 + 8 * ds.x.ndim + ds.x.nbytes + ds.y.nbytes)
    return 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.exceptions: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._distill_depth = 0

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "distilab" or name.startswith("distilab.")]
        for layer, mod_name, cls_name, fn_name in SPANNED:
            owner = sys.modules.get(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
                original = owner.__dict__.get(fn_name) if owner is not None else None
                if original is not None:
                    self._patch(owner, fn_name, self._span(layer, fn_name, original))
                continue
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self._span(layer, fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        autodiff = sys.modules.get("distilab.autodiff")
        if autodiff is not None and hasattr(autodiff, "_node"):
            self._patch(autodiff, "_node", self._node_counter(autodiff._node))
        metrics = sys.modules.get("distilab.metrics")
        if metrics is not None and hasattr(metrics, "nll_with_stats"):
            original = metrics.nll_with_stats
            wrapper = self._call_counter("metrics.nll_calls", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counts.clear()
        self.exceptions.clear()

    # -- wrappers ------------------------------------------------------------------------

    def _span(self, layer: str, label: str, fn):
        tracer = self
        loss_arg = label == "_plain_distill_loop"
        signature = inspect.signature(fn) if loss_arg else None

        def wrapper(*args, **kwargs):
            if loss_arg:
                # the plain students' losses are closures handed to the loop
                bound = signature.bind(*args, **kwargs)
                if "loss_fn" in bound.arguments:
                    bound.arguments["loss_fn"] = tracer._span(
                        "distill.loss", "loss_fn", bound.arguments["loss_fn"])
                    args, kwargs = bound.args, bound.kwargs
            index = len(tracer.spans)
            record = [layer, label, time.perf_counter(), 0.0,
                      tracer.stack[-1] if tracer.stack else -1, 0.0]
            tracer.spans.append(record)
            tracer.stack.append(index)
            if layer == "distill.run":
                tracer._distill_depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exceptions[layer] += 1
                raise
            finally:
                record[END] = time.perf_counter()
                tracer.stack.pop()
                if layer == "distill.run":
                    tracer._distill_depth -= 1
            record[VALUE] = _value(label, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _node_counter(self, fn):
        counts = self.counts

        def node(data, parents, op, backward):
            counts["autodiff.nodes"] += 1
            if self._distill_depth:
                counts["distill.nodes"] += 1
            if op == "matmul":
                a, b = parents
                counts["autodiff.matmul_flop"] += 2 * a.data.shape[0] * a.data.shape[1] \
                    * b.data.shape[1]
            return fn(data, parents, op, backward)

        return node

    def _call_counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------------------

    def round_metrics(self, scale: float) -> tuple[dict[str, float], list[float]]:
        """Per-layer metrics of the spans recorded since the last reset, and the
        distillation step latencies in ms (their percentiles are taken over the
        steps of every traced round, in run.py). Times are multiplied by
        ``scale``, the round's factor to seconds at the reference speed."""
        spans = self.spans
        n = len(spans)
        child = np.zeros(n)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_time = (np.array([s[END] - s[START] for s in spans]) - child) * scale

        def has_ancestor(i: int, layer: str) -> bool:
            i = spans[i][PARENT]
            while i >= 0:
                if spans[i][LAYER] == layer:
                    return True
                i = spans[i][PARENT]
            return False

        def nearest(i: int, layer: str) -> int:
            i = spans[i][PARENT]
            while i >= 0 and spans[i][LAYER] != layer:
                i = spans[i][PARENT]
            return i

        by_layer: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_layer.setdefault(s[LAYER], []).append(i)

        def self_s(*layers: str, where=None) -> float:
            return float(sum(self_time[i] for layer in layers for i in by_layer.get(layer, ())
                             if where is None or where(i)))

        def count(layer: str, where=None) -> int:
            return sum(1 for i in by_layer.get(layer, ()) if where is None or where(i))

        def total_value(layer: str, label: str | None = None) -> float:
            return float(sum(spans[i][VALUE] for i in by_layer.get(layer, ())
                             if label is None or spans[i][LABEL] == label))

        in_distill = lambda i: has_ancestor(i, "distill.run")  # noqa: E731
        training_builds = {i for i in by_layer.get("perturb.build", ()) if in_distill(i)}
        calls = len(training_builds)
        build_forwards = count("nets.graph_forward",
                               where=lambda i: nearest(i, "perturb.build") in training_builds)
        steps = count("optim.sgd_step", where=in_distill)

        latencies = []
        for loop in by_layer.get("distill.loop", ()):
            last = spans[loop][START]
            for i in by_layer.get("optim.sgd_step", ()):
                if nearest(i, "distill.loop") == loop:
                    latencies.append((spans[i][END] - last) * 1e3 * scale)
                    last = spans[i][END]

        c = self.counts
        metrics = {
            "perturb.build_s": self_s("perturb.build", where=lambda i: i in training_builds),
            "perturb.calls": calls,
            "perturb.graph_forwards_per_call": build_forwards / calls if calls else 0.0,
            "perturb.diag_s": self_s("perturb.build", "perturb.shift",
                                     where=lambda i: not in_distill(i)),
            "distill.steps": steps,
            "distill.loop_self_s": self_s("distill.run", "distill.loop"),
            "distill.loss_s": self_s("distill.loss"),
            "distill.aekd_solve_s": self_s("distill.aekd"),
            "distill.aekd_solves": total_value("distill.aekd"),
            "autodiff.nodes": c["autodiff.nodes"],
            "autodiff.nodes_per_distill_step": c["distill.nodes"] / steps if steps else 0.0,
            "autodiff.matmul_gflop": c["autodiff.matmul_flop"] / 1e9,
            "autodiff.backward_s": self_s("autodiff.backward"),
            "autodiff.backwards": count("autodiff.backward"),
            "nets.graph_forward_s": self_s("nets.graph_forward"),
            "nets.graph_forwards": count("nets.graph_forward"),
            "nets.predict_s": self_s("nets.predict"),
            "nets.predict_rows": total_value("nets.predict"),
            "nets.checkpoint_s": self_s("nets.checkpoint"),
            "nets.checkpoint_bytes": total_value("nets.checkpoint"),
            "nets.average_s": self_s("nets.average"),
            "optim.teacher_train_s": self_s("optim.teacher_train"),
            "optim.sgd_step_s": self_s("optim.sgd_step"),
            "optim.sgd_steps": count("optim.sgd_step"),
            "metrics.evaluate_s": self_s("metrics.evaluate"),
            "metrics.evaluations": count("metrics.evaluate"),
            "metrics.fit_temperature_s": self_s("metrics.fit_temperature"),
            "metrics.nll_calls": c["metrics.nll_calls"],
            "subspace.scan_s": self_s("subspace.scan"),
            "subspace.scan_points": total_value("subspace.scan", "line_scan"),
            "subspace.trace_s": self_s("subspace.trace"),
            "data.generate_s": self_s("data.generate"),
            "data.rows_generated": total_value("data.generate"),
            "seeding.digest_s": self_s("seeding.digest"),
            "seeding.digest_bytes": total_value("seeding.digest"),
            "cli.commands": count("cli.main"),
            "cli.self_s": self_s("cli.main", "cli.command"),
            "trace.exceptions": sum(self.exceptions.values()),
        }
        return metrics, latencies
