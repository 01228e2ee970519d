"""Command line entry point for the distillation lab.

Subcommands cover the full experiment lifecycle: teacher training,
distillation, metric evaluation (with corruption and OOD variants), line
scans between subnetwork parameters, and perturbation diagnostics. Every
command is idempotent given identical inputs and seeds, emits a manifest
sufficient to re-run it bit-exactly, and uses stable exit codes:
0 success, 2 usage/config errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import DomainError, NumericsError
from .data import Dataset, DataFormatError, corrupt, load_csv, make_mixture, make_ood
from .distill import DegenerateEnsembleError, DistillConfig, train_student
from .metrics import (entropy_histogram, evaluate_model,
                      _mean_probs, _model_eval_logits)
from .nets import (MLP, CheckpointError, ModelSpec, average_rank_one,
                   checkpoint_load, checkpoint_save, is_int, is_real, join)
from .optim import OptimConfig, train_teachers
from .perturb import KINDS, build_perturbation, default_gamma, diversity_shift_values
from .seeding import rng_stream
from .subspace import line_scan


class ConfigError(ValueError):
    """An experiment configuration is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    data: dict
    model_spec: ModelSpec
    optim: OptimConfig
    distill: DistillConfig
    seeds: list[int]
    raw: dict


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return doc[key]


def _integer(doc: dict, key: str, where: str) -> int:
    value = _require(doc, key, where)
    if not is_int(value):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _positive(doc: dict, key: str, where: str) -> float:
    value = _require(doc, key, where)
    if not (is_real(value) and 0.0 < value < math.inf):
        raise ConfigError(f"{where}: {key} must be positive and finite, got {value!r}")
    return value


def _read_json(path: str | Path, what: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from e


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    doc = _read_json(p, "config file")
    data = _require(doc, "data", str(p))
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: data must be a JSON object")
    _check_mixture(data, str(p))
    model, optim_doc, distill_doc = (doc.get(k, {}) for k in ("model", "optim", "distill"))
    for key, section in (("model", model), ("optim", optim_doc), ("distill", distill_doc)):
        if not isinstance(section, dict):
            raise ConfigError(f"{p}: {key} must be a JSON object")
    try:
        spec = ModelSpec(data["dim"], data["num_classes"], model.get("hidden", [64, 64]))
        if "seed" in optim_doc:
            raise ValueError("optim.seed is not read; the run seeds are 'seeds'")
        optim = OptimConfig(**optim_doc)
        distill_cfg = DistillConfig(optim=optim, method=doc.get("method", "kd"),
                                    student_init=doc.get("student_init", "random_sign"),
                                    aekd_c=doc.get("aekd_c", 0.6), **distill_doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{p}: {e}") from e
    seeds = doc.get("seeds", [0])
    if not (isinstance(seeds, list) and seeds and all(map(is_int, seeds))):
        raise ConfigError(f"{p}: seeds must be a non-empty list of integers, got {seeds!r}")
    return RunConfig(data=data, model_spec=spec, optim=optim, distill=distill_cfg,
                     seeds=seeds, raw=doc)


def _check_mixture(data: dict, where: str) -> None:
    if data.get("kind", "mixture") != "mixture":
        raise ConfigError(f"{where}: data must be a mixture generator, "
                          f"got kind '{data.get('kind')}'")
    for key in ("num_classes", "dim", "n_per_class", "seed"):
        _integer(data, key, f"{where}: data")
    _positive(data, "spread", f"{where}: data")


def build_datasets(data_cfg: dict) -> tuple[Dataset, Dataset, Dataset]:
    """The splits of a mixture spec that ``_check_mixture`` passed."""
    return make_mixture(data_cfg["num_classes"], data_cfg["dim"], data_cfg["n_per_class"],
                        data_cfg["spread"], data_cfg["seed"])


def _read_spec(path: str | Path, what: str) -> dict:
    """The JSON object in the file at path, or the one under its 'data' key."""
    doc = _read_json(path, what)
    spec = doc.get("data", doc) if isinstance(doc, dict) else doc
    if not isinstance(spec, dict):
        raise ConfigError(f"{Path(path)}: {what} must be a JSON object")
    return spec


def load_data_spec(path: str | Path) -> dict:
    """The mixture spec in the file at path, whose errors name the file."""
    spec = _read_spec(path, "data spec")
    _check_mixture(spec, str(path))
    return spec


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    digests: dict, outputs: list[str]) -> None:
    doc = {"command": command, "config": config, "seed": seed,
           "data_digests": digests, "outputs": sorted(outputs)}
    (out_dir / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    return format(float(v), ".17g")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One comma-separated line per row, under a header line; cells by _fmt."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]))


# -- commands -----------------------------------------------------------------

def cmd_train_teachers(args) -> int:
    cfg = load_run_config(args.config)
    train, val, test = build_datasets(cfg.data)
    for seed in cfg.seeds:
        out_dir = Path(args.out) / f"seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        optim = replace(cfg.optim, seed=seed)
        teachers = train_teachers(cfg.model_spec, train, cfg.distill.num_teachers, optim)
        outputs = []
        for m, teacher in enumerate(teachers):
            name = f"teacher{m}.json"
            checkpoint_save(teacher, out_dir / name)
            outputs.append(name)
        _write_manifest(out_dir, "train-teachers", cfg.raw, seed,
                        {"train": train.digest(), "val": val.digest(),
                         "test": test.digest()}, outputs)
        print(f"seed {seed}: wrote {len(teachers)} teacher checkpoints to {out_dir}")
    return 0


def _load_fitting(path: Path, data: Dataset, model: MLP | None = None) -> MLP:
    """The checkpoint at path, or model if already loaded from it; a
    ConfigError unless it takes data's inputs and predicts its classes."""
    model = checkpoint_load(path) if model is None else model
    got = (model.spec.in_dim, model.spec.num_classes)
    if got != (data.dim, data.num_classes):
        raise ConfigError(f"{path}: checkpoint has in_dim {got[0]} and {got[1]} classes, "
                          f"the data has in_dim {data.dim} and {data.num_classes} classes")
    return model


def _load_teachers(teachers_dir: Path, seed: int, count: int | None, data: Dataset) -> MLP:
    """Load teacher<m>.json checkpoints that fit data and teacher0.json's spec
    and head, joined as one net; count None loads all present."""
    seed_dir = teachers_dir / f"seed{seed}"
    if count is None:
        count = len(sorted(seed_dir.glob("teacher*.json")))
        if count == 0:
            raise ConfigError(f"no teacher checkpoints under {seed_dir}")
    teachers = []
    for m in range(count):
        path = seed_dir / f"teacher{m}.json"
        model = _load_fitting(path, data)
        if model.factored:
            raise ConfigError(f"{path}: teacher checkpoints must be plain models")
        if teachers and (model.spec, model.head) != (teachers[0].spec, teachers[0].head):
            raise ConfigError(f"{path}: hidden widths {list(model.spec.hidden)} and head "
                              f"{model.head!r} differ from teacher0.json's "
                              f"{list(teachers[0].spec.hidden)} and {teachers[0].head!r}")
        teachers.append(model)
    return join(teachers)


def cmd_distill(args) -> int:
    cfg = load_run_config(args.config)
    train, val, test = build_datasets(cfg.data)
    method = cfg.distill.method
    for seed in cfg.seeds:
        teachers = _load_teachers(Path(args.teachers), seed, cfg.distill.num_teachers, train)
        dcfg = replace(cfg.distill, optim=replace(cfg.optim, seed=seed))
        out_dir = Path(args.out) / f"seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = [] if method == "latentbe" and cfg.distill.num_teachers == 2 else None
        student = train_student(teachers, cfg.model_spec, train, dcfg, trace=trace)
        saved = {"student_be.json" if student.factored else "student.json": student}
        if method == "latentbe":
            saved["student.json"] = average_rank_one(student)
        for name, net in saved.items():
            checkpoint_save(net, out_dir / name)
        outputs = list(saved)
        if trace is not None:
            _write_csv(out_dir / "trace.csv", ("step", "loss", "div_teachers", "div_student"),
                       trace)
            outputs.append("trace.csv")
        _write_manifest(out_dir, f"distill:{method}", cfg.raw, seed,
                        {"train": train.digest(), "val": val.digest(),
                         "test": test.digest()}, outputs)
        print(f"seed {seed}: method={method} wrote {', '.join(sorted(outputs))}")
    return 0


def _resolve_eval_data(args, num_classes: int) -> tuple[Dataset, Dataset, str]:
    """Returns (evaluated split, validation split for temperature, split name);
    a CSV spec without num_classes has num_classes classes."""
    spec = _read_spec(args.data, "data spec")
    if spec.get("kind") == "csv":
        if "num_classes" in spec:
            num_classes = _integer(spec, "num_classes", "csv data spec")
        ds = load_csv(_require(spec, "path", "csv data spec"), num_classes)
        return ds, ds, "csv"
    _check_mixture(spec, str(args.data))
    train, val, test = build_datasets(spec)
    return {"train": train, "val": val, "test": test}[args.split], val, args.split


METRIC_COLUMNS = ("run_id", "split", "acc", "nll_sum", "nll_mean", "ece",
                  "tau_star", "cnll_mean", "cece", "mean_div")


def cmd_evaluate(args) -> int:
    """Every output is formed before the first file is written, so a failure
    leaves no file behind."""
    model = checkpoint_load(args.model)
    target, val, split_name = _resolve_eval_data(args, model.spec.num_classes)
    _load_fitting(Path(args.model), target, model)
    if args.corrupt is not None:
        target = corrupt(target, args.corrupt, seed=int(args.seed))
        split_name = f"{split_name}:corrupt{args.corrupt}"
    if args.ood is not None:
        ood_spec = {"shift": 6.0, "seed": 0, **_read_spec(args.ood, "ood spec")}
        shift = _positive(ood_spec, "shift", "ood spec")
        ood_seed = _integer(ood_spec, "seed", "ood spec")
        try:
            ood = make_ood(target, shift, ood_seed)
        except ValueError as e:
            raise ConfigError(f"{args.ood}: {e}") from e
    report = evaluate_model(model, target, val)
    if args.ood is not None:
        ood_probs = _mean_probs(_model_eval_logits(model, ood.x), 1.0)
        hists = [entropy_histogram(report.probs, tag="in"), entropy_histogram(ood_probs, tag="ood")]
    run_id = Path(args.model).stem
    out = Path(args.out)
    _write_csv(out, METRIC_COLUMNS, [[run_id, split_name,
                                      *(getattr(report, c) for c in METRIC_COLUMNS[2:])]])
    print(f"{run_id} {split_name}: acc={report.acc:.4f} nll_mean={report.nll_mean:.4f} "
          f"ece={report.ece:.4f} tau*={report.tau_star:.4f}")
    if args.ood is not None:
        _write_csv(Path(str(out) + ".entropy.csv"), ("tag", "bin_lo", "bin_hi", "count"),
                   [(h.tag, lo, hi, count) for h in hists
                    for lo, hi, count in zip(h.edges[:-1], h.edges[1:], h.counts)])
    return 0


def cmd_line_scan(args) -> int:
    spec = load_data_spec(args.data)
    train, _, test = build_datasets(spec)
    model = _load_fitting(Path(args.model), train)
    if len(model) != 2:
        raise ConfigError(f"{args.model}: line analysis requires exactly two members, "
                          f"got {len(model)}")
    scan = line_scan(model, train, test)
    _write_csv(Path(args.out), ("t", "train_err", "test_err", "test_nll"),
               zip(scan.ts, scan.train_err, scan.test_err, scan.test_nll))
    print(f"barrier={scan.barrier:.6f} (train loss, floored at 0)")
    return 0


def cmd_perturb_diag(args) -> int:
    if args.kind not in KINDS or args.kind == "none":
        raise ConfigError(f"kind must be one of {[k for k in KINDS if k != 'none']}")
    if not 0.0 < args.tau < math.inf:
        raise ConfigError(f"--tau must be positive and finite, got {args.tau}")
    if args.gamma is not None and not 0.0 <= args.gamma < math.inf:
        raise ConfigError(f"--gamma must be non-negative and finite, got {args.gamma}")
    spec = load_data_spec(args.data)
    train, _, _ = build_datasets(spec)
    teachers = _load_teachers(Path(args.teachers), int(args.seed), None, train)
    student = _load_fitting(Path(args.student), train)
    gamma = args.gamma if args.gamma is not None else default_gamma(train.x)
    noise_rng = rng_stream(int(args.seed), "guidance-vectors")
    index_rng = rng_stream(int(args.seed), "pair-sampling")
    students = student if len(student) > 1 else student[[0, 0]]
    rows = []
    batch = 128
    for step, start in enumerate(range(0, len(train), batch)):
        xb = train.x[start:start + batch]
        pert = build_perturbation(args.kind, teachers, student, xb, gamma, args.tau,
                                  noise_rng, index_rng)
        d_t, d_s = diversity_shift_values(teachers, students, xb, pert.epsilon)
        moved = np.linalg.norm(pert.epsilon, axis=1) > 0
        frac = float(((d_t - d_s) > 0)[moved].mean()) if moved.any() else 0.0
        rows.append((step, args.kind, d_t.mean(), d_s.mean(), frac))
    out = Path(args.out)
    _write_csv(out, ("step", "kind", "mean_dT", "mean_dS", "frac_ascent"), rows)
    print(f"wrote {len(rows)} diagnostic rows to {out}")
    return 0


def cmd_average(args) -> int:
    model = checkpoint_load(args.model)
    if not model.factored:
        raise ConfigError(f"{args.model}: rank-one averaging needs a factored net")
    averaged = average_rank_one(model)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    checkpoint_save(averaged, out)
    print(f"wrote averaged checkpoint to {out}")
    return 0


# -- argument plumbing ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(prog="distilab",
                                     description="ensemble distillation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teachers", help="train an ensemble of teachers")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("distill", help="distill teachers into a student")
    p.add_argument("--config", required=True)
    p.add_argument("--teachers", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="metrics for one checkpoint on one dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--ood", default=None)
    p.add_argument("--corrupt", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("line-scan", help="loss landscape along the member line")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("perturb-diag", help="diversity-shift diagnostics")
    p.add_argument("--teachers", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("average", help="collapse a factored student by weight averaging")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    return parser


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Keep freed numpy temporaries in the heap for reuse.

    A training step's temporaries sit at glibc's default 128 KiB mmap
    threshold (a (2, 128, 64) float64 array is exactly that), and glibc
    trims the heap back to the OS once each step's arrays are freed, so
    every step page-faults the same memory in again. Fixing both thresholds at
    the ceilings glibc's own dynamic rule can reach stops that. Does nothing
    where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    args = build_parser().parse_args(argv)
    # looked up by name at call time, so a replaced cmd_* function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (NumericsError, DomainError, DegenerateEnsembleError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ConfigError, CheckpointError, DataFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
