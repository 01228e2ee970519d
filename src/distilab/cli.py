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
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import DomainError, NumericsError
from .data import Dataset, DataFormatError, corrupt, load_csv, make_mixture, make_ood
from .distill import (AEKDConfig, DegenerateEnsembleError, DistillConfig,
                      distill_aekd, distill_be, distill_kd, distill_latentbe,
                      distill_proxy_end2)
from .metrics import (MetricsReport, entropy_histogram, evaluate_model,
                      _mean_probs, _model_eval_logits)
from .nets import (MLP, CheckpointError, ModelSpec, average_rank_one, build_be,
                   checkpoint_load, checkpoint_save)
from .optim import OptimConfig, steps_per_epoch, train_teachers
from .perturb import KINDS, build_perturbation, default_gamma, diversity_shift_values
from .seeding import rng_stream
from .subspace import EndpointTrace, line_scan

METHODS = ("kd", "aekd", "proxy_end2", "be", "latentbe")


class ConfigError(ValueError):
    """An experiment configuration is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    data: dict
    hidden: tuple[int, ...]
    optim: OptimConfig
    distill: DistillConfig
    method: str
    student_init: str
    aekd_c: float
    seeds: list[int]
    raw: dict

    @property
    def model_spec(self) -> ModelSpec:
        return ModelSpec(int(self.data["dim"]), int(self.data["num_classes"]),
                         self.hidden)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return doc[key]


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from e
    data = dict(_require(doc, "data", str(p)))
    _check_mixture(data, str(p))
    model = doc.get("model", {})
    hidden = tuple(model.get("hidden", (64, 64)))
    try:
        optim = OptimConfig(**doc.get("optim", {}))
        dist_kwargs = dict(doc.get("distill", {}))
        distill_cfg = DistillConfig(optim=optim, **dist_kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{p}: {e}") from e
    method = doc.get("method", "kd")
    if method not in METHODS:
        raise ConfigError(f"{p}: unknown method '{method}'")
    student_init = doc.get("student_init", "random_sign")
    if student_init not in ("ones", "random_sign"):
        raise ConfigError(f"{p}: unknown student_init '{student_init}'")
    if method in ("be", "latentbe") and distill_cfg.num_teachers < 2:
        raise ConfigError(f"{p}: factored students need num_teachers >= 2")
    if distill_cfg.perturbation == "tdiv_sdiv" and method not in ("be", "latentbe"):
        raise ConfigError(f"{p}: tdiv_sdiv perturbation requires a factored student")
    seeds = [int(s) for s in doc.get("seeds", [0])]
    if not seeds:
        raise ConfigError(f"{p}: seeds list is empty")
    return RunConfig(data=data, hidden=hidden, optim=optim, distill=distill_cfg,
                     method=method, student_init=student_init,
                     aekd_c=float(doc.get("aekd_c", 0.6)), seeds=seeds, raw=doc)


def _check_mixture(data: dict, where: str) -> None:
    if data.get("kind", "mixture") != "mixture":
        raise ConfigError(f"{where}: data must be a mixture generator, "
                          f"got kind '{data.get('kind')}'")
    for key in ("num_classes", "dim", "n_per_class", "spread", "seed"):
        _require(data, key, f"{where}: data")


def build_datasets(data_cfg: dict) -> tuple[Dataset, Dataset, Dataset]:
    _check_mixture(data_cfg, "data spec")
    return make_mixture(int(data_cfg["num_classes"]), int(data_cfg["dim"]),
                        int(data_cfg["n_per_class"]), float(data_cfg["spread"]),
                        int(data_cfg["seed"]))


def load_data_spec(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"data spec not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from e
    return doc.get("data", doc)


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    digests: dict, outputs: list[str]) -> None:
    doc = {"command": command, "config": config, "seed": seed,
           "data_digests": digests, "outputs": sorted(outputs)}
    (out_dir / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".17g")


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


def _load_teachers(teachers_dir: Path, seed: int, count: int | None = None) -> list[MLP]:
    """Load teacher<m>.json checkpoints; count defaults to all present."""
    seed_dir = teachers_dir / f"seed{seed}"
    if count is None:
        count = len(sorted(seed_dir.glob("teacher*.json")))
        if count == 0:
            raise ConfigError(f"no teacher checkpoints under {seed_dir}")
    teachers = []
    for m in range(count):
        path = seed_dir / f"teacher{m}.json"
        model = checkpoint_load(path)
        if model.factored:
            raise ConfigError(f"{path}: teacher checkpoints must be plain models")
        teachers.append(model)
    return teachers


def cmd_distill(args) -> int:
    cfg = load_run_config(args.config)
    train, val, test = build_datasets(cfg.data)
    spec = cfg.model_spec
    for seed in cfg.seeds:
        teachers = _load_teachers(Path(args.teachers), seed, cfg.distill.num_teachers)
        dcfg = replace(cfg.distill, optim=replace(cfg.optim, seed=seed))
        out_dir = Path(args.out) / f"seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = []
        if cfg.method == "be":
            be_student = build_be(spec, rng_stream(seed, "init"),
                                  rank_init=cfg.student_init,
                                  members=cfg.distill.num_teachers)
            distill_be(teachers, be_student, train, dcfg)
            checkpoint_save(be_student, out_dir / "student_be.json")
            outputs.append("student_be.json")
        elif cfg.method == "latentbe":
            trace = None
            if cfg.distill.num_teachers == 2:
                total = dcfg.optim.epochs * steps_per_epoch(len(train), dcfg.optim.batch_size)
                trace = EndpointTrace(train, test, every=max(1, total // 40))
            averaged, be_student = distill_latentbe(
                teachers, spec, train, dcfg,
                step_hook=trace.hook if trace is not None else None)
            checkpoint_save(be_student, out_dir / "student_be.json")
            checkpoint_save(averaged, out_dir / "student.json")
            outputs.extend(["student_be.json", "student.json"])
            if trace is not None:
                _write_trace_csv(out_dir / "trace.csv", trace)
                outputs.append("trace.csv")
        else:
            distiller = {"kd": distill_kd, "aekd": distill_aekd,
                         "proxy_end2": distill_proxy_end2}[cfg.method]
            extra = (AEKDConfig(cfg.aekd_c),) if cfg.method == "aekd" else ()
            checkpoint_save(distiller(teachers, spec, train, dcfg, *extra),
                            out_dir / "student.json")
            outputs.append("student.json")
        _write_manifest(out_dir, f"distill:{cfg.method}", cfg.raw, seed,
                        {"train": train.digest(), "val": val.digest(),
                         "test": test.digest()}, outputs)
        print(f"seed {seed}: method={cfg.method} wrote {', '.join(sorted(outputs))}")
    return 0


def _write_trace_csv(path: Path, trace: EndpointTrace) -> None:
    lines = ["step,div_train,div_test,avg_test_nll"]
    for step, div_train, div_test, avg_nll in trace.rows:
        lines.append(f"{step},{_fmt(div_train)},{_fmt(div_test)},{_fmt(avg_nll)}")
    path.write_text("\n".join(lines) + "\n")


def _resolve_eval_data(args) -> tuple[Dataset, Dataset, str]:
    """Returns (evaluated split, validation split for temperature, split name)."""
    spec = load_data_spec(args.data)
    kind = spec.get("kind", "mixture")
    if kind == "mixture":
        train, val, test = build_datasets(spec)
        split = getattr(args, "split", "test")
        chosen = {"train": train, "val": val, "test": test}.get(split)
        if chosen is None:
            raise ConfigError(f"unknown split '{split}'")
        return chosen, val, split
    if kind == "csv":
        ds = load_csv(spec["path"], spec.get("num_classes"))
        return ds, ds, "csv"
    raise ConfigError(f"unknown data kind '{kind}'")


METRIC_COLUMNS = ("run_id", "split", "acc", "nll_sum", "nll_mean", "ece",
                  "tau_star", "cnll_mean", "cece", "mean_div")


def _metrics_row(run_id: str, split: str, report: MetricsReport) -> str:
    vals = [run_id, split, _fmt(report.acc), _fmt(report.nll_sum),
            _fmt(report.nll_mean), _fmt(report.ece), _fmt(report.tau_star),
            _fmt(report.cnll_mean), _fmt(report.cece),
            _fmt(report.mean_div) if report.mean_div is not None else ""]
    return ",".join(vals)


def cmd_evaluate(args) -> int:
    model = checkpoint_load(args.model)
    target, val, split_name = _resolve_eval_data(args)
    if args.corrupt is not None:
        if args.corrupt not in (1, 2, 3, 4, 5):
            raise ConfigError(f"corruption intensity must be in 1..5, got {args.corrupt}")
        target = corrupt(target, args.corrupt, seed=int(args.seed))
        split_name = f"{split_name}:corrupt{args.corrupt}"
    report = evaluate_model(model, target, val)
    run_id = Path(args.model).stem
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(",".join(METRIC_COLUMNS) + "\n"
                   + _metrics_row(run_id, split_name, report) + "\n")
    print(f"{run_id} {split_name}: acc={report.acc:.4f} nll_mean={report.nll_mean:.4f} "
          f"ece={report.ece:.4f} tau*={report.tau_star:.4f}")
    if args.ood is not None:
        ood_spec = load_data_spec(args.ood)
        ood = make_ood(target, float(ood_spec.get("shift", 6.0)),
                       int(ood_spec.get("seed", 0)))
        _write_entropy_csv(Path(str(out) + ".entropy.csv"), model, target, ood)
    return 0


def _write_entropy_csv(path: Path, model, in_dist: Dataset, ood: Dataset) -> None:
    lines = ["tag,bin_lo,bin_hi,count"]
    for tag, ds in (("in", in_dist), ("ood", ood)):
        probs = _mean_probs(_model_eval_logits(model, ds.x), 1.0)
        hist = entropy_histogram(probs, tag=tag)
        for lo, hi, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
            lines.append(f"{tag},{_fmt(lo)},{_fmt(hi)},{int(count)}")
    path.write_text("\n".join(lines) + "\n")


def cmd_line_scan(args) -> int:
    model = checkpoint_load(args.model)
    spec = load_data_spec(args.data)
    train, _, test = build_datasets(spec)
    scan = line_scan(model, train, test)
    lines = ["t,train_err,test_err,test_nll"]
    for t, tr, te, nl in zip(scan.ts, scan.train_err, scan.test_err, scan.test_nll):
        lines.append(f"{_fmt(t)},{_fmt(tr)},{_fmt(te)},{_fmt(nl)}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"barrier={scan.barrier:.6f} (train loss, floored at 0)")
    return 0


def cmd_perturb_diag(args) -> int:
    if args.kind not in KINDS or args.kind == "none":
        raise ConfigError(f"kind must be one of {[k for k in KINDS if k != 'none']}")
    spec = load_data_spec(args.data)
    train, _, _ = build_datasets(spec)
    teachers = _load_teachers(Path(args.teachers), int(args.seed))
    student = checkpoint_load(args.student)
    if args.kind == "tdiv_sdiv" and len(student) < 2:
        raise ConfigError("tdiv_sdiv diagnostics require a factored student checkpoint")
    gamma = float(args.gamma) if args.gamma is not None else default_gamma(train.x)
    noise_rng = rng_stream(int(args.seed), "guidance-vectors")
    index_rng = rng_stream(int(args.seed), "pair-sampling")
    students = student if len(student) > 1 else [student, student]
    lines = ["step,kind,mean_dT,mean_dS,frac_ascent"]
    batch = 128
    for step, start in enumerate(range(0, len(train), batch)):
        xb = train.x[start:start + batch]
        pert = build_perturbation(args.kind, teachers, student, xb, gamma, args.tau,
                                  noise_rng, index_rng)
        d_t, d_s = diversity_shift_values(teachers, students, xb, pert.epsilon)
        moved = np.linalg.norm(pert.epsilon, axis=1) > 0
        frac = float(((d_t - d_s) > 0)[moved].mean()) if moved.any() else 0.0
        lines.append(f"{step},{args.kind},{_fmt(d_t.mean())},{_fmt(d_s.mean())},{_fmt(frac)}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} diagnostic rows to {out}")
    return 0


def cmd_average(args) -> int:
    averaged = average_rank_one(checkpoint_load(args.model))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    checkpoint_save(averaged, out)
    print(f"wrote averaged checkpoint to {out}")
    return 0


# -- argument plumbing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distilab",
                                     description="ensemble distillation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teachers", help="train an ensemble of teachers")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_teachers)

    p = sub.add_parser("distill", help="distill teachers into a student")
    p.add_argument("--config", required=True)
    p.add_argument("--teachers", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("evaluate", help="metrics for one checkpoint on one dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--ood", default=None)
    p.add_argument("--corrupt", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("line-scan", help="loss landscape along the member line")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_line_scan)

    p = sub.add_parser("perturb-diag", help="diversity-shift diagnostics")
    p.add_argument("--teachers", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_perturb_diag)

    p = sub.add_parser("average", help="collapse a factored student by weight averaging")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_average)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
