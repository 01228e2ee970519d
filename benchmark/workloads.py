"""The benchmark's workloads: generated configs and the pipeline steps.

A workload is a closed loop over one distilab pipeline: train teachers,
distill every student, then analyse. Each step is one operation, either a
``distilab.cli.main`` command or, where the CLI has no subcommand, one
library call. The workload seed picks the task and the training seeds; the
program sees only the config files written from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

HIDDEN = (64, 64)
BATCH_SIZE = 128
TEACHER_LR = 0.1
# Students train at half the README's rate: at 0.1 the LatentBE student of
# paper_m2 diverges to non-finite values on some seeds (see CHANGES.md).
STUDENT_LR = 0.05
TAU = 4.0
AEKD_C = 0.6
OOD_SHIFT = 6.0
CORRUPTIONS = (1, 3, 5)


@dataclass(frozen=True)
class Task:
    num_classes: int
    dim: int
    n_per_class: int
    spread: float

    @property
    def n_train(self) -> int:
        return math.ceil(self.num_classes * self.n_per_class * 7 / 10)


@dataclass(frozen=True)
class Student:
    method: str
    perturbation: str
    epochs: int


@dataclass(frozen=True)
class Evaluation:
    student: str                    # the student's method
    file: str
    corrupt: int | None = None
    ood: bool = False

    @property
    def tag(self) -> str:
        stem = f"{self.student}-{Path(self.file).stem}"
        return stem if self.corrupt is None else f"{stem}-c{self.corrupt}"


@dataclass(frozen=True)
class Workload:
    name: str
    task: Task
    teachers: int
    teacher_epochs: int
    students: tuple[Student, ...]
    evaluations: tuple[Evaluation, ...]
    line_scan: str | None = None          # student whose factored checkpoint is scanned
    perturb_diag: tuple[tuple[str, str], ...] = ()   # (kind, student)
    barriers: str | None = None           # student for pairwise_barriers

    def teacher_samples(self) -> int:
        return self.teachers * self.teacher_epochs * self.task.n_train

    def distill_samples(self) -> int:
        return sum(s.epochs for s in self.students) * self.task.n_train

    def tiny(self) -> "Workload":
        """The same steps on a task small enough to run in a fraction of a
        second, used to warm up every code path before timing."""
        return replace(self, task=replace(self.task, n_per_class=12), teacher_epochs=1,
                       students=tuple(replace(s, epochs=1) for s in self.students))


def _evaluations(student: str, file: str = "student.json") -> tuple[Evaluation, ...]:
    """Plain evaluation with an OOD entropy histogram, then a corruption sweep."""
    return (Evaluation(student, file, ood=True),
            *(Evaluation(student, file, corrupt=c) for c in CORRUPTIONS))


README_TASK = Task(num_classes=3, dim=2, n_per_class=500, spread=0.6)

WORKLOADS = {
    "paper_m2": Workload(
        name="paper_m2", task=README_TASK, teachers=2, teacher_epochs=10,
        students=(Student("latentbe", "tdiv_sdiv", epochs=6),),
        evaluations=(*_evaluations("latentbe"),
                     Evaluation("latentbe", "student_be.json")),
        line_scan="latentbe",
        perturb_diag=(("tdiv_sdiv", "latentbe"), ("ods", "latentbe"))),
    "baselines_m3": Workload(
        name="baselines_m3", task=README_TASK, teachers=3, teacher_epochs=6,
        # proxy_end2 is left out: on some seeds its Dirichlet target rejects
        # confidently agreeing teachers and the distill command fails
        students=(Student("kd", "none", epochs=10),
                  Student("aekd", "none", epochs=1)),
        evaluations=(*_evaluations("kd"), *_evaluations("aekd"))),
    "wide_m4": Workload(
        name="wide_m4", task=Task(num_classes=8, dim=16, n_per_class=250, spread=0.35),
        teachers=4, teacher_epochs=3,
        students=(Student("latentbe", "tdiv_sdiv", epochs=1),
                  Student("be", "none", epochs=2)),
        evaluations=(*_evaluations("latentbe"),
                     Evaluation("latentbe", "student_be.json"),
                     Evaluation("be", "student_be.json", ood=True)),
        perturb_diag=(("tdiv_sdiv", "latentbe"),),
        barriers="latentbe"),
}


# -- configs ------------------------------------------------------------------------

def data_spec(wl: Workload, seed: int) -> dict:
    t = wl.task
    return {"kind": "mixture", "num_classes": t.num_classes, "dim": t.dim,
            "n_per_class": t.n_per_class, "spread": t.spread, "seed": seed}


def _run_config(wl: Workload, seed: int, method: str, perturbation: str, epochs: int,
                lr: float) -> dict:
    return {
        "data": data_spec(wl, seed),
        "model": {"hidden": list(HIDDEN)},
        "optim": {"base_lr": lr, "momentum": 0.9, "epochs": epochs,
                  "warmup_epochs": epochs // 5, "weight_decay": 5e-4,
                  "batch_size": BATCH_SIZE},
        "distill": {"tau": TAU, "alpha": 1.0, "rank_decay": 1e-3, "gamma": None,
                    "perturbation": perturbation, "num_teachers": wl.teachers},
        "method": method, "student_init": "random_sign", "aekd_c": AEKD_C,
        "seeds": [seed],
    }


def write_configs(wl: Workload, seed: int, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    docs = {"teachers": _run_config(wl, seed, "kd", "none", wl.teacher_epochs, TEACHER_LR),
            "data": {"data": data_spec(wl, seed)},
            "ood": {"shift": OOD_SHIFT, "seed": seed}}
    for s in wl.students:
        docs[s.method] = _run_config(wl, seed, s.method, s.perturbation, s.epochs, STUDENT_LR)
    for name, doc in docs.items():
        (cfg_dir / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# -- steps --------------------------------------------------------------------------

@dataclass
class Step:
    phase: str                      # "teacher", "distill" or "analysis"
    label: str
    argv: list[str] | None = None   # a distilab CLI command ...
    call: Callable[[], None] | None = None   # ... or one library call
    stdout: str = ""


@dataclass
class Paths:
    cfg: Path
    out: Path
    seed: int

    def teachers(self) -> Path:
        return self.out / "teachers"

    def student_file(self, student: str, file: str) -> Path:
        return self.out / student / f"seed{self.seed}" / file

    def eval_csv(self, ev: Evaluation) -> Path:
        return self.out / "eval" / f"{ev.tag}.csv"

    def scan_csv(self) -> Path:
        return self.out / "scan.csv"

    def diag_csv(self, kind: str) -> Path:
        return self.out / f"diag-{kind}.csv"

    def barriers_json(self) -> Path:
        return self.out / "barriers.json"


def steps(wl: Workload, p: Paths) -> list[Step]:
    cfg = p.cfg
    out = [Step("teacher", "train-teachers",
                ["train-teachers", "--config", str(cfg / "teachers.json"),
                 "--out", str(p.teachers())])]
    for s in wl.students:
        out.append(Step("distill", f"distill:{s.method}",
                        ["distill", "--config", str(cfg / f"{s.method}.json"),
                         "--teachers", str(p.teachers()), "--out", str(p.out / s.method)]))
    for ev in wl.evaluations:
        argv = ["evaluate", "--model", str(p.student_file(ev.student, ev.file)),
                "--data", str(cfg / "data.json"), "--seed", str(p.seed),
                "--out", str(p.eval_csv(ev))]
        if ev.corrupt is not None:
            argv += ["--corrupt", str(ev.corrupt)]
        if ev.ood:
            argv += ["--ood", str(cfg / "ood.json")]
        out.append(Step("analysis", f"evaluate:{ev.tag}", argv))
    if wl.line_scan is not None:
        out.append(Step("analysis", "line-scan",
                        ["line-scan", "--model",
                         str(p.student_file(wl.line_scan, "student_be.json")),
                         "--data", str(cfg / "data.json"), "--out", str(p.scan_csv())]))
    for kind, student in wl.perturb_diag:
        out.append(Step("analysis", f"perturb-diag:{kind}",
                        ["perturb-diag", "--teachers", str(p.teachers()),
                         "--student", str(p.student_file(student, "student_be.json")),
                         "--data", str(cfg / "data.json"), "--kind", kind,
                         "--seed", str(p.seed), "--out", str(p.diag_csv(kind))]))
    if wl.barriers is not None:
        out.append(Step("analysis", "pairwise_barriers",
                        call=lambda: _pairwise_barriers(wl, p)))
    return out


def _pairwise_barriers(wl: Workload, p: Paths) -> None:
    from distilab import data, nets, subspace

    t = wl.task
    train, _, test = data.make_mixture(t.num_classes, t.dim, t.n_per_class, t.spread, p.seed)
    model = nets.checkpoint_load(p.student_file(wl.barriers, "student_be.json"))
    result = subspace.pairwise_barriers(model, train, test)
    p.barriers_json().write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")


def run_step(step: Step) -> bool:
    """Run one operation; True when it succeeded."""
    from distilab import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if step.argv is not None:
                ok = cli.main(step.argv) == 0
            else:
                step.call()
                ok = True
    except SystemExit:
        ok = False
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    step.stdout = buf.getvalue()
    if not ok:
        print(f"operation failed: {step.label}", file=sys.stderr)
    return ok
