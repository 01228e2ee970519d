"""Each correctness check accepts the program's real outputs and rejects a
deliberately corrupted copy of them.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import (AEKD_C, TAU, WORKLOADS, Evaluation, Paths, Step, Student,  # noqa: E402
                       Task, run_step, steps, write_configs)

SMALL_TASK = Task(num_classes=3, dim=2, n_per_class=100, spread=0.6)
SEED = 3


def _run(wl, root: Path):
    paths = Paths(root / "config", root / "out", SEED)
    write_configs(wl, SEED, paths.cfg)
    stdout = {}
    for step in steps(wl, paths):
        assert run_step(step), step.label
        stdout[step.label] = step.stdout
    return paths, stdout


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    wl = replace(WORKLOADS["paper_m2"], task=SMALL_TASK, teacher_epochs=10,
                 students=(Student("latentbe", "tdiv_sdiv", epochs=2),),
                 barriers="latentbe")
    paths, stdout = _run(wl, tmp_path_factory.mktemp("paper"))
    return wl, paths, stdout


@pytest.fixture(scope="module")
def aekd(tmp_path_factory):
    wl = replace(WORKLOADS["baselines_m3"], task=SMALL_TASK, teacher_epochs=10,
                 students=(Student("aekd", "none", epochs=1),),
                 evaluations=(Evaluation("aekd", "student.json", ood=True),))
    paths, stdout = _run(wl, tmp_path_factory.mktemp("aekd"))
    return wl, paths, stdout


def _data(wl):
    t = wl.task
    return ref.mixture(t.num_classes, t.dim, t.n_per_class, t.spread, SEED)


def _copy(path: Path, tmp_path: Path) -> Path:
    out = tmp_path / path.name
    shutil.copy(path, out)
    return out


def test_genuine_outputs_pass_every_check(paper, aekd):
    for wl, paths, stdout in (paper, aekd):
        assert checks.run_checks(wl, paths, stdout) == []


def test_average_rejects_a_nudged_weight(paper, tmp_path):
    _, paths, _ = paper
    avg = _copy(paths.student_file("latentbe", "student.json"), tmp_path)
    doc = json.loads(avg.read_text())
    rec = doc["tensors"]["layer1.W"]
    values = np.array(rec["values"].split(), dtype=np.float64)
    values[5] += 1e-10 * np.abs(values).max()
    rec["values"] = " ".join(format(v, ".17g") for v in values)
    avg.write_text(json.dumps(doc))
    be = paths.student_file("latentbe", "student_be.json")
    assert checks.check_average(be, paths.student_file("latentbe", "student.json")) == []
    assert checks.check_average(be, avg)


@pytest.mark.parametrize("column, delta", [("acc", 1.0 / 60), ("nll_mean", 1e-8)])
def test_metrics_csv_rejects_an_altered_value(paper, tmp_path, column, delta):
    wl, paths, _ = paper
    ev = wl.evaluations[1]   # a corrupted split
    x, y, split = checks.split_for(ev, _data(wl), SEED)
    model = paths.student_file(ev.student, ev.file)
    path = _copy(paths.eval_csv(ev), tmp_path)
    header, row = path.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cells[column] = format(float(cells[column]) + delta, ".17g")
    path.write_text(header + "\n" + ",".join(cells[c] for c in header.split(",")) + "\n")
    assert checks.check_metrics_csv(paths.eval_csv(ev), model, x, y, split) == []
    assert checks.check_metrics_csv(path, model, x, y, split)


def test_metrics_csv_reads_out_a_dirichlet_head(paper, tmp_path):
    """A Dirichlet-head model is read out as normalized exp(z) + 1: the CSV the
    program writes for it passes, an altered one and the CSV of the same
    weights under the softmax head are rejected."""
    wl, paths, _ = paper
    softmax_ck = paths.teachers() / f"seed{SEED}" / "teacher0.json"
    doc = json.loads(softmax_ck.read_text())
    doc["head"] = "dirichlet"
    dirichlet_ck = tmp_path / "dirichlet.json"
    dirichlet_ck.write_text(json.dumps(doc))
    for ck in (softmax_ck, dirichlet_ck):
        assert run_step(Step("analysis", "evaluate", [
            "evaluate", "--model", str(ck), "--data", str(paths.cfg / "data.json"),
            "--seed", str(SEED), "--out", str(tmp_path / f"{ck.stem}.csv")]))
    genuine = tmp_path / "dirichlet.csv"
    header, row = genuine.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cells["nll_mean"] = format(float(cells["nll_mean"]) * (1 + 1e-8), ".17g")
    altered = tmp_path / "altered.csv"
    altered.write_text(header + "\n" + ",".join(cells[c] for c in header.split(",")) + "\n")
    x, y = _data(wl)["test"]
    assert checks.check_metrics_csv(genuine, dirichlet_ck, x, y, "test") == []
    assert checks.check_metrics_csv(altered, dirichlet_ck, x, y, "test")
    assert checks.check_metrics_csv(tmp_path / "teacher0.csv", dirichlet_ck, x, y, "test")


def test_entropy_csv_rejects_a_moved_count(paper, tmp_path):
    wl, paths, _ = paper
    ev = wl.evaluations[0]
    genuine = Path(f"{paths.eval_csv(ev)}.entropy.csv")
    lines = genuine.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("in,")]
    nonzero = next(i for i in rows if not lines[i].endswith(",0"))
    other = next(i for i in rows if i != nonzero)
    for i, delta in ((nonzero, -1), (other, 1)):
        head, count = lines[i].rsplit(",", 1)
        lines[i] = f"{head},{int(count) + delta}"
    altered = tmp_path / "altered.entropy.csv"
    altered.write_text("\n".join(lines) + "\n")
    model = paths.student_file(ev.student, ev.file)
    x = _data(wl)["test"][0]
    assert checks.check_entropy_csv(genuine, model, x) == []
    assert checks.check_entropy_csv(altered, model, x)


@pytest.mark.parametrize("t", ["0", "0.5", "1"])
def test_line_scan_rejects_an_altered_anchor_row(paper, tmp_path, t):
    wl, paths, stdout = paper
    data = _data(wl)
    be = paths.student_file("latentbe", "student_be.json")
    avg = paths.student_file("latentbe", "student.json")
    lines = paths.scan_csv().read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if float(line.split(",")[0]) == float(t))
    cells = lines[i].split(",")
    cells[3] = format(float(cells[3]) * (1 + 1e-8), ".17g")
    lines[i] = ",".join(cells)
    altered = tmp_path / "scan.csv"
    altered.write_text("\n".join(lines) + "\n")
    args = (stdout["line-scan"], be, avg, data["train"], data["test"])
    assert checks.check_line_scan(paths.scan_csv(), *args) == []
    assert checks.check_line_scan(altered, *args)


@pytest.mark.parametrize("printed", ["barrier=-0.000001", "barrier=0.5"])
def test_line_scan_rejects_a_wrong_barrier(paper, printed):
    wl, paths, _ = paper
    data = _data(wl)
    assert checks.check_line_scan(paths.scan_csv(), printed,
                                  paths.student_file("latentbe", "student_be.json"),
                                  paths.student_file("latentbe", "student.json"),
                                  data["train"], data["test"])


def test_barriers_reject_an_altered_pair(paper, tmp_path):
    wl, paths, _ = paper
    be = paths.student_file("latentbe", "student_be.json")
    train = _data(wl)["train"]
    doc = json.loads(paths.barriers_json().read_text())
    doc["pairs"]["0-1"] += 1e-6
    doc["max_barrier"] = max(doc["pairs"].values())
    altered = tmp_path / "barriers.json"
    altered.write_text(json.dumps(doc))
    assert checks.check_barriers(paths.barriers_json(), be, train) == []
    assert checks.check_barriers(altered, be, train)


def test_aekd_rejects_suboptimal_and_infeasible_weights(aekd):
    from distilab.distill import aekd_weights

    wl, paths, _ = aekd
    x = _data(wl)["train"][0][:40]
    teachers = np.stack([ref.predict_probs(ref.load_checkpoint(
        paths.teachers() / f"seed{SEED}" / f"teacher{m}.json"), x) for m in range(3)])
    student = ref.predict_probs(ref.load_checkpoint(paths.student_file("aekd", "student.json")), x)
    corners = [np.roll([AEKD_C, 1.0 - AEKD_C, 0.0], k) for k in range(3)] + \
        [np.roll([AEKD_C, 0.0, 1.0 - AEKD_C], k) for k in range(3)]
    # the sample whose optimum stands out most clearly from the worst corner
    gaps = []
    for b in range(len(x)):
        w = aekd_weights(teachers[:, b], student[b], TAU, AEKD_C)
        f = ref.aekd_objective(w, teachers[:, b], student[b], TAU)
        worst = max(corners, key=lambda c: ref.aekd_objective(c, teachers[:, b], student[b], TAU))
        gaps.append((ref.aekd_objective(worst, teachers[:, b], student[b], TAU) - f, b, w, worst))
    gap, b, w, worst = max(gaps, key=lambda g: g[0])
    assert gap > 1e-6
    P, s = teachers[:, b], student[b]
    assert checks.verify_aekd_weights(w, P, s, TAU, AEKD_C) == []
    assert checks.verify_aekd_weights(worst, P, s, TAU, AEKD_C)
    assert checks.verify_aekd_weights(0.5 * (w + worst), P, s, TAU, AEKD_C)
    assert checks.verify_aekd_weights(w * 1.01, P, s, TAU, AEKD_C)


def test_perturbation_rejects_a_rescaled_offset(paper):
    from distilab.nets import checkpoint_load
    from distilab.perturb import build_perturbation

    wl, paths, _ = paper
    x = _data(wl)["train"][0][:64]
    teachers = [checkpoint_load(paths.teachers() / f"seed{SEED}" / f"teacher{m}.json")
                for m in range(2)]
    student = checkpoint_load(paths.student_file("latentbe", "student_be.json"))
    gamma = ref.default_gamma(_data(wl)["train"][0])
    eps = build_perturbation("tdiv_sdiv", teachers, student, x, gamma, TAU,
                             np.random.default_rng(0), np.random.default_rng(1)).epsilon
    assert checks.verify_perturbation(eps, gamma) == []
    assert checks.verify_perturbation(eps * (1 + 1e-6), gamma)
    assert checks.verify_perturbation(np.zeros_like(eps), gamma)


def test_teacher_check_rejects_a_broken_teacher(paper, tmp_path):
    wl, paths, _ = paper
    x, y = _data(wl)["test"]
    genuine = paths.teachers() / f"seed{SEED}" / "teacher0.json"
    doc = json.loads(genuine.read_text())
    last = doc["tensors"]["layer2.W"]
    last["values"] = " ".join("0" for _ in last["values"].split())
    broken = tmp_path / "teacher0.json"
    broken.write_text(json.dumps(doc))
    assert checks.check_teacher(genuine, x, y, 3) == []
    assert checks.check_teacher(broken, x, y, 3)
