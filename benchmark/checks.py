"""Correctness checks of one pipeline round's outputs.

Every check compares an output of the program with a computation made in
``reference`` (plain numpy, or scipy for the AE-KD optimum) or with a
property the method must have. Each returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

import reference as ref
from workloads import AEKD_C, BATCH_SIZE, TAU, Evaluation, Paths, Workload

AVERAGE_RTOL = 1e-12
NLL_TOL = 1e-9
BARRIER_PRINT_TOL = 1e-6    # the CLI prints the barrier with six decimals
AEKD_TOL = 1e-8
AEKD_SAMPLE = 16
GAMMA_TOL = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# (a) weight averaging -----------------------------------------------------------------

def check_average(be_path: Path, avg_path: Path) -> list[str]:
    """The averaged student equals shared ∘ mean_m(r_m s_m^T) with the member-mean
    bias, recomputed from the factored checkpoint."""
    be, avg = ref.load_checkpoint(be_path), ref.load_checkpoint(avg_path)
    if avg["kind"] != "plain":
        return [f"{avg_path}: averaged student is not a plain model"]
    expected = ref.rank_one_average(be)
    got = ref.member_params(avg)[0]
    if len(got) != len(expected):
        return [f"{avg_path}: {len(got)} layers, factored student has {len(expected)}"]
    out = []
    for i, ((w, b), (w_ref, b_ref)) in enumerate(zip(got, expected)):
        for name, a, e in (("W", w, w_ref), ("b", b, b_ref)):
            if a.shape != e.shape:
                out.append(f"{avg_path}: layer{i}.{name} shape {a.shape} != {e.shape}")
            elif np.abs(a - e).max() > AVERAGE_RTOL * max(np.abs(e).max(), 1e-300):
                out.append(f"{avg_path}: layer{i}.{name} differs from the rank-one "
                           f"average by {np.abs(a - e).max():.3e}")
    return out


# (b) metrics CSVs -----------------------------------------------------------------------

def check_metrics_csv(csv_path: Path, ck_path: Path, x: np.ndarray, y: np.ndarray,
                      split: str) -> list[str]:
    """acc exactly and nll_mean to 1e-9 against the reference forward pass."""
    rows = _read_csv(csv_path)
    if len(rows) != 1:
        return [f"{csv_path}: expected one metrics row, got {len(rows)}"]
    row = rows[0]
    probs = ref.predict_probs(ref.load_checkpoint(ck_path), x)
    out = []
    if row["split"] != split:
        out.append(f"{csv_path}: split '{row['split']}' != '{split}'")
    acc, nll = ref.accuracy(probs, y), ref.nll_mean(probs, y)
    if float(row["acc"]) != acc:
        out.append(f"{csv_path}: acc {row['acc']} != reference {acc!r}")
    if not _close(float(row["nll_mean"]), nll, NLL_TOL):
        out.append(f"{csv_path}: nll_mean {row['nll_mean']} != reference {nll!r}")
    return out


def check_entropy_csv(csv_path: Path, ck_path: Path, x: np.ndarray) -> list[str]:
    """In-distribution entropy counts equal the reference histogram; the OOD
    histogram has one count per OOD sample (as many as evaluated rows)."""
    rows = _read_csv(csv_path)
    counts = {tag: [int(r["count"]) for r in rows if r["tag"] == tag] for tag in ("in", "ood")}
    expected = ref.entropy_counts(ref.predict_probs(ref.load_checkpoint(ck_path), x))
    out = []
    if counts["in"] != expected.tolist():
        out.append(f"{csv_path}: in-distribution entropy counts differ from reference")
    if len(counts["ood"]) != ref.ENTROPY_BINS or sum(counts["ood"]) != len(x):
        out.append(f"{csv_path}: OOD histogram does not cover {len(x)} samples")
    return out


# (c) line scan and barriers -----------------------------------------------------------------

def _err_nll(params, x, y) -> tuple[float, float]:
    probs = ref.softmax(ref.forward(params, x))
    return 1.0 - ref.accuracy(probs, y), ref.nll_mean(probs, y)


def check_line_scan(csv_path: Path, stdout: str, be_path: Path, avg_path: Path,
                    train: tuple, test: tuple) -> list[str]:
    """Rows at t=0 and t=1 are members 0 and 1, the row at t=0.5 is the averaged
    student, and the printed barrier is >= 0 and matches the reference scan."""
    rows = _read_csv(csv_path)
    ts = np.array([float(r["t"]) for r in rows])
    be = ref.load_checkpoint(be_path)
    members = ref.member_params(be)
    anchors = {0.0: members[0], 1.0: members[1],
               0.5: ref.member_params(ref.load_checkpoint(avg_path))[0]}
    out = []
    for t, params in anchors.items():
        hit = [r for r in rows if float(r["t"]) == t]
        if len(hit) != 1:
            out.append(f"{csv_path}: no single row at t={t}")
            continue
        train_err = _err_nll(params, *train)[0]
        test_err, test_nll = _err_nll(params, *test)
        r = hit[0]
        if float(r["train_err"]) != train_err or float(r["test_err"]) != test_err:
            out.append(f"{csv_path}: errors at t={t} differ from reference")
        if not _close(float(r["test_nll"]), test_nll, NLL_TOL):
            out.append(f"{csv_path}: test_nll at t={t} {r['test_nll']} != {test_nll!r}")
    m = re.search(r"barrier=(\S+)", stdout)
    if m is None:
        return out + ["line-scan printed no barrier"]
    printed = float(m.group(1))
    expected = ref.barrier(ts, ref.line_losses(be, 0, 1, ts, *train))
    if printed < 0.0:
        out.append(f"line-scan barrier {printed} is negative")
    if abs(printed - expected) > BARRIER_PRINT_TOL:
        out.append(f"line-scan barrier {printed} != reference {expected:.9f}")
    return out


def default_grid() -> np.ndarray:
    """41 points over [-0.25, 1.25] with 0, 0.5 and 1 exact (the scan's grid)."""
    base = [t for t in np.linspace(-0.25, 1.25, 41)
            if min(abs(t), abs(t - 0.5), abs(t - 1.0)) > 1e-9]
    return np.array(sorted(base + [0.0, 0.5, 1.0]))


def check_barriers(json_path: Path, be_path: Path, train: tuple) -> list[str]:
    """Every member pair has a barrier >= 0 equal to the reference scan, and the
    reported maximum is their maximum."""
    doc = json.loads(Path(json_path).read_text())
    be = ref.load_checkpoint(be_path)
    ts = default_grid()
    out = []
    expected_pairs = {f"{i}-{j}" for i in range(be["M"]) for j in range(i + 1, be["M"])}
    if set(doc["pairs"]) != expected_pairs:
        return [f"{json_path}: pairs {sorted(doc['pairs'])} != {sorted(expected_pairs)}"]
    for key, value in doc["pairs"].items():
        i, j = (int(v) for v in key.split("-"))
        expected = ref.barrier(ts, ref.line_losses(be, i, j, ts, *train))
        if value < 0.0 or not _close(value, expected, NLL_TOL):
            out.append(f"{json_path}: barrier {key} = {value!r}, reference {expected!r}")
    if doc["max_barrier"] != max(doc["pairs"].values()):
        out.append(f"{json_path}: max_barrier is not the maximum over pairs")
    return out


# (d) AE-KD weights ------------------------------------------------------------------------

def verify_aekd_weights(w: np.ndarray, teacher_probs: np.ndarray,
                        student_probs: np.ndarray, tau: float, c: float) -> list[str]:
    """w lies in {sum w = 1, 0 <= w <= c} and its objective is within 1e-8 of
    scipy's optimum."""
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        return [f"AE-KD weights not finite: {w}"]
    out = []
    if abs(w.sum() - 1.0) > 1e-9 or w.min() < -1e-12 or w.max() > c + 1e-12:
        out.append(f"AE-KD weights {w} infeasible for c={c}")
    f = ref.aekd_objective(w, teacher_probs, student_probs, tau)
    best = ref.aekd_reference_solve(teacher_probs, student_probs, tau, c)
    if abs(f - best) > AEKD_TOL:
        out.append(f"AE-KD objective {f:.12e} vs reference optimum {best:.12e}")
    return out


def check_aekd(teacher_paths: list[Path], student_path: Path, x: np.ndarray,
               seed: int) -> list[str]:
    """``distill.aekd_weights`` on a sample of training rows, at untempered
    teacher and student probabilities as in the training loss."""
    from distilab.distill import aekd_weights

    teachers = np.stack([ref.predict_probs(ref.load_checkpoint(t), x) for t in teacher_paths])
    student = ref.predict_probs(ref.load_checkpoint(student_path), x)
    rows = np.random.default_rng(seed).choice(len(x), size=min(AEKD_SAMPLE, len(x)),
                                              replace=False)
    out = []
    for b in rows:
        w = aekd_weights(teachers[:, b], student[b], TAU, AEKD_C)
        out += verify_aekd_weights(w, teachers[:, b], student[b], TAU, AEKD_C)
    return out


# (e) perturbation norms --------------------------------------------------------------------

def verify_perturbation(eps: np.ndarray, gamma: float) -> list[str]:
    """Every nonzero offset has norm gamma; most rows must move."""
    norms = np.linalg.norm(eps, axis=1)
    moved = norms > 0.0
    out = []
    if moved.sum() * 2 < len(eps):
        out.append(f"only {int(moved.sum())} of {len(eps)} perturbation rows are nonzero")
    bad = np.abs(norms[moved] - gamma) > GAMMA_TOL
    if bad.any():
        out.append(f"{int(bad.sum())} perturbation norms differ from gamma={gamma!r}, "
                   f"worst {norms[moved][bad][0]!r}")
    return out


def check_perturbation(teacher_paths: list[Path], be_path: Path, x_train: np.ndarray,
                       seed: int) -> list[str]:
    """``perturb.build_perturbation('tdiv_sdiv', ...)`` on the first training batch."""
    from distilab.nets import checkpoint_load
    from distilab.perturb import build_perturbation

    teachers = [checkpoint_load(t) for t in teacher_paths]
    student = checkpoint_load(be_path)
    gamma = ref.default_gamma(x_train)
    pert = build_perturbation("tdiv_sdiv", teachers, student, x_train[:BATCH_SIZE], gamma,
                              TAU, np.random.default_rng(seed),
                              np.random.default_rng(seed + 1))
    return verify_perturbation(pert.epsilon, gamma)


# (f) teachers ---------------------------------------------------------------------------------

def check_teacher(path: Path, x: np.ndarray, y: np.ndarray, num_classes: int) -> list[str]:
    """Test accuracy at least halfway from chance (1/K) to perfect."""
    acc = ref.accuracy(ref.predict_probs(ref.load_checkpoint(path), x), y)
    floor = 0.5 * (1.0 + 1.0 / num_classes)
    return [] if acc >= floor else [f"{path}: teacher test accuracy {acc:.3f} < {floor:.3f}"]


# -- all checks of one round ---------------------------------------------------------------

def split_for(ev: Evaluation, data: dict, seed: int) -> tuple[np.ndarray, np.ndarray, str]:
    x, y = data["test"]
    if ev.corrupt is None:
        return x, y, "test"
    return ref.corrupt(x, ev.corrupt, seed), y, f"test:corrupt{ev.corrupt}"


def run_checks(wl: Workload, p: Paths, stdout: dict[str, str]) -> list[str]:
    """All checks on the outputs under ``p``; stdout maps step labels to output."""
    t = wl.task
    data = ref.mixture(t.num_classes, t.dim, t.n_per_class, t.spread, p.seed)
    teacher_paths = [p.teachers() / f"seed{p.seed}" / f"teacher{m}.json"
                     for m in range(wl.teachers)]
    out = []
    for path in teacher_paths:
        out += check_teacher(path, *data["test"], t.num_classes)
    for s in wl.students:
        if s.method == "latentbe":
            out += check_average(p.student_file(s.method, "student_be.json"),
                                 p.student_file(s.method, "student.json"))
        if s.method == "aekd" and wl.teachers == 3:
            out += check_aekd(teacher_paths, p.student_file(s.method, "student.json"),
                              data["train"][0], p.seed)
        if s.perturbation == "tdiv_sdiv":
            out += check_perturbation(teacher_paths, p.student_file(s.method, "student_be.json"),
                                      data["train"][0], p.seed)
    for ev in wl.evaluations:
        x, y, split = split_for(ev, data, p.seed)
        model = p.student_file(ev.student, ev.file)
        out += check_metrics_csv(p.eval_csv(ev), model, x, y, split)
        if ev.ood:
            out += check_entropy_csv(Path(f"{p.eval_csv(ev)}.entropy.csv"), model, x)
    if wl.line_scan is not None:
        out += check_line_scan(p.scan_csv(), stdout.get("line-scan", ""),
                               p.student_file(wl.line_scan, "student_be.json"),
                               p.student_file(wl.line_scan, "student.json"),
                               data["train"], data["test"])
    if wl.barriers is not None:
        out += check_barriers(p.barriers_json(),
                              p.student_file(wl.barriers, "student_be.json"), data["train"])
    return out
