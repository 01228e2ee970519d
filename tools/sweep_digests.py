"""Byte-identity sweep of the command line on a tiny configuration.

    python3 tools/sweep_digests.py [--out DIR]

Runs ``train-teachers``; ``distill`` for every method and every
perturbation the method allows, at M = 2, 3 and 4, plus two M = 2
``latentbe`` / ``tdiv_sdiv`` runs, one of 54 steps and one whose student has
hidden widths [6] against the teachers' [8, 8]; ``evaluate`` with ``--ood``
and with ``--corrupt``, and at M = 2 with ``--split val`` and on a
``{"kind": "csv"}`` data spec of the test split; ``line-scan``,
``perturb-diag`` and ``average``; and the library call
``subspace.pairwise_barriers`` on the M = 3 and M = 4 ``latentbe``
students. Everything runs in this process on a task small enough that the
sweep takes seconds. It prints one ``<sha256>  <path>`` line per output
file, sorted by path, so two source trees that print the same lines wrote
the same bytes. Without ``--out`` the files go to a temporary directory
that is removed afterwards. The exit code is 1 when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMBERS = (2, 3, 4)
BARRIER_MEMBERS = (3, 4)
DATA = {"kind": "mixture", "num_classes": 3, "dim": 2, "n_per_class": 20,
        "spread": 0.6, "seed": 3}
OOD = {"shift": 6.0, "seed": 1}


def _config(method: str, perturbation: str, members: int, epochs: int = 2,
            hidden: tuple[int, ...] = (8, 8)) -> dict:
    # DATA has 42 training rows: 3 steps per epoch
    return {"data": DATA, "model": {"hidden": list(hidden)},
            "optim": {"epochs": epochs, "warmup_epochs": 1, "batch_size": 16},
            "distill": {"num_teachers": members, "perturbation": perturbation},
            "method": method, "seeds": [0]}


def _commands(out: Path) -> list[list[str]]:
    from distilab.cli import build_datasets
    from distilab.data import save_csv
    from distilab.distill import FACTORED, METHODS
    from distilab.perturb import KINDS

    inputs = out / "inputs"
    inputs.mkdir()
    data = _write(inputs / "data.json", {"data": DATA})
    ood = _write(inputs / "ood.json", OOD)
    save_csv(build_datasets(DATA)[2], inputs / "test.csv")
    csv_data = _write(inputs / "csv.json", {"kind": "csv", "path": str(inputs / "test.csv"),
                                            "num_classes": DATA["num_classes"]})
    commands = []
    for m in MEMBERS:
        top = out / "runs" / f"M{m}"
        teachers = top / "teachers"
        commands.append(["train-teachers", "--config",
                         str(_write(inputs / f"M{m}-teachers.json", _config("kd", "none", m))),
                         "--out", str(teachers)])
        for method in METHODS:
            for kind in KINDS:
                if kind == "tdiv_sdiv" and method not in FACTORED:
                    continue
                cfg = _write(inputs / f"M{m}-{method}-{kind}.json", _config(method, kind, m))
                commands.append(["distill", "--config", str(cfg), "--teachers",
                                 str(teachers), "--out", str(top / f"{method}-{kind}")])
        latent = top / "latentbe-tdiv_sdiv" / "seed0"
        models = [top / "kd-none" / "seed0" / "student.json",
                  top / "proxy_end2-none" / "seed0" / "student.json",
                  latent / "student.json", latent / "student_be.json"]
        for i, model in enumerate(models):
            for tag, extra in (("ood", ["--ood", str(ood)]),
                               ("corrupt", ["--corrupt", "3", "--seed", "5"])):
                commands.append(["evaluate", "--model", str(model), "--data", str(data),
                                 "--out", str(top / "eval" / f"{i}-{tag}.csv"), *extra])
        for kind in KINDS[1:]:
            commands.append(["perturb-diag", "--teachers", str(teachers), "--student",
                             str(latent / "student_be.json"), "--data", str(data),
                             "--kind", kind, "--seed", "0",
                             "--out", str(top / "diag" / f"{kind}.csv")])
        commands.append(["average", "--model", str(top / "be-none" / "seed0" / "student_be.json"),
                         "--out", str(top / "average.json")])
        if m == 2:
            cfg = _write(inputs / "M2-latentbe-tdiv_sdiv-long.json",
                         _config("latentbe", "tdiv_sdiv", m, epochs=18))
            commands.append(["distill", "--config", str(cfg), "--teachers", str(teachers),
                             "--out", str(top / "latentbe-tdiv_sdiv-long")])
            cfg = _write(inputs / "M2-latentbe-tdiv_sdiv-narrow.json",
                         _config("latentbe", "tdiv_sdiv", m, hidden=(6,)))
            commands.append(["distill", "--config", str(cfg), "--teachers", str(teachers),
                             "--out", str(top / "latentbe-tdiv_sdiv-narrow")])
            commands.append(["line-scan", "--model", str(latent / "student_be.json"),
                             "--data", str(data), "--out", str(top / "scan.csv")])
            for tag, extra in (("val", ["--data", str(data), "--split", "val"]),
                               ("csv", ["--data", str(csv_data)])):
                commands.append(["evaluate", "--model", str(latent / "student.json"),
                                 "--out", str(top / "eval" / f"{tag}.csv"), *extra])
    return commands


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


def _barriers(runs: Path) -> None:
    """Write pairwise_barriers of each BARRIER_MEMBERS latentbe student."""
    from distilab.cli import build_datasets
    from distilab.nets import checkpoint_load
    from distilab.subspace import pairwise_barriers

    train, _, test = build_datasets(DATA)
    for m in BARRIER_MEMBERS:
        top = runs / f"M{m}"
        student = checkpoint_load(top / "latentbe-tdiv_sdiv" / "seed0" / "student_be.json")
        _write(top / "barriers.json", pairwise_barriers(student, train, test))


def sweep(out: Path) -> dict[str, str]:
    """Run every command under out; sha256 of each output file, by path."""
    from distilab import cli

    for argv in _commands(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: distilab {' '.join(argv)}")
    runs = out / "runs"
    _barriers(runs)
    return {str(p.relative_to(runs)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(runs.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="directory for the outputs (kept)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.out is None:
            with tempfile.TemporaryDirectory() as tmp:
                digests = sweep(Path(tmp))
        else:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=False)
            digests = sweep(out)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for path, digest in digests.items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
