"""The byte-identity sweep in tools/sweep_digests.py: complete and repeatable."""

import os
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep_digests.py"


def test_two_sweeps_print_identical_digests():
    # the second sweep runs on one BLAS thread: the bytes hold at any thread count
    runs = [subprocess.run([sys.executable, str(SWEEP)], capture_output=True, text=True,
                           timeout=120, check=True, env=env).stdout
            for env in (None, {**os.environ, "OPENBLAS_NUM_THREADS": "1"})]
    assert runs[0] == runs[1]
    paths = {line.split("  ", 1)[1] for line in runs[0].splitlines()}
    for m in (2, 3, 4):
        assert f"M{m}/teachers/seed0/teacher{m - 1}.json" in paths
        # 3 plain methods x 5 perturbations, 2 factored methods x 6, and at
        # M=2 one long latentbe run and one with a narrower student
        assert len({p.split("/")[1] for p in paths
                    if p.startswith(f"M{m}/") and "-" in p.split("/")[1]}) == \
            (29 if m == 2 else 27)
        assert f"M{m}/latentbe-tdiv_sdiv/seed0/student.json" in paths
        # at M=2 also --split val and a csv data spec
        assert len([p for p in paths if p.startswith(f"M{m}/eval/")]) == \
            (14 if m == 2 else 12)
        assert len([p for p in paths if p.startswith(f"M{m}/diag/")]) == 5
        assert f"M{m}/average.json" in paths
    assert "M2/scan.csv" in paths
    assert "M2/latentbe-tdiv_sdiv-long/seed0/trace.csv" in paths
    assert "M2/latentbe-tdiv_sdiv-narrow/seed0/student_be.json" in paths
    assert {"M2/eval/val.csv", "M2/eval/csv.csv"} <= paths
    assert len(paths) == 265
    assert {"M3/barriers.json", "M4/barriers.json"} <= paths
