"""The byte-identity sweep in tools/sweep_digests.py: complete and repeatable at
one BLAS thread and at two; and the command line's one-thread BLAS pin."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep_digests.py"


def test_two_sweeps_print_identical_digests():
    # one sweep on two BLAS threads, one on one: the bytes hold at any thread
    # count (the command line pins one thread only where none is set)
    runs = [subprocess.run([sys.executable, str(SWEEP)], capture_output=True, text=True,
                           timeout=120, check=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("2", "1")]
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


# Prints OpenBLAS's thread count, read through its C API, after numpy's
# import, after distilab's, and after one command of the command line.
PIN_PROBE = """
import ctypes, pathlib, sys
import numpy

def threads():
    maps = pathlib.Path("/proc/self/maps").read_text()
    for lib in sorted({l.split()[-1] for l in maps.splitlines() if "openblas" in l}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None

counts = [threads()]
import distilab.cli
counts.append(threads())
assert distilab.cli.main(["average", "--model", sys.argv[1], "--out", sys.argv[2]]) == 2
counts.append(threads())
print(*counts)
"""


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="needs /proc/self/maps")
@pytest.mark.parametrize("threads", [None, "2"])
def test_command_line_pins_one_blas_thread_unless_set(tmp_path, threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SWEEP.parent.parent / "src"),
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", PIN_PROBE, str(tmp_path / "missing.json"),
                          str(tmp_path / "out.json")], capture_output=True, text=True,
                         timeout=60, check=True, env=env).stdout.split()
    if out[0] == "None":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before, imported, after = map(int, out)
    # importing the package pins nothing; the command line pins one thread,
    # unless the environment chose a count
    assert imported == before
    assert after == (1 if threads is None else before)
