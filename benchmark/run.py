"""Benchmark of the distilab pipeline.

    python3 benchmark/run.py --workload paper_m2 --seed 0 --seconds 30 --trace 0

Runs whole rounds of one workload's pipeline (see workloads.py) in this
process, one step after another, for about ``--seconds`` seconds. With
``--trace 0`` it reports the end-to-end metrics, built from each step's
median time over the rounds and scaled to the reference speed (speed.py);
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones plus the tracing overhead.
The first round's outputs are checked against computations made apart from
the program, and every later round must reproduce them byte for byte. The
last line of standard output is one JSON object; the exit code is 1 when a
check or an operation of the first round fails, and 2 when the program
cannot be found.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_BASE = ROOT / ".benchmark_out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3


def _import_program():
    if not (ROOT / "src" / "distilab" / "__init__.py").is_file():
        print(f"error: distilab sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import distilab.cli  # noqa: F401


def _blas_threads() -> str:
    """OpenBLAS's own thread count, read through its C API when it is loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas.get('name', '?')} {blas.get('version', '?')} "
            f"blas_threads={_blas_threads()} "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
            f"DISTILAB_THREADS={os.environ.get('DISTILAB_THREADS', 'unset')}")


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Round:
    """Timings of one pass over a workload's steps."""

    def __init__(self):
        self.phase_s = {"teacher": 0.0, "distill": 0.0, "analysis": 0.0}
        self.step_s: dict[str, float] = {}
        self.phase_of: dict[str, str] = {}
        self.total_s = 0.0
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.stdout: dict[str, str] = {}

    @property
    def scale(self) -> float:
        """Factor from this round's wall times to seconds at the reference speed."""
        return speed.REFERENCE_S / statistics.median(self.kernel_s)


def run_round(wl, paths) -> Round:
    from workloads import run_step, steps

    rnd = Round()
    for step in steps(wl, paths):
        rnd.kernel_s.append(speed.kernel_s())
        s0 = time.perf_counter()
        ok = run_step(step)
        elapsed = time.perf_counter() - s0
        rnd.phase_s[step.phase] += elapsed
        rnd.step_s[step.label] = elapsed
        rnd.phase_of[step.label] = step.phase
        rnd.attempted += 1
        rnd.failed += not ok
        rnd.stdout[step.label] = step.stdout
    rnd.total_s = sum(rnd.step_s.values())
    return rnd


def typical_s(rounds: list[Round], phase: str | None = None) -> float:
    """The typical time of a round, or of one phase of it, at the reference
    speed: the sum over its steps of each step's median scaled time over the
    rounds."""
    first = rounds[0]
    return sum(statistics.median(r.step_s[label] * r.scale for r in rounds)
               for label in first.step_s if phase is None or first.phase_of[label] == phase)


def setup(wl, run_dir: Path, seed: int, import_s: float) -> float:
    """Set the run up SETUP_REPEATS times and return the median time of one
    set-up at the reference speed, the imports included: probing the
    environment, writing the workload's configs, and running the workload
    once on a tiny task so every code path is warm. Each set-up is scaled
    by the speed kernel timed before each step of its warm-up round."""
    from workloads import Paths, write_configs

    times, wall = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = environment()
        write_configs(wl, seed, run_dir / "config")
        tiny = wl.tiny()
        warm = Paths(run_dir / f"warm{i}" / "config", run_dir / f"warm{i}" / "out", seed)
        write_configs(tiny, seed, warm.cfg)
        rnd = run_round(tiny, warm)
        elapsed = time.perf_counter() - t0 - sum(rnd.kernel_s)
        wall.append(import_s + elapsed)
        times.append((import_s + elapsed) * rnd.scale)
        shutil.rmtree(run_dir / f"warm{i}")
    print(env, file=sys.stderr)
    print(f"set-up: {statistics.median(wall):.3f} s of wall time each", file=sys.stderr)
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import_s = time.perf_counter() - T_START
    import checks
    from tracer import Tracer
    from workloads import Paths

    wl = WORKLOADS[args.workload]
    OUT_BASE.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-seed{args.seed}-", dir=OUT_BASE))
    try:
        setup_s = setup(wl, run_dir, args.seed, import_s)
        cfg_dir = run_dir / "config"
        print(f"set-up: {setup_s:.3f} s each at the reference speed, "
              f"{time.perf_counter() - T_START:.3f} s from start with {SETUP_REPEATS} set-ups",
              file=sys.stderr)

        tracer = Tracer() if args.trace else None
        rounds, traced, layer_rounds, latencies, spans = [], [], [], [], []
        reference_digests = None
        mismatched = []
        first = Paths(cfg_dir, run_dir / "round0", args.seed)
        t_begin = time.perf_counter()
        while True:
            index = len(rounds) + len(traced)
            paths = Paths(cfg_dir, run_dir / f"round{index}", args.seed)
            tracing = tracer is not None and index % 2 == 1
            if tracing:
                tracer.reset()
                tracer.install()
            try:
                rnd = run_round(wl, paths)
            finally:
                if tracing:
                    tracer.uninstall()
            if tracing:
                metrics, lat = tracer.round_metrics(rnd.scale)
                layer_rounds.append(metrics)
                latencies += lat
                spans.append((tracer.spans, dict(tracer.exceptions)))
                traced.append(rnd)
            else:
                rounds.append(rnd)
            print(f"round {index}{' traced' if tracing else ''}: total {rnd.total_s:.3f} s, "
                  + ", ".join(f"{k} {v:.3f} s" for k, v in rnd.phase_s.items())
                  + f" of wall time; scale {rnd.scale:.3f}", file=sys.stderr)
            digests = tree_digests(paths.out)
            if reference_digests is None:
                reference_digests = digests
                first_round = rnd
            else:
                if digests != reference_digests:
                    mismatched.append(index)
                shutil.rmtree(paths.out)
            done = len(rounds) + len(traced)
            typical = statistics.median(r.total_s for r in rounds + traced)
            if done >= MIN_ROUNDS + (tracer is not None) and \
                    time.perf_counter() - t_begin + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if first_round.failed:
            failures = [f"round 0: {first_round.failed} operations failed, outputs not checked"]
        else:
            try:
                failures = checks.run_checks(wl, first, first_round.stdout)
            except Exception as e:  # a malformed output fails the run, not the benchmark
                traceback.print_exc(file=sys.stderr)
                failures = [f"outputs could not be checked: {e!r}"]
        failures += [f"round {i} outputs differ from round 0" for i in mismatched]
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        all_rounds = rounds + traced
        attempted = sum(r.attempted for r in all_rounds)
        failed = sum(r.failed for r in all_rounds)
        combined = hashlib.sha256(json.dumps(reference_digests, sort_keys=True).encode())
        print(f"rounds={len(all_rounds)} outputs_sha256={combined.hexdigest()}", file=sys.stderr)

        if tracer is None:
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "total_s": _metric(typical_s(rounds), "s"),
                "teacher_samples_per_s": _metric(
                    wl.teacher_samples() / typical_s(rounds, "teacher"), "samples/s"),
                "distill_samples_per_s": _metric(
                    wl.distill_samples() / typical_s(rounds, "distill"), "samples/s"),
                "analysis_s": _metric(typical_s(rounds, "analysis"), "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
        else:
            metrics = layer_metrics(layer_rounds, latencies, typical_s(rounds),
                                    typical_s(traced))
            write_trace(wl.name, args.seed, spans, layer_rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


def layer_metrics(layer_rounds: list[dict], latencies: list[float], untraced_s: float,
                  traced_s: float) -> dict:
    """Medians over the traced rounds, whose counts must repeat exactly; the
    step latency percentiles over the steps of every traced round; and the
    tracing overhead, from the typical traced and untraced round times."""
    import numpy as np
    from tracer import COUNTS, METRICS

    p50, p90 = np.percentile(latencies, [50, 90]) if latencies else (0.0, 0.0)
    derived = {"distill.step_ms_p50": float(p50), "distill.step_ms_p90": float(p90),
               "trace.overhead_s": traced_s - untraced_s,
               "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0)}
    out = {}
    for name, unit in METRICS:
        if name in derived:
            out[name] = _metric(derived[name], unit)
            continue
        values = [r[name] for r in layer_rounds]
        if name in COUNTS and len(set(values)) > 1:
            print(f"warning: {name} differs between traced rounds: {values}", file=sys.stderr)
        out[name] = _metric(statistics.median(values), unit)
    return out


def write_trace(workload: str, seed: int, spans: list[tuple], layer_rounds: list[dict]) -> None:
    """Spans of every traced round, one JSON line each, then the per-round metrics."""
    traces = OUT_BASE / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    with open(traces / f"{workload}-seed{seed}.jsonl", "w") as f:
        for r, (round_spans, exceptions) in enumerate(spans):
            f.write(json.dumps({"round": r, "exceptions": exceptions}) + "\n")
            for i, s in enumerate(round_spans):
                f.write(json.dumps({"round": r, "id": i, "layer": s[0], "fn": s[1],
                                    "start": s[2], "end": s[3], "parent": s[4],
                                    "value": s[5]}) + "\n")
        f.write(json.dumps({"rounds": layer_rounds}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
