"""Benchmark of holonomy-lab: seeded workloads, end-to-end metrics and a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload sweep-adiabatic --seed 0 --seconds 35 --trace 0

Workloads: sweep-adiabatic, dense-driven, gauge-holonomy (see workloads.py).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb, ok_frac); with
`--trace 1` they are the per-layer split, and every span is written to
`.bench_out/trace-<workload>-seed<seed>.jsonl`. The exit code is 0 only when
every correctness gate passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS: on a 2-CPU shared host a
# second thread that waits on a busy CPU made a 64x64 eigh up to 100x slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracing  # noqa: E402 - imports numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Cold starts before and after the timed passes; the machine's speed drifts
# over tens of seconds, so one burst would sample only one moment of it.
COLD_STARTS = 5


def cold_starts(config_path: Path) -> list[dict]:
    """COLD_STARTS {import_s, setup_s} samples, one fresh interpreter at a time."""
    samples = []
    for _ in range(COLD_STARTS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cold_start.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def measure(workload, inputs, seconds: float, trace: bool, rec, trace_file):
    """Timed passes until `seconds` have gone; traced runs alternate untraced and traced passes.

    Returns (untraced walls, traced walls, per-pass Checked records, per-pass layer metrics).
    """
    walls, traced_walls, checks, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(checks) % 2 == 1
        with rec if traced else contextlib.nullcontext():
            start = time.perf_counter()
            out = workload.run(inputs, rec if traced else None)
            wall = time.perf_counter() - start
        checks.append(workload.check(inputs, out))
        if traced:
            traced_walls.append(wall)
            layers.append(tracing.pass_metrics(rec, wall))
            rec.dump(trace_file, len(checks) - 1)
        else:
            walls.append(wall)
        enough = len(checks) >= (2 if trace else 1)
        if enough and time.perf_counter() + 0.5 * wall >= deadline:
            return walls, traced_walls, checks, layers


def per_layer_metrics(names, walls, traced_walls, checks, layers, import_s) -> dict:
    values = {}
    for key in set().union(*layers):
        values[key] = statistics.median(m.get(key, 0) for m in layers)
    for key in checks[0].stats:
        values[key] = statistics.median(c.stats[key] for c in checks)
    traced_wall = statistics.fmean(traced_walls)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.fmean(walls)
    values["setup.import_s"] = import_s
    return {name: values.get(name, 0.0) for name in names}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holonomy_lab" / "__init__.py").is_file():
        print(f"error: holonomy_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import holonomy_lab

    if not Path(holonomy_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported holonomy_lab from {holonomy_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports holonomy_lab's modules, so only after the check above

    OUT.mkdir(exist_ok=True)
    machine = machine_record()
    print("machine " + json.dumps(machine), file=sys.stderr)

    workload = workloads.WORKLOADS[args.workload]
    setup_config = Path(workloads.WORKLOADS["sweep-adiabatic"].generate(0, OUT)["config"])
    starts = cold_starts(setup_config)
    inputs = workload.generate(args.seed, OUT)

    rec = tracing.Recorder()
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(trace_path if args.trace else os.devnull, "w") as trace_file:
        trace_file.write(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed}) + "\n")
        walls, traced_walls, checks, layers = measure(
            workload, inputs, args.seconds, bool(args.trace), rec, trace_file
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    starts += cold_starts(setup_config)
    setup_s = statistics.median(s["setup_s"] for s in starts)
    import_s = statistics.median(s["import_s"] for s in starts)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    for problem in dict.fromkeys(problems):
        print(f"gate failed: {problem}", file=sys.stderr)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer_metrics(names, walls, traced_walls, checks, layers, import_s)
        print(f"wrote {trace_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": statistics.fmean(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{args.workload}: {attempted} items, {failed} failed; pass walls (s) "
          f"untraced {[round(w, 3) for w in walls]} traced {[round(w, 3) for w in traced_walls]}",
          file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
