"""Benchmark of the leakgames CLI, end to end and per module.

Run from the root of a checkout::

    python3 perfbench/run.py --workload qif-solve --seed 1 --seconds 22 --trace 0

It times fresh interpreters importing ``leakgames.cli`` (set-up), then
runs the workload in a fresh worker process (see ``worker.py``) and
checks every answer against its reference.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The lines before it give the
machine, the workload's reason, and details such as the tail percentile,
the uncertified share and the QIF value excess.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Fresh interpreters timed per run; the median is reported.
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
#: Whole run, including set-up; the worker is stopped if it runs over.
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def fresh_import(importtime: bool = False) -> tuple[float, str]:
    """Wall time of a new interpreter running ``import leakgames.cli``."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import leakgames.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import leakgames.cli failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stderr


def cumulative_import_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    raise BenchError(f"no import time recorded for {module}")


def measure_setup(trace: bool) -> dict:
    """Set-up times; ``setup_s`` is scaled to the reference speed like the op times."""
    fresh_import()  # writes the bytecode caches, which every later start reuses
    chunks, walls = [], []
    for _ in range(SETUP_REPEATS):
        chunks.append(calibrate.chunk())
        walls.append(fresh_import()[0])
    raw = statistics.median(walls)
    out = {"setup_s": raw / calibrate.slowness(chunks), "setup_s.raw": raw}
    if trace:
        logs = [fresh_import(importtime=True)[1] for _ in range(IMPORTTIME_REPEATS)]
        out["setup.import_s"] = statistics.median(
            cumulative_import_s(log, "leakgames.cli") for log in logs)
        out["setup.scipy_optimize_s"] = statistics.median(
            cumulative_import_s(log, "scipy.optimize") for log in logs)
    return out


def run_worker(args, deadline: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spans", spans]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def machine(result: dict) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": result.get("blas_threads"), "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "leakgames", "cli.py")):
        print(f"error: no leakgames sources under {SRC}", file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        setup = measure_setup(bool(args.trace))
        result = run_worker(args, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result["setup_s.raw"] = setup.pop("setup_s.raw")
    values = {**setup, **result, **result.get("layers", {})}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    print("machine " + json.dumps(machine(result)))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    detail = {k: result[k] for k in (
        "sets", "ops", "slowness", "setup_s.raw", "wall_s.raw", "op_ms.p50.raw", "op_ms.tail", "tail_percentile",
        "failed_frac", "uncertified_frac", "value_excess.max", "dp_hidden_lag.max", "set_walls_s",
        "failures")}
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
