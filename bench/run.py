"""The ktrans benchmark: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists and what it should move):
  engine-sweep    cold expansions: golden element, staircase skews, rank-6 panel
  memo-sweep      W^D_5 in group order with one shared memo, then served warm
  verify-battery  verify-suite in-process with jobs=1, then verify_expansion

The workload runs in a fresh interpreter, with KTRANS_CACHE_DIR pointed at a
private directory under .bench_out/.  One caller issues one operation at a
time (closed loop, one process, one thread), and every package cache is
cleared before each cold operation, so each one starts as cold as a fresh
command-line call.  Every answer is checked.

--seconds sizes the run: one cold pass over the workload per PASS_SECONDS (at
least one); below 8 s the passes shrink to tiny inputs, which the self-test
uses.  With --trace 0 the run reports the end-to-end metrics at reference
speed (see speed.py), each cold operation at the median of its passes, and
prints the raw figures above them; with --trace 1 it makes one
untraced pass and the same pass traced, and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is the JSON result; the exit
code is 0 when every answer was right, 1 when one was wrong, 2 when the run
could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("engine-sweep", "memo-sweep", "verify-battery")
PASS_SECONDS = {"engine-sweep": 15, "memo-sweep": 6, "verify-battery": 10}
SETUP_REPEATS = 25
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "elements_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "latency_ms.p99": "ms",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env(cache_dir: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["KTRANS_CACHE_DIR"] = cache_dir
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the next worker")
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{cmd[1:3]} did not finish within the run's time limit") from None


def measure_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing ktrans.cli, at
    reference speed and as measured; one untimed import first writes the
    bytecode a user would already have."""
    cmd = [sys.executable, "-c", "import ktrans.cli"]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        proc, wall_ms, _, scale = speed.timed(lambda: run_child(cmd, env, deadline), sample=False)
        if proc.returncode:
            raise RunError(f"import ktrans.cli failed: {proc.stderr.strip()[-300:]}")
        if i:
            scaled.append(wall_ms * scale / 1000.0)
            raw.append(wall_ms / 1000.0)
    return statistics.median(scaled), statistics.median(raw)


def run_round(args, env: dict, deadline: float, passes: int,
              spans: Path | None = None) -> dict:
    """One worker; a traced run samples no speed inside operations, so that
    the sampling adds nothing to the layers' times."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--passes", str(passes),
           "--sample", "0" if args.trace else "1"]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    proc = run_child(cmd, env, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(r: dict, setup_s: float) -> dict[str, float]:
    """Each timing at reference speed (see speed.py).  A cold operation
    counts at the median of its passes, the warm phase at the median of its
    passes."""
    wall = [statistics.median(w * k for w, _, k in samples) for samples in r["ops"].values()]
    cpu = [statistics.median(c * k for _, c, k in samples) for samples in r["ops"].values()]
    wall_s = sum(wall) / 1000.0
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": sum(cpu) / 1000.0,
        "elements_per_s": len(wall) / wall_s,
        "latency_ms.p50": percentile(wall, 50),
        "latency_ms.p90": percentile(wall, 90),
        "latency_ms.p99": percentile(wall, 99),
        "warm_s": statistics.median(w * k for w, _, k in r["warm"]) / 1000.0,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def as_measured(r: dict) -> dict[str, float]:
    """The same timings as measured, without scaling, for the log."""
    wall = [statistics.median(w for w, _, _ in samples) for samples in r["ops"].values()]
    best = [min(w for w, _, _ in samples) for samples in r["ops"].values()]
    factors = [k for samples in r["ops"].values() for _, _, k in samples]
    return {
        "wall_s": sum(wall) / 1000.0,
        "wall_s best": sum(best) / 1000.0,
        "latency_ms.p90": percentile(wall, 90),
        "warm_s": statistics.median(w for w, _, _ in r["warm"]) / 1000.0,
        "speed factor min": min(factors),
        "speed factor median": statistics.median(factors),
        "speed factor max": max(factors),
    }


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the reference
    loop reads the speed of the core the timed work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _terminate(signum, frame):
    # an exception unwinds subprocess.run, which kills and reaps the child
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ktrans" / "__init__.py").is_file():
        print(f"bench: no ktrans sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    env = child_env(cache_dir)
    try:
        if args.trace:
            plain = run_round(args, env, deadline, 1)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = run_round(args, env, deadline, 1, spans)
            workers = [plain, traced]
            metrics = {name: value for name, (value, _) in traced["layers"].items()}
            units = {name: unit for name, (_, unit) in traced["layers"].items()}
            metrics["trace.overhead_s"] = traced["elapsed_s"] - plain["elapsed_s"]
            metrics["trace.overhead_ratio"] = traced["elapsed_s"] / plain["elapsed_s"]
            units.update({"trace.overhead_s": "s", "trace.overhead_ratio": "ratio"})
            notes = [f"spans: {traced['spans_written']} of {metrics['trace.spans']} "
                     f"written to {spans.relative_to(ROOT)}"]
        else:
            setup_s, setup_raw = measure_setup(env, deadline)
            passes = max(1, args.seconds // PASS_SECONDS[args.workload])
            workers = [run_round(args, env, deadline, passes)]
            metrics, units = end_to_end(workers[0], setup_s), END_TO_END_UNITS
            n = len(workers[0]["ops"])
            notes = [f"latency: {n} operations, each the median of {passes} passes; "
                     f"beyond p90 {n - round(0.9 * n)}, beyond p99 {n - round(0.99 * n)}",
                     f"elapsed: {workers[0]['elapsed_s']:.2f} s",
                     f"times at reference speed ({speed.REF_MS} ms a reference loop); "
                     f"as measured: setup_s {setup_raw:.6g}, "
                     + ", ".join(f"{k} {v:.6g}" for k, v in as_measured(workers[0]).items())]
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"workers {len(workers)}  trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, {platform.python_implementation()} "
          f"{platform.python_version()}, {platform.platform()}")
    for note in notes:
        print(note)
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for r in workers:
        for err in r["errors"]:
            print(f"FAILED {err}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
