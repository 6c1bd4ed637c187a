"""Fast self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Tiny runs of every workload must emit exactly the metrics BENCHMARK.json
names, with their units; a wrong expansion must be counted as a failure;
without the program the benchmark must fail without printing a result; and the
speed sampling inside an operation must not count toward its time.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import worker  # noqa: E402
from ktrans import expand  # noqa: E402

# memo-sweep is runnable and tested, though BENCHMARK.json does not list it
WORKLOADS = sorted(worker.WORKLOADS)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expansion_is_a_failure(workload, monkeypatch, tmp_path):
    right = expand.expand_grassmannian

    def wrong(t, w):
        result = right(t, w)
        result.terms = dict(result.terms)
        lam = max(result.terms)
        result.terms[lam] += 1  # still positive, so only the references catch it
        return result

    monkeypatch.setenv("KTRANS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(expand, "expand_grassmannian", wrong)
    expand._cache.clear()
    out = worker.run_round(workload, seed=7, seconds=1)
    assert out["failed"] >= 1
    assert out["errors"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_sampling_is_taken_out_of_the_time():
    def busy():  # runs until 200 ms of wall time have passed, sampled or not
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    _, wall_ms, _, factor = speed.timed(busy)
    assert factor > 0
    loop_ms = speed.REF_MS / factor  # the reference loop's mean time in this call
    # about 0.2 / SAMPLE_S loops ran inside busy(); at least half must come off
    assert wall_ms < 200 - 0.5 * (0.2 / speed.SAMPLE_S) * loop_ms
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
