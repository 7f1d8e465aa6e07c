"""Smoke test of the benchmark itself, at tiny scale (~1 minute).

Usage, from the repository root::

    python3 wallbench/smoke.py          # or: python3 -m pytest wallbench/smoke.py

For every workload, untraced and traced, it checks that the last stdout
line is the JSON result with ``correct``/``attempted``/``failed`` and
exactly the metrics ``BENCHMARK.json`` names for that mode, and that no
check failed.  It also checks that the benchmark refuses to run, with a
non-zero exit and no result, where the program's source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, scale: str = "tiny"):
    return subprocess.run(
        [
            *BENCH["command"],
            "--workload", workload,
            "--seed", "1",
            "--seconds", str(BENCH["run_seconds"]),
            "--trace", str(trace),
            "--scale", scale,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_workload(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    kind = "per_layer" if trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in BENCH[kind]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def check_refuses_without_source() -> None:
    bare = ROOT / ".wallbench" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(
                ROOT / path,
                bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run(bare, BENCH["workloads"][0]["name"], 0, scale="full")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_every_workload_emits_every_metric() -> None:
    for workload in BENCH["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace)


def test_refuses_without_source() -> None:
    check_refuses_without_source()


if __name__ == "__main__":
    for entry in BENCH["workloads"]:
        for mode in (0, 1):
            check_workload(entry["name"], mode)
            print(f"ok {entry['name']} --trace {mode}", flush=True)
    check_refuses_without_source()
    print("ok refuses without source")
    sys.exit(0)
