"""Run one workload as two sets of runs and compare them with the bounds.

Usage, from the repository root::

    python3 wallbench/steadiness.py --workload cold_job_256 --runs 10 --first-seed 1

Each set runs the workload ``--runs`` times, one seed after another from
``--first-seed``; the second set repeats the first set's seeds.  For
every end-to-end metric the script prints each set's median, quartiles
(``statistics.quantiles(values, n=4)``) and interquartile spread as a
share of the median, then how much worse the second median is than the
first, as a share of the first.  It exits non-zero if a run failed, if a
spread other than ``setup_s``'s exceeds the metric's bound in
``BENCHMARK.json``, or if the second median is worse by more than the
bound: the evidence behind the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(workload: str, seeds: range, label: str) -> "tuple[dict, int]":
    """Each end-to-end metric's values over one set, and the failures."""
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in seeds:
        command = [
            *BENCH["command"],
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(BENCH["run_seconds"]),
            "--trace", "0",
        ]
        started = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"set {label} seed {seed}: exit {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}")
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += result["failed"]
        print(
            f"set {label} seed {seed}: {wall:.1f}s wall, "
            f"correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}",
            flush=True,
        )
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    return values, failures


def summary(series: list) -> "tuple[float, float, float, float]":
    """Median, first and third quartile, and their spread over the median."""
    median = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.runs)
    first, failures_a = run_set(args.workload, seeds, "A")
    second, failures_b = run_set(args.workload, seeds, "B")
    ok = failures_a == failures_b == 0
    print(f"\n{'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s}  {'worse':>7s} {'bound':>6s}")
    for entry in BENCH["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        if len(first.get(name, [])) < 2 or len(second.get(name, [])) < 2:
            print(f"{name:20s} too few values")
            ok = False
            continue
        medians = []
        for label, series in (("A", first[name]), ("B", second[name])):
            median, q1, q3, spread = summary(series)
            medians.append(median)
            steady = name == "setup_s" or spread <= bound
            ok = ok and steady
            flag = "" if steady else "  SPREAD OVER BOUND"
            print(f"{name:20s} {label:>3s} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.4f}{flag}")
        change = (medians[1] - medians[0]) / medians[0]
        worse = change if entry["better"] == "lower" else -change
        ok = ok and worse <= bound
        flag = "" if worse <= bound else "  WORSE THAN BOUND"
        print(f"{'':20s} {'B/A':>3s} {'':50s}  {worse:7.4f} {bound:6.2f}{flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
