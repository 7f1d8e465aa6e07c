"""Host-time benchmark of the Pynamic reproduction: one workload per call.

Usage, from the repository root::

    python3 wallbench/run.py --workload cold_job_256 --seed 1 --seconds 12 --trace 0

Every simulation cell runs in a fresh process, the way a CLI user runs
it, and a run does a fixed number of cells derived from ``--seconds``
and the cell's nominal length, never "as many as fit": both commits of a
comparison do the same work.  A cell's times are its CPU seconds scaled
to a fixed host speed: the pacer (``pace.py``) runs on the same CPU and
measures the speed the cell got.  Only what a service client waits for
is wall time.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones from an outside-in trace (``layers.py``).
Human-readable lines come first; the last stdout line is the JSON
result.  See ``NOTES.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace
from layers import derive, metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds of a run one cold cell takes, about, on the reference host
#: (2 vCPU): ``--seconds`` over this, rounded, is the run's fixed cell
#: count.
CELL_SECONDS = {"paper_table1": 6.0, "cold_job_256": 6.5, "staging_1536": 25.0}
#: Cold cells per run at least: repeated cells must give one digest.
MIN_CELLS = 2
#: Fresh processes per simulation run that only set up.
SETUP_PROBES = 2
#: A child process that runs longer than this has hung.
CHILD_TIMEOUT_S = 150.0

WORKLOADS = ("paper_table1", "cold_job_256", "staging_1536", "service_mix")


class Run:
    """The operations of one run: checks, samples and human lines."""

    def __init__(self, workload: str, seed: int, scale: str, trace: bool):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.trace = trace
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()
        self.work = ROOT / ".wallbench" / f"{workload}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            # One hash layout for every process: per-process hash
            # randomization is noise, not a property of a commit.
            PYTHONHASHSEED="0",
            TMPDIR=str(self.work),
        )

    def op(self, name: str, checks: dict) -> bool:
        """Count one operation; it fails if any of its checks failed."""
        bad = sorted(key for key, ok in checks.items() if not ok)
        with self._lock:
            self.attempted += 1
            if bad:
                self.failed += 1
                print(f"FAILED {name}: {', '.join(bad)}")
        return not bad

    def child(self, job: dict) -> "dict | None":
        """Run cell.py once beside the pacer: its JSON, or None if it failed.

        Adds ``job_s``, the CPU seconds of the whole cell process, spawn
        to exit, as the kernel accounted them when it was reaped (children
        run one at a time, so the change in this process's reaped-children
        usage is that one cell's); ``spawned``/``exited``, the monotonic
        stamps around it; and ``pace``, the pacer's samples.
        """
        pacer = pace.start()
        try:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "cell.py"), json.dumps(job)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            exited = time.monotonic()
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
        finally:
            samples = pace.stop(pacer)
        if proc.returncode != 0 or not out.strip():
            print(f"{job['kind']} cell exited {proc.returncode}: {err[-2000:]}")
            return None
        result = json.loads(out.strip().splitlines()[-1])
        result["job_s"] = (after.ru_utime + after.ru_stime) - (
            before.ru_utime + before.ru_stime
        )
        result["spawned"], result["exited"] = spawned, exited
        result["pace"] = samples
        return result

    def cache_dir(self, name: str) -> str:
        return str(self.work / name)

    def reference(self) -> float:
        """Table I's reference error, computed in this process once the
        timed work is over."""
        from cell import table1_ratio_err

        error, checks = table1_ratio_err()
        self.op("table1 reference", checks)
        return error


def _cold(run: Run, index: int, trace: bool = False):
    job = {
        "kind": "cold",
        "workload": run.workload,
        "scale": run.scale,
        "cache_dir": run.cache_dir(f"cell{index}"),
        "trace": trace,
    }
    return run.child(job)


def _pin() -> None:
    """Keep this process and its children (cells, pacers) on one CPU, so
    each pacer shares the CPU of the cell it measures."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def simulation_run(run: Run, seconds: int) -> dict:
    """Cold cells and setup probes in seeded order, then the reference."""
    n_cells = max(MIN_CELLS, round(seconds / CELL_SECONDS[run.workload]))
    if run.scale == "tiny":
        n_cells = MIN_CELLS
    # The setup probes are dealt out between the cold cells in an order
    # the seed shuffles, so setup_s samples the whole run rather than
    # one stretch of it.
    probes = [("setup", i) for i in range(SETUP_PROBES)]
    run.rng.shuffle(probes)
    order = []
    for cell in range(n_cells):
        order.append(("cold", cell))
        order += probes[cell::n_cells]
    cold, setups, warm, job_s = [], [], [], []
    for kind, index in order:
        if kind == "cold":
            out = _cold(run, index)
        else:
            out = run.child(
                {
                    "kind": "setup",
                    "workload": run.workload,
                    "scale": run.scale,
                    "cache_dir": run.cache_dir("unused"),
                }
            )
        if out is None:
            run.op(f"{kind} {index}", {"completed": False})
            continue
        samples = out["pace"]
        setups.append(pace.paced(samples, out["setup_s"], out["spawned"], out["setup_end"]))
        if kind == "setup":
            continue
        checks = dict(out["checks"])
        if cold:
            checks["deterministic"] = out["digest"] == cold[0]["digest"]
        run.op(f"cold cell {index}", checks)
        out["paced_cold_s"] = pace.paced(samples, out["cold_s"], *out["cold_span"])
        cold.append(out)
        warm += [pace.paced(samples, spent, start, end)
                 for start, end, spent in out["batches"]]
        job_s.append(pace.paced(samples, out["job_s"], out["spawned"], out["exited"]))
    if len(cold) < MIN_CELLS:
        raise SystemExit("fewer than two complete cold cells")
    cold_s = [out["paced_cold_s"] for out in cold]
    print(f"cold cells: {len(cold_s)}  paced seconds: {[round(v, 4) for v in cold_s]}")
    print(f"  CPU seconds: {[round(out['cold_s'], 4) for out in cold]}")
    print(f"  whole process, paced: {[round(v, 4) for v in job_s]}")
    print(f"digest of simulated statistics: {cold[0]['digest']}")
    print(f"warm batches: {len(warm)}, paced ms per answer: "
          f"{[round(v * 1e3, 3) for v in warm]}")
    print(f"setup samples, paced s: {[round(v, 4) for v in setups]}")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "cold_s": metric(statistics.median(cold_s), "s"),
        "peak_rss_mb": metric(max(out["rss_mb"] for out in cold), "MB"),
        "table1_ratio_err": metric(run.reference(), "ratio"),
        "warm_p50_ms": metric(statistics.median(warm) * 1e3, "ms"),
        "warm_rps": metric(len(warm) / sum(warm), "1/s"),
        "job_p50_s": metric(statistics.median(job_s), "s"),
    }


def simulation_trace(run: Run) -> dict:
    """One untraced and one traced cold cell: layers, overhead, digest."""
    plain = _cold(run, 0)
    traced = _cold(run, 1, trace=True)
    if plain is None or traced is None:
        run.op("traced pair", {"completed": False})
        raise SystemExit("a cold cell of the traced pair failed")
    run.op("untraced cell", plain["checks"])
    run.op(
        "traced cell",
        dict(traced["checks"], traced_digest_equal=traced["digest"] == plain["digest"]),
    )
    plain_s = pace.paced(plain["pace"], plain["cold_s"], *plain["cold_span"])
    traced_s = pace.paced(traced["pace"], traced["cold_s"], *traced["cold_span"])
    layers = traced["layers"]
    print(f"untraced {plain_s:.4f}s  traced {traced_s:.4f}s (paced)")
    print(f"digest untraced {plain['digest']}")
    print(f"digest traced   {traced['digest']}")
    return derive(
        layers,
        wall_s=layers["cell"]["total_s"],
        overhead_frac=traced_s / plain_s - 1.0,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every cell for the smoke test",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    run = Run(args.workload, args.seed, args.scale, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service_mix":
            from service_mix import service_run

            metrics = service_run(run, args.seconds)
        elif run.trace:
            _pin()
            metrics = simulation_trace(run)
        else:
            _pin()
            metrics = simulation_run(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
