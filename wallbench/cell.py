"""One simulation cell in a fresh process, as a CLI user gets it.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 wallbench/cell.py '{"kind": "cold", "workload": "cold_job_256",
                                "scale": "full", "cache_dir": "D", "trace": false}'

``kind`` is one of

- ``cold``: build the cell's specs (setup), simulate them against an
  empty warehouse at ``cache_dir`` (the cold answer, which commits rows),
  then answer them again and again from that warehouse (the replay
  ``simulate(spec, cache_dir=)`` gives a sweep or a repeated ``job
  --cache-dir``), timing batches of answers;
- ``setup``: build the specs and exit (a setup-time sample).

The last stdout line is one JSON object: the CPU seconds of setup, of
the cold call and per warm answer of each batch, the ``time.monotonic``
stamps that bound each of them (``run.py`` scales CPU seconds by the
host speed the pacer saw in the same stretch), peak RSS, the digest of
the simulated statistics, and the named checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

#: Warm answers per timed batch, and batches per cold cell.
WARM_BATCH = 200
WARM_BATCHES = 6

#: Share of the table1 preset one paper_table1 cell builds.
TABLE1_SCALE = 0.35

#: The one generator config ``job --tasks 256 ...`` builds from its
#: default flags (spec hash f4720bdc0c1c... at the time of writing).
JOB_FLAGS_CONFIG = dict(
    n_modules=8, n_utilities=6, avg_functions=40, seed=42, name_length=0
)


def _table1_specs(scale: str):
    from repro.core import presets
    from repro.core.builds import BuildMode
    from repro.scenario import ScenarioSpec

    # A third of the table1 preset: three builds in ~4 s instead of
    # ~80 s, so a run holds several cells; the structure (depth,
    # probabilities, name length) is the preset's.
    if scale == "tiny":
        config = presets.tiny()
    else:
        config = presets.table1_config().scaled(TABLE1_SCALE)
    return [
        ScenarioSpec(config=config, mode=mode, warm_file_cache=True)
        for mode in BuildMode
    ]


def _cold_job_specs(scale: str):
    from repro.core.config import PynamicConfig
    from repro.dist.topology import DistributionSpec
    from repro.scenario import ScenarioSpec

    return [
        ScenarioSpec(
            config=PynamicConfig(**JOB_FLAGS_CONFIG),
            engine="multirank",
            n_tasks=16 if scale == "tiny" else 256,
            cores_per_node=8,
            distribution=DistributionSpec.from_name("binomial"),
        )
    ]


def _staging_specs(scale: str):
    from repro.scenario import scenario_preset

    spec = scenario_preset("llnl_multiphysics_scaled")
    if scale == "tiny":
        spec = spec.with_(n_tasks=16)
    return [spec]


def _simulate_all(specs, cache_dir):
    from repro.scenario import simulate

    return [simulate(spec, cache_dir=cache_dir) for spec in specs]


#: The overlay plans of the cell's cold staging passes, kept for the
#: full-set check (a warehouse answer makes none).
_PLANS: list = []


def _keep_plans() -> None:
    """Note every StagingPlan the overlay returns in this process."""
    from repro.dist.overlay import DistributionOverlay

    stage = DistributionOverlay.stage

    def noted(self, *args, **kwargs):
        plan = stage(self, *args, **kwargs)
        _PLANS.append(plan)
        return plan

    DistributionOverlay.stage = noted


def _stage_all(specs, cache_dir):
    """What ``job --staging-only --cache-dir D`` runs."""
    from repro.harness.mitigation_scaled import eval_staging_point
    from repro.harness.sweep import SweepRunner

    return SweepRunner(cache_dir=cache_dir).map(
        eval_staging_point,
        specs,
        keys=[spec.spec_hash for spec in specs],
        spec_docs=[spec.canonical_json() for spec in specs],
    )


def _table1_checks(reports) -> dict:
    from repro.core.builds import BuildMode
    from repro.harness.table1 import table1_metrics

    ratios = table1_metrics(
        {mode: SimpleNamespace(report=r) for mode, r in zip(BuildMode, reports)}
    )
    return {
        "startup_order": ratios["startup_order_ok"] == 1.0,
        "prelink_speeds_import": ratios["import_speedup_link_over_vanilla"] > 1.0,
        "lazy_slows_visit": ratios["visit_slowdown_link_over_vanilla"] > 1.0,
    }


def _job_checks(reports) -> dict:
    (report,) = reports
    return {
        "every_rank_reported": len(report.per_rank) == report.n_tasks,
        "cold": bool(report.cold),
        "every_node_staged": len(report.staging_per_node) == report.n_nodes,
        "finite": all(
            math.isfinite(value) and value > 0
            for value in (report.total_s, report.staging_max)
        ),
    }


def _staging_checks(summaries) -> dict:
    (summary,) = summaries
    full_set = False
    if len(_PLANS) == 1:
        (plan,) = _PLANS
        paths = {path for _node, path in plan.ready_s}
        # Every node has a landing time for every DLL, and a finite time
        # by which it held them all.
        full_set = (
            len(paths) == summary.n_files
            and len(plan.ready_s) == summary.n_nodes * summary.n_files
            and len(plan.per_node_done_s) == summary.n_nodes
            and all(math.isfinite(done) for done in plan.per_node_done_s)
        )
    return {
        "one_source_read_per_dll": summary.source_reads == summary.n_files,
        "every_node_full_set": full_set,
        "ordered": 0 < summary.p50_s <= summary.p95_s <= summary.makespan_s,
    }


#: workload -> (spec builder, cold call, invariant checks).
CELLS = {
    "paper_table1": (_table1_specs, _simulate_all, _table1_checks),
    "cold_job_256": (_cold_job_specs, _simulate_all, _job_checks),
    "staging_1536": (_staging_specs, _stage_all, _staging_checks),
}


def digest(results) -> str:
    """sha256 of the simulated statistics (reprs are exact for floats)."""
    return hashlib.sha256(repr(list(results)).encode()).hexdigest()


def table1_ratio_err() -> tuple[float, dict]:
    """Mean |ln(measured / paper)| over Table I's four structural ratios,
    measured on the registry-smoke Table I workload."""
    from repro.core.builds import BuildMode
    from repro.core.runner import run_all_modes
    from repro.harness.table1 import PAPER_TABLE1, smoke_config, table1_metrics

    measured = table1_metrics(run_all_modes(smoke_config()))
    paper = table1_metrics(
        {
            mode: SimpleNamespace(
                report=SimpleNamespace(
                    startup_s=PAPER_TABLE1[mode.value]["startup"],
                    import_s=PAPER_TABLE1[mode.value]["import"],
                    visit_s=PAPER_TABLE1[mode.value]["visit"],
                )
            )
            for mode in BuildMode
        }
    )
    ratios = [key for key in paper if key != "startup_order_ok"]
    error = sum(abs(math.log(measured[key] / paper[key])) for key in ratios)
    return error / len(ratios), {
        "startup_order": measured["startup_order_ok"] == 1.0,
        "prelink_speeds_import": measured["import_speedup_link_over_vanilla"] > 1.0,
    }


def _warm_batches(specs, cold_call, cache_dir) -> list:
    """``[start, end, CPU seconds per answer]`` of each warm batch.

    One answer takes about a millisecond, so none is timed alone: a
    batch of WARM_BATCH answers is, and its mean is one sample.
    """
    batches = []
    for _ in range(WARM_BATCHES):
        start, cpu = time.monotonic(), time.process_time()
        for index in range(WARM_BATCH):
            cold_call([specs[index % len(specs)]], cache_dir)
        spent = time.process_time() - cpu
        batches.append([start, time.monotonic(), spent / WARM_BATCH])
    return batches


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    build_specs, cold_call, checks = CELLS[job["workload"]]
    specs = build_specs(job["scale"])
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    if job["workload"] == "staging_1536":
        _keep_plans()
    # CPU seconds since the interpreter started: import plus spec build.
    out: dict = {"setup_s": time.process_time(), "setup_end": time.monotonic()}
    if job["kind"] == "cold":
        start, cpu = time.monotonic(), time.process_time()
        if tracer is not None:
            with tracer.span("cell"):
                results = cold_call(specs, job["cache_dir"])
        else:
            results = cold_call(specs, job["cache_dir"])
        out["cold_s"] = time.process_time() - cpu
        out["cold_span"] = [start, time.monotonic()]
        out["digest"] = digest(results)
        out["checks"] = checks(results)
        if tracer is not None:
            out["layers"] = tracer.snapshot()
        else:
            # The warm answers are timed without the cold pass's garbage
            # around, as in the fresh process a repeated CLI call gets.
            _PLANS.clear()
            del results
            gc.collect()
            replayed = cold_call(specs, job["cache_dir"])
            out["checks"]["warm_equals_cold"] = digest(replayed) == out["digest"]
            out["batches"] = _warm_batches(specs, cold_call, job["cache_dir"])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
