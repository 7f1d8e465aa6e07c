"""The ``service_mix`` workload: one server, one closed-loop generator.

``pynamic-repro serve --workers 1`` is driven by this process over two
connections, the way ``ServiceClient`` users call it:

- the warm connection alternates ``POST /v1/jobs`` of an already
  committed spec with ``GET /v1/results/{hash}``, and checks that each
  answer equals the cold result for that hash;
- the cold connection submits specs the warehouse has not seen (the
  smoke-scale Table I workload at generator seeds 1..N, a real ~0.6 s
  simulation that commits a row) and
  waits for each job's terminal event, so warehouse writes run beside
  the reads.

Both connections do a fixed number of requests.  A pacer runs on every
CPU for the whole pass (``pace.py``): the processes move between CPUs,
so each time is scaled by the mean speed all pacers saw while it was
taken.  The traced variant starts the server through
``serve_traced.py``, which wraps the same entry points in the server and
its forked pool worker.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pace
from layers import metric

HERE = Path(__file__).resolve().parent

#: Server boots per run; setup_s is their median.
BOOTS = 5
#: Cold jobs committed before the warm connection starts (not timed).
PREFILL = 2
#: Nominal seconds per cold job and per warm request on the reference
#: host; they turn --seconds into fixed request counts.
COLD_JOB_S = 0.6
WARM_REQUEST_S = 0.005
#: Share of the run's seconds given to each connection's fixed count.
LOAD_SHARE = 0.8


def cpu_s(pid: int) -> float:
    """CPU seconds a process has run, from the scheduler's ns counter."""
    return int(Path(f"/proc/{pid}/schedstat").read_text().split()[0]) / 1e9


def children_cpu_s(pid: int) -> dict:
    """CPU seconds of each live child of ``pid`` (the pool workers)."""
    found = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Field 4, the parent pid, follows the parenthesised name.
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == pid:
                found[int(stat.parent.name)] = cpu_s(int(stat.parent.name))
        except (OSError, ValueError, IndexError):
            continue  # the process exited while it was being read
    return found


def _cold_spec_doc(seed: int) -> dict:
    from repro.harness.table1 import smoke_config
    from repro.scenario import ScenarioSpec

    config = replace(smoke_config(), seed=seed)
    return ScenarioSpec(config=config, warm_file_cache=True).to_dict()


class Server:
    """One server process.

    ``boot_s`` is its CPU seconds from spawn until /healthz answers
    (import, CLI parsing, warehouse and pool set-up); ``boot_wall_s`` is
    the same stretch in wall seconds.
    """

    def __init__(self, run, cache_dir: str, trace_dir: "str | None") -> None:
        from repro.service.client import ServiceClient

        serve_args = [
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "1",
            "--cache-dir",
            cache_dir,
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.harness.cli", *serve_args]
        else:
            command = [
                sys.executable,
                str(HERE / "serve_traced.py"),
                trace_dir,
                *serve_args,
            ]
        env = dict(run.env, PYTHONUNBUFFERED="1")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            cwd=run.work.parent.parent,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise SystemExit(f"server did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        port = int(host_port.rsplit(":", 1)[1])
        self.client = ServiceClient("127.0.0.1", port, timeout=60.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.client.healthz()
                break
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise SystemExit("server never answered /healthz")
                time.sleep(0.002)
        self.ready = time.monotonic()
        self.boot_wall_s = self.ready - self.spawned
        self.boot_s = cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """The server process's high-water RSS (VmHWM)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise SystemExit("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _cold_loop(run, server, seeds, committed, lock, out, tag):
    """Submit each fresh spec and wait for its terminal event.

    ``job`` samples are wall seconds from submit to the terminal event;
    ``cold`` samples are the CPU seconds the pool worker spent meanwhile
    (this loop is the only source of worker work, one job at a time).
    Each sample is ``[seconds, monotonic start, monotonic end]``.
    """
    client = server.client
    for seed in seeds:
        doc = _cold_spec_doc(seed)
        workers = children_cpu_s(server.proc.pid)
        start = time.monotonic()
        try:
            submitted = client.submit(doc)
            for event in client.events(submitted["job_id"]):
                if event.get("event") in ("done", "failed", "abandoned"):
                    break
            end = time.monotonic()
            worker_s = sum(
                spent - workers.get(pid, 0.0)
                for pid, spent in children_cpu_s(server.proc.pid).items()
            )
            final = client.job(submitted["job_id"])
        except Exception as exc:  # any non-2xx or torn connection
            run.op(f"{tag} cold seed {seed}", {f"answered ({exc})": False})
            continue
        result = final.get("result")
        ok = run.op(
            f"{tag} cold seed {seed}",
            {
                "accepted_cold": submitted.get("cached") is False,
                "done": final.get("status") == "done",
                "result_for_hash": isinstance(result, dict)
                and result.get("spec_hash") == submitted.get("spec_hash"),
            },
        )
        if not ok:
            continue
        out["job"].append([end - start, start, end])
        out["cold"].append([worker_s, start, end])
        out["queue_wait"].append(final["started_at"] - final["submitted_at"])
        with lock:
            committed[submitted["spec_hash"]] = (doc, result)


def _warm_loop(run, client, n_requests, committed, lock, rng, out, tag):
    """Alternate warm POSTs and result GETs of committed specs."""
    began = time.monotonic()
    for index in range(n_requests):
        with lock:
            spec_hash = rng.choice(sorted(committed))
            doc, expected = committed[spec_hash]
        start = time.perf_counter()
        try:
            if index % 2 == 0:
                answer = client.submit(doc)
                checks = {
                    "cached": answer.get("cached") is True
                    and answer.get("status") == "done",
                }
            else:
                answer = client.result(spec_hash)
                checks = {}
        except Exception as exc:
            run.op(f"{tag} warm {index}", {f"answered ({exc})": False})
            continue
        out["warm"].append(time.perf_counter() - start)
        checks["equals_cold"] = answer.get("result") == expected
        run.op(f"{tag} warm {index}", checks)
    out["warm_span"] = [began, time.monotonic()]


def _pass(run, seconds: int, trace_dir: "str | None", tag: str) -> dict:
    """One paced pass: its samples with every time scaled by the pacers."""
    pacers = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            pacers.append(pace.start(cpu))
        out = _drive(run, seconds, trace_dir, tag)
    finally:
        samples = [sample for pacer in pacers for sample in pace.stop(pacer)]
    for key in ("boots", "cold", "job"):
        out[key] = [pace.paced(samples, *entry) for entry in out[key]]
    warm_s = pace.paced(samples, 1.0, *out["warm_span"])
    out["warm"] = [latency * warm_s for latency in out["warm"]]
    began, ended = out["warm_span"]
    out["warm_rps"] = len(out["warm"]) / (warm_s * (ended - began))
    return out


def _drive(run, seconds: int, trace_dir: "str | None", tag: str) -> dict:
    """Boot, prefill, drive both connections, read metrics, stop."""
    boots, boot_walls = [], []
    for boot in range(BOOTS):
        last = boot == BOOTS - 1
        server = Server(
            run,
            run.cache_dir(f"{tag}-warehouse{boot}"),
            trace_dir if last else None,
        )
        boots.append([server.boot_s, server.spawned, server.ready])
        boot_walls.append(server.boot_wall_s)
        if not last:
            server.stop()
    tiny = run.scale == "tiny"
    n_cold = 3 if tiny else max(1, round(seconds * LOAD_SHARE / COLD_JOB_S))
    n_warm = 40 if tiny else max(2, round(seconds * LOAD_SHARE / WARM_REQUEST_S))
    # The cold specs are a fixed instance set, generator seeds 1..N (a
    # generator seed moves a job's work by up to a third); each run's
    # warehouse starts empty, so every one is cold.  The run's seed
    # orders the timed ones and drives the warm traffic.  Both passes of
    # a traced run submit the same specs.
    rng = random.Random(run.seed)
    cold_seeds = list(range(PREFILL + 1, PREFILL + n_cold + 1))
    rng.shuffle(cold_seeds)
    out: dict = {"cold": [], "job": [], "warm": [], "queue_wait": []}
    committed: dict = {}
    lock = threading.Lock()
    client = server.client
    counters: dict = {}
    try:
        _cold_loop(run, server, range(1, PREFILL + 1), committed, lock,
                   {"cold": [], "job": [], "queue_wait": []}, tag)
        if not committed:
            raise SystemExit("no prefill job completed")
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=_cold_loop,
                args=(run, server, cold_seeds, committed, lock, out, tag),
            ),
            threading.Thread(
                target=_warm_loop,
                args=(run, client, n_warm, committed, lock, rng, out, tag),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out["elapsed_s"] = time.perf_counter() - start
        counters = client.metrics()
        out["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    hits = counters.get("warehouse_hits", 0)
    out["hit_ratio"] = hits / max(1, hits + counters.get("warehouse_misses", 0))
    out["boots"] = boots
    out["boot_walls"] = boot_walls
    out["digest"] = _digest(committed)
    return out


def _digest(committed: dict) -> str:
    import hashlib

    body = json.dumps(
        {key: result for key, (_doc, result) in committed.items()},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def service_run(run, seconds: int) -> dict:
    if run.trace:
        return _service_trace(run, seconds)
    out = _pass(run, seconds, None, "run")
    if not out["cold"] or not out["warm"]:
        raise SystemExit("no cold job or warm answer completed")
    warm = out["warm"]
    print(f"cold jobs: {len(out['cold'])}  warm answers: {len(warm)}")
    print(f"server boots, paced CPU s: {[round(v, 4) for v in out['boots']]}")
    print(f"  wall s: {[round(v, 4) for v in out['boot_walls']]}")
    print(f"cold jobs, paced worker CPU s: {[round(v, 4) for v in out['cold']]}")
    print(f"  submit to terminal event, paced s: "
          f"{[round(v, 4) for v in out['job']]}")
    print(
        f"warm p99 {_percentile(warm, 0.99) * 1e3:.3f} ms over {len(warm)} "
        f"samples ({len(warm) // 100} beyond it)"
    )
    print(f"digest of cold results: {out['digest']}")
    return {
        "setup_s": metric(statistics.median(out["boots"]), "s"),
        "cold_s": metric(statistics.median(out["cold"]), "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        "table1_ratio_err": metric(run.reference(), "ratio"),
        "warm_p50_ms": metric(statistics.median(warm) * 1e3, "ms"),
        "warm_rps": metric(out["warm_rps"], "1/s"),
        "job_p50_s": metric(statistics.median(out["job"]), "s"),
    }


def _service_trace(run, seconds: int) -> dict:
    from layers import derive

    plain = _pass(run, seconds, None, "plain")
    trace_dir = run.work / "trace"
    trace_dir.mkdir()
    traced = _pass(run, seconds, str(trace_dir), "traced")
    run.op(
        "traced digest",
        {"traced_digest_equal": traced["digest"] == plain["digest"]},
    )
    merged: dict = {}
    cpu_s = 0.0
    for dump in sorted(trace_dir.glob("*.json")):
        data = json.loads(dump.read_text())
        cpu_s += data["cpu_s"]
        for layer, entry in data["layers"].items():
            into = merged.setdefault(layer, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    print(f"trace dumps: {len(list(trace_dir.glob('*.json')))}")
    print(f"digest untraced {plain['digest']}")
    print(f"digest traced   {traced['digest']}")
    return derive(
        merged,
        wall_s=cpu_s,
        overhead_frac=traced["elapsed_s"] / plain["elapsed_s"] - 1.0,
        service={
            "warehouse_hit_ratio": traced["hit_ratio"],
            "queue_wait_s": statistics.median(traced["queue_wait"] or [0.0]),
        },
    )
