"""The pacer: a fixed unit of interpreter work, timed over and over.

Usage: ``start`` runs it as ``python3 wallbench/pace.py`` beside the
process it measures, ``stop`` collects its samples, and ``paced`` scales
CPU seconds by them.

The speed of a CPU on a shared host is not fixed: another tenant on the
same core can halve it for seconds at a time, and a process's CPU
seconds count those slow stretches in full.  Processes that share one
CPU see the same stretches, so the pacer, pinned beside a cell, samples
the speed the cell got.  Every ``PERIOD_S`` it wakes, runs one unit
(about a millisecond of dict work, the interpreter-bound kind of work
the simulator does) and notes when the unit ended and the CPU seconds it
took; between units it sleeps, so it takes a few per cent of the CPU.

It prints ``ready`` once its loop runs and, on SIGTERM, one JSON list of
``[monotonic end, CPU seconds]`` per unit, then exits.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

#: Iterations of one unit, and the pause between units.
UNIT_ITERATIONS = 3000
PERIOD_S = 0.02
#: CPU seconds of one unit at the reference speed: a paced second is a
#: CPU second of a host on which a unit takes this long.
REF_UNIT_S = 1e-3

_stopped = False


def _stop(_signum, _frame) -> None:
    global _stopped
    _stopped = True


def unit() -> None:
    table: dict = {}
    for i in range(UNIT_ITERATIONS):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i


def start(cpu: "int | None" = None) -> subprocess.Popen:
    """A running pacer, pinned to ``cpu`` if one is given."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)],
        stdout=subprocess.PIPE,
        text=True,
    )
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit("the pacer did not start")
    return proc


def stop(proc: subprocess.Popen) -> list:
    """Stop a pacer and return its ``[monotonic end, CPU seconds]`` samples."""
    proc.terminate()
    out, _ = proc.communicate(timeout=60)
    return json.loads(out.strip().splitlines()[-1])


def paced(samples: list, cpu_s: float, start: float, end: float) -> float:
    """``cpu_s`` spent between ``start`` and ``end``, at the reference speed.

    The scale is the reference unit over the mean unit of the samples in
    that stretch (or, for a stretch shorter than a pacer period, of the
    one nearest to it).
    """
    units = [spent for stamp, spent in samples if start <= stamp <= end]
    if not units:
        middle = (start + end) / 2
        units = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return cpu_s * REF_UNIT_S / statistics.fmean(units)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    samples = []
    unit()  # warm the interpreter's caches before the first sample
    print("ready", flush=True)
    while not _stopped:
        start = time.thread_time()
        unit()
        samples.append((time.monotonic(), time.thread_time() - start))
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
