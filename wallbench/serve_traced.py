"""Launch ``pynamic-repro serve`` with the layer wrappers installed.

Usage::

    python3 wallbench/serve_traced.py TRACE_DIR serve --port 0 ...

The wrappers go into the server process before it starts; its pool
worker is forked from it and inherits them.  Each process writes
``TRACE_DIR/<role>-<pid>.json`` (layer sums plus its CPU seconds) when it
exits: the server after ``serve`` returns, a worker from the
multiprocessing exit hook that runs when the pool shuts it down.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer  # noqa: E402


def dump(tracer: Tracer, trace_dir: str, role: str) -> None:
    path = Path(trace_dir) / f"{role}-{os.getpid()}.json"
    path.write_text(
        json.dumps({"cpu_s": time.process_time(), "layers": tracer.snapshot()})
    )


def _in_worker(tracer: Tracer, trace_dir: str) -> None:
    """After fork: count only the worker's own calls, dump them at exit."""
    tracer.reset()
    multiprocessing.util.Finalize(
        tracer, dump, args=(tracer, trace_dir, "worker"), exitpriority=10
    )


def main(argv: list[str]) -> int:
    trace_dir, cli_args = argv[0], argv[1:]
    from repro.harness import cli

    import repro.scenario  # noqa: F401  (the modules the wrappers patch)
    import repro.service.server  # noqa: F401

    tracer = Tracer()
    tracer.install()
    multiprocessing.util.register_after_fork(
        tracer, lambda t: _in_worker(t, trace_dir)
    )
    code = cli.main(cli_args)
    dump(tracer, trace_dir, "server")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
