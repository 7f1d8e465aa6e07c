"""Outside-in layer tracing: wrap the public entry points of ``repro``.

The benchmark never edits the program.  A traced cell installs the
wrappers below on the ``repro`` modules it is about to run, so every
call into a layer records a span: its wall time, the time of the spans
it caused (its children), and the layer's own counters.  A layer's self
time is its span time minus its children's, accumulated online on a
per-thread stack, so nothing is stored per call and a run with millions
of cache accesses stays in memory.

``LAYERS`` is the one table of what is wrapped; ``derive`` turns the
raw per-layer sums into the ``per_layer`` metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
import types

#: layer -> the entry points wrapped for it, as (module, qualname).
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.generate": (("repro.core.generator", "generate"),),
    "core.build": (("repro.core.builds", "build_benchmark"),),
    "linker.lookup": (("repro.linker.resolver", "SymbolResolver.lookup"),),
    "elf.probe_plan": (("repro.elf.symbols", "SymbolTable.probe_plan"),),
    "machine.access": (
        ("repro.machine.context", "ExecutionContext.dread"),
        ("repro.machine.context", "ExecutionContext.ifetch"),
        ("repro.machine.context", "ExecutionContext.dwrite"),
    ),
    "machine.paging.touch": (("repro.machine.paging", "AddressSpace.touch"),),
    "cache.access": (("repro.cache.hierarchy", "CacheHierarchy.access"),),
    "fs.timeline": (("repro.fs.reservation", "ReservationTimeline.reserve"),),
    "fs.buffercache": (("repro.fs.buffercache", "BufferCache.read_with"),),
    # The overlay: planning a pass, and each resumption of a relay
    # daemon (which the event scheduler drives, one step at a time).
    "dist.stage": (
        ("repro.dist.overlay", "DistributionOverlay.stage"),
        ("repro.dist.overlay", "RelayDaemon.steps"),
    ),
    "machine.scheduler": (("repro.machine.scheduler", "EventScheduler.run"),),
    "scenario.parse": (("repro.scenario.schema", "parse_spec_document"),),
    "results.load": (
        ("repro.results.store", "ResultsWarehouse.load"),
        ("repro.results.store", "ResultsWarehouse.load_by_result_key"),
    ),
    "results.store": (("repro.results.store", "ResultsWarehouse.store"),),
    "service.http": (
        ("repro.service.server", "SimulationServer._handle_connection"),
    ),
}


# -- per-layer counters taken at the boundary --------------------------------
# Each hook pair reads program state before and after one call and adds
# the difference to the layer's extra counters.  Reading (never writing)
# that state is the only contact the tracer has with the program; the
# probe-plan hook peeks at the plan memo to tell a replay from a build.


def _lookup_after(extra, args, result, _before):
    extra["probes"] = extra.get("probes", 0) + result.objects_probed


def _plan_before(args):
    table, name = args[0], args[1]
    return name in table._probe_plans


def _plan_after(extra, args, result, was_cached):
    key = "hits" if was_cached else "builds"
    extra[key] = extra.get(key, 0) + 1


def _touch_after(extra, args, faults, _before):
    if faults:
        major = sum(1 for fault in faults if fault.is_major)
        extra["major_faults"] = extra.get("major_faults", 0) + major


def _cache_before(args):
    hierarchy = args[0]
    return hierarchy.l1i.misses + hierarchy.l1d.misses + hierarchy.l2.misses


def _cache_after(extra, args, _penalty, before):
    hierarchy = args[0]
    after = hierarchy.l1i.misses + hierarchy.l1d.misses + hierarchy.l2.misses
    extra["misses"] = extra.get("misses", 0) + after - before


def _timeline_after(extra, args, begin, _before):
    arrival = args[1]
    extra["wait_sim_s"] = extra.get("wait_sim_s", 0.0) + (begin - arrival)


def _buffercache_before(args):
    cache = args[0]
    return cache.hits, cache.misses


def _buffercache_after(extra, args, _seconds, before):
    cache = args[0]
    extra["page_hits"] = extra.get("page_hits", 0) + cache.hits - before[0]
    extra["page_misses"] = (
        extra.get("page_misses", 0) + cache.misses - before[1]
    )


def _stage_after(extra, args, plan, _before):
    extra["relay_sends"] = extra.get("relay_sends", 0) + plan.relay_sends
    extra["source_reads"] = extra.get("source_reads", 0) + plan.source_reads


def _scheduler_before(args):
    return args[0].steps_run


def _scheduler_after(extra, args, _result, before):
    extra["steps"] = extra.get("steps", 0) + args[0].steps_run - before


#: layer -> (before hook or None, after hook).
HOOKS = {
    "linker.lookup": (None, _lookup_after),
    "elf.probe_plan": (_plan_before, _plan_after),
    "machine.paging.touch": (None, _touch_after),
    "cache.access": (_cache_before, _cache_after),
    "fs.timeline": (None, _timeline_after),
    "fs.buffercache": (_buffercache_before, _buffercache_after),
    "dist.stage": (None, _stage_after),
    "machine.scheduler": (_scheduler_before, _scheduler_after),
}


class Tracer:
    """Accumulates span sums per layer, per thread; merged on snapshot."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _state(self):
        """This thread's (span stack, layer table), created on first use."""
        try:
            return self._local.state
        except AttributeError:
            table: dict = {}
            with self._lock:
                self._tables.append(table)
            self._local.state = ([], table)
            return self._local.state

    def _record(self, layer: str):
        """The record a layer accumulates into on this thread."""
        stack, table = self._state()
        record = table.get(layer)
        if record is None:
            record = table[layer] = [0, 0.0, 0.0, {}]
        return stack, record

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around a block (the benchmark's root span)."""
        stack, record = self._record(layer)
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            _close_span(stack, record, start, finished=True)

    def wrap(self, layer: str, fn):
        """A synchronous wrapper recording one span per call."""
        before, after = HOOKS.get(layer, (None, None))
        record_for = self._record
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, record = record_for(layer)
            state = before(args) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(record[3], args, result, state)
            return result

        return traced

    def wrap_resumable(self, layer: str, fn):
        """Wrap a coroutine or generator function: one span per resumption.

        A request handler suspends at every ``await`` and a relay daemon
        at every ``yield``; only the time a step runs is the layer's own,
        so each resumption is a span and the waits between them are not
        counted.  The call counts once, when it finishes.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                return await _resumptions(tracer, layer, fn(*args, **kwargs))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return _resumptions(tracer, layer, fn(*args, **kwargs))

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of LAYERS, for the rest of the process.

        Module-level functions are also replaced wherever another
        ``repro`` module imported them by name, so callers that bound the
        function at import time see the wrapper too.
        """
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                if inspect.iscoroutinefunction(
                    original
                ) or inspect.isgeneratorfunction(original):
                    wrapper = self.wrap_resumable(layer, original)
                else:
                    wrapper = self.wrap(layer, original)
                setattr(owner, attr, wrapper)
                if owner is module:
                    for name, other in list(sys.modules.items()):
                        if other is module or not name.startswith("repro"):
                            continue
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapper)

    # -- results ---------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (e.g. in a forked child)."""
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        """{layer: {calls, total_s, self_s, **counters}} over all threads."""
        merged: dict = {}
        for table in list(self._tables):
            for layer, (calls, total, own, extra) in list(table.items()):
                entry = merged.setdefault(
                    layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += own
                for key, value in extra.items():
                    entry[key] = entry.get(key, 0) + value
        return merged


@types.coroutine
def _resumptions(tracer: Tracer, layer: str, inner):
    """Drive a generator or coroutine, recording each resumption as a span.

    Values sent and exceptions thrown in are relayed to ``inner``, so
    the wrapper is transparent to an event loop or a scheduler.
    """
    value, error = None, None
    while True:
        stack, record = tracer._record(layer)
        stack.append(0.0)
        start = time.perf_counter()
        try:
            if error is None:
                yielded = inner.send(value)
            else:
                yielded = inner.throw(error)
        except StopIteration as stop:
            _close_span(stack, record, start, finished=True)
            return stop.value
        except BaseException:
            _close_span(stack, record, start, finished=True)
            raise
        _close_span(stack, record, start, finished=False)
        try:
            value, error = (yield yielded), None
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # relayed into the inner frame
            value, error = None, exc


def _close_span(stack, record, start: float, finished: bool) -> None:
    """End one resumption span; a finished call counts once."""
    elapsed = time.perf_counter() - start
    child = stack.pop()
    if finished:
        record[0] += 1
    record[1] += elapsed
    record[2] += elapsed - child
    if stack:
        stack[-1] += elapsed


def metric(value: float, unit: str) -> dict:
    """One entry of a result's ``metrics`` object."""
    return {"value": value, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    layers: dict,
    wall_s: float,
    overhead_frac: float,
    service: "dict | None" = None,
) -> dict:
    """The ``per_layer`` metrics from a merged snapshot.

    ``wall_s`` is the traced time the layers share: the root span of a
    simulation cell, or the busy CPU time of the service processes.
    ``service`` carries the two service metrics read over HTTP.  A layer
    the workload never reached reports zeros.
    """

    def get(layer: str, key: str, default=0):
        return layers.get(layer, {}).get(key, default)

    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = metric(value, unit)

    for layer in (
        "linker.lookup",
        "elf.probe_plan",
        "machine.access",
        "cache.access",
        "fs.timeline",
        "results.load",
        "results.store",
    ):
        put(f"{layer}.calls", get(layer, "calls"), "count")
    for layer in (
        "linker.lookup",
        "elf.probe_plan",
        "machine.access",
        "machine.paging.touch",
        "cache.access",
        "fs.timeline",
        "fs.buffercache",
        "dist.stage",
        "machine.scheduler",
        "core.generate",
        "core.build",
        "scenario.parse",
        "results.load",
        "results.store",
        "service.http",
    ):
        put(f"{layer}.self_s", get(layer, "self_s", 0.0), "s")
    put(
        "linker.probes_per_lookup",
        _ratio(get("linker.lookup", "probes"), get("linker.lookup", "calls")),
        "ratio",
    )
    put(
        "elf.probe_plan.hit_ratio",
        _ratio(get("elf.probe_plan", "hits"), get("elf.probe_plan", "calls")),
        "ratio",
    )
    put("machine.paging.major_faults", get("machine.paging.touch", "major_faults"), "count")
    put("cache.misses", get("cache.access", "misses"), "count")
    put("fs.timeline.wait_sim_s", get("fs.timeline", "wait_sim_s", 0.0), "s")
    hits = get("fs.buffercache", "page_hits")
    put(
        "fs.buffercache.hit_ratio",
        _ratio(hits, hits + get("fs.buffercache", "page_misses")),
        "ratio",
    )
    put("dist.relay_sends", get("dist.stage", "relay_sends"), "count")
    put("dist.source_reads", get("dist.stage", "source_reads"), "count")
    steps = get("machine.scheduler", "steps")
    put("machine.scheduler.steps", steps, "count")
    put(
        "machine.scheduler.us_per_step",
        _ratio(get("machine.scheduler", "self_s", 0.0) * 1e6, steps),
        "us",
    )
    service = service or {}
    put(
        "service.warehouse_hit_ratio",
        service.get("warehouse_hit_ratio", 0.0),
        "ratio",
    )
    put("service.queue_wait_s", service.get("queue_wait_s", 0.0), "s")
    attributed = sum(
        entry["self_s"] for name, entry in layers.items() if name != "cell"
    )
    put("trace.overhead_frac", overhead_frac, "ratio")
    put(
        "trace.unattributed_frac",
        max(0.0, 1.0 - _ratio(attributed, wall_s)),
        "ratio",
    )
    return metrics
