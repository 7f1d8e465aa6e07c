"""The L1I / L1D / unified-L2 hierarchy with PAPI-style counters.

The hierarchy converts byte-granular accesses into per-line lookups and
returns the *cycle penalty* each access incurs, which the execution context
adds to the simulated clock.  Counters are cumulative; the PAPI facade in
:mod:`repro.perf.papi` snapshots them to produce per-phase deltas the way
the paper's instrumented driver does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig


class AccessKind(enum.Enum):
    """Which port an access uses (selects L1I vs. L1D)."""

    INSTRUCTION = "instruction"
    DATA_READ = "data_read"
    DATA_WRITE = "data_write"


@dataclass(frozen=True)
class MissCounts:
    """A snapshot of the hierarchy's cumulative counters."""

    l1d_accesses: int
    l1d_misses: int
    l1i_accesses: int
    l1i_misses: int
    l2_accesses: int
    l2_misses: int

    def minus(self, earlier: "MissCounts") -> "MissCounts":
        """Counter delta between this snapshot and an earlier one."""
        return MissCounts(
            l1d_accesses=self.l1d_accesses - earlier.l1d_accesses,
            l1d_misses=self.l1d_misses - earlier.l1d_misses,
            l1i_accesses=self.l1i_accesses - earlier.l1i_accesses,
            l1i_misses=self.l1i_misses - earlier.l1i_misses,
            l2_accesses=self.l2_accesses - earlier.l2_accesses,
            l2_misses=self.l2_misses - earlier.l2_misses,
        )


class CacheHierarchy:
    """Two-level hierarchy: split L1, unified L2, inclusive fills."""

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        l2_hit_penalty: int = 12,
        memory_penalty: int = 80,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.l1i = Cache(self.config.l1i, "L1I")
        self.l1d = Cache(self.config.l1d, "L1D")
        self.l2 = Cache(self.config.l2, "L2")
        #: Cycle penalties are *effective* (they assume some overlap with
        #: execution); see CostModel for the calibration discussion.
        self.l2_hit_penalty = l2_hit_penalty
        self.memory_penalty = memory_penalty
        self._line_shift = self.config.line_bytes.bit_length() - 1

    def access(self, address: int, size: int, kind: AccessKind) -> int:
        """Access ``size`` bytes at ``address``; return the cycle penalty.

        Each line goes to the L1 of ``kind`` and, on an L1 miss, to the
        L2, exactly as :meth:`Cache.access` would take it; the LRU tag
        lists and counters of both levels are updated here inline, as
        this is the simulator's innermost loop.
        """
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        shift = self._line_shift
        first = address >> shift
        last = (address + size - 1) >> shift
        l1 = self.l1i if kind is AccessKind.INSTRUCTION else self.l1d
        l1_sets = l1._sets
        l1.accesses += last - first + 1
        penalty = 0
        for line in range(first, last + 1):
            tags = l1_sets[line % len(l1_sets)]
            if line in tags:
                if tags[0] != line:
                    tags.remove(line)
                    tags.insert(0, line)
                continue
            l1.misses += 1
            tags.insert(0, line)
            if len(tags) > l1.config.ways:
                tags.pop()
            l2 = self.l2
            l2.accesses += 1
            tags = l2._sets[line % len(l2._sets)]
            if line in tags:
                if tags[0] != line:
                    tags.remove(line)
                    tags.insert(0, line)
                penalty += self.l2_hit_penalty
                continue
            l2.misses += 1
            tags.insert(0, line)
            if len(tags) > l2.config.ways:
                tags.pop()
            penalty += self.memory_penalty
        return penalty

    def line_count(self, size: int, address: int = 0) -> int:
        """Number of lines an access of ``size`` bytes at ``address`` spans."""
        first = address >> self._line_shift
        last = (address + size - 1) >> self._line_shift
        return last - first + 1

    def counters(self) -> MissCounts:
        """Snapshot the cumulative access/miss counters."""
        return MissCounts(
            l1d_accesses=self.l1d.accesses,
            l1d_misses=self.l1d.misses,
            l1i_accesses=self.l1i.accesses,
            l1i_misses=self.l1i.misses,
            l2_accesses=self.l2.accesses,
            l2_misses=self.l2.misses,
        )

    def flush(self) -> None:
        """Invalidate all levels (e.g. at process start)."""
        self.l1i.invalidate_all()
        self.l1d.invalidate_all()
        self.l2.invalidate_all()
