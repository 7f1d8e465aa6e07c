"""The set-associative cache simulator (configs, one level, hierarchy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig, HierarchyConfig, opteron_hierarchy
from repro.cache.hierarchy import AccessKind, CacheHierarchy, MissCounts
from repro.errors import ConfigError


class TestCacheConfig:
    def test_opteron_l1_geometry(self):
        config = opteron_hierarchy()
        assert config.l1d.size_bytes == 64 * 1024
        assert config.l1d.ways == 2
        assert config.l1d.n_sets == 512
        assert config.line_bytes == 64

    def test_l2_geometry(self):
        config = opteron_hierarchy()
        assert config.l2.size_bytes == 1024 * 1024
        assert config.l2.ways == 16

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, ways=2, line_bytes=48)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=3, line_bytes=64)

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                l1i=CacheConfig(64 * 1024, 2, 64),
                l1d=CacheConfig(64 * 1024, 2, 128),
            )


class TestSingleCache:
    def _tiny(self, ways=2, sets=4):
        return Cache(CacheConfig(64 * ways * sets, ways), "t")

    def test_first_access_misses_then_hits(self):
        cache = self._tiny()
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.misses == 1 and cache.accesses == 2

    def test_lru_eviction(self):
        cache = self._tiny(ways=2, sets=1)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 0 becomes MRU
        cache.access(2)  # evicts 1 (the LRU)
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(2)

    def test_set_indexing_separates_lines(self):
        cache = self._tiny(ways=1, sets=4)
        for line in range(4):
            cache.access(line)
        assert cache.resident_lines() == 4
        assert cache.misses == 4

    def test_conflict_within_one_set(self):
        cache = self._tiny(ways=1, sets=4)
        cache.access(0)
        cache.access(4)  # same set (4 sets), evicts 0
        assert not cache.contains(0)

    def test_invalidate_all_preserves_counters(self):
        cache = self._tiny()
        cache.access(1)
        cache.invalidate_all()
        assert cache.resident_lines() == 0
        assert cache.accesses == 1

    def test_reset_counters_preserves_contents(self):
        cache = self._tiny()
        cache.access(1)
        cache.reset_counters()
        assert cache.accesses == 0
        assert cache.contains(1)

    def test_hits_property(self):
        cache = self._tiny()
        cache.access(1)
        cache.access(1)
        cache.access(1)
        assert cache.hits == 2


class TestHierarchy:
    def test_miss_to_memory_costs_more_than_l2(self):
        hierarchy = CacheHierarchy(l2_hit_penalty=10, memory_penalty=100)
        first = hierarchy.access(0, 8, AccessKind.DATA_READ)
        assert first == 100  # cold: miss everywhere
        hierarchy.l1d.invalidate_all()
        second = hierarchy.access(0, 8, AccessKind.DATA_READ)
        assert second == 10  # L1 evicted, L2 still holds it

    def test_hit_costs_nothing(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0, 8, AccessKind.DATA_READ)
        assert hierarchy.access(0, 8, AccessKind.DATA_READ) == 0

    def test_split_l1(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0, 8, AccessKind.INSTRUCTION)
        counts = hierarchy.counters()
        assert counts.l1i_misses == 1
        assert counts.l1d_misses == 0

    def test_multi_line_access(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0, 256, AccessKind.DATA_READ)  # 4 lines
        assert hierarchy.counters().l1d_accesses == 4

    def test_straddling_access(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(60, 8, AccessKind.DATA_READ)  # crosses a line
        assert hierarchy.counters().l1d_accesses == 2

    def test_counters_delta(self):
        hierarchy = CacheHierarchy()
        before = hierarchy.counters()
        hierarchy.access(0, 8, AccessKind.DATA_WRITE)
        delta = hierarchy.counters().minus(before)
        assert delta.l1d_accesses == 1
        assert delta.l1d_misses == 1

    def test_zero_size_rejected(self):
        hierarchy = CacheHierarchy()
        with pytest.raises(ValueError):
            hierarchy.access(0, 0, AccessKind.DATA_READ)

    def test_flush(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0, 8, AccessKind.DATA_READ)
        hierarchy.flush()
        assert hierarchy.access(0, 8, AccessKind.DATA_READ) > 0

    def test_line_count(self):
        hierarchy = CacheHierarchy()
        assert hierarchy.line_count(1) == 1
        assert hierarchy.line_count(64) == 1
        assert hierarchy.line_count(65) == 2
        assert hierarchy.line_count(8, address=60) == 2


def _per_line_oracle(levels, config, address, size, kind, l2_hit, memory):
    """One hierarchy access as a per-line composition of ``Cache.access``."""
    l1i, l1d, l2 = levels
    l1 = l1i if kind is AccessKind.INSTRUCTION else l1d
    shift = config.line_bytes.bit_length() - 1
    penalty = 0
    for line in range(address >> shift, ((address + size - 1) >> shift) + 1):
        if l1.access(line):
            continue
        penalty += l2_hit if l2.access(line) else memory
    return penalty


_GEOMETRIES = {
    "opteron": opteron_hierarchy(),
    # 384 L1 sets and 1536 L2 sets: neither is a power of two.
    "odd_sets": HierarchyConfig(
        l1i=CacheConfig(48 * 1024, 2),
        l1d=CacheConfig(48 * 1024, 2),
        l2=CacheConfig(1536 * 1024, 16),
    ),
}

# Addresses built as (tag * L2 sets + set) lines plus an offset land
# many distinct tags on a few sets, so short traces fill and evict
# both levels; sizes up to 200 bytes span up to five lines.
_TRACES = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(0, 3),
        st.integers(0, 63),
        st.integers(1, 200),
        st.sampled_from(list(AccessKind)),
    ),
    max_size=300,
)


@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
@settings(max_examples=60, deadline=None)
@given(trace=_TRACES)
def test_inlined_hierarchy_matches_per_line_oracle(geometry, trace):
    config = _GEOMETRIES[geometry]
    hierarchy = CacheHierarchy(config, l2_hit_penalty=12, memory_penalty=80)
    levels = (
        Cache(config.l1i, "L1I"),
        Cache(config.l1d, "L1D"),
        Cache(config.l2, "L2"),
    )
    l2_sets = config.l2.n_sets
    for tag, set_index, offset, size, kind in trace:
        address = (tag * l2_sets + set_index) * config.line_bytes + offset
        expected = _per_line_oracle(levels, config, address, size, kind, 12, 80)
        assert hierarchy.access(address, size, kind) == expected
    l1i, l1d, l2 = levels
    assert hierarchy.counters() == MissCounts(
        l1d_accesses=l1d.accesses,
        l1d_misses=l1d.misses,
        l1i_accesses=l1i.accesses,
        l1i_misses=l1i.misses,
        l2_accesses=l2.accesses,
        l2_misses=l2.misses,
    )
    inlined = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    for level, oracle in zip(inlined, levels):
        assert level._sets == oracle._sets
