"""The probe-plan memoization must be invisible to the model.

``instructions_to_cycles`` rounds *per call*, and the cache hierarchy
is stateful, so the memoized probe is only correct if it replays the
exact ``work``/``dread`` sequence — same order, addresses and sizes —
that the original walk issued.  These tests pin :meth:`_probe`
bit-identical against :meth:`_probe_reference` (the retained original)
through full simulations on both hash styles, and cover the cache's
invalidation and bloom-reject corners directly.
"""

import dataclasses

import pytest

from repro.core.runner import run_all_modes
from repro.elf import symbols
from repro.elf.symbols import (
    HashStyle,
    Symbol,
    SymbolKind,
    SymbolTable,
    strcmp_cost_chars,
)
from repro.harness import table1
from repro.linker.resolver import SymbolResolver
from repro.scenario import scenario_preset, simulate


def _table(style: HashStyle, names: "list[str]") -> SymbolTable:
    table = SymbolTable(hash_style=style)
    for i, name in enumerate(names):
        table.add(
            Symbol(name=name, kind=SymbolKind.FUNCTION, value=16 * i, size=16)
        )
    return table


class TestProbePlan:
    def test_plan_finds_the_symbol(self):
        table = _table(HashStyle.SYSV, ["alpha", "beta", "gamma"])
        plan = table.probe_plan("beta")
        assert plan.symbol is table.get("beta")
        assert plan.steps  # at least the matching entry was compared

    def test_plan_for_absent_name_has_no_symbol(self):
        table = _table(HashStyle.SYSV, ["alpha", "beta"])
        plan = table.probe_plan("delta")
        assert plan.symbol is None
        assert plan.bloom_pass  # SysV tables have no bloom reject

    def test_plan_is_cached_and_add_invalidates(self):
        table = _table(HashStyle.SYSV, ["alpha"])
        first = table.probe_plan("alpha")
        assert table.probe_plan("alpha") is first
        table.add(
            Symbol(name="beta", kind=SymbolKind.FUNCTION, value=16, size=16)
        )
        assert table.probe_plan("alpha") is not first

    def test_gnu_bloom_reject_skips_the_chain(self):
        table = _table(HashStyle.GNU, [f"sym_{i}" for i in range(64)])
        rejected = None
        for i in range(10_000):
            name = f"absent_{i}"
            if not table.bloom_maybe_contains(name):
                rejected = name
                break
        assert rejected is not None, "no bloom-rejected name found"
        plan = table.probe_plan(rejected)
        assert not plan.bloom_pass
        assert plan.steps == ()
        assert plan.symbol is None

    def test_plan_steps_match_reference_walk(self):
        names = [f"MPIDO_sym_{i:03d}" for i in range(32)]
        table = _table(HashStyle.SYSV, names)
        name = names[17]
        plan = table.probe_plan(name)
        bucket = table.bucket_of(name)
        assert plan.bucket_offset == table.bucket_slot_offset(bucket)
        chain = table.chain(bucket)
        for (entry_offset, chars, name_offset), index in zip(plan.steps, chain):
            candidate = table.at(index)
            assert entry_offset == table.symbol_entry_offset(index)
            assert chars == strcmp_cost_chars(name, candidate.name)
            assert name_offset == table.strings.offset_of(candidate.name)


@pytest.mark.parametrize("style", [HashStyle.SYSV, HashStyle.GNU])
def test_simulation_bit_identical_to_reference_probe(monkeypatch, style):
    """The whole point: memoized and reference probes produce the same
    JobReport to the last bit (cycle rounding, cache state and all)."""
    spec = dataclasses.replace(scenario_preset("tiny"), hash_style=style)
    memoized = simulate(spec)
    monkeypatch.setattr(
        SymbolResolver, "_probe", SymbolResolver._probe_reference
    )
    reference = simulate(spec)
    assert memoized == reference


def test_name_hashed_once_per_lookup(monkeypatch):
    """glibc hashes a name once per lookup, not once per probed table:
    on the smoke-scale Table I the hashes computed are bounded by one
    per lookup plus one per symbol indexed into a hash table."""
    counts = {"hashes": 0, "lookups": 0, "indexed": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(symbols, "elf_hash", counted(symbols.elf_hash, "hashes"))
    monkeypatch.setattr(symbols, "gnu_hash", counted(symbols.gnu_hash, "hashes"))
    monkeypatch.setattr(
        SymbolResolver, "lookup", counted(SymbolResolver.lookup, "lookups")
    )
    build_index = SymbolTable._build_index

    def counted_index(table):
        counts["indexed"] += len(table)
        build_index(table)

    monkeypatch.setattr(SymbolTable, "_build_index", counted_index)
    run_all_modes(table1.smoke_config())
    assert counts["lookups"] > 0 and counts["indexed"] > 0
    assert counts["hashes"] <= counts["lookups"] + counts["indexed"], counts
