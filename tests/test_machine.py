"""The machine substrate: clock, costs, OS profiles, nodes, cluster."""

import pytest

from repro.errors import ConfigError
from repro.machine.clock import SimClock
from repro.machine.cluster import Cluster
from repro.machine.context import ExecutionContext
from repro.machine.costs import CostModel
from repro.machine.node import Node
from repro.machine.osprofile import aix32, bluegene, linux_chaos
from repro.units import MIB


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().cycles == 0
        assert SimClock().seconds == 0.0

    def test_add_cycles(self):
        clock = SimClock(frequency_hz=1000)
        clock.add_cycles(500)
        assert clock.seconds == pytest.approx(0.5)

    def test_add_seconds(self):
        clock = SimClock(frequency_hz=1000)
        clock.add_seconds(2.0)
        assert clock.cycles == 2000

    def test_advance_to_never_goes_back(self):
        clock = SimClock()
        clock.add_cycles(100)
        clock.advance_to(50)
        assert clock.cycles == 100
        clock.advance_to(200)
        assert clock.cycles == 200

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            SimClock().add_cycles(-1)
        with pytest.raises(ConfigError):
            SimClock().add_seconds(-0.5)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ConfigError):
            SimClock(frequency_hz=0)


class TestCostModel:
    def test_conversions_round_trip(self):
        costs = CostModel()
        assert costs.cycles_to_seconds(costs.seconds_to_cycles(0.25)) == pytest.approx(
            0.25
        )

    def test_instructions_respect_cpi(self):
        costs = CostModel(cycles_per_instruction=2.0)
        assert costs.instructions_to_cycles(100) == 200

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            CostModel(dlopen_relookup_fraction=1.5)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ConfigError):
            CostModel(page_bytes=3000)

    def test_negative_instructions_rejected(self):
        with pytest.raises(ConfigError):
            CostModel().instructions_to_cycles(-5)


class TestOsProfiles:
    def test_linux_defaults(self):
        profile = linux_chaos()
        assert profile.demand_paging
        assert profile.text_limit_bytes is None
        assert not profile.ptrace_reinsert_breakpoints

    def test_aix_has_text_limit_and_reinsert(self):
        profile = aix32()
        assert profile.text_limit_bytes == 256 * MIB
        assert profile.ptrace_reinsert_breakpoints

    def test_bluegene_disables_paging(self):
        assert not bluegene().demand_paging

    def test_randomization_flag(self):
        assert linux_chaos(randomize_load_addresses=True).randomize_load_addresses


class TestNodeAndCluster:
    def test_node_clock_independent(self):
        cluster = Cluster(n_nodes=2)
        cluster.nodes[0].clock.add_seconds(1.0)
        assert cluster.nodes[1].seconds == 0.0

    def test_barrier_synchronizes(self):
        cluster = Cluster(n_nodes=3)
        cluster.nodes[1].clock.add_seconds(2.0)
        synced = cluster.barrier()
        assert synced == pytest.approx(2.0)
        assert all(node.seconds == pytest.approx(2.0) for node in cluster.nodes)

    def test_rank_placement_block(self):
        cluster = Cluster(n_nodes=4)
        # 32 ranks on 4 nodes: 8 per node.
        assert cluster.node_for_rank(0, 32) is cluster.nodes[0]
        assert cluster.node_for_rank(7, 32) is cluster.nodes[0]
        assert cluster.node_for_rank(8, 32) is cluster.nodes[1]
        assert cluster.node_for_rank(31, 32) is cluster.nodes[3]

    def test_nodes_for_job(self):
        cluster = Cluster(n_nodes=4)
        assert len(cluster.nodes_for_job(32)) == 4
        assert len(cluster.nodes_for_job(8)) == 1

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigError):
            Cluster(n_nodes=2).node_for_rank(12, 12)

    def test_oversubscription_rejected(self):
        cluster = Cluster(n_nodes=2, cores_per_node=4)
        with pytest.raises(ConfigError, match="do not fit"):
            cluster.validate_job_size(9)
        with pytest.raises(ConfigError, match="do not fit"):
            cluster.node_for_rank(0, 9)
        with pytest.raises(ConfigError, match="do not fit"):
            cluster.nodes_for_job(9)
        # A job that exactly fills the cores is fine.
        cluster.validate_job_size(8)
        assert len(cluster.nodes_for_job(8)) == 2

    def test_spawn_process(self):
        node = Node()
        process = node.spawn(env={"LD_BIND_NOW": "1"})
        assert process.bind_now
        assert process in node.processes

    def test_bind_now_unset(self):
        node = Node()
        assert not node.spawn().bind_now
        assert not node.spawn(env={"LD_BIND_NOW": "0"}).bind_now

    def test_drop_buffer_caches(self, cluster):
        from repro.fs.files import FileImage

        image = FileImage(path="/f", size_bytes=8192, filesystem=cluster.nfs)
        node = cluster.nodes[0]
        node.buffer_cache.read(image)
        assert node.buffer_cache.resident_bytes() > 0
        cluster.drop_buffer_caches()
        assert node.buffer_cache.resident_bytes() == 0

    def test_cluster_needs_a_node(self):
        with pytest.raises(ConfigError):
            Cluster(n_nodes=0)


class TestContextAccessFastPath:
    """The access kinds skip the page walk only on one resident page."""

    KINDS = ("ifetch", "dread", "dwrite")

    def _setup(self):
        process = Node().spawn()
        ctx = ExecutionContext(process)
        mapping = process.address_space.map(4 * 4096, name="anon")
        return process.address_space, ctx, mapping

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("size", [0, -1])
    def test_non_positive_size_rejected(self, kind, size):
        aspace, ctx, mapping = self._setup()
        ctx.dread(mapping.start, 8)  # the page is present: no shortcut
        with pytest.raises(ConfigError):
            getattr(ctx, kind)(mapping.start + 100, size)

    @pytest.mark.parametrize("kind", KINDS)
    def test_crossing_into_absent_page_faults_it(self, kind):
        aspace, ctx, mapping = self._setup()
        page = aspace.page_bytes
        getattr(ctx, kind)(mapping.start, 8)
        assert ctx.minor_faults == 1
        assert not aspace.is_resident(mapping.start + page)
        # Starts on the resident first page, ends on the absent second.
        getattr(ctx, kind)(mapping.start + page - 4, 8)
        assert ctx.minor_faults == 2
        assert aspace.is_resident(mapping.start + page)

    @pytest.mark.parametrize("kind", KINDS)
    def test_repeat_on_present_page_skips_the_walk(self, kind, monkeypatch):
        aspace, ctx, mapping = self._setup()
        access = getattr(ctx, kind)
        access(mapping.start + 100, 16)
        before = (ctx.minor_faults, ctx.major_faults, ctx.major_fault_bytes)
        walks = []
        monkeypatch.setattr(
            aspace, "touch", lambda *args: walks.append(args) or []
        )
        access(mapping.start + 100, 16)
        access(mapping.start + 2048, 64)
        after = (ctx.minor_faults, ctx.major_faults, ctx.major_fault_bytes)
        assert after == before
        assert walks == []
