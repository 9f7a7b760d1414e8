"""Fault-model unit tests: sites, determinism, injection mechanics."""

import pytest

from repro.core.dnode import DnodeMode
from repro.core.isa import NOP_WORD
from repro.core.regfile import NUM_REGISTERS
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.errors import ConfigurationError
from repro.robustness import FaultInjector, FaultKind, enumerate_sites
from repro.robustness.faults import CONFIG_KINDS, RUNTIME_KINDS, FaultSite

from tests.robustness.conftest import make_busy_ring


class TestEnumerateSites:
    def test_deterministic_order(self):
        a = enumerate_sites(make_busy_ring())
        b = enumerate_sites(make_busy_ring())
        assert a == b

    def test_register_sites_cover_every_register(self):
        sites = enumerate_sites(make_busy_ring(),
                                kinds=[FaultKind.REGISTER])
        assert len(sites) == 3 * 2 * NUM_REGISTERS
        assert all(s.kind is FaultKind.REGISTER for s in sites)

    def test_route_sites_only_cover_routed_ports(self):
        ring = make_busy_ring()  # exactly 3 routed ports
        sites = enumerate_sites(ring, kinds=[FaultKind.CONFIG_ROUTE])
        assert len(sites) == 3

    def test_kind_filter(self):
        sites = enumerate_sites(make_busy_ring(),
                                kinds=[FaultKind.OUT,
                                       FaultKind.STUCK_DNODE])
        assert {s.kind for s in sites} == {FaultKind.OUT,
                                           FaultKind.STUCK_DNODE}

    def test_no_sites_is_an_error(self):
        ring = make_busy_ring()
        with pytest.raises(ConfigurationError, match="no injectable"):
            FaultInjector(ring, seed=1, kinds=[FaultKind.STREAM_DROP])


class TestDeterminism:
    def test_same_seed_same_plan(self):
        plan_a = FaultInjector(make_busy_ring(), seed=42).plan(10, 0, 99)
        plan_b = FaultInjector(make_busy_ring(), seed=42).plan(10, 0, 99)
        assert plan_a == plan_b

    def test_different_seed_different_plan(self):
        plan_a = FaultInjector(make_busy_ring(), seed=1).plan(10, 0, 99)
        plan_b = FaultInjector(make_busy_ring(), seed=2).plan(10, 0, 99)
        assert plan_a != plan_b

    def test_plan_sorted_by_cycle(self):
        plan = FaultInjector(make_busy_ring(), seed=7).plan(20, 0, 999)
        assert [e.cycle for e in plan] == sorted(e.cycle for e in plan)


class TestRuntimeInjection:
    def test_register_flip_lands_and_counts(self):
        ring = make_busy_ring()
        inj = FaultInjector(ring, seed=0)
        event = _event(inj, FaultKind.REGISTER, (0, 0, 0), bit=3)
        before = ring.dnode(0, 0).regs.read(0)
        record = inj.inject(event)
        assert record.applied
        assert ring.dnode(0, 0).regs.read(0) == before ^ 0b1000
        assert ring.faults_injected == 1

    def test_out_flip_changes_digest(self):
        ring = make_busy_ring()
        ring.run(4)
        baseline = state_digest(ring)
        inj = FaultInjector(ring, seed=0)
        inj.inject(_event(inj, FaultKind.OUT, (0, 1), bit=0))
        assert state_digest(ring) != baseline

    def test_pipeline_flip(self):
        ring = make_busy_ring()
        ring.run(4)
        before = ring.switch(0).rp_read(2, 1)
        inj = FaultInjector(ring, seed=0)
        inj.inject(_event(inj, FaultKind.PIPELINE, (0, 2, 1), bit=5))
        assert ring.switch(0).rp_read(2, 1) == before ^ (1 << 5)

    def test_fifo_flip(self):
        ring = make_busy_ring()
        inj = FaultInjector(ring, seed=0)
        before = list(ring.fifo(1, 0, 1))
        inj.inject(_event(inj, FaultKind.FIFO, (1, 0, 1), bit=1, index=2))
        after = list(ring.fifo(1, 0, 1))
        assert after[2] == before[2] ^ 0b10
        assert after[:2] + after[3:] == before[:2] + before[3:]

    def test_fifo_flip_on_empty_queue_is_masked(self):
        ring = make_busy_ring()
        ring.fifo(2, 1, 2)  # materialize an empty queue -> a valid site
        inj = FaultInjector(ring, seed=0)
        record = inj.inject(_event(inj, FaultKind.FIFO, (2, 1, 2)))
        assert not record.applied
        assert ring.faults_injected == 1  # attempts still count

    def test_batch_flip_hits_every_lane(self):
        ring = make_busy_ring(backend="batch", batch_size=4)
        ring.run(4)
        engine = ring._batch_engine
        assert engine is not None
        before = engine.regs[0, 0, 0, :].copy()
        inj = FaultInjector(ring, seed=0)
        inj.inject(_event(inj, FaultKind.REGISTER, (0, 0, 0), bit=2))
        assert list(engine.regs[0, 0, 0, :]) == [v ^ 4 for v in before]
        # ... and the scalar mirror moved with lane 0.
        assert ring.dnode(0, 0).regs.read(0) == before[0] ^ 4


class TestConfigInjection:
    def test_config_word_flip_drops_compiled_plan(self):
        ring = make_busy_ring()
        ring.run(6)  # compile + adopt a kernel
        assert ring._steady
        invalidations = ring.plan_invalidations
        inj = FaultInjector(ring, seed=0)
        record = inj.inject(_event(inj, FaultKind.CONFIG_WORD, (0, 0)))
        assert record.applied
        assert not ring._steady
        assert ring.plan_invalidations > invalidations

    def test_config_word_flip_changes_word(self):
        ring = make_busy_ring()
        before = ring.dnode(0, 0).global_word
        inj = FaultInjector(ring, seed=0)
        inj.inject(_event(inj, FaultKind.CONFIG_WORD, (0, 0), bit=7))
        assert ring.dnode(0, 0).global_word != before

    def test_local_mode_flip_targets_a_slot(self):
        ring = make_busy_ring()
        before = ring.dnode(1, 0).local.slots()
        inj = FaultInjector(ring, seed=0)
        record = inj.inject(
            _event(inj, FaultKind.CONFIG_WORD, (1, 0), index=0))
        assert record.applied
        assert ring.dnode(1, 0).local.slots() != before

    def test_route_flip_yields_runnable_route(self):
        ring = make_busy_ring()
        before = ring.switch(1).config.source_for(0, 1)
        inj = FaultInjector(ring, seed=0)
        record = inj.inject(
            _event(inj, FaultKind.CONFIG_ROUTE, (1, 0, 1), bit=3))
        assert record.applied
        after = ring.switch(1).config.source_for(0, 1)
        assert after != before
        ring.run(8)  # corrupted-but-valid route must still execute

    def test_stuck_dnode_parks_on_nop(self):
        ring = make_busy_ring()
        inj = FaultInjector(ring, seed=0)
        inj.inject(_event(inj, FaultKind.STUCK_DNODE, (0, 0)))
        dn = ring.dnode(0, 0)
        assert dn.mode is DnodeMode.LOCAL
        assert dn.local.slots()[0] == NOP_WORD
        assert dn.local.limit == 1


class TestKindGroups:
    def test_every_kind_is_classified(self):
        assert set(RUNTIME_KINDS) | set(CONFIG_KINDS) == set(FaultKind)
        assert not set(RUNTIME_KINDS) & set(CONFIG_KINDS)


def _event(injector, kind, address, bit=0, index=0):
    """A targeted FaultEvent at an enumerated site (cycle 0)."""
    from repro.robustness.faults import FaultEvent

    site = FaultSite(kind, tuple(address))
    assert site in injector.sites, f"{site} not enumerable"
    return FaultEvent(cycle=0, site=site, bit=bit, index=index)
