"""Checkpoint manager, rollback-replay, and graceful degradation."""

import pytest

from repro.core.dnode import DnodeMode
from repro.core.isa import NOP_WORD
from repro.core.snapshot import state_digest
from repro.core.switch import PortKind
from repro.errors import ConfigurationError, SimulationError
from repro.robustness import (
    CheckpointManager,
    degradation_report,
    disable_dnode,
    remap_around,
    rollback_replay,
    throughput,
)

from tests.conftest import assert_rung_ran
from tests.robustness.conftest import ENGINES, make_busy_ring


class TestCheckpointManager:
    def test_baseline_checkpoint_at_construction(self):
        ring = make_busy_ring()
        manager = CheckpointManager(ring, every=8)
        assert len(manager.checkpoints) == 1
        assert manager.latest.cycles == 0
        assert ring.checkpoints == 1

    def test_periodic_capture(self):
        ring = make_busy_ring()
        manager = CheckpointManager(ring, every=8, keep=10)
        manager.run(24)
        assert [s.cycles for s in manager.checkpoints] == [0, 8, 16, 24]
        assert ring.checkpoints == 4

    def test_retention_bound(self):
        ring = make_busy_ring()
        manager = CheckpointManager(ring, every=4, keep=2)
        manager.run(20)
        assert [s.cycles for s in manager.checkpoints] == [16, 20]

    def test_rollback_restores_latest(self):
        ring = make_busy_ring()
        manager = CheckpointManager(ring, every=8)
        manager.run(8)
        at_checkpoint = state_digest(ring)
        manager.run(5)  # off-interval tail
        assert state_digest(ring) != at_checkpoint
        manager.rollback()
        assert state_digest(ring) == at_checkpoint
        assert ring.rollbacks == 1

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ConfigurationError, match="interval"):
            CheckpointManager(make_busy_ring(), every=0)
        with pytest.raises(ConfigurationError, match="keep"):
            CheckpointManager(make_busy_ring(), every=4, keep=0)


class TestRollbackReplay:
    @pytest.mark.parametrize("engine,kwargs", ENGINES,
                             ids=[name for name, _ in ENGINES])
    def test_converges_to_golden(self, engine, kwargs):
        golden = make_busy_ring(**kwargs)
        with golden.profile() as profile:
            golden.run(20)
        target_digest = state_digest(golden)
        assert_rung_ran(engine, golden, profile)

        ring = make_busy_ring(**kwargs)
        manager = CheckpointManager(ring, every=8)
        manager.run(14)
        ring.dnode(0, 0).regs._values[0] ^= 0x40  # corrupt mid-interval
        digest = manager.rollback_replay(20)
        assert digest == target_digest
        assert ring.rollbacks == 1
        assert ring.recovery_cycles == 12  # cycle 8 -> 20

    def test_counts_recovery_cycles(self):
        ring = make_busy_ring()
        manager = CheckpointManager(ring, every=4)
        manager.run(4)
        manager.rollback_replay(10)
        manager.rollback_replay(10)
        assert ring.recovery_cycles == 12
        assert ring.rollbacks == 2

    def test_replay_backwards_rejected(self):
        ring = make_busy_ring()
        manager = CheckpointManager(ring, every=4)
        manager.run(8)
        with pytest.raises(SimulationError, match="backwards"):
            rollback_replay(ring, manager.latest, 3)


class TestGracefulDegradation:
    def test_disable_parks_on_nop_and_invalidates(self):
        ring = make_busy_ring()
        ring.run(6)
        assert ring._steady
        disable_dnode(ring, 0, 0)
        assert not ring._steady
        dn = ring.dnode(0, 0)
        assert dn.mode is DnodeMode.LOCAL
        assert dn.local.slots()[0] == NOP_WORD

    def test_remap_repoints_consumers(self):
        ring = make_busy_ring()
        # Switch 1 routes 0.1 <- up0: d1.0 consumes d0.0.
        remapped = remap_around(ring, 0, 0)
        assert [(sw, pos, port) for sw, pos, port, _ in remapped] == \
            [(1, 0, 1)]
        after = ring.switch(1).config.source_for(0, 1)
        assert after.kind is PortKind.UP and after.index == 1

    def test_remap_needs_a_spare_column(self):
        from repro.core.ring import Ring, RingGeometry

        ring = Ring(RingGeometry(layers=3, width=1))
        with pytest.raises(ConfigurationError, match="width-1"):
            remap_around(ring, 0, 0)

    def test_degradation_is_measured(self):
        baseline_ring = make_busy_ring()
        baseline = throughput(baseline_ring, 64)
        degraded_ring = make_busy_ring()
        disable_dnode(degraded_ring, 1, 0)  # the MAC worker
        remap_around(degraded_ring, 1, 0)
        degraded = throughput(degraded_ring, 64)
        report = degradation_report(baseline, degraded)
        assert report["degraded_ops_per_cycle"] < \
            report["baseline_ops_per_cycle"]
        assert 0.0 < report["throughput_ratio"] < 1.0
        assert report["throughput_loss_percent"] > 0

    def test_degraded_fabric_still_runs(self):
        ring = make_busy_ring()
        ring.run(10)
        disable_dnode(ring, 0, 0)
        remap_around(ring, 0, 0)
        ring.run(20)  # must not raise; plan recompiles around the hole
        assert ring.cycles == 30
