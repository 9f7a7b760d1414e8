"""Tests for fabric checkpoint/restore."""

import pytest

from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.macropath import SteadyPlan
from repro.core.plancache import KERNELS
from repro.core.ring import Ring, RingGeometry, make_ring
from repro.core.snapshot import capture, restore
from repro.core.switch import PortSource
from repro.errors import SimulationError


def busy_ring():
    """A ring with every kind of live state: registers, OUT values,
    pipeline contents, FIFO backlogs, a mid-loop local counter."""
    ring = make_ring(8)
    cfg = ring.config
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=3))
    cfg.write_local_program(1, 0, [
        MicroWord(Opcode.MAC, Source.FIFO1, Source.FIFO2, Dest.R0,
                  flags=Flag.POP_FIFO1 | Flag.POP_FIFO2),
        MicroWord(Opcode.MOV, Source.R0, dst=Dest.OUT),
        MicroWord(Opcode.NOP),
    ])
    cfg.write_mode(1, 0, DnodeMode.LOCAL)
    cfg.write_switch_route(2, 0, 1, PortSource.rp(2, 1))
    cfg.write_microword(2, 0, MicroWord(Opcode.MOV, Source.IN1,
                                        dst=Dest.OUT))
    ring.push_fifo(1, 0, 1, [2, 3, 4, 5, 6, 7, 8])
    ring.push_fifo(1, 0, 2, [10, 10, 10, 10, 10, 10, 10])
    ring.run(5, host_in=lambda ch: 1)
    return ring


def fabric_state(ring):
    return {
        "outs": [dn.out for dn in ring.all_dnodes()],
        "regs": [dn.regs.snapshot() for dn in ring.all_dnodes()],
        "counters": [dn.local.counter for dn in ring.all_dnodes()],
        "pipes": [[ring.switch(k).rp_read(s, l)
                   for s in range(1, 5) for l in (1, 2)]
                  for k in range(4)],
        "fifos": [list(ring.fifo(1, 0, ch)) for ch in (1, 2)],
        "cycles": ring.cycles,
    }


class TestCaptureRestore:
    def test_state_restored_exactly(self):
        source = busy_ring()
        snapshot = capture(source)
        target = make_ring(8)
        restore(target, snapshot)
        assert fabric_state(target) == fabric_state(source)

    def test_restored_ring_continues_identically(self):
        """The acid test: run the original and the restored ring forward
        and require cycle-for-cycle identical evolution."""
        source = busy_ring()
        snapshot = capture(source)
        target = make_ring(8)
        restore(target, snapshot)
        for _ in range(6):
            source.step(host_in=lambda ch: 1)
            target.step(host_in=lambda ch: 1)
            assert fabric_state(target) == fabric_state(source)

    def test_snapshot_is_independent_of_source(self):
        source = busy_ring()
        snapshot = capture(source)
        cycles_at_capture = snapshot.cycles
        source.run(3, host_in=lambda ch: 1)
        assert snapshot.cycles == cycles_at_capture

    def test_geometry_mismatch_rejected(self):
        snapshot = capture(busy_ring())
        with pytest.raises(SimulationError, match="snapshot"):
            restore(make_ring(16), snapshot)

    def test_mid_loop_local_counter_preserved(self):
        source = busy_ring()  # period-3 local loop after 5 cycles
        assert source.dnode(1, 0).local.counter == 5 % 3
        target = make_ring(8)
        restore(target, capture(source))
        assert target.dnode(1, 0).local.counter == 5 % 3

    def test_restore_over_dirty_ring(self):
        """Restoring discards whatever the target was doing."""
        source = busy_ring()
        snapshot = capture(source)
        target = busy_ring()
        target.run(7, host_in=lambda ch: 2)
        restore(target, snapshot)
        assert fabric_state(target) == fabric_state(source)


# -- property-based round-trips across every engine -------------------


from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.nativepath import native_period  # noqa: E402
from repro.core.snapshot import state_digest  # noqa: E402

from tests.conftest import rung_seam  # noqa: E402
from tests.core.test_fuzz import build_ring, ring_specs  # noqa: E402

#: (id, Ring kwargs) per engine; "macro" and "fastpath" are native rings
#: run under ``rung_seam``, so they take the macro rung, the second one
#: cycle per kernel call.
_ENGINES = [
    ("interpreter", dict(backend="interpreter")),
    ("fastpath", dict(backend="native")),
    ("native", dict(backend="native")),
    ("macro", dict(backend="native")),
    ("batch", dict(backend="batch", batch_size=4)),
]


class TestRoundTripProperty:
    """capture -> step K -> restore -> step K is bit-identical, on every
    execution engine, for arbitrary fabrics and warmup/replay windows."""

    @pytest.mark.parametrize("engine", _ENGINES,
                             ids=[name for name, _ in _ENGINES])
    @given(spec=ring_specs(), warmup=st.integers(0, 12),
           k=st.integers(1, 16), bus=st.integers(0, 0xFFFF))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_capture_step_restore_step(self, engine, spec, warmup, k, bus):
        name, kwargs = engine
        with rung_seam(name):
            ring = build_ring(spec, **kwargs)
            # Both the forward and the replayed run of the macro rung
            # are made long enough to reach it and to cross a whole
            # sequencer period.
            macro = name in ("macro", "fastpath")
            if macro:
                k += native_period(ring) + 3
            ring.run(warmup, bus=bus, host_in=lambda ch: bus & 0xFF)
            snapshot = capture(ring)
            ring.run(k, bus=bus, host_in=lambda ch: bus & 0xFF)
            first = state_digest(ring)
            fused = ring.macro_cycles
            restore(ring, snapshot)
            assert state_digest(ring) == snapshot_digest_of(snapshot, ring)
            ring.run(k, bus=bus, host_in=lambda ch: bus & 0xFF)
            assert state_digest(ring) == first
        if macro:
            assert fused > 0 and ring.macro_cycles > fused
            assert ring.native_cycles == 0

    @given(spec=ring_specs(), warmup=st.integers(1, 12),
           k=st.integers(1, 12))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_batch_round_trip_covers_every_lane(self, spec, warmup, k):
        """Per-lane state survives the round trip: the digest's lane
        block (not just the scalar mirror) must replay identically."""
        ring = build_ring(spec, backend="batch", batch_size=4)
        ring.run(warmup, host_in=lambda ch: (ch + 1) * 3)
        snapshot = capture(ring)
        assert snapshot.lanes is not None
        ring.run(k, host_in=lambda ch: (ch + 1) * 3)
        first = state_digest(ring)
        lanes_block = first[-1]
        assert lanes_block, "batch digest lost its per-lane block"
        restore(ring, snapshot)
        ring.run(k, host_in=lambda ch: (ch + 1) * 3)
        again = state_digest(ring)
        assert again == first
        assert again[-1] == lanes_block


def snapshot_digest_of(snapshot, ring):
    """The digest the restored ring must present for *snapshot*."""
    from repro.core.snapshot import snapshot_digest
    return snapshot_digest(snapshot)


class TestObservabilityRoundTrip:
    """Statistics and diagnostics counters are part of the snapshot."""

    def test_stats_and_diagnostics_restore(self):
        source = busy_ring()
        source.run(40, host_in=lambda ch: 1)  # drain FIFOs -> underflows
        assert source.fifo_underflows > 0
        snapshot = capture(source)
        target = make_ring(8)
        restore(target, snapshot)
        assert target.fifo_underflows == source.fifo_underflows
        assert target.fifo_high_water == source.fifo_high_water
        assert target.last_bus == source.last_bus
        for a, b in zip(target.all_dnodes(), source.all_dnodes()):
            assert (a.stats.cycles, a.stats.instructions,
                    a.stats.arithmetic_ops, a.stats.multiplies,
                    a.stats.fifo_pops) == \
                (b.stats.cycles, b.stats.instructions,
                 b.stats.arithmetic_ops, b.stats.multiplies,
                 b.stats.fifo_pops)

    def test_restore_drops_compiled_plan(self):
        """The restore-invalidation contract: a restored ring must not
        keep executing a plan compiled for its pre-restore state.  The
        active plan is dropped (invalidation listeners fire) and may only
        come back through a fingerprint-cache hit for the *restored*
        configuration."""
        source = busy_ring()
        snapshot = capture(source)
        target = busy_ring()
        target.run(4, host_in=lambda ch: 1)
        assert target._steady
        invalidations = target.plan_invalidations
        compiles = target.plan_compiles, target.native_compiles
        restore(target, snapshot)
        assert target.plan_invalidations == invalidations + 1
        # busy_ring() twins share a configuration, so the target's cache
        # already holds a kernel for the restored fingerprint and the
        # restore re-adopts it eagerly — without a recompile.
        assert any(isinstance(plan, SteadyPlan)
                   for plan in target._steady.values())
        assert (target.plan_compiles, target.native_compiles) == compiles

    def test_restore_to_unknown_config_leaves_no_plan(self):
        """With no cached plan for the restored fingerprint, restore must
        not conjure one up (no hidden recompile).  The source ring's
        kernels are dropped from the process-wide cache, so the restored
        configuration is unknown to the whole process."""
        source = busy_ring()
        snapshot = capture(source)
        KERNELS.clear()
        target = make_ring(8)
        target.config.write_microword(3, 1, MicroWord(
            Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=9))
        target.run(4, host_in=lambda ch: 1)
        compiles = target.plan_compiles, target.native_compiles
        restore(target, snapshot)
        assert not target._steady
        assert (target.plan_compiles, target.native_compiles) == compiles

    def test_capture_has_no_side_effects(self):
        """capture() must not materialize FIFO queues: digests before
        and after a capture are equal, on the same ring."""
        ring = busy_ring()
        before = state_digest(ring)
        capture(ring)
        assert state_digest(ring) == before
