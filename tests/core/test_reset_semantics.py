"""Ring.reset() counter semantics — the documented cleared/preserved
split (see the ``reset()`` docstring in :mod:`repro.core.ring`).

``reset()`` models a hardware datapath reset: *run* state is cleared,
*machine and host* state survives.  This file is the regression net —
every counter the ring owns is asserted to land on the right side, so a
future backend cannot silently change the contract.
"""

import gc
import weakref

import pytest

from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, restore

from tests.robustness.conftest import make_busy_ring


def run_hard(ring, cycles=12):
    """Drive the ring with enough variety to move every counter."""
    for _ in range(cycles):
        ring.step(bus=5, host_in=lambda ch: 1)
    return ring


class TestCleared:
    def test_run_state_clears(self):
        # 100 cycles drains the 40-word FIFO backlog, so the local MAC
        # loop underflows and every run-state counter moves.
        ring = run_hard(make_busy_ring(), cycles=100)
        assert ring.cycles and ring.fifo_high_water and ring.last_bus
        assert ring.fifo_underflows > 0
        ring.reset()
        assert ring.cycles == 0
        assert ring.fifo_underflows == 0
        assert ring.fifo_high_water == {}
        assert ring.last_bus == 0

    def test_dnode_stats_and_counters_clear(self):
        ring = run_hard(make_busy_ring())
        ring.reset()
        for dn in ring.all_dnodes():
            assert dn.stats.cycles == 0
            assert dn.stats.instructions == 0
            assert dn.stats.arithmetic_ops == 0
            assert dn.stats.multiplies == 0
            assert dn.stats.fifo_pops == 0
            assert dn.local.counter == 0
            assert dn.out == 0
            assert dn.regs.snapshot() == [0, 0, 0, 0]

    def test_fifo_queues_clear_in_place(self):
        ring = make_busy_ring()
        handle = ring.fifo(1, 0, 1)  # a producer-held handle
        ring.reset()
        assert len(handle) == 0
        ring.push_fifo(1, 0, 1, [9])
        assert list(handle) == [9]  # same live deque, still wired

    def test_batch_engine_detaches(self):
        ring = run_hard(make_busy_ring(backend="batch", batch_size=4))
        assert ring._batch_engine is not None
        ring.reset()
        assert ring._batch_engine is None

    @pytest.mark.parametrize("retire", [
        lambda ring: ring.reset(),
        lambda ring: ring.set_backend("batch", 3),
    ], ids=["reset", "set_backend"])
    def test_retired_engine_is_freed_and_unhooked(self, retire):
        """A retired engine leaves no listener behind and is freed by
        reference counting alone (no cycle through its kernels)."""
        ring = make_busy_ring(backend="batch", batch_size=4)
        baseline = len(ring._invalidation_listeners)
        run_hard(ring)
        old = weakref.ref(ring._batch_engine)
        gc.disable()
        try:
            retire(ring)
            assert old() is None
        finally:
            gc.enable()
        assert len(ring._invalidation_listeners) == baseline
        run_hard(ring)  # a new engine compiles its kernels
        assert len(ring._invalidation_listeners) == baseline + 1
        invalidations = ring.plan_invalidations
        ring.config.write_local_limit(1, 0, 1)
        assert ring.plan_invalidations == invalidations + 1

    def test_repeated_resets_leave_one_listener(self):
        ring = make_busy_ring(backend="batch", batch_size=4)
        baseline = len(ring._invalidation_listeners)
        for _ in range(5):
            run_hard(ring)
            ring.reset()
        run_hard(ring)
        assert len(ring._invalidation_listeners) == baseline + 1
        invalidations = ring.plan_invalidations
        ring.config.write_local_limit(1, 0, 1)
        assert ring.plan_invalidations == invalidations + 1


class TestPreserved:
    def test_configuration_and_write_counters(self):
        ring = make_busy_ring()
        writes = ring.config.writes
        assert writes > 0
        fingerprint = ring.config_fingerprint()
        run_hard(ring)
        ring.reset()
        assert ring.config.writes == writes
        assert ring.config_fingerprint() == fingerprint

    def test_engine_lifetime_counters(self):
        ring = run_hard(make_busy_ring())
        compiles = ring.plan_compiles
        assert compiles > 0
        ring.config.write_local_limit(1, 0, 2)  # force an invalidation
        invalidations = ring.plan_invalidations
        ring.reset()
        assert ring.plan_compiles == compiles
        assert ring.plan_invalidations == invalidations

    def test_macro_cycles_counter(self, refuse_native):
        # The macro rung only engages on the bulk entry point.
        ring = make_busy_ring(backend="native")
        ring.run(20)
        assert ring.macro_cycles > 0
        macro = ring.macro_cycles
        ring.reset()
        assert ring.macro_cycles == macro

    def test_plan_cache_contents_and_stats(self):
        ring = run_hard(make_busy_ring())
        cached = len(ring.plan_cache)
        assert cached > 0
        hits, misses = ring.plan_cache.hits, ring.plan_cache.misses
        ring.reset()
        assert len(ring.plan_cache) == cached
        assert (ring.plan_cache.hits, ring.plan_cache.misses) == \
            (hits, misses)

    def test_active_plan_survives_without_recompile(self):
        ring = run_hard(make_busy_ring())
        plan = ring._steady.get("macro")
        assert plan is not None
        compiles = ring.plan_compiles
        ring.reset()
        assert ring._steady["macro"] is plan  # bound to cleared containers
        run_hard(ring)
        assert ring.plan_compiles == compiles  # resumed, not recompiled

    def test_robustness_counters(self):
        ring = run_hard(make_busy_ring())
        ring.faults_injected = 3
        ring.checkpoints = 2
        ring.rollbacks = 1
        ring.recovery_cycles = 8
        ring.reset()
        assert (ring.faults_injected, ring.checkpoints, ring.rollbacks,
                ring.recovery_cycles) == (3, 2, 1, 8)

    def test_rollback_still_counts_across_restore(self):
        """restore() resets internally; a rollback must still register
        on the post-restore ring — restoring must not rewrite history."""
        ring = run_hard(make_busy_ring())
        snapshot = capture(ring)
        ring.rollbacks = 5
        restore(ring, snapshot)
        assert ring.rollbacks == 5


def test_reset_is_idempotent():
    ring = run_hard(make_busy_ring())
    ring.reset()
    first = capture(ring)
    ring.reset()
    from repro.core.snapshot import snapshot_digest
    assert snapshot_digest(capture(ring)) == snapshot_digest(first)
