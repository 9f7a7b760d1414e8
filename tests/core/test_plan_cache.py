"""Plan-cache semantics: LRU bounds, fingerprints, churn re-adoption.

Three layers of coverage:

* :class:`TestPlanCacheUnit` — the bounded LRU container itself
  (eviction order, capacity-1 thrash, the miss-twice promotion memory);
* :class:`TestFingerprints` — fingerprint stability and sensitivity for
  Dnodes and switches (the cache key must change exactly when the
  executable configuration changes);
* :class:`TestRingCacheIntegration` — the ring-level contract: a
  repeated A/B/A context switch re-adopts cached plans with *zero*
  interpreter cycles, cache-hit plans are bit-identical to fresh
  compiles, the ring's LRU holds a constant eight entries, per-cycle
  unique reconfiguration still never compiles, and batch mode at B=1
  rides the scalar ladder.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.metrics import collect_metrics
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core import plancache
from repro.core.plancache import RING_CAPACITY, PlanCache
from repro.core.ring import Ring, RingGeometry, make_ring
from repro.core.switch import PortSource
from repro.errors import ConfigurationError

from tests.conftest import forget_plans


class TestPlanCacheUnit:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            PlanCache(-1)

    def test_lru_eviction_order(self):
        cache = PlanCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.keys() == ["a", "b", "c"]
        # Touching 'a' refreshes it; inserting 'd' must evict 'b'.
        assert cache.get("a") == "A"
        cache.put("d", "D")
        assert cache.keys() == ["c", "a", "d"]
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_capacity_one_thrash(self):
        cache = PlanCache(1)
        for i in range(10):
            cache.put(i, i)
            assert cache.get(i) == i
            assert len(cache) == 1
        assert cache.evictions == 9
        assert cache.keys() == [9]
        # Everything but the survivor misses.
        assert cache.get(3) is None

    def test_capacity_zero_rejected(self):
        """There is no disabled mode: a cache holds at least one entry."""
        with pytest.raises(ConfigurationError):
            PlanCache(0)

    def test_note_miss_promotes_on_second_sighting(self):
        cache = PlanCache(4)
        assert cache.note_miss("a") is False
        assert cache.note_miss("b") is False
        assert cache.note_miss("a") is True
        assert cache.note_miss("a") is True

    def test_note_miss_memory_is_bounded(self):
        cache = PlanCache(1)  # missed-FIFO capacity = max(4*1, 16) = 16
        cache.note_miss("target")
        for i in range(16):
            cache.note_miss(i)
        # 'target' was pushed out of the bounded memory.
        assert cache.note_miss("target") is False

    def test_put_refresh_keeps_size(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)
        assert cache.keys() == ["b", "a"]
        assert cache.get("a") == 3
        assert cache.evictions == 0

    def test_put_purges_pending_miss_record(self):
        """Regression: a stored key must leave the missed-FIFO.  Before
        the fix an evicted entry's fingerprint kept its old miss record,
        so its *first* reappearance was treated as a second sighting and
        promoted to an eager compile."""
        cache = PlanCache(1)
        assert cache.note_miss("a") is False
        cache.put("a", "A")
        cache.put("b", "B")  # evicts 'a'
        assert cache.get("a") is None
        # 'a' starts over: first miss after eviction must NOT promote.
        assert cache.note_miss("a") is False
        assert cache.note_miss("a") is True

    def test_discard_purges_pending_miss_record(self):
        """Regression: discard() dropped only the entry, leaving the miss
        record to spuriously promote the next appearance."""
        cache = PlanCache(4)
        cache.note_miss("a")
        cache.put("a", "A")
        cache.discard("a")
        assert cache.note_miss("a") is False
        assert cache.note_miss("a") is True

    def test_discard_of_never_stored_key_is_noop(self):
        cache = PlanCache(4)
        cache.discard("ghost")
        assert cache.note_miss("ghost") is False

    def test_clear_preserves_counters(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 1)


def _word_a():
    return MicroWord(Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=3)


def _word_b():
    return MicroWord(Opcode.SUB, Source.IN1, Source.IMM, Dest.OUT, imm=3)


class TestFingerprints:
    def test_dnode_global_fingerprint_tracks_word(self):
        ring = make_ring(8)
        dn = ring.dnode(0, 0)
        fp0 = dn.config_fingerprint()
        dn.configure(_word_a())
        fp1 = dn.config_fingerprint()
        assert fp1 != fp0
        dn.configure(_word_a())
        assert dn.config_fingerprint() == fp1, "same word, same print"
        dn.configure(_word_b())
        assert dn.config_fingerprint() != fp1

    def test_dnode_local_fingerprint_ignores_inactive_slots(self):
        ring = make_ring(8)
        dn = ring.dnode(1, 0)
        dn.local.load_program([_word_a(), _word_b()])
        dn.set_mode(DnodeMode.LOCAL)
        fp = dn.config_fingerprint()
        # Slots at/above LIMIT can never execute: not part of the print.
        dn.local.load_slot(5, _word_b())
        assert dn.config_fingerprint() == fp
        dn.local.load_slot(0, _word_b())
        assert dn.config_fingerprint() != fp

    def test_mode_flip_changes_fingerprint(self):
        ring = make_ring(8)
        dn = ring.dnode(0, 1)
        dn.configure(_word_a())
        dn.local.load_program([_word_a()])
        global_fp = dn.config_fingerprint()
        dn.set_mode(DnodeMode.LOCAL)
        assert dn.config_fingerprint() != global_fp

    def test_switch_fingerprint_route_order_independent(self):
        a = Ring(RingGeometry(layers=2, width=2))
        b = Ring(RingGeometry(layers=2, width=2))
        a.switch(0).config.route(0, 1, PortSource.up(1))
        a.switch(0).config.route(1, 2, PortSource.host(3))
        b.switch(0).config.route(1, 2, PortSource.host(3))
        b.switch(0).config.route(0, 1, PortSource.up(1))
        assert (a.switch(0).config.fingerprint()
                == b.switch(0).config.fingerprint())

    def test_switch_explicit_zero_equals_absent(self):
        a = Ring(RingGeometry(layers=2, width=2))
        b = Ring(RingGeometry(layers=2, width=2))
        a.switch(0).config.route(0, 1, PortSource.zero())
        assert (a.switch(0).config.fingerprint()
                == b.switch(0).config.fingerprint())

    def test_ring_fingerprint_covers_every_component(self):
        ring = make_ring(8)
        prints = {ring.config_fingerprint()}
        ring.dnode(3, 1).configure(_word_a())
        prints.add(ring.config_fingerprint())
        ring.switch(2).config.route(0, 2, PortSource.bus())
        prints.add(ring.config_fingerprint())
        ring.dnode(2, 0).local.set_limit(3)
        ring.dnode(2, 0).set_mode(DnodeMode.LOCAL)
        prints.add(ring.config_fingerprint())
        assert len(prints) == 4, "each mutation must change the print"


def _configure(ring: Ring, flavour: str) -> None:
    """One of two distinct full-fabric contexts (the A/B working set)."""
    word = _word_a() if flavour == "a" else _word_b()
    for layer in range(ring.geometry.layers):
        for pos in range(ring.geometry.width):
            ring.config.write_microword(layer, pos, word)
        ring.config.write_switch_route(
            layer, 0, 1,
            PortSource.up(0) if flavour == "a" else PortSource.rp(1, 1))


def _configure_imm(ring: Ring, imm: int) -> None:
    """Context number *imm*: every Dnode adds *imm* to its input."""
    for layer in range(ring.geometry.layers):
        for pos in range(ring.geometry.width):
            ring.config.write_microword(layer, pos, MicroWord(
                Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=imm))


def _state(ring: Ring) -> tuple:
    return (
        ring.cycles,
        tuple(dn.out for dn in ring.all_dnodes()),
        tuple(tuple(dn.regs.snapshot()) for dn in ring.all_dnodes()),
        tuple(ring.switch(k).rp_read(s, l)
              for k in range(ring.geometry.layers)
              for s in range(1, 5)
              for l in range(1, ring.geometry.width + 1)),
    )


class TestRingCacheIntegration:
    def test_aba_context_switch_zero_interpreter_cycles(self):
        """The headline regression: hardware multiplexing between known
        contexts must re-adopt plans with no interpreted cycles at all —
        including the first cycle after each switch."""
        ring = make_ring(8)
        for flavour in ("a", "b"):  # warm both contexts into the cache
            _configure(ring, flavour)
            ring.run(4)
        with ring.profile() as prof:
            for _ in range(5):
                for flavour in ("a", "b"):
                    _configure(ring, flavour)
                    ring.run(3)
        assert prof.interpreted_cycles == 0
        assert prof.plan_compiles == 0
        assert ring.plan_cache.hits >= 10

    def test_cache_hit_bit_identical_to_fresh_compile(self):
        """Mutate away, restore, and the cache-hit plan must reproduce
        the recompile-from-scratch run bit for bit.  The fresh ring
        forgets every plan before each switch."""
        cached = make_ring(8)
        fresh = make_ring(8)
        for ring in (cached, fresh):
            for flavour in ("a", "b", "a", "b", "a"):
                if ring is fresh:
                    forget_plans(ring)
                _configure(ring, flavour)
                ring.run(7, bus=9,
                         host_in=lambda ch: (ch * 41 + 5) & 0xFFFF)
        assert cached.plan_cache.hits > 0
        assert _state(cached) == _state(fresh)
        assert cached.plan_compiles < fresh.plan_compiles

    def test_eviction_under_small_capacity(self):
        """Nine contexts overflow the ring's eight entries: the oldest
        are evicted, and a switch back to the first one binds its
        kernels from the process-wide cache instead of compiling."""
        ring = make_ring(8)
        prints = []
        for imm in range(9):
            _configure_imm(ring, imm)
            prints.append(ring.config_fingerprint())
            ring.run(4)
        assert len(ring.plan_cache) == ring.plan_cache.capacity == 8
        assert ring.plan_cache.evictions >= 1
        cached = {key[3] for key in ring.plan_cache.keys()}
        assert prints[0] not in cached and prints[-1] in cached
        compiles = ring.plan_compiles + ring.native_compiles
        kernel_hits = plancache.KERNELS.hits
        _configure_imm(ring, 0)
        with ring.profile() as prof:
            ring.run(4)
        assert ring.plan_compiles + ring.native_compiles == compiles
        assert plancache.KERNELS.hits > kernel_hits
        assert prof.interpreted_cycles == 0

    def test_plan_cache_capacity_is_not_a_knob(self):
        """The ring's LRU has a constant capacity, not a constructor
        option."""
        with pytest.raises(TypeError):
            Ring(RingGeometry.ring(8), plan_cache=8)
        assert make_ring(8).plan_cache.capacity == RING_CAPACITY

    def test_per_cycle_unique_reconfiguration_still_never_compiles(self):
        """A never-repeating configuration stream keeps the legacy
        guarantee: no compiles, no cache entries to thrash."""
        ring = make_ring(8)
        for i in range(12):
            ring.dnode(0, 0).configure(
                MicroWord(Opcode.MOV, Source.IMM, dst=Dest.OUT, imm=i))
            ring.step()
            assert not ring._steady
        assert ring.plan_compiles == 0
        assert len(ring.plan_cache) == 0

    def test_plans_survive_reset(self):
        """reset() clears state in place, so cached plans stay valid."""
        ring = make_ring(8)
        _configure(ring, "a")
        ring.run(6)
        compiles = ring.plan_compiles
        ring.reset()
        ring.run(6)
        assert ring.plan_compiles == compiles, "no recompile after reset"


class TestRestoreReadoption:
    """Satellite: restoring a checkpoint of a known configuration costs
    one cache lookup per tier — no recompile, no interpreted cycles."""

    def test_restore_to_known_config_is_one_cache_hit(self):
        from repro.core.snapshot import capture, restore
        ring = make_ring(8)
        _configure(ring, "a")
        ring.run(6)  # compiles once and caches the plan
        snap = capture(ring)
        ring.run(4)
        hits = ring.plan_cache.hits
        compiles = ring.plan_compiles
        with ring.profile() as prof:
            restore(ring, snap)  # eager re-adoption inside restore()
            # The native refusal and the macro kernel, one hit each; the
            # run needs no further lookup.
            assert ring.plan_cache.hits == hits + 2
            ring.run(5)
        assert ring.plan_cache.hits == hits + 2
        assert ring.plan_compiles == compiles
        assert prof.interpreted_cycles == 0
        assert prof.plan_compiles == 0
        assert prof.compile_seconds == 0
        data = json.loads(collect_metrics(ring).to_json())
        assert data["plan_cache_hits_total"] == hits + 2


class TestBatchSizeOneRouting:
    """Satellite: B=1 batch mode must ride the scalar ladder."""

    def test_b1_uses_scalar_plan_not_engine(self):
        ring = make_ring(8, backend="batch", batch_size=1)
        assert ring.fastpath_enabled
        _configure(ring, "a")
        ring.run(8)
        assert ring._batch_engine is None, "no vector engine at B=1"
        assert ring.macro_cycles == 7, "scalar kernels ran instead"

    def test_b1_matches_fastpath_bit_for_bit(self):
        batch = make_ring(8, backend="batch", batch_size=1)
        fast = make_ring(8)
        for ring in (batch, fast):
            _configure(ring, "a")
            ring.push_fifo(1, 0, 1, [5, 6, 7])
            ring.run(9, bus=3, host_in=lambda ch: (ch + 77) & 0xFFFF)
        assert _state(batch) == _state(fast)

    def test_b1_engine_handoff_stays_coherent(self):
        """Accessing ``ring.batch`` mid-run engages the vector engine;
        the resync broadcast must hand over the scalar state exactly."""
        batch = make_ring(8, backend="batch", batch_size=1)
        fast = make_ring(8)
        for ring in (batch, fast):
            _configure(ring, "a")
            ring.run(5)
        engine = batch.batch          # engage: broadcasts scalar state
        assert batch._batch_engine is engine
        for ring in (batch, fast):
            ring.run(5)
        assert _state(batch) == _state(fast)

    def test_b1_batch_size_bump_uses_engine(self):
        ring = make_ring(8, backend="batch", batch_size=2)
        assert not ring.fastpath_enabled
        _configure(ring, "a")
        ring.run(4)
        assert ring._batch_engine is not None

    def test_batch_kernel_cache_hits_across_churn(self):
        """Lane plans of a seen context bind its process-wide templates:
        the engine keeps no cache of its own."""
        ring = make_ring(8, backend="batch", batch_size=2)
        hits = plancache.KERNELS.hits
        for flavour in ("a", "b", "a", "b", "a", "b"):
            _configure(ring, flavour)
            ring.run(3)
        assert not hasattr(ring._batch_engine, "plan_cache")
        assert plancache.KERNELS.hits - hits >= 4
        assert ring.native_compiles + ring.plan_compiles == 2, (
            "one compile per distinct context")
