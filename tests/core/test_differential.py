"""Differential fuzzing: every backend, bit-identical, per lane.

The batch backend's whole claim is *bit-identity*: B lanes advanced by
NumPy kernels must be indistinguishable from B scalar rings run one
after another, which in turn must match the interpreter.  These property
tests draw random fabric shapes, microprograms, routes, FIFO loads and
host streams (reusing the spec generators of ``test_fuzz.py``), run the
same configuration on the interpreter, the macro rung (pinned by the
``native_refused`` seam) and one batch engine, and compare the complete architectural state per lane:
Dnode outputs and register files, switch feedback pipelines, FIFO
contents and pop/underflow accounting, and the activity statistics.

The suite is derandomized (pinned example sequence, no deadline) so CI
runs are reproducible; the classes together exercise 200+ examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import word
from repro.core import alu
from repro.core.batchpath import LANE_DTYPE
from repro.core.dnode import DnodeMode
from repro.core.isa import ACCUMULATING_OPS, Dest, MicroWord, Opcode
from repro.core.macropath import Ineligible, _vector_expr
from repro.core.nativepath import native_period
from repro.core.ring import Ring, RingGeometry

from repro.core import plancache

from tests.conftest import forget_plans, native_refused, rung_seam
from tests.core.test_fuzz import apply_spec, build_ring, ring_specs

_SETTINGS = dict(deadline=None, derandomize=True)


def _host_value(seed: int, channel: int, cycle: int, lane: int) -> int:
    """Deterministic per-channel, per-cycle, per-lane host stimulus."""
    return (seed + 131 * channel + 7 * cycle + 1009 * lane) & 0xFFFF


def _lane_fifo_extra(seed: int, layer: int, pos: int, channel: int,
                     lane: int):
    """A small lane-specific FIFO load (so lanes genuinely diverge)."""
    base = seed ^ (7919 * lane + 131 * layer + 17 * pos + channel)
    return [(base + i * 257) & 0xFFFF for i in range(lane % 3)]


def _state(ring: Ring) -> dict:
    """The complete observable architectural state of a scalar ring."""
    g = ring.geometry
    return {
        "cycles": ring.cycles,
        "outs": [dn.out for dn in ring.all_dnodes()],
        "regs": [dn.regs.snapshot() for dn in ring.all_dnodes()],
        "pipes": [[ring.switch(k).rp_read(stage, lane)
                   for stage in range(1, 5)
                   for lane in range(1, g.width + 1)]
                  for k in range(g.layers)],
        # Empty deques are created lazily on first touch, so their mere
        # presence in the dict differs across engines; only contents are
        # architectural.
        "fifos": {key: list(queue)
                  for key, queue in sorted(ring._fifos.items()) if queue},
        "underflows": ring.fifo_underflows,
        "stats": [(dn.stats.cycles, dn.stats.instructions,
                   dn.stats.arithmetic_ops, dn.stats.multiplies,
                   dn.stats.fifo_pops) for dn in ring.all_dnodes()],
    }


def _scalar_lane_ring(spec: dict, seed: int, lane: int,
                      backend: str) -> Ring:
    ring = build_ring(spec, backend=backend)
    for layer, pos, _mw, _local, _routes, loads in spec["cells"]:
        for channel in loads:
            ring.push_fifo(layer, pos, channel,
                           _lane_fifo_extra(seed, layer, pos, channel,
                                            lane))
    return ring


def _batch_ring(spec: dict, seed: int, batch: int) -> Ring:
    ring = build_ring(spec, backend="batch", batch_size=batch)
    engine = ring.batch
    for layer, pos, _mw, _local, _routes, loads in spec["cells"]:
        for channel in loads:
            for lane in range(batch):
                engine.push_fifo(
                    layer, pos, channel,
                    _lane_fifo_extra(seed, layer, pos, channel, lane),
                    lane=lane)
    return ring


def _run_lane_scalar(spec, seed, lane, cycles, bus, backend):
    ring = _scalar_lane_ring(spec, seed, lane, backend=backend)
    ring.run(cycles, bus=bus,
             host_in=lambda ch: _host_value(seed, ch, ring.cycles, lane))
    return ring


def _batch_host_in(ring: Ring, seed: int, batch: int):
    def host_in(channel: int) -> np.ndarray:
        return np.array(
            [_host_value(seed, channel, ring.cycles, lane)
             for lane in range(batch)], dtype=np.int64)
    return host_in


def _extract_lane(batch_ring: Ring, lane: int) -> dict:
    target = Ring(batch_ring.geometry)
    batch_ring.batch.store_lane(lane, target)
    return _state(target)


class TestDifferentialBackends:
    """interpreter == macro rung == every batch lane, full state."""

    @given(spec=ring_specs(min_layers=2, max_layers=5, min_width=1,
                           max_width=2, max_local=6),
           batch=st.integers(min_value=1, max_value=3),
           cycles=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=0xFFFF),
           bus=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=120, **_SETTINGS)
    def test_full_state_identity(self, spec, batch, cycles, seed, bus):
        bring = _batch_ring(spec, seed, batch)
        bring.run(cycles, bus=bus,
                  host_in=_batch_host_in(bring, seed, batch))
        for lane in range(batch):
            interp = _run_lane_scalar(spec, seed, lane, cycles, bus,
                                      backend="interpreter")
            with native_refused():
                fast = _run_lane_scalar(spec, seed, lane, cycles, bus,
                                        backend="native")
            assert fast.native_cycles == 0
            want = _state(interp)
            assert _state(fast) == want, f"macro diverged on {lane}"
            assert _extract_lane(bring, lane) == want, (
                f"batch lane {lane} diverged"
            )

    @given(spec=ring_specs(min_layers=2, max_layers=4, min_width=1,
                           max_width=2, max_local=4),
           batch=st.integers(min_value=2, max_value=3),
           chunks=st.lists(st.integers(min_value=1, max_value=8),
                           min_size=2, max_size=4),
           seed=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=60, **_SETTINGS)
    def test_chunked_runs_match_one_shot(self, spec, batch, chunks, seed):
        """run()/step() interleaving never perturbs lane state.

        The batch engine syncs lane 0 back to the scalar ring between
        chunks; a writeback or resync bug would compound across chunk
        boundaries and show up against the single uninterrupted run.
        """
        total = sum(chunks)
        one_shot = _batch_ring(spec, seed, batch)
        one_shot.run(total, host_in=_batch_host_in(one_shot, seed, batch))

        chunked = _batch_ring(spec, seed, batch)
        host_in = _batch_host_in(chunked, seed, batch)
        for chunk in chunks:
            chunked.run(chunk - 1, host_in=host_in)
            chunked.step(host_in=host_in)
        for lane in range(batch):
            assert (_extract_lane(chunked, lane)
                    == _extract_lane(one_shot, lane)), (
                f"chunked run diverged on lane {lane}"
            )


def _apply_config_only(ring: Ring, spec: dict) -> None:
    """Apply a spec's *configuration* (no FIFO loads): a context switch."""
    for layer, pos, mw, local, routes, _loads in spec["cells"]:
        ring.config.write_microword(layer, pos, mw)
        if local is not None:
            ring.config.write_local_program(layer, pos, local)
            ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
        else:
            ring.config.write_mode(layer, pos, DnodeMode.GLOBAL)
        for port, route in routes.items():
            ring.config.write_switch_route(layer, pos, port, route)


class TestDifferentialCachedAndMacro:
    """Cache-hit and macro-fused execution == interpreter, full state.

    Extends the backend identity fuzz to the plan-cache layer: the same
    random configuration churn (context A / context B / back to A) is
    driven through an interpreter ring, a native ring (which re-adopts
    kernels on the A/B/A returns), a ring that forgets every plan before
    each switch (fresh compile every switch), the macro rung (a native
    ring with native refused), and the batch backend binding the
    process-wide templates.  Any fingerprint collision, stale plan
    adoption, phase-mismatched macro kernel, or missed invalidation
    shows up as state divergence.
    """

    @given(spec=ring_specs(min_layers=2, max_layers=5, min_width=1,
                           max_width=2, max_local=6),
           chunks=st.lists(st.integers(min_value=1, max_value=40),
                           min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=0xFFFF),
           bus=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=50, **_SETTINGS)
    def test_macro_stepped_full_state_identity(self, spec, chunks, seed,
                                               bus):
        """The macro rung (a native ring with native refused) over
        random chunkings; a closing chunk of one period plus the plan
        warm-up guarantees the rung runs."""
        interp = build_ring(spec, backend="interpreter")
        fused = build_ring(spec, backend="native")
        with native_refused():
            for chunk in chunks + [native_period(fused) + 3]:
                interp.run(chunk, bus=bus,
                           host_in=lambda ch: _host_value(
                               seed, ch, interp.cycles, 0))
                fused.run(chunk, bus=bus,
                          host_in=lambda ch: _host_value(
                              seed, ch, fused.cycles, 0))
                assert _state(fused) == _state(interp)
        assert fused.macro_cycles > 0

    # Context A and context B share one geometry (3x2) so either
    # configuration is legal on the same fabric — the churn is a pure
    # context switch, exactly the paper's multiplexing pattern.
    @given(spec_a=ring_specs(min_layers=3, max_layers=3, min_width=2,
                             max_width=2, max_local=4),
           spec_b=ring_specs(min_layers=3, max_layers=3, min_width=2,
                             max_width=2, max_local=4, fifo_loads=False),
           cycles=st.integers(min_value=1, max_value=12),
           rounds=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=40, **_SETTINGS)
    def test_reconfiguration_churn_cached_vs_fresh(self, spec_a, spec_b,
                                                   cycles, rounds, seed):
        """A/B/A context churn: cache-hit plans == fresh compiles ==
        interpreter, at every switch boundary."""
        interp = build_ring(spec_a, backend="interpreter")
        cached = build_ring(spec_a)
        fresh = build_ring(spec_a)
        fused = build_ring(spec_a, backend="native")
        rings = (interp, cached, fresh, fused)

        def run_all(cycles):
            for ring in rings:
                if ring is fresh:
                    # The other rings' runs since the switch may have
                    # cached the new configuration's kernels.
                    forget_plans(ring)
                ring.run(cycles, host_in=lambda ch, _r=ring:
                         _host_value(seed, ch, _r.cycles, 0))
            want = _state(interp)
            assert _state(cached) == want, "cached plan diverged"
            assert _state(fresh) == want, "fresh compile diverged"
            assert _state(fused) == want, "macro kernel diverged"

        with native_refused():
            for round_no in range(rounds):
                for spec in (spec_b, spec_a):
                    for ring in rings:
                        _apply_config_only(ring, spec)
                    run_all(cycles)
            # A closing bulk run long enough that the macro rung runs.
            run_all(native_period(fused) + 3)
        assert fused.macro_cycles > 0
        if cycles >= 3:
            # Long enough per context for the uncached ring's deferred
            # compile to trigger at every switch: the cached ring pays
            # at most one compile per *distinct* context instead.
            assert cached.plan_compiles <= fresh.plan_compiles

    @given(spec_a=ring_specs(min_layers=3, max_layers=3, min_width=2,
                             max_width=2, max_local=4),
           spec_b=ring_specs(min_layers=3, max_layers=3, min_width=2,
                             max_width=2, max_local=4, fifo_loads=False),
           batch=st.integers(min_value=2, max_value=3),
           cycles=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=25, **_SETTINGS)
    def test_batch_kernel_cache_churn_per_lane(self, spec_a, spec_b,
                                               batch, cycles, seed):
        """Lane plans bound from the process-wide templates under the
        same A/B/A churn: every lane must keep matching per-lane scalar
        reruns."""
        bring = _batch_ring(spec_a, seed, batch)
        host_in = _batch_host_in(bring, seed, batch)
        plan = [spec_b, spec_a, spec_b, spec_a]
        hits = plancache.KERNELS.hits
        for spec in plan:
            _apply_config_only(bring, spec)
            bring.run(cycles, host_in=host_in)
        assert plancache.KERNELS.hits > hits, (
            "churn back to a seen context must hit the kernel cache"
        )
        for lane in range(batch):
            scalar = _scalar_lane_ring(spec_a, seed, lane,
                                       backend="interpreter")
            for spec in plan:
                _apply_config_only(scalar, spec)
                scalar.run(cycles,
                           host_in=lambda ch: _host_value(
                               seed, ch, scalar.cycles, lane))
            assert _extract_lane(bring, lane) == _state(scalar), (
                f"batch lane {lane} diverged under churn"
            )


class TestLaneInvariantLocalCounters:
    """Satellite audit pin: the local-sequencer phase is configuration-
    driven, never data-driven.  ``Dnode.commit()`` advances the sequencer
    unconditionally, so even lanes whose *data* diverges hard (distinct
    FIFO loads, per-lane underflows) keep bit-identical local counters —
    the contract ``store_lane``'s lane-invariant scalar mirror relies
    on."""

    @given(spec=ring_specs(min_layers=2, max_layers=5, min_width=1,
                           max_width=2, max_local=6),
           batch=st.integers(min_value=2, max_value=4),
           cycles=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=40, **_SETTINGS)
    def test_local_counters_identical_across_lanes(self, spec, batch,
                                                   cycles, seed):
        bring = _batch_ring(spec, seed, batch)
        bring.run(cycles, host_in=_batch_host_in(bring, seed, batch))
        mirror = [dn.local.counter for dn in bring.all_dnodes()]
        for lane in range(batch):
            target = Ring(bring.geometry)
            bring.batch.store_lane(lane, target)
            got = [dn.local.counter for dn in target.all_dnodes()]
            assert got == mirror, (
                f"lane {lane} local counters diverged from the "
                f"lane-invariant mirror"
            )


_BOUNDARY = [0x0000, 0x0001, 0x7FFE, 0x7FFF, 0x8000, 0x8001, 0xFFFF]
_words = st.one_of(st.sampled_from(_BOUNDARY),
                   st.integers(min_value=0, max_value=0xFFFF))


def _word(op: Opcode, imm: int) -> MicroWord:
    """A microword for *op* (an accumulator needs a register dst)."""
    return MicroWord(op, dst=Dest.R0, imm=imm)


def _vector_op(op: Opcode, a, b, acc, imm: int, dtype):
    """Evaluate the NumPy op expression the native and macro lane
    kernels generate for *op* over arrays of *dtype*."""
    expr = _vector_expr(_word(op, imm), "a", "b", "acc")
    env = {"np": np, "a": np.asarray(a, dtype), "b": np.asarray(b, dtype),
           "acc": np.asarray(acc, dtype)}
    return np.asarray(eval(expr, env))


#: Lane state (int32) and native windows (int64).
_DTYPES = [LANE_DTYPE, np.int64]


class TestSignedOverflowAudit:
    """Scalar ALU vs the NumPy op expressions the batch lanes' kernels
    share with native (:func:`repro.core.macropath._vector_expr`), at
    the INT16 boundaries, over int32 (lane state) and int64 (native
    windows) arrays."""

    @given(op=st.sampled_from(list(Opcode)), a=_words, b=_words,
           acc=_words, imm=_words)
    @settings(max_examples=150, **_SETTINGS)
    def test_batch_kernel_matches_scalar_alu(self, op, a, b, acc, imm):
        expected = alu.execute_op(op, a, b, acc=acc, imm=imm)
        if op is Opcode.NOP:
            # No kernel computes a NOP: the Dnode commits nothing, so
            # the ALU's 0 is never observed.
            assert expected == 0
            with pytest.raises(Ineligible):
                _vector_expr(_word(op, imm), "a", "b", "acc")
            return
        for dtype in _DTYPES:
            got = _vector_op(op, [a, a, a], np.full(3, b), np.full(3, acc),
                             imm, dtype)
            assert got.shape == (3,)
            assert (got == expected).all(), (
                f"{op.name}(a={a:#06x}, b={b:#06x}, acc={acc:#06x}, "
                f"imm={imm:#06x}) on {dtype.__name__}: scalar "
                f"{expected:#06x}, vector {got}"
            )
            for value in got.tolist():
                assert word.is_valid(value)

    @pytest.mark.parametrize("op", [Opcode.ADD, Opcode.SUB, Opcode.MUL,
                                    Opcode.MAC])
    def test_exhaustive_boundary_sweep(self, op):
        """Every boundary-value combination, element-wise in one array."""
        grid = [(a, b, acc) for a in _BOUNDARY for b in _BOUNDARY
                for acc in (_BOUNDARY if op in ACCUMULATING_OPS
                            else [0])]
        a, b, acc = (np.array(column) for column in zip(*grid))
        for dtype in _DTYPES:
            got = _vector_op(op, a, b, acc, 0, dtype)
            for i, (av, bv, accv) in enumerate(grid):
                expected = alu.execute_op(op, av, bv, acc=accv)
                assert int(got[i]) == expected, (
                    f"{op.name}(a={av:#06x}, b={bv:#06x}, acc={accv:#06x})"
                    f" on {dtype.__name__}: scalar {expected:#06x}, "
                    f"vector {int(got[i]):#06x}"
                )


class TestFaultRecoveryDifferential:
    """Fault-injection recovery is backend-invariant: for an arbitrary
    fabric, the same seeded campaign must plan the same faults, detect
    them at the same checkpoint boundaries, and recover to the same
    verdicts on every execution engine (see ``tests/robustness`` for
    the directed suite; this is the property-based net over random
    configurations)."""

    @given(spec=ring_specs(), seed=st.integers(0, 2**16))
    @settings(max_examples=10, **_SETTINGS)
    def test_campaign_trace_is_backend_invariant(self, spec, seed):
        from repro.robustness import FaultCampaign

        def trace_for(**kwargs):
            campaign = FaultCampaign(
                lambda: build_ring(spec, **kwargs),
                cycles=24, checkpoint_every=8, seed=seed, trials=3)
            result = campaign.run()
            assert result.all_recovered
            return result.trace()

        reference = trace_for(backend="interpreter")
        with native_refused():
            assert trace_for(backend="native") == reference
        assert trace_for(backend="native") == reference
        assert trace_for(backend="batch", batch_size=3) == reference

    @given(spec=ring_specs(), seed=st.integers(0, 2**16),
           cut=st.integers(4, 20))
    @settings(max_examples=15, **_SETTINGS)
    def test_rollback_replay_matches_golden_per_backend(self, spec, seed,
                                                        cut):
        """Corrupt one random site mid-run, roll back, replay: the
        recovered digest equals the uninjected golden digest for every
        backend, on random fabrics."""
        from repro.core.snapshot import capture, state_digest
        from repro.robustness import FaultInjector
        from repro.robustness.checkpoint import (default_driver,
                                                 rollback_replay)

        for column, kwargs in (("interpreter", dict(backend="interpreter")),
                               ("macro", dict(backend="native")),
                               ("native", dict(backend="native")),
                               ("batch", dict(backend="batch",
                                              batch_size=3))):
            with rung_seam(column):
                golden = build_ring(spec, **kwargs)
                for cycle in range(24):
                    default_driver(golden, cycle)
                golden_final = state_digest(golden)

                ring = build_ring(spec, **kwargs)
                injector = FaultInjector(ring, seed=seed)
                event = injector.random_event(cut)
                snapshot = capture(ring)  # cycle 0 is clean by construction
                for cycle in range(24):
                    if cycle == event.cycle:
                        injector.inject(event)
                    default_driver(ring, cycle)
                    # The fault lands *before* cycle `cut` executes, so any
                    # boundary at or before `cut` snapshots clean state.
                    if ring.cycles % 8 == 0 and ring.cycles <= event.cycle:
                        snapshot = capture(ring)
                digest = rollback_replay(ring, snapshot, 24)
                assert digest == golden_final, (
                    f"{column}: {event.site.describe()} recovery diverged")


class TestDifferentialNative:
    """The native macro-kernel tier under the same property net.

    Random fabrics hit every branch of the tier: eligible
    configurations vectorize (and must be bit-identical to the
    interpreter after write-back), ineligible ones ride the fallback
    ladder (and must be bit-identical *trivially* but still exercise
    the dispatch), FIFO-gated windows split between both.
    """

    @given(spec=ring_specs(min_layers=2, max_layers=5, min_width=1,
                           max_width=2, max_local=6),
           chunks=st.lists(st.integers(min_value=1, max_value=40),
                           min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=0xFFFF),
           bus=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=50, **_SETTINGS)
    def test_native_full_state_identity(self, spec, chunks, seed, bus):
        interp = build_ring(spec, backend="interpreter")
        native = build_ring(spec, backend="native")
        for chunk in chunks:
            interp.run(chunk, bus=bus,
                       host_in=lambda ch: _host_value(seed, ch,
                                                      interp.cycles, 0))
            native.run(chunk, bus=bus,
                       host_in=lambda ch: _host_value(seed, ch,
                                                      native.cycles, 0))
            assert _state(native) == _state(interp)
        # Every cycle is accounted to exactly one rung of the ladder
        # (the interpreted warm-up cycles before the first plan adoption
        # are the remainder).
        assert native.native_cycles + native.native_fallback_cycles \
            <= native.cycles

    @given(spec=ring_specs(min_layers=2, max_layers=4, min_width=1,
                           max_width=2, max_local=4, accumulators=True),
           chunks=st.lists(st.integers(min_value=1, max_value=300),
                           min_size=1, max_size=3),
           seed=st.integers(min_value=0, max_value=0xFFFF),
           bus=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=60, **_SETTINGS)
    def test_native_accumulators_identity(self, spec, chunks, seed, bus):
        """Fabrics rich in additive accumulators (``x = x ± v`` on
        registers and SELF): the cumsum closed forms, their refusals
        (doublings, ``SUB x, v, x``) and interleaved chains under longer
        periods all match the interpreter over wrapping runs."""
        interp = build_ring(spec, backend="interpreter")
        native = build_ring(spec, backend="native")
        for chunk in chunks:
            for ring in (interp, native):
                ring.run(chunk, bus=bus,
                         host_in=lambda ch, _r=ring: _host_value(
                             seed, ch, _r.cycles, 0))
            assert _state(native) == _state(interp)

    @given(spec_a=ring_specs(min_layers=3, max_layers=3, min_width=2,
                             max_width=2, max_local=4),
           spec_b=ring_specs(min_layers=3, max_layers=3, min_width=2,
                             max_width=2, max_local=4, fifo_loads=False),
           cycles=st.integers(min_value=1, max_value=12),
           rounds=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=40, **_SETTINGS)
    def test_native_reconfiguration_churn(self, spec_a, spec_b, cycles,
                                          rounds, seed):
        """Mid-run A/B/A context churn on the native backend: cached
        native plans re-adopted across switches == interpreter."""
        interp = build_ring(spec_a, backend="interpreter")
        native = build_ring(spec_a, backend="native")
        for _round in range(rounds):
            for spec in (spec_b, spec_a):
                for ring in (interp, native):
                    _apply_config_only(ring, spec)
                    ring.run(cycles,
                             host_in=lambda ch, _r=ring:
                             _host_value(seed, ch, _r.cycles, 0))
                assert _state(native) == _state(interp), (
                    "native plan diverged after context switch"
                )

    @given(spec=ring_specs(min_layers=2, max_layers=4, min_width=1,
                           max_width=2, max_local=4),
           seed=st.integers(min_value=0, max_value=0xFFFF),
           cut=st.integers(min_value=4, max_value=30),
           total=st.integers(min_value=10, max_value=48))
    @settings(max_examples=30, **_SETTINGS)
    def test_native_checkpoint_rollback_replay(self, spec, seed, cut,
                                               total):
        """capture -> run on -> restore -> replay on the native backend
        reproduces the interpreter's forward run bit-for-bit.

        Native plans are keyed by entry phase, so a cut landing mid
        sequencer-period may legitimately compile one extra phase
        variant; the replay must nonetheless re-enter through the plan
        cache (bounded compiles), and the recovered state must equal
        the interpreter's uninterrupted forward run.  (The strict
        zero-recompile property is pinned by the phase-aligned directed
        test in ``test_nativepath.py``.)"""
        from repro.core.snapshot import capture, restore, state_digest
        cut = min(cut, total)
        interp = build_ring(spec, backend="interpreter")
        interp.run(total, host_in=lambda ch: _host_value(
            seed, ch, interp.cycles, 0))

        native = build_ring(spec, backend="native")
        host_in = lambda ch: _host_value(seed, ch, native.cycles, 0)
        native.run(cut, host_in=host_in)
        snapshot = capture(native)
        compiles = native.native_compiles
        native.run(total - cut, host_in=host_in)  # run past the cut ...
        restore(native, snapshot)                 # ... roll back ...
        native.run(total - cut, host_in=host_in)  # ... and replay.
        # One phase variant per post-cut run() call at the very most.
        assert native.native_compiles <= compiles + 2
        assert state_digest(native) == state_digest(interp)
