"""Bit-identity proof: the pre-decoded fast path vs the interpreter.

Every test builds two rings with identical geometry and configuration —
one with ``backend="interpreter"`` (the reference interpreter) and one with the
default fast path — drives both with the same bus/host/FIFO stimulus, and
compares the complete observable state: cycle and underflow counters,
every register, OUT latch, local-sequencer counter and statistics field of
every Dnode, every feedback-pipeline tap of every switch, the remaining
contents of every FIFO, and the exact sequence of host-port reads.

Programs are randomised (seeded ``random`` plus a hypothesis sweep) over
global, local and mixed modes, all opcodes, FIFO and Rp-feedback sources,
host streams and the shared bus, with mid-run reconfiguration and resets
thrown in to exercise plan invalidation.
"""

import random

import pytest

from repro import word
from repro.core.isa import (
    ACCUMULATING_OPS,
    Dest,
    Flag,
    MicroWord,
    Opcode,
    Source,
)
from repro.core.dnode import DnodeMode
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.errors import SimulationError

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the test env
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# Random program / configuration generation
# ----------------------------------------------------------------------

_SOURCES = [
    Source.R0, Source.R1, Source.R2, Source.R3,
    Source.IN1, Source.IN2,
    Source.FIFO1, Source.FIFO2,
    Source.BUS, Source.IMM, Source.SELF, Source.ZERO,
] + [Source.rp(stage, lane) for stage in (1, 2, 3, 4) for lane in (1, 2)]

_OPS = list(Opcode)
_REG_DESTS = [Dest.R0, Dest.R1, Dest.R2, Dest.R3]
_DESTS = _REG_DESTS + [Dest.OUT, Dest.NONE]


def _random_word(rng: random.Random) -> MicroWord:
    op = rng.choice(_OPS)
    dst = rng.choice(_REG_DESTS if op in ACCUMULATING_OPS else _DESTS)
    flags = Flag.NONE
    if rng.random() < 0.30:
        flags |= Flag.WRITE_OUT
    if rng.random() < 0.30:
        flags |= Flag.POP_FIFO1
    if rng.random() < 0.20:
        flags |= Flag.POP_FIFO2
    return MicroWord(op, rng.choice(_SOURCES), rng.choice(_SOURCES), dst,
                     flags, imm=rng.randrange(1 << word.WIDTH))


def _random_route(rng: random.Random, width: int) -> PortSource:
    r = rng.random()
    if r < 0.35:
        return PortSource.up(rng.randrange(width))
    if r < 0.55:
        return PortSource.rp(rng.randrange(1, 5), rng.randrange(1, width + 1))
    if r < 0.65:
        return PortSource.host(rng.randrange(3))
    if r < 0.75:
        return PortSource.bus()
    return PortSource.zero()


def _apply_random_config(ring: Ring, rng: random.Random) -> None:
    """Drive one ring into a random configuration via the hooked paths.

    Called once per ring with a freshly-seeded generator so both members
    of a pair draw the identical sequence.
    """
    g = ring.geometry
    for layer in range(g.layers):
        for pos in range(g.width):
            if rng.random() < 0.5:
                ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
                length = rng.randrange(1, 9)
                ring.config.write_local_program(
                    layer, pos, [_random_word(rng) for _ in range(length)])
            else:
                ring.config.write_mode(layer, pos, DnodeMode.GLOBAL)
                ring.config.write_microword(layer, pos, _random_word(rng))
            for channel in (1, 2):
                depth = rng.randrange(0, 12)
                if depth:
                    ring.push_fifo(
                        layer, pos, channel,
                        [rng.randrange(1 << word.WIDTH)
                         for _ in range(depth)])
    for k in range(g.layers):
        for pos in range(g.width):
            for port in (1, 2):
                ring.config.write_switch_route(
                    k, pos, port, _random_route(rng, g.width))


class _HostLog:
    """Host reader whose value depends on the full call history.

    If the two engines ever issue host-port reads in a different order or
    count, the returned words — and therefore the fabric state — diverge
    immediately, so the state comparison also proves call-for-call host
    equivalence.
    """

    def __init__(self):
        self.calls = []

    def __call__(self, channel: int) -> int:
        self.calls.append(channel)
        return (channel * 311 + len(self.calls) * 7) & word.MASK


# ----------------------------------------------------------------------
# State capture / comparison
# ----------------------------------------------------------------------


def _state(ring: Ring) -> dict:
    g = ring.geometry
    state = {
        "cycles": ring.cycles,
        "fifo_underflows": ring.fifo_underflows,
    }
    for dn in ring.all_dnodes():
        state[dn.name] = {
            "out": dn.out,
            "regs": dn.regs.snapshot(),
            "counter": dn.local.counter,
            "stats": (dn.stats.cycles, dn.stats.instructions,
                      dn.stats.arithmetic_ops, dn.stats.multiplies,
                      dn.stats.fifo_pops),
        }
    for k in range(g.layers):
        sw = ring.switch(k)
        state[f"switch{k}"] = [
            [sw.rp_read(stage, lane)
             for stage in range(1, g.pipeline_depth + 1)]
            for lane in range(1, g.width + 1)
        ]
    # FIFO deques are created on demand (the fast-path compiler touches
    # some the interpreter never would), so compare contents only.
    state["fifos"] = {
        key: list(queue) for key, queue in ring._fifos.items() if queue
    }
    return state


def _make_pair(seed: int, layers: int = 4) -> tuple:
    geometry = RingGeometry(layers=layers, width=2)
    reference = Ring(geometry, backend="interpreter")
    fast = Ring(geometry, backend="fastpath")
    _apply_random_config(reference, random.Random(seed))
    _apply_random_config(fast, random.Random(seed))
    return reference, fast


def _assert_equivalent(seed: int, cycles: int, layers: int = 4) -> None:
    reference, fast = _make_pair(seed, layers)
    ref_host, fast_host = _HostLog(), _HostLog()
    bus = (seed * 9973) & word.MASK
    reference.run(cycles, bus=bus, host_in=ref_host)
    fast.run(cycles, bus=bus, host_in=fast_host)
    if cycles >= 3:
        assert fast._plan is not None, "fast path never engaged"
    assert ref_host.calls == fast_host.calls
    assert _state(reference) == _state(fast)


# ----------------------------------------------------------------------
# Seeded-random equivalence sweeps
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_random_programs_bit_identical(seed):
    _assert_equivalent(seed, cycles=48)


@pytest.mark.parametrize("seed", range(5))
def test_random_programs_larger_ring(seed):
    _assert_equivalent(seed + 100, cycles=32, layers=8)


@pytest.mark.parametrize("seed", range(8))
def test_midrun_reconfiguration_invalidates_plan(seed):
    reference, fast = _make_pair(seed)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(15, host_in=ref_host)
    fast.run(15, host_in=fast_host)
    assert fast._plan is not None
    _apply_random_config(reference, random.Random(seed + 1000))
    _apply_random_config(fast, random.Random(seed + 1000))
    assert fast._plan is None, "reconfiguration must drop the plan"
    reference.run(15, host_in=ref_host)
    fast.run(15, host_in=fast_host)
    assert fast._plan is not None, "plan must be recompiled after stability"
    assert ref_host.calls == fast_host.calls
    assert _state(reference) == _state(fast)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("batch_size", [1, 3])
def test_midrun_reconfiguration_all_backends(seed, batch_size):
    """Reconfigure mid-run under all three engines, batch included.

    The batch engine must drop its compiled kernels on any configuration
    write (via the ring's invalidation listeners), keep the lane state,
    recompile exactly once on the next run, and end bit-identical to the
    interpreter and the scalar fast path — on every lane (the host
    stimulus is broadcast, so all lanes mirror the scalar run).
    """
    geometry = RingGeometry(layers=4, width=2)
    reference = Ring(geometry, backend="interpreter")
    fast = Ring(geometry, backend="fastpath")
    batch = Ring(geometry, backend="batch", batch_size=batch_size)
    # B=1 rides the scalar fast path unless the vector engine has been
    # handed out; this test exercises the engine, so engage it.
    batch.batch
    rings = (reference, fast, batch)
    hosts = [_HostLog() for _ in rings]
    for ring in rings:
        _apply_random_config(ring, random.Random(seed))
    for ring, host in zip(rings, hosts):
        ring.run(15, host_in=host)
    engine = batch._batch_engine
    assert engine is not None and engine._kernels is not None
    compiles = engine.compiles
    invalidations = engine.invalidations
    ring_invalidations = batch.plan_invalidations
    for ring in rings:
        _apply_random_config(ring, random.Random(seed + 1000))
    assert fast._plan is None, "reconfiguration must drop the plan"
    assert engine._kernels is None, (
        "reconfiguration must drop the batch kernels"
    )
    assert engine.invalidations > invalidations
    assert batch.plan_invalidations > ring_invalidations
    for ring, host in zip(rings, hosts):
        ring.run(15, host_in=host)
    assert engine.compiles == compiles + 1, "one recompile, once stable"
    assert hosts[1].calls == hosts[0].calls
    assert hosts[2].calls == hosts[0].calls
    want = _state(reference)
    assert _state(fast) == want
    assert _state(batch) == want  # lane 0, written back by run()
    for lane in range(batch_size):
        target = Ring(geometry)
        engine.store_lane(lane, target)
        assert _state(target) == want, f"lane {lane} diverged"


@pytest.mark.parametrize("seed", range(5))
def test_reset_midstream_stays_equivalent(seed):
    # reset() clears registers/pipelines/FIFOs *in place*, so an existing
    # compiled plan (whose closures bind those containers) stays valid.
    reference, fast = _make_pair(seed)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(12, host_in=ref_host)
    fast.run(12, host_in=fast_host)
    reference.reset()
    fast.reset()
    for ring in (reference, fast):
        ring.push_fifo(0, 0, 1, [7, 8, 9])
    reference.run(12, host_in=ref_host)
    fast.run(12, host_in=fast_host)
    assert ref_host.calls == fast_host.calls
    assert _state(reference) == _state(fast)


@pytest.mark.parametrize("seed", range(5))
def test_reset_with_live_fifo_handles_and_compiled_plan(seed):
    # Harder reset scenario: FIFOs already hold data when the plan
    # compiles (so the plan's pop/peek closures bind those exact deques),
    # then reset() empties them in place mid-run.  The plan survives and
    # must keep matching the interpreter on the refilled state.
    reference, fast = _make_pair(seed + 2000)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(9, host_in=ref_host)
    fast.run(9, host_in=fast_host)
    assert fast._plan is not None
    plan_before = fast._plan
    reference.reset()
    fast.reset()
    assert fast._plan is plan_before, \
        "reset clears state in place; it must not drop the plan"
    rng = random.Random(seed + 3000)
    refill = [rng.randrange(1 << word.WIDTH) for _ in range(6)]
    for ring in (reference, fast):
        ring.push_fifo(0, 0, 1, refill)
        ring.push_fifo(1, 1, 2, refill[:3])
    reference.run(9, host_in=ref_host)
    fast.run(9, host_in=fast_host)
    assert ref_host.calls == fast_host.calls
    assert _state(reference) == _state(fast)


@pytest.mark.parametrize("seed", range(5))
def test_reset_counters_identical_across_engines(seed):
    reference, fast = _make_pair(seed + 4000)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(8, bus=5, host_in=ref_host)
    fast.run(8, bus=5, host_in=fast_host)
    reference.reset()
    fast.reset()
    for ring in (reference, fast):
        assert ring.cycles == 0
        assert ring.fifo_underflows == 0
        assert ring.fifo_high_water == {}
        assert ring.last_bus == 0
    reference.run(8, host_in=ref_host)
    fast.run(8, host_in=fast_host)
    assert _state(reference) == _state(fast)


# ----------------------------------------------------------------------
# Sampled-trace equivalence: the chunk-running fast path must capture
# the same cycles with the same values as the per-cycle interpreter.
# ----------------------------------------------------------------------


def _traced_pair(seed, interval, start=None, stop=None):
    from repro.analysis.trace import Probe, SignalTrace
    reference, fast = _make_pair(seed)
    probes = [Probe.out(0, 0), Probe.out(2, 1), Probe.reg(1, 0, 2),
              Probe.bus()]
    traces = tuple(
        SignalTrace(ring, probes, interval=interval, start=start, stop=stop)
        for ring in (reference, fast))
    return reference, fast, traces


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("interval", [1, 3, 7, 16])
def test_sampled_trace_bit_identical_across_engines(seed, interval):
    reference, fast, (ref_trace, fast_trace) = _traced_pair(seed, interval)
    ref_host, fast_host = _HostLog(), _HostLog()
    bus = (seed * 7919) & word.MASK
    reference.run(40, bus=bus, host_in=ref_host)
    fast.run(40, bus=bus, host_in=fast_host)
    if interval > 1:
        assert fast._plan is not None, \
            "a sampled trace must not keep the ring off the fast path"
    assert fast_trace.sampled_at == ref_trace.sampled_at
    assert fast_trace.samples == ref_trace.samples
    assert _state(reference) == _state(fast)


@pytest.mark.parametrize("seed", range(4))
def test_windowed_trace_bit_identical_across_engines(seed):
    reference, fast, (ref_trace, fast_trace) = _traced_pair(
        seed + 500, interval=4, start=10, stop=30)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(40, host_in=ref_host)
    fast.run(40, host_in=fast_host)
    assert fast._plan is not None
    assert fast_trace.sampled_at == ref_trace.sampled_at == [12, 16, 20,
                                                             24, 28]
    assert fast_trace.samples == ref_trace.samples


@pytest.mark.parametrize("seed", range(3))
def test_trace_across_reset_bit_identical(seed):
    # reset() mid-run with a live sampled trace: both engines must keep
    # sampling the same post-reset cycle indices with identical values.
    reference, fast, (ref_trace, fast_trace) = _traced_pair(
        seed + 700, interval=5)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(13, host_in=ref_host)
    fast.run(13, host_in=fast_host)
    reference.reset()
    fast.reset()
    for ring in (reference, fast):
        ring.push_fifo(0, 0, 1, [11, 22, 33])
    reference.run(13, host_in=ref_host)
    fast.run(13, host_in=fast_host)
    assert fast_trace.sampled_at == ref_trace.sampled_at
    assert fast_trace.samples == ref_trace.samples
    assert _state(reference) == _state(fast)


def test_per_cycle_reconfiguration_never_compiles():
    # Hardware multiplexing: a configuration write every cycle keeps the
    # fabric permanently on the interpreter — no compile thrash.
    ring = Ring(RingGeometry(layers=4, width=2))
    for i in range(10):
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.IMM, dst=Dest.OUT, imm=i))
        ring.step()
        assert ring._plan is None
        assert ring.dnode(0, 0).out == i


def test_single_interpreted_cycle_before_compile():
    ring = Ring(RingGeometry(layers=4, width=2))
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, dst=Dest.OUT, imm=1))
    ring.step()
    assert ring._plan is None          # config was dirty this cycle
    ring.step()
    assert ring._plan is not None      # stable for a full cycle: compiled
    ring.run(10)
    assert ring.dnode(0, 0).out == 12


def test_fastpath_disabled_never_compiles():
    ring = Ring(RingGeometry(layers=4, width=2), backend="interpreter")
    ring.run(10)
    assert ring._plan is None


# ----------------------------------------------------------------------
# Error-path equivalence
# ----------------------------------------------------------------------


def _strict_rings():
    """Interpreter, fast path and a 3-lane batch ring, all strict."""
    geometry = RingGeometry(layers=4, width=2)
    return (Ring(geometry, strict_fifos=True, backend="interpreter"),
            Ring(geometry, strict_fifos=True, backend="fastpath"),
            Ring(geometry, strict_fifos=True, backend="batch",
                 batch_size=3))


def _load_strict(ring: Ring, microword: MicroWord) -> None:
    ring.config.write_microword(0, 0, microword)
    ring.push_fifo(0, 0, 1, [1, 2, 3])
    if ring.backend == "batch":
        # Deeper FIFOs on lanes 1-2: the batch must abort when its
        # shallowest lane runs dry, exactly where a scalar ring does.
        for lane in (1, 2):
            ring.batch.push_fifo(0, 0, 1, [7] * lane, lane=lane)


def test_strict_fifo_peek_error_identical():
    reference, fast, batch = _strict_rings()
    errors = []
    for ring in (reference, fast, batch):
        _load_strict(ring, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
        with pytest.raises(SimulationError) as excinfo:
            ring.run(10)
        errors.append(str(excinfo.value))
        assert ring.cycles == 3
    assert errors == ["D0.0 read empty FIFO1 at cycle 3"] * 3
    assert fast._plan is not None  # the error came from the compiled engine
    # Lane 0 ran dry; the deeper lanes keep their undelivered words.
    assert batch.batch.fifo_contents(0, 0, 1, lane=2) == [7, 7]


def test_strict_fifo_pop_error_identical():
    errors = []
    for ring in _strict_rings():
        # NOP reads nothing, so only the commit-phase pop sees the empty
        # FIFO — this exercises the pop thunk's strict raise.
        _load_strict(ring, MicroWord(Opcode.NOP, flags=Flag.POP_FIFO1))
        with pytest.raises(SimulationError) as excinfo:
            ring.run(10)
        errors.append(str(excinfo.value))
    assert errors == ["D0.0 popped empty FIFO1 at cycle 3"] * 3


def test_missing_host_reader_error_identical():
    errors = []
    for backend in ("interpreter", "fastpath"):
        ring = Ring(RingGeometry(layers=4, width=2), backend=backend)
        ring.config.write_switch_route(0, 0, 1, PortSource.host(2))
        with pytest.raises(SimulationError) as excinfo:
            ring.run(10)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]
    assert "no host reader was supplied" in errors[0]


def test_shallow_pipeline_tap_error_identical():
    # Geometry with a 2-deep pipeline but a stage-4 route: the interpreter
    # raises at port resolution; the compiled plan must raise identically
    # (the fetch stays eager precisely because it is observable).
    errors = []
    for backend in ("interpreter", "fastpath"):
        ring = Ring(RingGeometry(layers=4, width=2, pipeline_depth=2),
                    backend=backend)
        ring.config.write_switch_route(0, 0, 1, PortSource.rp(4, 1))
        with pytest.raises(SimulationError) as excinfo:
            ring.run(10)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]
    assert "feedback stage 4 out of range" in errors[0]


# ----------------------------------------------------------------------
# Hypothesis sweep
# ----------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           cycles=st.integers(min_value=3, max_value=64))
    def test_hypothesis_equivalence(seed, cycles):
        _assert_equivalent(seed, cycles)
