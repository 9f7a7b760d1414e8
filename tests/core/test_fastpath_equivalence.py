"""Bit-identity proof: macro stepping vs the interpreter.

Every test builds two rings with identical geometry and configuration —
one with ``backend="interpreter"`` (the reference interpreter) and one
native ring held on the macro rung (:mod:`repro.core.macropath`) by the
``refuse_native`` seam — drives both with the same bus/host/FIFO
stimulus, and compares the complete observable state: cycle and
underflow counters, every register, OUT latch, local-sequencer counter
and statistics field of every Dnode, every feedback-pipeline tap of
every switch, the remaining contents of every FIFO, and the exact
sequence of host-port reads.

The macro ring is driven in a mix of single ``step()`` calls and short
runs (:func:`_drive`), so its kernel is entered at arbitrary sequencer
counters and stopped after arbitrary cycle counts.  Every configuration,
whatever its period, runs on one macro kernel after its first-time
cycle.

Programs are randomised (seeded ``random`` plus a hypothesis sweep) over
global, local and mixed modes, all opcodes, FIFO and Rp-feedback sources,
host streams and the shared bus, with mid-run reconfiguration on every
write path, A/B/A re-adoption and resets thrown in to exercise kernel
invalidation.
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
from repro.core.macropath import MacroPlan
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.errors import SimulationError

pytestmark = pytest.mark.usefixtures("refuse_native")

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
    # FIFO deques are created on demand (the macro compiler touches
    # some the interpreter never would), so compare contents only.
    state["fifos"] = {
        key: list(queue) for key, queue in ring._fifos.items() if queue
    }
    return state


def _make_pair(seed: int, layers: int = 4) -> tuple:
    geometry = RingGeometry(layers=layers, width=2)
    reference = Ring(geometry, backend="interpreter")
    fast = Ring(geometry, backend="native")
    _apply_random_config(reference, random.Random(seed))
    _apply_random_config(fast, random.Random(seed))
    return reference, fast


#: Chunk sizes :func:`_drive` cycles through; 1 is a ``step()`` call.
_CHUNKS = (1, 2, 1, 3, 5, 1, 7, 4)


def _drive(ring: Ring, cycles: int, bus: int = 0, host_in=None) -> None:
    """Advance *ring* by *cycles* in a fixed mix of single steps and
    short runs, so a macro kernel enters and stops at varied phases."""
    chunks = iter(_CHUNKS * (cycles // len(_CHUNKS) + 1))
    while cycles:
        chunk = min(next(chunks), cycles)
        if chunk == 1:
            ring.step(bus=bus, host_in=host_in)
        else:
            ring.run(chunk, bus=bus, host_in=host_in)
        cycles -= chunk


def _macro_active(ring: Ring) -> bool:
    """Does *ring* hold a macro kernel for its current configuration?"""
    return isinstance(ring._steady.get("macro"), MacroPlan)


def _assert_equivalent(seed: int, cycles: int, layers: int = 4) -> None:
    reference, fast = _make_pair(seed, layers)
    ref_host, fast_host = _HostLog(), _HostLog()
    bus = (seed * 9973) & word.MASK
    reference.run(cycles, bus=bus, host_in=ref_host)
    _drive(fast, cycles, bus=bus, host_in=fast_host)
    if cycles >= 2:
        assert _macro_active(fast), "the macro rung never engaged"
        assert fast.macro_cycles >= cycles - 1  # one first-time cycle
    assert fast.native_cycles == 0
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
    _drive(fast, 15, host_in=fast_host)
    assert _macro_active(fast)
    _apply_random_config(reference, random.Random(seed + 1000))
    _apply_random_config(fast, random.Random(seed + 1000))
    assert not fast._steady, "reconfiguration must drop the kernels"
    reference.run(15, host_in=ref_host)
    _drive(fast, 15, host_in=fast_host)
    assert _macro_active(fast), (
        "the kernel must be rebuilt once the configuration was stepped")
    assert ref_host.calls == fast_host.calls
    assert _state(reference) == _state(fast)


def _write_paths():
    """One configuration write per ConfigMemory write path, each
    changing what the fabric computes."""
    add = MicroWord(Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=3)
    mov = MicroWord(Opcode.MOV, Source.IN1, dst=Dest.OUT)
    return {
        "microword": lambda cfg: cfg.write_microword(0, 0, add),
        "mode": lambda cfg: cfg.write_mode(1, 0, DnodeMode.GLOBAL),
        "local_slot": lambda cfg: cfg.write_local_slot(1, 0, 1, add),
        "local_limit": lambda cfg: cfg.write_local_limit(1, 0, 2),
        "local_program": lambda cfg: cfg.write_local_program(
            1, 0, [add, mov]),
        "switch_route": lambda cfg: cfg.write_switch_route(
            1, 0, 1, PortSource.up(1)),
        "plane": lambda cfg: cfg.apply_plane(_other_plane()),
    }


def _other_plane():
    ring = Ring(RingGeometry(layers=4, width=2))
    ring.config.write_microword(2, 1, MicroWord(
        Opcode.SUB, Source.SELF, Source.IMM, Dest.OUT, imm=1))
    return ring.config.capture_plane()


def _local_ring(backend: str) -> Ring:
    """A ring with a period-3 local program and a global counter."""
    ring = Ring(RingGeometry(layers=4, width=2), backend=backend)
    cfg = ring.config
    cfg.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=1))
    cfg.write_local_program(1, 0, [
        MicroWord(Opcode.MAC, Source.IN1, Source.IMM, Dest.R1, imm=2),
        MicroWord(Opcode.MOV, Source.R1, dst=Dest.OUT),
        MicroWord(Opcode.ADD, Source.R1, Source.BUS, Dest.OUT)])
    cfg.write_mode(1, 0, DnodeMode.LOCAL)
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    return ring


@pytest.mark.parametrize("path", sorted(_write_paths()))
def test_every_write_path_invalidates_the_macro_kernel(path):
    reference, fast = _local_ring("interpreter"), _local_ring("native")
    for ring in (reference, fast):
        _drive(ring, 7, bus=9)
    assert _macro_active(fast)
    invalidations = fast.plan_invalidations
    write = _write_paths()[path]
    for ring in (reference, fast):
        write(ring.config)
    assert not fast._steady, f"a {path} write must drop the kernel"
    assert fast.plan_invalidations == invalidations + 1
    for ring in (reference, fast):
        _drive(ring, 11, bus=9)
    assert _macro_active(fast)
    assert _state(reference) == _state(fast)


def test_aba_readoption_steps_on_macro():
    """A, B, A again: the second visit to A re-adopts its macro kernel
    from the cache, at whatever phase the sequencer reached, and steps
    on it with no compile and no interpreted cycle."""
    reference, fast = _local_ring("interpreter"), _local_ring("native")
    plane_a = fast.config.capture_plane()
    plane_b = _other_plane()
    for plane in (plane_a, plane_b):
        for ring in (reference, fast):
            ring.config.apply_plane(plane)
            _drive(ring, 8, bus=4)
    compiles = fast.plan_compiles
    assert compiles == 2
    for ring in (reference, fast):
        ring.config.apply_plane(plane_a)
    with fast.profile() as profile:
        for _ in range(5):
            fast.step(bus=4)
    reference.run(5, bus=4)
    assert fast.plan_compiles == compiles
    assert profile.interpreted_cycles == 0
    assert profile.fastpath_cycles == 5
    assert _state(reference) == _state(fast)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("batch_size", [1, 3])
def test_midrun_reconfiguration_all_backends(seed, batch_size):
    """Reconfigure mid-run under all three engines, batch included.

    The batch engine must drop its lane plan on any configuration write
    (via the ring's invalidation listeners), keep the lane state,
    recompile exactly once on the next run, and end bit-identical to the
    interpreter and the macro rung — on every lane (the host stimulus is
    broadcast, so all lanes mirror the scalar run).
    """
    geometry = RingGeometry(layers=4, width=2)
    reference = Ring(geometry, backend="interpreter")
    fast = Ring(geometry, backend="native")
    batch = Ring(geometry, backend="batch", batch_size=batch_size)
    # B=1 rides the scalar ladder unless the vector engine has been
    # handed out; this test exercises the engine, so engage it.
    batch.batch
    rings = (reference, fast, batch)
    hosts = [_HostLog() for _ in rings]
    for ring in rings:
        _apply_random_config(ring, random.Random(seed))
    for ring, host in zip(rings, hosts):
        ring.run(15, host_in=host)
    engine = batch._batch_engine

    # Native is refused here, so every lane cycle ran on the one macro
    # lane kernel of the configuration, whatever its period.
    assert engine is not None and batch.macro_cycles == 15
    compiles = batch.plan_compiles
    assert compiles == 1
    invalidations = engine.invalidations
    ring_invalidations = batch.plan_invalidations
    for ring in rings:
        _apply_random_config(ring, random.Random(seed + 1000))
    assert not fast._steady, "reconfiguration must drop the kernels"
    assert engine.invalidations == invalidations + 1, (
        "reconfiguration must drop the lane plan"
    )
    assert batch.plan_invalidations == ring_invalidations + 1
    for ring, host in zip(rings, hosts):
        ring.run(15, host_in=host)
    assert batch.macro_cycles == 30
    assert batch.plan_compiles == compiles + 1, (
        "one recompile, once stable")
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
    # macro kernel (whose globals bind those containers) stays valid.
    reference, fast = _make_pair(seed)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(12, host_in=ref_host)
    _drive(fast, 12, host_in=fast_host)
    reference.reset()
    fast.reset()
    for ring in (reference, fast):
        ring.push_fifo(0, 0, 1, [7, 8, 9])
    reference.run(12, host_in=ref_host)
    _drive(fast, 12, host_in=fast_host)
    assert ref_host.calls == fast_host.calls
    assert _state(reference) == _state(fast)


@pytest.mark.parametrize("seed", range(5))
def test_reset_with_live_fifo_handles_and_compiled_plan(seed):
    # Harder reset scenario: FIFOs already hold data when the kernel
    # binds (so its pop/peek globals name those exact deques), then
    # reset() empties them in place mid-run.  The kernel survives and
    # must keep matching the interpreter on the refilled state.
    reference, fast = _make_pair(seed + 2000)
    ref_host, fast_host = _HostLog(), _HostLog()
    reference.run(9, host_in=ref_host)
    _drive(fast, 9, host_in=fast_host)
    assert _macro_active(fast)
    plan_before = fast._steady.get("macro")
    reference.reset()
    fast.reset()
    assert fast._steady.get("macro") is plan_before, \
        "reset clears state in place; it must not drop the kernel"
    rng = random.Random(seed + 3000)
    refill = [rng.randrange(1 << word.WIDTH) for _ in range(6)]
    for ring in (reference, fast):
        ring.push_fifo(0, 0, 1, refill)
        ring.push_fifo(1, 1, 2, refill[:3])
    reference.run(9, host_in=ref_host)
    _drive(fast, 9, host_in=fast_host)
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
# Sampled-trace equivalence: chunk-running between captures must capture
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
        assert fast.macro_cycles > 0, \
            "a sampled trace must not keep the ring off the macro rung"
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
    assert fast.macro_cycles > 0
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
        assert not ring._steady
        assert ring.dnode(0, 0).out == i
    assert ring.plan_compiles == ring.macro_cycles == 0


def test_single_interpreted_cycle_before_compile():
    ring = Ring(RingGeometry(layers=4, width=2))
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, dst=Dest.OUT, imm=1))
    ring.step()
    assert not ring._steady            # config was dirty this cycle
    ring.step()
    assert _macro_active(ring)         # stepped once: compiled, ran
    assert ring.plan_compiles == ring.macro_cycles == 1
    ring.run(10)
    assert ring.dnode(0, 0).out == 12


def test_fastpath_disabled_never_compiles():
    ring = Ring(RingGeometry(layers=4, width=2), backend="interpreter")
    ring.run(10)
    assert not ring._steady and ring.plan_compiles == 0


# ----------------------------------------------------------------------
# Error-path equivalence
# ----------------------------------------------------------------------


def _strict_rings():
    """Interpreter, macro rung and a 3-lane batch ring, all strict."""
    geometry = RingGeometry(layers=4, width=2)
    return (Ring(geometry, strict_fifos=True, backend="interpreter"),
            Ring(geometry, strict_fifos=True, backend="native"),
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
    assert fast.macro_cycles == 2  # the error came from the macro kernel
    # Lane 0 ran dry; the deeper lanes keep their undelivered words.
    assert batch.batch.fifo_contents(0, 0, 1, lane=2) == [7, 7]


def test_strict_fifo_pop_error_identical():
    errors = []
    for ring in _strict_rings():
        # NOP reads nothing, so only the commit-phase pop sees the empty
        # FIFO — this exercises the kernel's strict pop raise.
        _load_strict(ring, MicroWord(Opcode.NOP, flags=Flag.POP_FIFO1))
        with pytest.raises(SimulationError) as excinfo:
            ring.run(10)
        errors.append(str(excinfo.value))
    assert errors == ["D0.0 popped empty FIFO1 at cycle 3"] * 3


def test_missing_host_reader_error_identical():
    errors = []
    for backend in ("interpreter", "native"):
        ring = Ring(RingGeometry(layers=4, width=2), backend=backend)
        ring.config.write_switch_route(0, 0, 1, PortSource.host(2))
        with pytest.raises(SimulationError) as excinfo:
            ring.run(10)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]
    assert "no host reader was supplied" in errors[0]


def test_shallow_pipeline_tap_error_identical():
    # Geometry with a 2-deep pipeline but a stage-4 route: the interpreter
    # raises at port resolution; the macro kernel must raise identically
    # (the fetch stays eager precisely because it is observable).
    errors = []
    for backend in ("interpreter", "native"):
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
