"""System-level differential oracle for bulk ``RingSystem.run``.

On a ``backend="native"`` ring an uncontrolled system runs its steady
state as native windows: input streams are gathered as arrays, output
taps are slices of each Dnode's output history, and the host side
(delivered words, underruns, tap schedules) is settled in closed form.
The reference interpreter is the spec, so every generated system runs on
both engines with the same chunk splits and a capture/restore rollback
mid-run, and everything a caller can observe must agree: tap samples and
cycle counts, per-channel delivered/underrun counts and queues, and the
final fabric digest.

The Hypothesis suites are derandomized (pinned example sequence, no
deadline) like the ring-level differential suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import codegen
from repro.compiler.library import fir8
from repro.controller.core import RiscController
from repro.controller.isa import Instruction, ROp
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, restore, state_digest
from repro.core.switch import PortKind, PortSource
from repro.host.streams import OutputTap, StreamChannel
from repro.host.system import RingSystem

from tests.core.test_fuzz import apply_spec, ring_specs

_SETTINGS = dict(deadline=None, derandomize=True)


def _no_loop_source(src: Source) -> Source:
    if src <= Source.R3 or src is Source.SELF:
        return Source.IN1
    if src in (Source.FIFO1, Source.FIFO2):
        return Source.IN2
    return src


def _no_loop_word(mw: MicroWord) -> MicroWord:
    pops = Flag.POP_FIFO1 | Flag.POP_FIFO2
    return MicroWord(op=mw.op, src_a=_no_loop_source(mw.src_a),
                     src_b=_no_loop_source(mw.src_b), dst=mw.dst,
                     flags=mw.flags & ~pops, imm=mw.imm)


def _feed_forward(spec: dict) -> dict:
    """Make a generated fabric feed-forward in time.

    Layer 0 reads the host instead of the last layer (no ring-closing
    ``up()`` route) and no microword reads a register, its own OUT or a
    FIFO, or pops one, so most such fabrics reach long native windows.
    """
    cells = []
    for layer, pos, mw, local, routes, loads in spec["cells"]:
        if layer == 0:
            routes = {port: (PortSource.host(port) if route.kind
                             is PortKind.UP else route)
                      for port, route in routes.items()}
        if local is not None:
            local = [_no_loop_word(w) for w in local]
        cells.append((layer, pos, _no_loop_word(mw), local, routes, loads))
    return dict(spec, cells=cells)


@st.composite
def systems(draw):
    """A fabric, 1-4 taps, streams that run dry, chunks, a rollback."""
    spec = draw(ring_specs(min_layers=2, max_layers=4, min_width=1,
                           max_width=3, max_local=4))
    if draw(st.integers(0, 3)):
        spec = _feed_forward(spec)
    layers, width = spec["layers"], spec["width"]
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    streams = draw(st.dictionaries(
        st.integers(0, 3), st.lists(st.integers(0, 0xFFFF), max_size=24),
        max_size=4))
    chunks = draw(st.lists(st.integers(0, 64), min_size=1, max_size=5))
    rollback = draw(st.integers(0, len(chunks) - 1))
    return spec, taps, streams, chunks, rollback


def _run(case, **ring_kwargs) -> RingSystem:
    """Build and run one generated system on one engine."""
    spec, taps, streams, chunks, rollback = case
    geometry = RingGeometry(layers=spec["layers"], width=spec["width"])
    system = RingSystem(apply_spec(Ring(geometry, **ring_kwargs), spec))
    for channel, words in streams.items():
        system.data.stream(channel, words)
    for layer, pos, skip, every, limit in taps:
        system.data.add_tap(layer, pos, skip=skip, every=every, limit=limit)
    for k, chunk in enumerate(chunks):
        if k == rollback:
            # Run a chunk, then roll fabric and host side back over it.
            fabric, host = capture(system.ring), system.data.capture_state()
            system.run(chunk)
            restore(system.ring, fabric)
            system.data.restore_state(host)
        system.run(chunk)
    return system


class TestNativeMatchesInterpreter:
    @given(case=systems())
    @settings(max_examples=150, **_SETTINGS)
    def test_observables_identical(self, case):
        native = _run(case, backend="native")
        interp = _run(case, fastpath=False)
        # Queues, delivered/underrun counts, tap samples and _seen.
        assert native.data.capture_state() == interp.data.capture_state()
        assert state_digest(native.ring) == state_digest(interp.ring)
        chunks, rollback = case[3], case[4]
        assert native.cycles == interp.cycles == (sum(chunks)
                                                  + chunks[rollback])
        assert sum(native.cycle_paths.values()) == native.cycles


def _fir_system(length: int = 256):
    program = codegen.compile_graph(fir8(),
                                    ring_kwargs={"backend": "native"})
    stream = [((13 * n) % 61) - 30 for n in range(length)]
    return program, stream


class TestNativeWindows:
    def test_fir_program_runs_native_end_to_end(self):
        program, stream = _fir_system()
        ring = Ring(program.geometry, **program.ring_kwargs)
        outputs = program.run(stream, ring=ring)
        assert list(outputs.values()) == list(
            fir8().evaluate({0: stream}).values())
        # Only the warm-up cycles before the first plan run per cycle.
        assert ring.native_cycles == ring.cycles - 2

    def test_cycle_paths_explain_every_cycle(self):
        program, stream = _fir_system()
        system = program.build_system()
        system.data.stream(0, [v & 0xFFFF for v in stream])
        system.data.add_tap(1, 0)
        system.run(100)
        assert system.cycle_paths == {("per_cycle", "no_plan"): 2,
                                      ("bulk", "native"): 98}
        snap = system.metrics()
        assert snap.value("system_cycles_total", path="bulk",
                          reason="native") == 98
        assert "repro_system_cycles_total{" in snap.to_prometheus()

    def test_run_until_taps_full_matches_per_cycle(self):
        program, stream = _fir_system()
        results = []
        for kwargs in ({"backend": "native"}, {"fastpath": False}):
            system = program.build_system(Ring(program.geometry, **kwargs))
            system.data.stream(0, [v & 0xFFFF for v in stream])
            tap = system.data.add_tap(1, 0, skip=5, every=3, limit=40)
            results.append((system.run_until_taps_full(), tap.samples,
                            state_digest(system.ring)))
        assert results[0] == results[1]
        assert results[0][0] == 5 + 3 * 39 + 1


def _selfloop_ring(**kwargs) -> Ring:
    """An accumulator reading its own OUT: native-ineligible."""
    ring = Ring(RingGeometry(layers=2, width=1), **kwargs)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=3))
    return ring


def _fifo_ring(**kwargs) -> Ring:
    """A FIFO-fed MOV that drains its queue mid-run."""
    ring = Ring(RingGeometry(layers=2, width=1), **kwargs)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
    ring.push_fifo(0, 0, 1, list(range(1, 7)))
    return ring


class TestPerCycleReasons:
    @pytest.mark.parametrize("build, expected", [
        (lambda: _selfloop_ring(backend="native"),
         {("per_cycle", "no_plan"): 2, ("per_cycle", "native_refused"): 8}),
        (lambda: _selfloop_ring(),
         {("per_cycle", "backend"): 10}),
        (lambda: _fifo_ring(backend="native"),
         {("per_cycle", "no_plan"): 2, ("bulk", "native"): 4,
          ("per_cycle", "fifo_gated"): 4}),
    ])
    def test_reasons(self, build, expected):
        system = RingSystem(build())
        system.data.add_tap(0, 0)
        system.run(10)
        assert system.cycle_paths == expected

    def test_controller_and_trace_and_direct(self):
        ring = _selfloop_ring(backend="native")
        ctrl = RiscController([Instruction(ROp.WAITI, imm=4),
                               Instruction(ROp.HALT)])
        system = RingSystem(ring, ctrl)
        system.data.add_tap(0, 0)
        system.run(3)
        system.step()
        system.controller = None
        ring.add_observer(lambda _ring: None)
        system.run(2)
        assert system.cycle_paths == {("per_cycle", "controller"): 3,
                                      ("per_cycle", "direct"): 1,
                                      ("per_cycle", "trace"): 2}

    def test_idle_runs_are_bulk(self):
        system = RingSystem(_selfloop_ring(backend="native"))
        system.run(5)
        assert system.cycle_paths == {("bulk", "idle"): 5}

    def test_chunked_idle_runs_count_every_dry_cycle(self):
        # A routed dry channel underruns once per cycle, whether the
        # cycles run in one idle chunk or several.
        ring = Ring(RingGeometry(layers=2, width=1))
        ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
        system = RingSystem(ring)
        for _ in range(3):
            system.run(4)
        assert system.data.channel(0).underruns == 12


class TestWindowForms:
    """The closed forms equal the per-cycle protocol they replace."""

    @given(values=st.lists(st.integers(0, 0xFFFF), max_size=40),
           cuts=st.lists(st.integers(0, 40), max_size=3),
           skip=st.integers(0, 8), every=st.integers(1, 5),
           limit=st.one_of(st.none(), st.integers(0, 12)))
    @settings(max_examples=150, **_SETTINGS)
    def test_observe_window_equals_observe_calls(self, values, cuts, skip,
                                                 every, limit):
        stepped = OutputTap(0, 0, skip=skip, every=every, limit=limit)
        for value in values:
            stepped.observe(value)
        windowed = OutputTap(0, 0, skip=skip, every=every, limit=limit)
        bounds = sorted({0, len(values), *(c for c in cuts
                                           if c <= len(values))})
        for lo, hi in zip(bounds, bounds[1:]):
            windowed.observe_window(np.array(values[lo:hi], np.int64))
        assert windowed.samples == stepped.samples
        assert windowed._seen == stepped._seen

    @given(words=st.lists(st.integers(0, 0xFFFF), max_size=12),
           cycles=st.integers(0, 20), routed=st.booleans(),
           latched=st.booleans())
    @settings(max_examples=150, **_SETTINGS)
    def test_window_and_settle_equal_current_and_advance(
            self, words, cycles, routed, latched):
        stepped, settled = StreamChannel(words), StreamChannel(words)
        if latched:
            # A read between clocks sets the dry latch.
            stepped.current()
            settled.current()
        presented = []
        for _ in range(cycles):
            word = stepped.current() if routed else (
                stepped._queue[0] if stepped._queue else 0)
            presented.append(word)
            stepped.advance()
        assert settled.window(0, cycles).tolist() == presented
        settled.settle(cycles, routed)
        assert (settled.delivered, settled.underruns, settled.pending()) \
            == (stepped.delivered, stepped.underruns, stepped.pending())
