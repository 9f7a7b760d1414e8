"""System-level differential oracle for bulk ``RingSystem.run``.

On a ``backend="native"`` ring an uncontrolled system runs its steady
state as native or macro windows: input streams are gathered as arrays,
output taps come back as each Dnode's output history, and the host side
(delivered words, underruns, tap schedules) is settled in closed form.
Half the generated fabrics hold a Dnode native refuses, so the macro
rung must serve their windows.
The reference interpreter is the spec, so every generated system runs on
both engines with the same chunk splits and a checkpoint rollback
mid-run, and everything a caller can observe must agree: tap samples and
cycle counts, per-channel delivered/underrun counts and queues, and the
final fabric digest.  Some native runs also move to a fresh ring and
system at a chunk boundary (checkpoint there, restore on the fresh
system) and must still match the uninterrupted interpreter run.

Controller-driven systems get the same treatment against a stricter
reference: random controller programs over random configuration planes,
where the bulk path runs the controller's quiet spans (``WAITI``
countdowns, a halted drain) as windows and must match an interpreter
system stepped one cycle at a time.

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
from repro.core import ring as ring_module
from repro.core.config_memory import ConfigPlane
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, snapshot_digest, state_digest
from repro.core.switch import PortKind, PortSource
from repro.errors import ConfigurationError, SimulationError
from repro.host.streams import OutputTap, StreamChannel
from repro.host.system import RingSystem

from tests.conftest import _refuse_macro, bulk_refused, rung_seam
from tests.core.test_fuzz import apply_spec, build_ring, ring_specs

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
def nonlinear_words(draw):
    """A word native refuses and macro runs: ``MULH`` or a shift fed
    back through ``SELF``, or a saturating ``MACS`` accumulator (its
    result also written to OUT, where taps see it)."""
    v = draw(st.sampled_from([Source.IMM, Source.IN1, Source.IN2,
                              Source.BUS, Source.R1, Source.SELF]))
    imm = draw(st.integers(0, 0xFFFF))
    kind = draw(st.sampled_from([Opcode.MULH, Opcode.SHL, Opcode.SHR,
                                 Opcode.ASR, Opcode.MACS]))
    if kind is Opcode.MACS:
        a = draw(st.sampled_from([Source.SELF, Source.IN1, Source.IMM]))
        return MicroWord(Opcode.MACS, a, v, Dest(draw(st.integers(0, 3))),
                         flags=Flag.WRITE_OUT, imm=imm)
    return MicroWord(kind, Source.SELF, v, Dest.OUT, imm=imm)


def _plant(draw, spec: dict) -> dict:
    """Make one Dnode of a spec nonlinear, in global mode or as a local
    program of 1-4 nonlinear slots (a local period above 1).

    Every slot writes what the next one reads back (OUT, or the MACS
    register), so native refuses the fabric: a self-recurrence with no
    closed form, or a cyclic dependence across phases.
    """
    cells = list(spec["cells"])
    k = draw(st.integers(0, len(cells) - 1))
    layer, pos, _mw, _local, routes, loads = cells[k]
    local = draw(st.one_of(st.none(), st.lists(nonlinear_words(),
                                               min_size=1, max_size=4)))
    cells[k] = (layer, pos, draw(nonlinear_words()), local, routes, loads)
    return dict(spec, cells=cells)


@st.composite
def systems(draw):
    """A fabric, 1-4 taps, streams that run dry, chunks, a rollback and
    an optional hand-off to a fresh system before one chunk.

    Half the fabrics get a nonlinear Dnode (:func:`_plant`) and a last
    chunk of 64 cycles, so the macro rung must serve windows."""
    spec = draw(ring_specs(min_layers=2, max_layers=4, min_width=1,
                           max_width=3, max_local=4))
    if draw(st.integers(0, 3)):
        spec = _feed_forward(spec)
    nonlinear = draw(st.booleans())
    if nonlinear:
        spec = _plant(draw, spec)
    layers, width = spec["layers"], spec["width"]
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    streams = draw(st.dictionaries(
        st.integers(0, 3), st.lists(st.integers(0, 0xFFFF), max_size=24),
        max_size=4))
    chunks = draw(st.lists(st.integers(0, 64), min_size=1, max_size=5))
    if nonlinear:
        chunks.append(64)
    rollback = draw(st.integers(0, len(chunks) - 1))
    handoff = draw(st.one_of(st.none(), st.integers(0, len(chunks) - 1)))
    return spec, taps, streams, chunks, rollback, handoff, nonlinear


def _assert_ladder_served(paths: dict, nonlinear: bool) -> None:
    """No span was stepped for want of a bulk rung: the macro rung takes
    every span native refuses or FIFO-gates (the generated periods are
    far below the unroll cap), and a nonlinear fabric's long span ran
    as macro windows."""
    assert ("per_cycle", "native_refused") not in paths
    assert ("per_cycle", "fifo_gated") not in paths
    if nonlinear:
        assert paths.get(("bulk", "macro"), 0) > 0


def _run(case, handoff: bool = False, **ring_kwargs):
    """Build and run one generated system on one engine.

    With *handoff* the run moves to a fresh ring and system before the
    case's hand-off chunk.  Returns the system that finished and the
    cycles it executed, the rolled-back chunk included.
    """
    spec, taps, streams, chunks, rollback, handoff_at, _ = case
    geometry = RingGeometry(layers=spec["layers"], width=spec["width"])

    def build(ring: Ring) -> RingSystem:
        system = RingSystem(ring)
        for layer, pos, skip, every, limit in taps:
            system.data.add_tap(layer, pos, skip=skip, every=every,
                                limit=limit)
        return system

    system = build(apply_spec(Ring(geometry, **ring_kwargs), spec))
    for channel, words in streams.items():
        system.data.stream(channel, words)
    executed = 0
    for k, chunk in enumerate(chunks):
        if handoff and k == handoff_at:
            saved = system.checkpoint()
            system = build(Ring(geometry, **ring_kwargs))
            system.restore_checkpoint(saved)
            executed = 0
        if k == rollback:
            # Run a chunk, then roll the whole system back over it.
            saved = system.checkpoint()
            system.run(chunk)
            system.restore_checkpoint(saved)
            executed += chunk
        system.run(chunk)
        executed += chunk
    return system, executed


class TestNativeMatchesInterpreter:
    @given(case=systems())
    @settings(max_examples=150, **_SETTINGS)
    def test_observables_identical(self, case):
        native, executed = _run(case, handoff=True, backend="native")
        interp, _ = _run(case, backend="interpreter")
        # Queues, delivered/underrun counts, tap samples and _seen.
        assert native.data.capture_state() == interp.data.capture_state()
        assert state_digest(native.ring) == state_digest(interp.ring)
        assert native.cycles == interp.cycles == sum(case[3])
        assert sum(native.cycle_paths.values()) == executed
        _assert_ladder_served(native.cycle_paths, case[-1])


@st.composite
def lane_systems(draw):
    """A fabric, 1-4 taps, per-lane streams and FIFO loads that run dry,
    chunks and a rollback, for a batch ring of 2-4 lanes."""
    spec = draw(ring_specs(min_layers=2, max_layers=4, min_width=1,
                           max_width=3, max_local=4))
    if draw(st.booleans()):
        spec = _feed_forward(spec)
    layers, width = spec["layers"], spec["width"]
    batch = draw(st.integers(2, 4))
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    channels = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
    streams = [{channel: draw(st.lists(st.integers(0, 0xFFFF),
                                       max_size=24))
                for channel in channels} for _ in range(batch)]
    loads = [draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.sampled_from((1, 2)),
        st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=8)),
        max_size=2)) for _ in range(batch)]
    chunks = draw(st.lists(st.integers(0, 64), min_size=1, max_size=5))
    rollback = draw(st.integers(0, len(chunks) - 1))
    return spec, taps, streams, loads, chunks, rollback


def _lane_mirror(ring: Ring) -> tuple:
    """Digest of a ring's scalar state without its lanes or FIFO
    high-water marks (lane-specific FIFO loads bypass the scalar
    queues, so the batch ring's marks cover broadcast pushes only)."""
    snapshot = capture(ring)
    snapshot.lanes = None
    snapshot.fifo_high_water = {}
    return snapshot_digest(snapshot)


class TestBatchLanesMatchInterpreter:
    """A batch system == one per-cycle interpreter system per lane.

    Every lane gets its own streams and FIFO loads.  After each chunk
    the lane-0 scalar mirror must match lane 0's interpreter ring; at
    the end every lane's taps, stream counters and datapath must match
    its own interpreter run.  One chunk is rolled back over a
    ``system.checkpoint()``, and a ring with an every-cycle observer
    must step per cycle yet agree all the same.
    """

    @staticmethod
    def _build(case, ring: Ring, lane=None) -> RingSystem:
        spec, taps, streams, loads = case[:4]
        apply_spec(ring, spec)
        system = RingSystem(ring)
        for k, (lane_streams, lane_loads) in enumerate(zip(streams, loads)):
            if lane is not None and k != lane:
                continue
            for layer, pos, channel, words in lane_loads:
                if lane is None:
                    ring.batch.push_fifo(layer, pos, channel, words, lane=k)
                else:
                    ring.push_fifo(layer, pos, channel, words)
            for channel, words in lane_streams.items():
                if lane is None:
                    system.data.stream(channel, words, lane=k)
                else:
                    system.data.stream(channel, words)
        for layer, pos, skip, every, limit in taps:
            system.data.add_tap(layer, pos, skip=skip, every=every,
                                limit=limit)
        return system

    @pytest.mark.parametrize("trace", [False, True],
                             ids=["windows", "traced"])
    @given(case=lane_systems())
    @settings(max_examples=60, **_SETTINGS)
    def test_every_lane_matches_its_interpreter_run(self, trace, case):
        spec, _, streams, _, chunks, rollback = case
        geometry = RingGeometry(layers=spec["layers"], width=spec["width"])
        batch = len(streams)
        system = self._build(case, Ring(geometry, backend="batch",
                                        batch_size=batch))
        if trace:
            system.ring.add_observer(lambda _ring: None)
        refs = [self._build(case, Ring(geometry, backend="interpreter"),
                            lane=k) for k in range(batch)]
        executed = 0
        for k, chunk in enumerate(chunks):
            if k == rollback:
                saved = system.checkpoint()
                system.run(chunk)
                system.restore_checkpoint(saved)
                executed += chunk
            system.run(chunk)
            executed += chunk
            for ref in refs:
                ref.run(chunk)
            if system.cycles:
                # Lane 0 is written back once a run has moved the lanes;
                # until then lane-specific loads live in the engine only.
                assert _lane_mirror(system.ring) == \
                    _lane_mirror(refs[0].ring)

        assert system.cycles == sum(chunks)
        path = ("per_cycle" if trace else "bulk", "lanes")
        assert system.cycle_paths == ({path: executed} if executed else {})
        engine = system.ring.batch
        target = build_ring(spec, backend="interpreter")
        target.reset()  # store_lane writes only the FIFOs lanes hold
        for lane, ref in enumerate(refs):
            for tap, want in zip(system.data.taps, ref.data.taps):
                assert (tap.lane(lane), tap._seen) == \
                    (want.samples, want._seen)
            for index, channel in system.data._channels.items():
                want = ref.data.channel(index)
                assert (channel.delivered[lane], channel.underruns[lane],
                        channel.lane_pending(lane)) == \
                    (want.delivered, want.underruns, want.pending())
            engine.store_lane(lane, target=target)
            assert _lane_mirror(target) == _lane_mirror(ref.ring)
            width = geometry.width
            for layer in range(geometry.layers):
                for pos in range(width):
                    assert engine.lane_regs(layer, pos)[:, lane].tolist() \
                        == ref.ring.dnode(layer, pos).regs.snapshot()


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
        for kwargs in ({"backend": "native"}, {"backend": "interpreter"}):
            system = program.build_system(Ring(program.geometry, **kwargs))
            system.data.stream(0, [v & 0xFFFF for v in stream])
            tap = system.data.add_tap(1, 0, skip=5, every=3, limit=40)
            results.append((system.run_until_taps_full(), tap.samples,
                            state_digest(system.ring)))
        assert results[0] == results[1]
        assert results[0][0] == 5 + 3 * 39 + 1


def _selfloop_ring(**kwargs) -> Ring:
    """``OUT = 3 - OUT``: a SELF recurrence whose sign alternates, so it
    has no cumsum closed form and stays native-ineligible."""
    ring = Ring(RingGeometry(layers=2, width=1), **kwargs)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.SUB, Source.IMM, Source.SELF, Dest.OUT, imm=3))
    return ring


def _fifo_ring(**kwargs) -> Ring:
    """A FIFO-fed MOV that drains its queue mid-run."""
    ring = Ring(RingGeometry(layers=2, width=1), **kwargs)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
    ring.push_fifo(0, 0, 1, list(range(1, 7)))
    return ring


class TestPerCycleReasons:
    # Native refuses the selfloop ring and gates the drained FIFO ring;
    # the macro rung takes both spans as windows.  The per-cycle
    # reasons for a span neither rung takes are pinned below with the
    # bulk_refused seam.
    @pytest.mark.parametrize("build, expected", [
        (lambda: _selfloop_ring(backend="native"),
         {("per_cycle", "no_plan"): 2, ("bulk", "macro"): 8}),
        (lambda: _selfloop_ring(backend="interpreter"),
         {("per_cycle", "backend"): 10}),
        (lambda: _fifo_ring(backend="native"),
         {("per_cycle", "no_plan"): 2, ("bulk", "native"): 4,
          ("bulk", "macro"): 4}),
    ])
    def test_reasons(self, build, expected):
        system = RingSystem(build())
        system.data.add_tap(0, 0)
        system.run(10)
        assert system.cycle_paths == expected

    @pytest.mark.parametrize("build", [_selfloop_ring, _fifo_ring])
    def test_reasons_when_no_bulk_rung_takes_the_span(self, build):
        with bulk_refused():
            system = RingSystem(build())
            system.data.add_tap(0, 0)
            system.run(10)
        assert system.cycle_paths == {("per_cycle", "no_plan"): 2,
                                      ("per_cycle", "native_refused"): 8}

    def test_fifo_gated_when_macro_is_refused(self):
        """Native takes the FIFO-safe prefix; with the macro rung
        refused the drained rest steps per cycle as ``fifo_gated``."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ring_module, "compile_macro", _refuse_macro)
            system = RingSystem(_fifo_ring())
            system.data.add_tap(0, 0)
            system.run(10)
        assert system.cycle_paths == {("per_cycle", "no_plan"): 2,
                                      ("bulk", "native"): 4,
                                      ("per_cycle", "fifo_gated"): 4}

    @staticmethod
    def _lane_system(**ring_kwargs) -> RingSystem:
        """``OUT = IN1 + 1`` over 3 lanes, each streaming its own words."""
        ring = Ring(RingGeometry(layers=2, width=1), backend="batch",
                    batch_size=3, **ring_kwargs)
        ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
        system = RingSystem(ring)
        for lane in range(3):
            system.data.stream(0, [10 * lane + k for k in range(4)],
                               lane=lane)
        system.data.add_tap(0, 0, limit=6)
        return system

    def test_tapped_streamed_lanes_run_in_windows(self):
        system = self._lane_system()
        system.run(10)
        assert system.cycle_paths == {("bulk", "lanes"): 10}
        assert system.data.taps[0].lane(2) == [21, 22, 23, 24, 1, 1]
        assert system.data.channel(0).underruns == [6, 6, 6]
        assert system.ring.dnode(0, 0).out == 1  # lane 0 written back

    def test_one_lane_engine_feeds_scalar_taps(self):
        """A one-lane ring whose engine was handed out keeps a scalar
        data controller; its windows read lane 0."""
        results, paths = [], []
        for kwargs in ({"backend": "batch", "batch_size": 1}, {}):
            ring = Ring(RingGeometry(layers=2, width=1), **kwargs)
            if kwargs:
                ring.batch  # engage the lane engine at B=1
            ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
            ring.config.write_microword(0, 0, MicroWord(
                Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
            system = RingSystem(ring)
            system.data.stream(0, [5, 6, 7])
            tap = system.data.add_tap(0, 0, skip=1, limit=4)
            system.run(6)
            # The digest's last field is the lane state (lanes only).
            results.append((tap.samples, system.data.channel(0).underruns,
                            state_digest(ring)[:-1]))
            paths.append(system.cycle_paths)
        assert results[0] == results[1]
        assert results[0][0] == [7, 8, 1, 1]
        assert paths[0] == {("bulk", "lanes"): 6}

    @pytest.mark.parametrize("kind", ["trace", "strict"])
    def test_watched_or_strict_lanes_step(self, kind):
        system = self._lane_system(strict_fifos=kind == "strict")
        if kind == "trace":
            system.ring.add_observer(lambda _ring: None)
        system.run(10)
        assert system.cycle_paths == {("per_cycle", "lanes"): 10}
        assert system.data.taps[0].lane(2) == [21, 22, 23, 24, 1, 1]

    def test_selfloop_refusal_reason(self):
        assert _selfloop_ring(backend="native").native_refusal == (
            "D0.0 phase 0: SUB self-recurrence has no closed form")

    def test_controller_and_trace_and_direct(self):
        ring = _selfloop_ring(backend="native")
        ctrl = RiscController([Instruction(ROp.WAITI, imm=4),
                               Instruction(ROp.HALT)])
        system = RingSystem(ring, ctrl)
        system.data.add_tap(0, 0)
        # Cycle 1 executes WAITI; cycles 2-3 are quiet and take the
        # native ladder: the first steps for want of a plan (the fast
        # path compiles after one stable cycle), the second is a macro
        # window (native refuses the configuration).
        system.run(3)
        system.step()
        system.controller = None
        ring.add_observer(lambda _ring: None)
        system.run(2)
        assert system.cycle_paths == {("per_cycle", "controller"): 1,
                                      ("per_cycle", "no_plan"): 1,
                                      ("bulk", "macro"): 1,
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


def _strict_macs_system(kind: str, backend: str) -> RingSystem:
    """A strict-FIFO fabric native refuses, draining mid-run.

    D0.0 adds 1 to a host stream that runs dry after 5 words; D1.0 is a
    saturating ``MACS`` accumulator that *kind* ``"read"`` feeds from its
    FIFO (popping it) and *kind* ``"pop"`` only pops.  Either way the
    8-word FIFO runs empty on cycle 8, a cycle whose routed host port
    already read the dry stream.
    """
    ring = Ring(RingGeometry(layers=2, width=1), strict_fifos=True,
                backend=backend)
    ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
    ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
    source = Source.FIFO1 if kind == "read" else Source.IN1
    ring.config.write_microword(1, 0, MicroWord(
        Opcode.MACS, source, Source.IMM, Dest.R0,
        flags=Flag.POP_FIFO1 | Flag.WRITE_OUT, imm=3))
    ring.push_fifo(1, 0, 1, [100 * k for k in range(1, 9)])
    system = RingSystem(ring)
    system.data.stream(0, [10, 20, 30, 40, 50])
    system.data.add_tap(1, 0)
    system.data.add_tap(0, 0, skip=1, every=2)
    return system


class TestMacroWindows:
    @pytest.mark.parametrize("kind", ["read", "pop"])
    def test_strict_fifo_error_mid_window_matches_stepping(self, kind):
        observed, paths = [], []
        for backend in ("native", "interpreter"):
            system = _strict_macs_system(kind, backend)
            with pytest.raises(SimulationError) as error:
                system.run(30)
            channel = system.data.channel(0)
            observed.append((
                str(error.value), system.ring.cycles, system.cycles,
                [tap.samples for tap in system.data.taps],
                [tap._seen for tap in system.data.taps],
                channel.delivered, channel.underruns, channel.pending()))
            paths.append(system.cycle_paths)
        native, stepped = observed
        assert native == stepped
        verb = "read" if kind == "read" else "popped"
        assert native[0] == f"D1.0 {verb} empty FIFO1 at cycle 8"
        assert native[1:3] == (8, 8)
        # Cycles 5-7 and the aborted cycle 8 read the dry stream.
        assert native[5:7] == (5, 4)
        assert paths == [{("per_cycle", "no_plan"): 2, ("bulk", "macro"): 6},
                         {("per_cycle", "backend"): 8}]

    def test_novel_reconfiguration_stream_never_compiles(self):
        """A never-repeating per-cycle reconfiguration stream through
        ``RingSystem.run``: the window boundary's plan lookup is
        hit-only, so each fingerprint misses once and nothing
        compiles."""
        ring = Ring(RingGeometry(layers=2, width=1))
        ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
        system = RingSystem(ring)
        system.data.stream(0, list(range(100, 140)))
        tap = system.data.add_tap(0, 0)
        for k in range(24):
            ring.config.write_microword(0, 0, MicroWord(
                Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=k))
            system.run(1)
        assert ring.plan_compiles == 0
        assert ring.native_compiles == 0
        assert ring.plan_cache.misses == 24
        assert system.cycle_paths == {("per_cycle", "no_plan"): 24}
        assert tap.samples == [100 + 2 * k for k in range(24)]

    def test_known_plane_switch_steps_no_cycle(self):
        """A switch back to a cached configuration adopts its plan at
        the window boundary: its span runs whole as a window."""
        ring = _selfloop_ring()
        selfloop = ring.config.capture_plane()
        system = RingSystem(ring)
        system.data.add_tap(0, 0)
        system.run(10)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=1))
        system.run(10)
        ring.config.apply_plane(selfloop)
        hits = ring.plan_cache.hits
        system.run(10)
        assert system.cycle_paths == {("per_cycle", "no_plan"): 4,
                                      ("bulk", "macro"): 18,
                                      ("bulk", "native"): 8}
        # The per-cycle plan, the native refusal and the macro kernel.
        assert ring.plan_cache.hits == hits + 3

    def test_native_window_writes_pipelines_in_place(self):
        """Native write-back keeps each pipeline list (macro kernels bind
        them) and rotates the stages to the switch's head."""
        program, stream = _fir_system(64)
        ring = Ring(program.geometry)
        pipes = [list(map(id, ring.switch(k)._pipes))
                 for k in range(ring.geometry.layers)]
        reference = Ring(program.geometry, backend="interpreter")
        for fabric in (ring, reference):
            system = program.build_system(fabric)
            system.data.stream(0, [v & 0xFFFF for v in stream])
            system.data.add_tap(1, 0)
            system.run(40)
        assert ring.native_cycles == 38
        assert [list(map(id, ring.switch(k)._pipes))
                for k in range(ring.geometry.layers)] == pipes
        assert state_digest(ring) == state_digest(reference)

    def test_native_write_back_checks_words_like_rp_write(self):
        """A word outside 16 bits fails the write-back exactly where
        ``Switch.rp_write`` would have raised for it."""
        ring = Ring(RingGeometry(layers=2, width=1))
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
        ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
        system = RingSystem(ring)
        system.data.add_tap(1, 0)
        system.run(4)
        assert ring.native_cycles == 2
        ring.dnode(0, 0)._out = 0x12345  # D0.0 never writes OUT
        with pytest.raises(ValueError, match=(
                r"switch 1 lane 0 must be a 16-bit raw word, "
                r"got 74565")):
            system.run(8)


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


# -- controller-driven systems -------------------------------------------

#: Metric families that describe the engine, not the machine: which rung
#: ran each cycle and what the plan caches did.
_ENGINE_FAMILIES = frozenset({
    "system_cycles_total", "native_cycles_total", "native_plan_compiles_total",
    "native_fallback_cycles_total", "macro_step_cycles_total",
    "ring_plan_compiles_total", "ring_plan_invalidations_total",
    "plan_cache_hits_total", "plan_cache_misses_total",
    "plan_cache_evictions_total",
})


def _plane(spec: dict, complete: bool = False) -> ConfigPlane:
    """A configuration plane from a generated spec.

    By default the plane lists only what the spec writes (a partial
    plane).  With *complete* it is captured from a scratch ring, so it
    covers every field and ``CFGPLANE`` takes the resident-plane and
    memoized-diff paths of ``apply_plane``.
    """
    if complete:
        return build_ring(spec, backend="interpreter").config.capture_plane()
    microwords, modes, local_programs, routes = {}, {}, {}, {}
    for layer, pos, mw, local, cell_routes, _loads in spec["cells"]:
        microwords[(layer, pos)] = mw
        modes[(layer, pos)] = (DnodeMode.LOCAL if local is not None
                               else DnodeMode.GLOBAL)
        if local is not None:
            local_programs[(layer, pos)] = (tuple(local), len(local))
        for port, route in cell_routes.items():
            routes[(layer, pos, port)] = route
    return ConfigPlane(microwords=microwords, modes=modes,
                       local_programs=local_programs, switch_routes=routes)


def _simple_instructions(planes: int):
    return st.one_of(
        st.builds(lambda rd, imm: Instruction(ROp.LDI, rd=rd, imm=imm),
                  st.integers(1, 4), st.integers(0, 0xFFFF)),
        st.builds(lambda n: Instruction(ROp.WAITI, imm=n),
                  st.integers(0, 40)),
        st.builds(lambda k: Instruction(ROp.CFGPLANE, plane=k),
                  st.integers(0, planes - 1)),
        st.builds(lambda rs: Instruction(ROp.BUSW, rs=rs),
                  st.integers(1, 4)),
    )


@st.composite
def controller_programs(draw, planes: int):
    """Straight-line blocks and counted ``ADDI``/``BNE`` loops over
    ``LDI``/``WAITI``/``CFGPLANE``/``BUSW``, ending in ``HALT``."""
    simple = _simple_instructions(planes)
    program = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            program.append(draw(simple))
            continue
        body = draw(st.lists(simple, min_size=1, max_size=4))
        program += [Instruction(ROp.LDI, rd=14,
                                imm=draw(st.integers(1, 3))),
                    Instruction(ROp.LDI, rd=13, imm=0),
                    *body,
                    Instruction(ROp.ADDI, rd=14, rs=14, imm=-1),
                    Instruction(ROp.BNE, rs=14, rt=13,
                                imm=-(len(body) + 2))]
    return program + [Instruction(ROp.HALT)]


@st.composite
def controlled_systems(draw):
    """A fabric, 2-3 partial or complete planes, a controller program,
    taps, dry streams, run() chunks with a rollback, and a
    run_until_halt budget."""
    layers = draw(st.integers(2, 3))
    width = draw(st.integers(1, 2))
    shape = dict(min_layers=layers, max_layers=layers, min_width=width,
                 max_width=width, max_local=4)
    base = draw(ring_specs(**shape, accumulators=True))
    if draw(st.booleans()):
        base = _feed_forward(base)
    # Nonlinear cases plant a nonlinear Dnode in the base and in every
    # plane, and wait 100 cycles before HALT: a quiet span under a
    # native-refused configuration, served by macro windows.
    nonlinear = draw(st.booleans())
    if nonlinear:
        base = _plant(draw, base)
    planes = []
    for _ in range(draw(st.integers(2, 3))):
        spec = draw(ring_specs(**shape, fifo_loads=False,
                               accumulators=True))
        if draw(st.integers(0, 3)):
            spec = _feed_forward(spec)
        if nonlinear:
            spec = _plant(draw, spec)
        planes.append(_plane(spec, complete=draw(st.booleans())))
    program = draw(controller_programs(len(planes)))
    if nonlinear:
        program.insert(-1, Instruction(ROp.WAITI, imm=100))
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 40))), min_size=1, max_size=3))
    streams = draw(st.dictionaries(
        st.integers(0, 3), st.lists(st.integers(0, 0xFFFF), max_size=40),
        max_size=3))
    chunks = draw(st.lists(st.integers(0, 80), max_size=4))
    rollback = draw(st.integers(0, max(0, len(chunks) - 1)))
    budget = draw(st.one_of(st.integers(0, 300), st.just(100_000)))
    drain = draw(st.integers(0, 20))
    return (base, planes, program, taps, streams, chunks, rollback,
            budget, drain, nonlinear)


def _controlled_system(case, **ring_kwargs) -> RingSystem:
    base, planes, program, taps, streams = case[:5]
    geometry = RingGeometry(layers=base["layers"], width=base["width"])
    ring = apply_spec(Ring(geometry, **ring_kwargs), base)
    system = RingSystem(ring, RiscController(program), planes=planes)
    for channel, words in streams.items():
        system.data.stream(channel, words)
    for layer, pos, skip, every, limit in taps:
        system.data.add_tap(layer, pos, skip=skip, every=every, limit=limit)
    return system


def _step_until_halt(system: RingSystem, max_cycles: int,
                     drain: int) -> None:
    """``run_until_halt`` as one :meth:`RingSystem.step` per cycle."""
    start = system.cycles
    while not system.controller.halted:
        system.step()
        if system.cycles - start > max_cycles:
            raise SimulationError(
                f"controller did not halt within {max_cycles} cycles")
    for _ in range(drain):
        system.step()


def _drive(case, per_cycle: bool, **ring_kwargs):
    """Run one generated controlled system; returns it and any error."""
    chunks, rollback, budget, drain, _ = case[5:]
    system = _controlled_system(case, **ring_kwargs)

    def advance(cycles):
        if per_cycle:
            for _ in range(cycles):
                system.step()
        else:
            system.run(cycles)

    try:
        for k, chunk in enumerate(chunks):
            if k == rollback:
                saved = system.checkpoint()
                advance(chunk)
                system.restore_checkpoint(saved)
            advance(chunk)
        if per_cycle:
            _step_until_halt(system, budget, drain)
        else:
            system.run_until_halt(max_cycles=budget, drain=drain)
    except SimulationError as exc:
        return system, str(exc)
    return system, None


def _observables(system: RingSystem, error) -> dict:
    ctrl = system.controller
    metrics = {name: value
               for name, value in system.metrics().as_dict().items()
               if name not in _ENGINE_FAMILIES}
    return {
        "error": error,
        "cycles": system.cycles,
        "host": system.data.capture_state(),
        "controller": (dict(vars(ctrl.state)), ctrl.pc, list(ctrl.regs),
                       ctrl.halted, ctrl.bus_out, ctrl.quiet_cycles()),
        "metrics": metrics,
        "digest": state_digest(system.ring),
    }


class TestControllerDifferential:
    """Controller-driven systems: bulk quiet spans == per-cycle steps.

    The reference steps an interpreter system one :meth:`step` at a
    time, which is the spec for the controller, the fabric and the host
    side alike.  Every engine runs the same case through chunked
    :meth:`RingSystem.run` calls (one rolled back over a checkpoint)
    and :meth:`RingSystem.run_until_halt`, whose budget is sometimes
    too small, so its error must fire on the same cycle.
    """

    # Native ladder columns: the whole ladder, then its per-cycle
    # ("fastpath") and macro rungs pinned by the tests/conftest.py seams.
    # One-element tuples keep the test ids engine0..engine2.
    @pytest.mark.parametrize("engine", [
        ("native",), ("fastpath",), ("macro",)])
    @given(case=controlled_systems())
    @settings(max_examples=100, **_SETTINGS)
    def test_matches_per_cycle_stepping(self, engine, case):
        column, = engine
        with rung_seam(column):
            bulk, bulk_error = _drive(case, per_cycle=False,
                                      backend="native")
        spec, spec_error = _drive(case, per_cycle=True, backend="interpreter")
        assert _observables(bulk, bulk_error) == \
            _observables(spec, spec_error)
        assert sum(bulk.cycle_paths.values()) >= bulk.cycles
        if column != "native":
            assert bulk.ring.native_cycles == 0
        if column == "fastpath":
            assert bulk.ring.macro_cycles == 0
        else:
            # A run_until_halt error may stop short of the last WAITI.
            _assert_ladder_served(bulk.cycle_paths,
                                  case[-1] and bulk_error is None)

    def _waiting_system(self, **ring_kwargs) -> RingSystem:
        """An accumulator plane run by a controller that sits in WAITI."""
        ring = Ring(RingGeometry(layers=2, width=1), **ring_kwargs)
        ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.ADD, Source.IN1, Source.SELF, Dest.OUT))
        accumulate = ConfigPlane(microwords={(0, 0): MicroWord(
            Opcode.ADD, Source.SELF, Source.BUS, Dest.OUT)})
        unwind = ConfigPlane(microwords={(0, 0): MicroWord(
            Opcode.SUB, Source.SELF, Source.BUS, Dest.OUT)})
        program = [Instruction(ROp.LDI, rd=1, imm=12345),
                   Instruction(ROp.BUSW, rs=1),
                   Instruction(ROp.CFGPLANE, plane=0),
                   Instruction(ROp.WAITI, imm=300),
                   Instruction(ROp.CFGPLANE, plane=1),
                   Instruction(ROp.WAITI, imm=50),
                   Instruction(ROp.HALT)]
        system = RingSystem(ring, RiscController(program),
                            planes=[accumulate, unwind])
        system.data.stream(0, list(range(100)))
        system.data.add_tap(1, 0, every=7)
        return system

    def test_waiti_spans_run_native(self):
        system = self._waiting_system(backend="native")
        # 3 + (1 + 299) + 1 + (1 + 49) + 1 controller cycles, 30 drained.
        assert system.run_until_halt(drain=30) == 385
        # LDI, BUSW, CFGPLANE, WAITI; CFGPLANE, WAITI; HALT execute; the
        # stall cycles and the drain (a halted controller) run native.
        assert system.cycle_paths == {("per_cycle", "controller"): 7,
                                      ("bulk", "native"): 299 + 49 + 30}
        state = system.controller.state
        assert (state.cycles, state.retired, state.wait_stalls) == \
            (385, 7, 299 + 49)

    def test_max_cycles_error_fires_mid_wait(self):
        for per_cycle in (False, True):
            system = self._waiting_system(backend="native")
            with pytest.raises(SimulationError, match="within 100 cycles"):
                if per_cycle:
                    _step_until_halt(system, 100, 0)
                else:
                    system.run_until_halt(max_cycles=100)
            assert system.cycles == system.controller.state.cycles == 101
            assert system.controller.quiet_cycles() == 300 - 1 - 97

    def test_checkpoint_mid_waiti_restores(self):
        straight = self._waiting_system(backend="native")
        straight.run_until_halt(drain=5)
        system = self._waiting_system(backend="native")
        system.run(40)
        assert system.controller.quiet_cycles() == 263
        saved = system.checkpoint()
        system.run(200)
        system.restore_checkpoint(saved)
        system.run_until_halt(drain=5)
        restored, expected = (_observables(system, None),
                              _observables(straight, None))
        # Restoring a snapshot rewrites the configuration, and the
        # configuration-write counters count those writes.
        for observed in (restored, expected):
            for family in ("ring_config_writes_total",
                           "switch_route_writes_total"):
                observed["metrics"].pop(family)
        assert restored == expected

    @pytest.mark.parametrize("backend", ["native", "interpreter"])
    def test_rollback_across_cfgplane_is_bit_identical(self, backend):
        # The rolled-back span ends the first WAITI, switches to the
        # unwind plane and enters the second WAITI: unless the checkpoint
        # rewinds the controller too, the rerun never switches planes.
        straight = self._waiting_system(backend=backend)
        straight.run_until_halt(drain=5)
        system = self._waiting_system(backend=backend)
        system.run(40)
        saved = system.checkpoint()
        system.run(300)
        assert system.controller.quiet_cycles() == 14  # second WAITI
        system.restore_checkpoint(saved)
        system.run_until_halt(drain=5)
        assert system.cycles == straight.cycles
        assert [tap.samples for tap in system.data.taps] == \
            [tap.samples for tap in straight.data.taps]
        assert state_digest(system.ring) == state_digest(straight.ring)
        ctrl, want = system.controller, straight.controller
        assert (ctrl.regs, ctrl.pc, ctrl.halted, ctrl.bus_out, ctrl.state) \
            == (want.regs, want.pc, want.halted, want.bus_out, want.state)
        with pytest.raises(ConfigurationError, match="controller"):
            RingSystem(Ring(RingGeometry(layers=2, width=1))) \
                .restore_checkpoint(saved)

    def test_full_search_me_waits_in_native_windows(self):
        from repro.kernels import reference
        from repro.kernels.motion_estimation import build_me_system
        rng = np.random.default_rng(7)
        block = rng.integers(0, 256, (8, 8))
        area = rng.integers(0, 256, (24, 24))
        system, meta = build_me_system(block, area,
                                       ring_kwargs={"backend": "native"})
        system.run_until_halt()
        # 19 batches x 126 WAITI stall cycles run native; the preamble,
        # the plane flips, the loop and HALT step.
        assert system.cycle_paths == {("per_cycle", "controller"): 117,
                                      ("bulk", "native"): 2394}
        sads = [system.data.taps[c % 16].samples[
                    meta["flush_sample_indices"][c // 16]]
                for c in range(17 * 17)]
        _, _, golden = reference.full_search(block, area)
        assert sads == golden.reshape(-1).tolist()
