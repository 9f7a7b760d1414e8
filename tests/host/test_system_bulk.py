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
where the bulk path runs the fabric behind the controller, one window
per stretch of cycles that share a configuration and a bus value, and
must match an interpreter system stepped one cycle at a time.
:class:`TestControllerAhead` plants everything the run-ahead treats
differently: fabric and mailbox reads, word-level configuration writes,
bus changes in loops, failing commands and out-of-range feedback taps,
on strict and lenient rings.

Ring FIFOs and host streams are word queues gathered as slices and
popped by moving a head, so :class:`TestDryQueues` drains them mid-window
on every rung (native and macro windows, one-cycle macro calls and
stepped cycles), refills them, and pushes in every accepted form.
Batch lane FIFOs and lane streams share one head across lanes, so
:class:`TestLaneQueues` runs lanes dry at different cycles, pushes to a
dry lane, drops words, checkpoints, and raises a strict FIFO on one
lane, each lane against its own interpreter system.

The native kernel runs Dnodes with one schedule as one group over a
member axis, so :class:`TestDnodeGroups` replicates random local loops
over 2-16 Dnodes with their own immediates, registers and FIFO contents
(running dry at different cycles), strict FIFOs, me_search's
``CFGPLANE`` flips, taps, rollback and batch lanes.

Configurations over native's unroll cap (period 280, or a period of 56
on 76 Dnodes) run on one macro kernel whose Dnodes branch on their own
sequencer counters, so :class:`TestOverCapConfigurations` runs them on
a native ring, one cycle per kernel call and on batch lanes, with taps,
dry streams, strict-FIFO errors mid-window, rollback and controller
steps at random counter alignments, and counts one compile.

The Hypothesis suites are derandomized (pinned example sequence, no
deadline) like the ring-level differential suite.
"""

from __future__ import annotations

import gc
import math
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compiler import codegen
from repro.compiler.library import fir8
from repro.controller.core import RiscController
from repro.controller.isa import Instruction, ROp
from repro.core import plancache
from repro.core.config_memory import ConfigPlane
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source, encode
from repro.core.macropath import MacroLanePlan, MacroPlan
from repro.core.nativepath import native_template
from repro.core.ring import NATIVE_MIN_SPAN, Ring, RingGeometry
from repro.core.snapshot import capture, snapshot_digest, state_digest
from repro.core.switch import PortKind, PortSource, encode_route
from repro.errors import ConfigurationError, SimulationError
from repro.host.streams import OutputTap, StreamChannel
from repro.host.system import RingSystem
from repro.kernels import reference, wavelet
from repro.kernels.effects import build_echo
from repro.kernels.iir import build_first_order_iir

from tests.conftest import native_refused, rung_seam
from tests.core.test_fuzz import (
    _legal_word,
    accumulator_words,
    apply_spec,
    build_ring,
    port_sources,
    ring_specs,
)
from tests.core.test_isa import microwords

_SETTINGS = dict(deadline=None, derandomize=True)


def _no_loop_source(src: Source, fifos: bool) -> Source:
    if src <= Source.R3 or src is Source.SELF:
        return Source.IN1
    if src in (Source.FIFO1, Source.FIFO2) and not fifos:
        return Source.IN2
    return src


def _no_loop_word(mw: MicroWord, fifos: bool) -> MicroWord:
    pops = 0 if fifos else Flag.POP_FIFO1 | Flag.POP_FIFO2
    return MicroWord(op=mw.op, src_a=_no_loop_source(mw.src_a, fifos),
                     src_b=_no_loop_source(mw.src_b, fifos), dst=mw.dst,
                     flags=mw.flags & ~pops, imm=mw.imm)


def _feed_forward(spec: dict, fifos: bool = False) -> dict:
    """Make a generated fabric feed-forward in time.

    Layer 0 reads the host instead of the last layer (no ring-closing
    ``up()`` route) and no microword reads a register or its own OUT,
    so most such fabrics reach long native windows.  FIFO reads and
    pops go too, unless *fifos* keeps them (so native windows run the
    queues dry).
    """
    cells = []
    for layer, pos, mw, local, routes, loads in spec["cells"]:
        if layer == 0:
            routes = {port: (PortSource.host(port) if route.kind
                             is PortKind.UP else route)
                      for port, route in routes.items()}
        if local is not None:
            local = [_no_loop_word(w, fifos) for w in local]
        cells.append((layer, pos, _no_loop_word(mw, fifos), local, routes,
                      loads))
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
    """Only a first-time configuration's cycle, or one the controller
    works in, was stepped: the macro rung takes every span native
    refuses or FIFO-gates, and a nonlinear fabric's long span ran as
    macro windows."""
    assert {reason for path, reason in paths
            if path == "per_cycle"} <= {"no_plan", "controller"}
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
def underflow_systems(draw):
    """Fabrics native takes that keep their FIFO reads and pops, whose
    loads (up to 8 words) run dry mid-window: the :func:`systems` case
    shape, with a last chunk of 48 cycles so native windows run the
    underflow tails."""
    spec = _cut_feedback_into_layer0(_feed_forward(draw(ring_specs(
        min_layers=2, max_layers=4, min_width=1, max_width=3,
        max_local=4)), fifos=True))
    layers, width = spec["layers"], spec["width"]
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    streams = draw(st.dictionaries(
        st.integers(0, 3), st.lists(st.integers(0, 0xFFFF), max_size=24),
        max_size=4))
    chunks = draw(st.lists(st.integers(0, 48), min_size=1, max_size=4))
    chunks.append(48)
    rollback = draw(st.integers(0, len(chunks) - 1))
    handoff = draw(st.one_of(st.none(), st.integers(0, len(chunks) - 1)))
    return spec, taps, streams, chunks, rollback, handoff, False


class TestNativeUnderflowTails:
    @given(case=underflow_systems())
    @settings(max_examples=80, **_SETTINGS)
    def test_underflow_tails_match_interpreter(self, case):
        """A non-strict native window reads a drained queue as zeros,
        counts the underflows and pops in closed form, and matches the
        per-cycle interpreter; no span is FIFO-gated."""
        native, executed = _run(case, handoff=True, backend="native")
        interp, _ = _run(case, backend="interpreter")
        assert native.data.capture_state() == interp.data.capture_state()
        assert state_digest(native.ring) == state_digest(interp.ring)
        assert sum(native.cycle_paths.values()) == executed
        _assert_ladder_served(native.cycle_paths, False)
        if native.ring.native_refusal is None:
            assert native.ring.native_cycles > 0


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
        _assert_lanes_match(system, refs, spec)


def _assert_lanes_match(system: RingSystem, refs, spec: dict,
                        datapath: bool = True) -> None:
    """Every lane's taps, stream counters and (with *datapath*) datapath
    match its own interpreter system in *refs* (a one-lane ring's data
    controller is scalar)."""
    engine = system.ring.batch
    geometry = system.ring.geometry
    target = build_ring(spec, backend="interpreter")
    target.reset()  # store_lane writes only the FIFOs lanes hold
    one = system.data.batch == 1
    for lane, ref in enumerate(refs):
        for tap, want in zip(system.data.taps, ref.data.taps):
            samples = tap.samples if one else tap.lane(lane)
            assert (list(samples), tap._seen) == \
                (list(want.samples), want._seen)
        for index, channel in system.data._channels.items():
            want = ref.data.channel(index)
            got = ((channel.delivered, channel.underruns,
                    channel.pending()) if one else
                   (channel.delivered[lane], channel.underruns[lane],
                    channel.lane_pending(lane)))
            assert got == (want.delivered, want.underruns, want.pending())
        if not datapath:
            continue
        engine.store_lane(lane, target=target)
        assert _lane_mirror(target) == _lane_mirror(ref.ring)
        for layer in range(geometry.layers):
            for pos in range(geometry.width):
                assert engine.lane_regs(layer, pos)[:, lane].tolist() \
                    == ref.ring.dnode(layer, pos).regs.snapshot()


def _cut_feedback_into_layer0(spec: dict) -> dict:
    """Layer 0 reads the host instead of the last layer's feedback
    pipelines too, so no dependence closes the ring."""
    def cut(src: Source) -> Source:
        return Source.IN1 if src.is_feedback else src

    cells = []
    for layer, pos, mw, local, routes, loads in spec["cells"]:
        if layer == 0:
            routes = {port: (PortSource.host(port) if route.kind
                             is PortKind.RP else route)
                      for port, route in routes.items()}
            words = [mw] + (local or [])
            words = [MicroWord(op=w.op, src_a=cut(w.src_a),
                               src_b=cut(w.src_b), dst=w.dst,
                               flags=w.flags, imm=w.imm) for w in words]
            mw, local = words[0], (words[1:] if local is not None
                                   else None)
        cells.append((layer, pos, mw, local, routes, loads))
    return dict(spec, cells=cells)


@st.composite
def native_lane_systems(draw):
    """Fabrics native takes on lanes, with 1-4 lanes whose streams and
    FIFO loads differ in length, so lanes run dry mid-window at
    different cycles; chunks, a checkpoint rollback and a point where
    the engine's lanes are captured and restored in place.

    The fabrics are feed-forward but keep their FIFO reads and pops; a
    quarter get a nonlinear Dnode (:func:`_plant`), which native
    refuses, so their lanes run per cycle."""
    spec = _feed_forward(draw(ring_specs(
        min_layers=2, max_layers=4, min_width=1, max_width=3,
        max_local=4)), fifos=True)
    spec = _cut_feedback_into_layer0(spec)
    refused = draw(st.integers(0, 3)) == 3
    if refused:
        spec = _plant(draw, spec)
    layers, width = spec["layers"], spec["width"]
    batch = draw(st.sampled_from((2, 3, 4, 1)))
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    channels = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
    words = st.integers(0, 0xFFFF)
    streams = [{channel: draw(st.lists(words, max_size=40))
                for channel in channels} for _ in range(batch)]
    loads = [[(layer, pos, channel, draw(st.lists(words, max_size=12)))
              for layer in range(layers) for pos in range(width)
              for channel in (1, 2)] for _ in range(batch)]
    chunks = draw(st.lists(st.integers(0, 48), min_size=1, max_size=5))
    rollback = draw(st.integers(0, len(chunks) - 1))
    relane = draw(st.integers(0, len(chunks) - 1))
    return (spec, taps, streams, loads, chunks, rollback, relane, refused)


def _lane_period(ring: Ring) -> int:
    """The period of a lane ring's native plan (its configuration is
    accepted)."""
    return ring.batch._plan("native").period


class TestNativeLanes:
    """Native lane windows == one per-cycle interpreter system per lane.

    The same oracle as :class:`TestBatchLanesMatchInterpreter`, on
    fabrics native accepts (and a quarter it refuses), at B=1 and B>1,
    with queues that run dry mid-window.  Every lockstep cycle is booked
    once: on a native lane window or on the per-cycle lane kernels.
    """

    @staticmethod
    def _build(case, ring: Ring, lane=None) -> RingSystem:
        spec, taps, streams, loads = case[:4]
        apply_spec(ring, spec)
        system = RingSystem(ring)
        one = lane is None and ring.batch_size == 1
        for k, (lane_streams, lane_loads) in enumerate(zip(streams, loads)):
            if lane is not None and k != lane:
                continue
            for layer, pos, channel, words in lane_loads:
                if lane is None:
                    ring.batch.push_fifo(layer, pos, channel, words, lane=k)
                else:
                    ring.push_fifo(layer, pos, channel, words)
            for channel, words in lane_streams.items():
                if lane is None and not one:
                    system.data.stream(channel, words, lane=k)
                else:
                    system.data.stream(channel, words)
        for layer, pos, skip, every, limit in taps:
            system.data.add_tap(layer, pos, skip=skip, every=every,
                                limit=limit)
        return system

    @given(case=native_lane_systems())
    @settings(max_examples=80, **_SETTINGS)
    def test_every_lane_matches_its_interpreter_run(self, case):
        spec, _, streams, _, chunks, rollback, relane, refused = case
        geometry = RingGeometry(layers=spec["layers"], width=spec["width"])
        batch = len(streams)
        ring = Ring(geometry, backend="batch", batch_size=batch)
        ring.batch  # engage the lane engine (B=1 included)
        system = self._build(case, ring)
        refs = [self._build(case, Ring(geometry, backend="interpreter"),
                            lane=k) for k in range(batch)]
        executed = 0
        for k, chunk in enumerate(chunks):
            if k == relane:
                # Refills every lane FIFO in place: the bound lane plan
                # must see the restored words.
                engine = system.ring.batch
                engine.restore_lanes(engine.capture_lanes())
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
                assert _lane_mirror(system.ring) == \
                    _lane_mirror(refs[0].ring)
        ring = system.ring
        assert system.cycles == sum(chunks)
        assert system.cycle_paths == (
            {("bulk", "lanes"): executed} if executed else {})
        assert ring.native_cycles + ring.native_fallback_cycles == executed
        reason = ring.native_refusal
        if refused:
            assert reason and ring.native_cycles == 0
        elif reason is None and max(chunks) >= 2 * _lane_period(ring):
            assert ring.native_cycles > 0
        _assert_lanes_match(system, refs, spec)

    def test_second_dwt_call_runs_every_lane_cycle_native(self):
        """A second ``dwt53_2d_fabric`` call reuses the first call's
        configured lifting ring, its lane engine and its bound lane
        plans: it builds no ring, writes no configuration word, looks
        nothing up in the kernel cache, compiles nothing, and runs all
        its lockstep cycles on native lane windows."""
        image = (np.arange(64).reshape(8, 8) * 37) % 256
        wavelet.dwt53_2d_fabric(image)
        ring = wavelet._lifting_rings[8]
        engine = ring.batch
        counters = (ring.native_cycles, ring.native_fallback_cycles,
                    ring.macro_cycles, ring.native_compiles,
                    ring.plan_compiles, ring.config.writes)
        lookups = plancache.KERNELS.hits, plancache.KERNELS.misses
        builds = []
        build = wavelet.build_lifting_system
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wavelet, "build_lifting_system",
                          lambda ring: builds.append(ring) or build(ring))
            coeffs, _ = wavelet.dwt53_2d_fabric(image)
        assert np.array_equal(coeffs, reference.dwt53_2d(image))
        assert builds == []
        assert wavelet._lifting_rings[8] is ring
        assert ring._batch_engine is engine
        assert (plancache.KERNELS.hits, plancache.KERNELS.misses) == lookups
        # One row sweep and one column sweep of 8-sample passes.
        assert (ring.native_cycles, ring.native_fallback_cycles,
                ring.macro_cycles, ring.native_compiles,
                ring.plan_compiles, ring.config.writes) == (
            counters[0] + 2 * (8 // 2 + 2 + wavelet.APPROX_LATENCY),
            *counters[1:])

    def test_refused_lane_configuration_names_its_reason(self):
        """A configuration native refuses runs its lanes on the macro
        lane kernel, and ``native_refusal`` names the reason a scalar
        ring gives.  A second fresh batch ring binds the cached lane
        template and compiles nothing."""
        def configure(ring):
            ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
            ring.config.write_microword(1, 0, MicroWord(
                Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT, imm=3))
            return ring

        geometry = RingGeometry(layers=2, width=2)
        lanes = configure(Ring(geometry, backend="batch", batch_size=3))
        scalar = configure(Ring(geometry))
        assert lanes.native_refusal == scalar.native_refusal
        assert "no closed form" in lanes.native_refusal
        lanes.run(20, bus=5)
        assert lanes.native_cycles == 0
        assert lanes.macro_cycles == lanes.native_fallback_cycles == 20
        assert lanes.plan_compiles == 1
        again = configure(Ring(geometry, backend="batch", batch_size=3))
        again.run(20, bus=5)
        assert again.macro_cycles == 20
        assert again.plan_compiles == again.native_compiles == 0

    def test_kernel_cache_holds_no_engine(self):
        """A sweep's lane template stays cached, but neither the batch
        ring nor its engine is kept alive by it."""
        image = (np.arange(16).reshape(4, 4) * 29) % 256
        ring = wavelet.build_lifting_system(Ring(
            RingGeometry.ring(16), backend="batch", batch_size=4)).ring
        wavelet._lifting_lanes(ring, image)
        assert ring.native_cycles > 0
        assert any(key[0] == "native"
                   for key in plancache.KERNELS.keys())
        refs = weakref.ref(ring), weakref.ref(ring.batch)
        del ring
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


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
        # Only the first-time cycle before the first kernel is stepped.
        assert ring.native_cycles == ring.cycles - 1

    def test_cycle_paths_explain_every_cycle(self):
        program, stream = _fir_system()
        system = program.build_system()
        system.data.stream(0, [v & 0xFFFF for v in stream])
        system.data.add_tap(1, 0)
        system.run(100)
        assert system.cycle_paths == {("per_cycle", "no_plan"): 1,
                                      ("bulk", "native"): 99}
        snap = system.metrics()
        assert snap.value("system_cycles_total", path="bulk",
                          reason="native") == 99
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
    # Native refuses the selfloop ring, whose spans the macro rung takes
    # as windows; the drained FIFO ring's 9-cycle window is under the
    # span rule, so macro takes it too.
    @pytest.mark.parametrize("build, expected", [
        (lambda: _selfloop_ring(backend="native"),
         {("per_cycle", "no_plan"): 1, ("bulk", "macro"): 9}),
        (lambda: _selfloop_ring(backend="interpreter"),
         {("per_cycle", "backend"): 10}),
        (lambda: _fifo_ring(backend="native"),
         {("per_cycle", "no_plan"): 1, ("bulk", "macro"): 9}),
    ])
    def test_reasons(self, build, expected):
        system = RingSystem(build())
        system.data.add_tap(0, 0)
        system.run(10)
        assert system.cycle_paths == expected

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
        # Cycle 1 executes WAITI, which runs ahead: the fabric steps the
        # configuration's first-time cycle alone; cycles 2-3 are quiet
        # and take the native ladder as one macro window (native
        # refuses the configuration).
        system.run(3)
        system.step()
        system.controller = None
        ring.add_observer(lambda _ring: None)
        system.run(2)
        assert system.cycle_paths == {("per_cycle", "no_plan"): 1,
                                      ("bulk", "macro"): 2,
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
        assert paths == [{("per_cycle", "no_plan"): 1, ("bulk", "macro"): 7},
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
        assert system.cycle_paths == {("per_cycle", "no_plan"): 2,
                                      ("bulk", "macro"): 28}
        # The macro kernel: every window is under the span rule, so
        # native was never looked up for the configuration.
        assert ring.plan_cache.hits == hits + 1

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
        assert ring.native_cycles == 39
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
        # A first-time cycle, then a window long enough for native.
        system.run(1 + NATIVE_MIN_SPAN)
        assert ring.native_cycles == NATIVE_MIN_SPAN
        ring.dnode(0, 0)._out = 0x12345  # D0.0 never writes OUT
        with pytest.raises(ValueError, match=(
                r"switch 1 lane 0 must be a 16-bit raw word, "
                r"got 74565")):
            system.run(NATIVE_MIN_SPAN)


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
    "plan_cache_evictions_total", "kernel_cache_hits_total",
    "kernel_cache_misses_total", "kernel_cache_evictions_total",
})


def _plane(spec: dict, complete: bool = False) -> ConfigPlane:
    """A configuration plane from a generated spec.

    By default the plane lists only what the spec writes (a partial
    plane).  With *complete* it is captured from a scratch ring, so it
    covers every field and ``apply_plane`` sets the whole memory.
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


def _drive(case, per_cycle: bool, system=None, **ring_kwargs):
    """Run one generated controlled system (built from *case*, unless a
    *system* is given); returns it and any error."""
    chunks, rollback, budget, drain, _ = case[5:]
    if system is None:
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
        "controller": None if ctrl is None else (
            dict(vars(ctrl.state)), ctrl.pc, list(ctrl.regs), ctrl.halted,
            ctrl.bus_out, ctrl.quiet_cycles()),
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

    # Native ladder columns: the whole ladder, then its macro rung one
    # cycle per kernel call ("fastpath") and in whole windows ("macro"),
    # pinned by the tests/conftest.py seams.  One-element tuples keep
    # the test ids engine0..engine2.
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
        # LDI, BUSW, CFGPLANE, WAITI; CFGPLANE, WAITI; HALT run ahead:
        # the first cycle of each first-time configuration (LDI's and
        # both CFGPLANEs') steps the fabric alone, BUSW rides a one-cycle
        # macro window, the WAITIs and HALT ride native windows with the
        # stall cycles and the drain (a halted controller).
        assert system.cycle_paths == {("per_cycle", "no_plan"): 3,
                                      ("ahead", "macro"): 1,
                                      ("ahead", "native"): 3,
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
        # The controller runs ahead: 19 batches x 126 WAITI stall cycles
        # run native, with each batch's CFGPLANE and WAITI; the flush,
        # reset, ADDI, BNE, the preamble and HALT ride macro windows.
        # In a fresh process the first cycle of a first-time
        # configuration steps the fabric alone (the initial plane, the
        # compute plane, and the one-cycle flush plane twice before a
        # kernel is compiled for it), and the first compute window's
        # odd length leaves one cycle to macro.
        assert system.cycle_paths == {("per_cycle", "no_plan"): 5,
                                      ("ahead", "macro"): 75,
                                      ("ahead", "native"): 37,
                                      ("bulk", "macro"): 1,
                                      ("bulk", "native"): 2393}
        again, _ = build_me_system(block, area,
                                   ring_kwargs={"backend": "native"})
        again.run_until_halt()
        assert again.cycle_paths == {("ahead", "macro"): 79,
                                     ("ahead", "native"): 38,
                                     ("bulk", "native"): 2394}
        sads = [system.data.taps[c % 16].samples[
                    meta["flush_sample_indices"][c // 16]]
                for c in range(17 * 17)]
        _, _, golden = reference.full_search(block, area)
        assert sads == golden.reshape(-1).tolist()


# -- the controller running ahead of the fabric -------------------------

#: Feedback stage 6 is past every ring's pipeline: a route to it is
#: accepted (it fits the route word) but fails the cycle that reads it.
_DEEP_TAP = PortSource(PortKind.RP, 6, 1)


@st.composite
def ahead_instructions(draw, dnodes: int, layers: int, width: int,
                       planes: int, words: int, routes: int):
    """One instruction of an :func:`ahead_systems` program: the
    ``controller_programs`` menu, fabric and mailbox reads, mailbox and
    memory writes, and word-level configuration from the cfg ROM
    (entries ``0..words-1`` microwords, then *routes* route words)."""
    reg = st.integers(1, 4)
    dnode = st.integers(0, dnodes - 1)
    word = st.integers(0, words - 1)
    return draw(st.one_of(
        _simple_instructions(planes),
        st.builds(lambda rd, rs, imm: Instruction(ROp.ADDI, rd=rd, rs=rs,
                                                  imm=imm),
                  reg, reg, st.integers(-3, 3)),
        st.builds(lambda rd, d: Instruction(ROp.RDD, rd=rd, dnode=d),
                  reg, dnode),
        st.builds(lambda rd, ch: Instruction(ROp.INW, rd=rd, ch=ch),
                  reg, st.integers(0, 1)),
        st.builds(lambda ch, imm: Instruction(ROp.BFE, ch=ch, imm=imm),
                  st.integers(0, 1), st.integers(0, 1)),
        st.builds(lambda rs, ch: Instruction(ROp.OUTW, rs=rs, ch=ch),
                  reg, st.integers(0, 1)),
        st.builds(lambda rt, imm: Instruction(ROp.SW, rt=rt, imm=imm),
                  reg, st.integers(0, 7)),
        st.builds(lambda rd, imm: Instruction(ROp.LW, rd=rd, imm=imm),
                  reg, st.integers(0, 7)),
        st.builds(lambda d, k: Instruction(ROp.CFGDI, dnode=d, cfg=k),
                  dnode, word),
        st.builds(lambda d, slot, k: Instruction(ROp.CFGL, dnode=d,
                                                 slot=slot, cfg=k),
                  dnode, st.integers(0, 7), word),
        st.builds(lambda d, n: Instruction(ROp.CFGLIM, dnode=d, limit=n),
                  dnode, st.integers(1, 8)),
        st.builds(lambda d, m: Instruction(ROp.CFGMODE, dnode=d, mode=m),
                  dnode, st.integers(0, 1)),
        st.builds(lambda d, k, rs: Instruction(ROp.CFGIMM, dnode=d, cfg=k,
                                               rs=rs),
                  dnode, word, reg),
        st.builds(lambda sw, pos, port, k: Instruction(
                      ROp.CFGS, sw=sw, pos=pos, port=port, cfg=words + k),
                  st.integers(0, layers - 1), st.integers(0, width - 1),
                  st.integers(1, 2), st.integers(0, routes - 1))))


@st.composite
def ahead_systems(draw, strict: bool = False):
    """A :func:`controlled_systems`-shaped case whose controller program
    plants, at random points, every instruction the run-ahead treats
    differently: ``RDD``, ``INW``/``BFE`` (mailbox words arrive between
    chunks), ``OUTW``, ``SW``/``LW``, word-level ``CFGDI``/``CFGL``/
    ``CFGLIM``/``CFGMODE``/``CFGS``/``CFGIMM`` from a cfg ROM and
    ``BUSW`` inside counted loops; most programs also hold a failing
    ``CFGPLANE`` index, a failing ROM index or a ``CFGS`` that routes an
    out-of-range feedback tap.  Registers 1-4 start nonzero and one
    tapped Dnode accumulates the bus.  With *strict* the fabric, most
    planes and most ROM words read no FIFO, but one local program of
    LIMIT 2-4 pops a FIFO of 1-6 words in one slot, so a strict-FIFO
    error fires at a random cycle.  Returns the case, the ROM and the
    mailbox words per chunk."""
    layers = draw(st.integers(2, 3))
    width = draw(st.integers(1, 2))
    shape = dict(min_layers=layers, max_layers=layers, min_width=width,
                 max_width=width, max_local=4)
    base = draw(ring_specs(**shape, fifo_loads=not strict,
                           accumulators=True))
    if strict or draw(st.booleans()):
        base = _feed_forward(base)
    # One global Dnode accumulates the bus, and a tap watches it: a
    # lagging cycle under the wrong bus, or an RDD of it that runs ahead,
    # shows.
    cells = list(base["cells"])
    k_bus, k = draw(st.permutations(range(len(cells))))[:2]
    layer, pos, _mw, _local, routes, loads = cells[k_bus]
    cells[k_bus] = (layer, pos, MicroWord(Opcode.ADD, Source.BUS,
                                          Source.SELF, Dest.OUT),
                    None, routes, loads)
    bus_tap = (layer, pos, 0, 1, None)
    base = dict(base, cells=cells)
    if strict:
        layer, pos, mw, _local, routes, _loads = cells[k]
        program = [MicroWord(Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT,
                             imm=j) for j in range(draw(st.integers(2, 4)))]
        program[draw(st.integers(0, len(program) - 1))] = MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1)
        cells[k] = (layer, pos, mw, program, routes, {1: draw(st.lists(
            st.integers(0, 0xFFFF), min_size=1, max_size=6))})
        base = dict(base, cells=cells)
    quiet = strict and draw(st.integers(0, 3)) > 0
    planes = []
    for _ in range(draw(st.integers(1, 2))):
        spec = draw(ring_specs(**shape, fifo_loads=False,
                               accumulators=True))
        if quiet:
            spec = _feed_forward(spec)
        planes.append(_plane(spec, complete=draw(st.booleans())))
    words = [_legal_word(w, width) for w in draw(st.lists(
        st.one_of(microwords(), accumulator_words()), min_size=1,
        max_size=4))]
    if quiet:
        words = [_no_loop_word(w, fifos=False) for w in words]
    routes = draw(st.lists(port_sources(width), min_size=1, max_size=3))
    fault = draw(st.sampled_from((None, "tap", "plane", "rom", None)))
    if fault == "tap":
        routes.append(_DEEP_TAP)
    rom = [encode(w) for w in words] + [encode_route(r) for r in routes]
    instruction = ahead_instructions(layers * width, layers, width,
                                     len(planes), len(words), len(routes))
    program = [Instruction(ROp.LDI, rd=rd, imm=imm) for rd, imm in
               enumerate(draw(st.lists(st.integers(1, 0xFFFF), min_size=4,
                                       max_size=4, unique=True)), 1)]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            program.append(draw(instruction))
            continue
        body = draw(st.lists(instruction, min_size=1, max_size=4))
        program += [Instruction(ROp.LDI, rd=14, imm=draw(st.integers(1, 3))),
                    Instruction(ROp.LDI, rd=13, imm=0),
                    *body,
                    Instruction(ROp.ADDI, rd=14, rs=14, imm=-1),
                    Instruction(ROp.BNE, rs=14, rt=13,
                                imm=-(len(body) + 2))]
    if fault is not None:
        program.insert(draw(st.integers(0, len(program))), {
            "plane": Instruction(ROp.CFGPLANE, plane=len(planes)),
            "rom": Instruction(ROp.CFGDI, dnode=0, cfg=len(rom)),
            "tap": Instruction(ROp.CFGS, sw=draw(st.integers(0, layers - 1)),
                               pos=draw(st.integers(0, width - 1)),
                               port=draw(st.integers(1, 2)),
                               cfg=len(rom) - 1)}[fault])
    program.append(Instruction(ROp.HALT))
    taps = [bus_tap] + draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 40))), max_size=2))
    streams = draw(st.dictionaries(
        st.integers(0, 3), st.lists(st.integers(0, 0xFFFF), max_size=40),
        max_size=3))
    chunks = draw(st.lists(st.integers(0, 60), max_size=4))
    mail = [draw(st.lists(st.tuples(st.integers(0, 1),
                                    st.integers(0, 0xFFFF)), max_size=3))
            for _ in range(len(chunks) + 1)]
    rollback = draw(st.integers(0, max(0, len(chunks) - 1)))
    budget = draw(st.one_of(st.integers(0, 300), st.just(2000)))
    drain = draw(st.integers(0, 20))
    case = (base, planes, program, taps, streams, chunks, rollback,
            budget, drain, False)
    return case, rom, mail


def _ahead_drive(case, rom, mail, per_cycle: bool, traced: bool = False,
                 **ring_kwargs):
    """:func:`_drive` for an :func:`ahead_systems` case: the controller
    gets the cfg ROM, and each chunk's mailbox words (the last entry's
    before ``run_until_halt``) are sent ahead of it."""
    system = _controlled_system(case, **ring_kwargs)
    system.controller.cfg_rom = list(rom)
    if traced:
        system.ring.add_observer(lambda _ring: None)
    chunks, rollback, budget, drain, _ = case[5:]

    def advance(cycles):
        if per_cycle:
            for _ in range(cycles):
                system.step()
        else:
            system.run(cycles)

    def send(words):
        for channel, value in words:
            system.controller.host_send(channel, value)

    try:
        for k, chunk in enumerate(chunks):
            send(mail[k])
            if k == rollback:
                saved = system.checkpoint()
                advance(chunk)
                system.restore_checkpoint(saved)
            advance(chunk)
        send(mail[-1])
        if per_cycle:
            _step_until_halt(system, budget, drain)
        else:
            system.run_until_halt(max_cycles=budget, drain=drain)
    except SimulationError as exc:
        return system, str(exc)
    return system, None


def _ahead_observables(system: RingSystem, error, strict: bool) -> dict:
    """:func:`_observables` plus the controller's memory and mailboxes;
    after an error on a strict ring, the :data:`_STRICT_OBSERVABLES`."""
    got = _observables(system, error)
    if strict and error is not None:
        got = {key: got[key] for key in _STRICT_OBSERVABLES}
    ctrl = system.controller
    got["memory"] = (list(ctrl.dmem[:8]),
                     {ch: list(box) for ch, box in ctrl.in_box.items()},
                     {ch: list(box) for ch, box in ctrl.out_box.items()})
    return got


class TestControllerAhead:
    """The controller runs ahead of the fabric == per-cycle stepping.

    :meth:`RingSystem.run` steps the controller and lets the fabric lag:
    its cycles run as one window when a configuration command, a bus
    change, an instruction that reads the fabric or the mailboxes, or
    the end of the call forces them.  A failing window puts the
    controller back on the aborted cycle.  Random programs plant every
    instruction that matters to that (see :func:`ahead_systems`) and
    run on strict and lenient rings, on the native ladder, its macro
    rung in windows and one cycle per kernel call, and a traced ring
    (which steps every instruction cycle whole), with chunked runs,
    mailbox words between chunks, a checkpoint rollback and
    ``run_until_halt`` budgets, against an interpreter system stepped
    one cycle at a time.
    """

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["lenient", "strict"])
    @pytest.mark.parametrize("column", [
        "native", "fastpath", "macro", "traced"])
    @given(data=st.data())
    @settings(max_examples=40, **_SETTINGS)
    def test_matches_per_cycle_stepping(self, column, strict, data):
        case, rom, mail = data.draw(ahead_systems(strict))
        with rung_seam(column):
            bulk, bulk_error = _ahead_drive(
                case, rom, mail, per_cycle=False, traced=column == "traced",
                backend="native", strict_fifos=strict)
        spec, spec_error = _ahead_drive(case, rom, mail, per_cycle=True,
                                        backend="interpreter",
                                        strict_fifos=strict)
        assert _ahead_observables(bulk, bulk_error, strict) == \
            _ahead_observables(spec, spec_error, strict)
        assert sum(bulk.cycle_paths.values()) >= bulk.cycles
        if column in ("fastpath", "macro"):
            assert bulk.ring.native_cycles == 0
        if column == "traced":
            assert not any(path == "ahead" for path, _ in bulk.cycle_paths)

    def _strict_reader(self, **ring_kwargs) -> RingSystem:
        """A LIMIT-2 strict reader on a 2x1 ring with 3 words, under a
        ``WAITI 50``: the read on cycle 7 finds its FIFO empty."""
        ring = Ring(RingGeometry(layers=2, width=1), strict_fifos=True,
                    **ring_kwargs)
        ring.config.write_local_program(0, 0, [
            MicroWord(Opcode.MOV, Source.FIFO1, dst=Dest.OUT,
                      flags=Flag.POP_FIFO1),
            MicroWord(Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT,
                      imm=1)])
        ring.config.write_mode(0, 0, DnodeMode.LOCAL)
        ring.push_fifo(0, 0, 1, [5, 6, 7])
        system = RingSystem(ring, RiscController([
            Instruction(ROp.WAITI, imm=50), Instruction(ROp.HALT)]))
        system.data.add_tap(0, 0)
        return system

    def test_window_error_leaves_controller_on_the_aborted_cycle(self):
        for per_cycle in (False, True):
            system = self._strict_reader(
                backend="interpreter" if per_cycle else "native")
            with pytest.raises(SimulationError, match="empty FIFO1"):
                if per_cycle:
                    _step_until_halt(system, 100, 0)
                else:
                    system.run_until_halt(max_cycles=100)
            assert system.cycles == 6
            assert system.controller.state.cycles == 7
            assert system.controller.quiet_cycles() == 43
            assert system.data.taps[0].samples == [5, 6, 6, 7, 7, 8]

    def test_halt_edges_of_the_budget(self):
        """``run_until_halt`` stops at ``HALT`` and raises past its
        budget on the same cycle as stepping, also when ``HALT`` is the
        budget's last cycle or the controller starts halted."""
        program = [Instruction(ROp.LDI, rd=1, imm=3),
                   Instruction(ROp.BUSW, rs=1),
                   Instruction(ROp.WAITI, imm=5),
                   Instruction(ROp.RDD, rd=2, dnode=1),
                   Instruction(ROp.HALT)]
        for budget in range(6, 12):
            results = []
            for per_cycle in (False, True):
                system = RingSystem(
                    _selfloop_ring(backend="interpreter" if per_cycle
                                   else "native"),
                    RiscController(program))
                system.data.add_tap(1, 0)
                try:
                    if per_cycle:
                        _step_until_halt(system, budget, 3)
                    else:
                        system.run_until_halt(max_cycles=budget, drain=3)
                    error = None
                except SimulationError as exc:
                    error = str(exc)
                results.append(_observables(system, error))
            assert results[0] == results[1]
            # HALT executes on cycle 9: a budget of 8 raises after it.
            assert (results[0]["error"] is None) == (budget >= 9)
        halted = RingSystem(_selfloop_ring(), RiscController(program))
        halted.run_until_halt()
        assert halted.run_until_halt(max_cycles=0, drain=2) == 2

    def test_fabric_reads_step_whole_cycles(self):
        """``RDD`` reads the fabric the cycle it executes, so its cycle
        is stepped whole after the lagging cycles ran."""
        program = [Instruction(ROp.LDI, rd=1, imm=2),
                   Instruction(ROp.RDD, rd=2, dnode=0),
                   Instruction(ROp.OUTW, rs=2, ch=0),
                   Instruction(ROp.HALT)]
        system = RingSystem(_selfloop_ring(), RiscController(program))
        system.data.add_tap(0, 0)
        system.run_until_halt()
        assert system.cycle_paths[("per_cycle", "controller")] == 1
        stepped = RingSystem(_selfloop_ring(backend="interpreter"),
                             RiscController(program))
        stepped.data.add_tap(0, 0)
        _step_until_halt(stepped, 100, 0)
        assert system.controller.host_receive(0) == \
            stepped.controller.host_receive(0)
        assert _observables(system, None) == _observables(stepped, None)

    def test_me_search_runs_ahead(self):
        """After the first op in a process, a full-search match steps no
        cycle: 58 windows (19 native) and 16 Dnode fingerprints, of the
        fresh ring's initial configuration; its plane switches take
        theirs from the process-wide state memo."""
        from repro.core import dnode as dnode_module
        from repro.kernels.motion_estimation import full_search_me
        rng = np.random.default_rng(7)
        block = rng.integers(0, 256, (8, 8))
        area = rng.integers(0, 256, (24, 24))
        full_search_me(block, area)
        counts = dict.fromkeys(("step", "ring_step", "fingerprint",
                                "windows", "native"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        run_window = Ring.run_window

        def window(ring, plan, *args, **kwargs):
            counts["windows"] += 1
            counts["native"] += plan.rung == "native"
            return run_window(ring, plan, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RingSystem, "step",
                          counted("step", RingSystem.step))
            patch.setattr(Ring, "step", counted("ring_step", Ring.step))
            patch.setattr(dnode_module.Dnode, "config_fingerprint",
                          counted("fingerprint",
                                  dnode_module.Dnode.config_fingerprint))
            patch.setattr(Ring, "run_window", window)
            result = full_search_me(block, area)
        assert counts == {"step": 0, "ring_step": 0, "fingerprint": 16,
                          "windows": 58, "native": 19}
        assert result.cycles == 2511
        _, _, golden = reference.full_search(block, area)
        assert result.sad_map.tolist() == golden.tolist()


# -- rings sharing the process-wide kernel cache ------------------------

class TestSharedKernelCache:
    """Two rings share the process-wide kernel cache
    (:data:`repro.core.plancache.KERNELS`).

    The second ring binds the templates the first one compiled instead
    of generating code, and must still match the per-cycle interpreter
    bit for bit.  The cache holds no ring, and a test seam still
    refuses a tier the cache holds.
    """

    @given(case=systems())
    @settings(max_examples=60, **_SETTINGS)
    def test_uncontrolled_second_ring_matches_interpreter(self, case):
        plancache.KERNELS.clear()
        _run(case, backend="native")
        shared, executed = _run(case, handoff=True, backend="native")
        interp, _ = _run(case, backend="interpreter")
        assert shared.data.capture_state() == interp.data.capture_state()
        assert state_digest(shared.ring) == state_digest(interp.ring)
        assert shared.cycles == interp.cycles == sum(case[3])
        assert sum(shared.cycle_paths.values()) == executed
        _assert_ladder_served(shared.cycle_paths, case[-1])

    @given(case=controlled_systems())
    @settings(max_examples=60, **_SETTINGS)
    def test_controlled_second_ring_matches_per_cycle_stepping(self, case):
        plancache.KERNELS.clear()
        _drive(case, per_cycle=False, backend="native")
        shared, shared_error = _drive(case, per_cycle=False,
                                      backend="native")
        spec, spec_error = _drive(case, per_cycle=True,
                                  backend="interpreter")
        assert _observables(shared, shared_error) == \
            _observables(spec, spec_error)

    @staticmethod
    def _switching_system(**ring_kwargs) -> RingSystem:
        """A controller that applies a plane at cycle 0, sits in WAITI,
        switches to a second plane (native-refused: macro windows) and
        waits again; a stream feeds layer 0 and two taps sample it."""
        ring = Ring(RingGeometry(layers=2, width=1), **ring_kwargs)
        ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
        ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.ADD, Source.IN1, Source.SELF, Dest.OUT))
        accumulate = ConfigPlane(microwords={(0, 0): MicroWord(
            Opcode.ADD, Source.IN1, Source.BUS, Dest.OUT)})
        echo = ConfigPlane(microwords={(0, 0): MicroWord(
            Opcode.MULH, Source.IN1, Source.SELF, Dest.OUT)})
        program = [Instruction(ROp.CFGPLANE, plane=0),
                   Instruction(ROp.LDI, rd=1, imm=7),
                   Instruction(ROp.BUSW, rs=1),
                   Instruction(ROp.WAITI, imm=120),
                   Instruction(ROp.CFGPLANE, plane=1),
                   Instruction(ROp.WAITI, imm=60),
                   Instruction(ROp.HALT)]
        system = RingSystem(ring, RiscController(program),
                            planes=[accumulate, echo])
        system.data.stream(0, [(37 * k) & 0xFFFF for k in range(150)])
        system.data.add_tap(0, 0, every=3)
        system.data.add_tap(1, 0, skip=5)
        return system

    def test_second_ring_adopts_at_cycle_zero(self):
        """The first ring compiles both planes' kernels.  A fresh ring
        running the same program, with a checkpoint rollback across the
        plane switch, binds them from cycle 0 on: no code generation, no
        interpreted cycle, no first-time step, and the per-cycle
        interpreter's results bit for bit."""
        first = self._switching_system()
        first.run_until_halt(drain=4)
        assert first.ring.native_compiles == 1
        assert first.cycle_paths.get(("bulk", "macro"), 0) > 0
        misses = plancache.KERNELS.misses
        shared = self._switching_system()
        with shared.ring.profile() as profile:
            shared.run(40)
            saved = shared.checkpoint()
            shared.run(100)  # past the switch to the echo plane
            shared.restore_checkpoint(saved)
            shared.run_until_halt(drain=4)
        spec = self._switching_system(backend="interpreter")
        _step_until_halt(spec, 1_000, 4)
        restored, expected = (_observables(shared, None),
                              _observables(spec, None))
        # A restore rewrites the configuration; those writes are counted.
        for observed in (restored, expected):
            for family in ("ring_config_writes_total",
                           "switch_route_writes_total"):
                observed["metrics"].pop(family)
        assert restored == expected
        assert plancache.KERNELS.misses == misses
        assert shared.ring.native_compiles == 0
        assert profile.interpreted_cycles == 0
        assert set(shared.cycle_paths) == {("ahead", "native"),
                                           ("ahead", "macro"),
                                           ("bulk", "native"),
                                           ("bulk", "macro")}

    def test_cache_holds_no_ring(self):
        """A ring that compiled kernels is collectable, and its kernels
        stay cached for the next ring."""
        system = self._switching_system()
        system.run_until_halt()
        cached = len(plancache.KERNELS)
        assert cached >= 3  # native, echo refusal, macro
        ref = weakref.ref(system.ring)
        del system
        gc.collect()
        assert ref() is None
        assert len(plancache.KERNELS) == cached
        again = self._switching_system()
        again.run_until_halt()
        assert again.ring.native_compiles == 0

    @staticmethod
    def _fir_lanes(backend: str, streams) -> RingSystem:
        """fir8 on a fresh ring with one lane per stream in *streams*
        (all of them on channel 0), every Dnode tapped, run to the
        end of the streams."""
        program = codegen.compile_graph(fir8())
        ring = Ring(program.geometry, backend=backend,
                    batch_size=len(streams))
        system = program.build_system(ring)
        for k, words in enumerate(streams):
            if len(streams) > 1:
                system.data.stream(0, words, lane=k)
            else:
                system.data.stream(0, words)
        for layer in range(program.geometry.layers):
            for pos in range(program.geometry.width):
                system.data.add_tap(layer, pos)
        system.run(len(streams[0]) + program.latency)
        return system

    @pytest.mark.parametrize("lanes_first", [False, True],
                             ids=["ring_then_lanes", "lanes_then_ring"])
    def test_ring_and_lanes_share_one_native_kernel(self, lanes_first):
        """One configuration run on a scalar native ring and on a batch
        ring's four lanes, in either order, compiles one native
        template: the second ring binds the first one's.  The scalar
        ring and every lane match their own interpreter runs bit for
        bit."""
        streams = [[(37 * n + 1009 * k) & 0xFFFF for n in range(48)]
                   for k in range(4)]
        runs = [lambda: self._fir_lanes("native", streams[:1]),
                lambda: self._fir_lanes("batch", streams)]
        if lanes_first:
            runs.reverse()
        first, second = (run() for run in runs)
        scalar, lanes = (second, first) if lanes_first else (first, second)
        assert first.ring.native_compiles == 1
        assert second.ring.native_compiles == 0
        assert scalar.ring.native_cycles > 0 and lanes.ring.native_cycles > 0
        assert [key[0] for key in plancache.KERNELS.keys()
                if key[0].startswith("native")] == ["native"]
        refs = [self._fir_lanes("interpreter", [words]) for words in streams]
        program = codegen.compile_graph(fir8())
        assert [tap.samples for tap in scalar.data.taps] == \
            [tap.samples for tap in refs[0].data.taps]
        assert state_digest(scalar.ring) == state_digest(refs[0].ring)
        for k, ref in enumerate(refs):
            assert [list(tap.lane(k)) for tap in lanes.data.taps] == \
                [tap.samples for tap in ref.data.taps]
            target = Ring(program.geometry, backend="interpreter")
            program.configure(target)
            lanes.ring.batch.store_lane(k, target=target)
            assert _lane_mirror(target) == _lane_mirror(ref.ring)

    def test_seam_refuses_a_cached_native_kernel(self):
        """A native kernel in the process-wide cache cannot skip the
        ``native_refused`` seam, and the seam's refusal never enters the
        cache: a fresh ring with the same configuration runs macro."""
        program = codegen.compile_graph(fir8())
        samples = list(range(-20, 20))
        golden = program.run(samples)
        template_keys = plancache.KERNELS.keys()
        assert [key[0] for key in template_keys] == ["native"]
        with native_refused():
            ring = Ring(program.geometry, **program.ring_kwargs)
            assert program.run(samples, ring=ring) == golden
        assert ring.native_cycles == 0 and ring.macro_cycles > 0
        assert ring.native_refusal.startswith("native tier refused")
        assert plancache.KERNELS.keys()[:1] == template_keys
        assert not any(isinstance(plancache.KERNELS._entries[key], str)
                       for key in plancache.KERNELS.keys())


def _local_cells(draw, spec: dict, count: int, limits=(),
                 words=None) -> dict:
    """*spec* with every cell global but 1 to *count* of them, which run
    local programs of LIMIT 2-8 (so the period stays within native's
    unroll cap) — or, given *limits*, one cell per LIMIT in it.  Slots
    are drawn from *words* (by default any word, accumulators and
    native-refused words included)."""
    width = spec["width"]
    cells = [(layer, pos, mw, None, routes, loads)
             for layer, pos, mw, _local, routes, loads in spec["cells"]]
    chosen = draw(st.lists(st.integers(0, len(cells) - 1),
                           min_size=len(limits) or 1,
                           max_size=len(limits) or count, unique=True))
    if words is None:
        words = st.one_of(microwords(), accumulator_words(),
                          nonlinear_words())
    for j, k in enumerate(chosen):
        layer, pos, mw, _local, routes, loads = cells[k]
        limit = limits[j] if limits else draw(st.integers(2, 8))
        program = [_legal_word(w, width) for w in draw(
            st.lists(words, min_size=limit, max_size=limit))]
        cells[k] = (layer, pos, mw, program, routes, loads)
    return dict(spec, cells=cells)


def _spec_period(spec: dict) -> int:
    return math.lcm(*(len(cell[3]) for cell in spec["cells"]
                      if cell[3] is not None))


def _busy_instructions():
    """Controller instructions that execute in one cycle each."""
    return st.one_of(
        st.builds(lambda rd, imm: Instruction(ROp.LDI, rd=rd, imm=imm),
                  st.integers(1, 4), st.integers(0, 0xFFFF)),
        st.builds(lambda rs: Instruction(ROp.BUSW, rs=rs),
                  st.integers(1, 4)))


def _stepped_instructions():
    """Mailbox polls that fall through (``BFE`` with offset 0): they
    read the host mailboxes, so the controller cannot run ahead over
    them and each of their cycles is stepped whole, and they read
    nothing that differs between batch lanes."""
    return st.builds(lambda ch: Instruction(ROp.BFE, ch=ch, imm=0),
                     st.integers(0, 3))


def _taps_and_streams(draw, layers: int, width: int):
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 40))), min_size=1, max_size=3))
    streams = draw(st.dictionaries(
        st.integers(0, 3), st.lists(st.integers(0, 0xFFFF), max_size=40),
        max_size=3))
    return taps, streams


@st.composite
def stepped_systems(draw):
    """A fabric with one or two local programs of LIMIT 2-8 and a
    controller that polls a mailbox (``BFE``) on every cycle of each
    block, so each cycle is stepped, each block at least one period
    long, with ``WAITI`` spans between them.  Returns a
    :func:`controlled_systems`-shaped case (no planes, no chunks) and
    the fabric's period."""
    layers = draw(st.integers(2, 3))
    width = draw(st.integers(1, 2))
    spec = draw(ring_specs(min_layers=layers, max_layers=layers,
                           min_width=width, max_width=width, max_local=1,
                           accumulators=True))
    spec = _local_cells(draw, spec, 2)
    period = _spec_period(spec)
    program = []
    for _ in range(draw(st.integers(1, 3))):
        program += draw(st.lists(_stepped_instructions(),
                                 min_size=period + 1,
                                 max_size=period + 6))
        program.append(Instruction(ROp.WAITI, imm=draw(st.integers(0, 20))))
    program.append(Instruction(ROp.HALT))
    taps, streams = _taps_and_streams(draw, layers, width)
    case = (spec, [], program, taps, streams, [], 0, 100_000,
            draw(st.integers(0, 8)), False)
    return case, period


@st.composite
def remainder_systems(draw):
    """An uncontrolled fabric with one or two local programs of LIMIT
    2-8, taps and streams, and ``run`` chunks of 1 to 2 periods + 1."""
    layers = draw(st.integers(2, 3))
    width = draw(st.integers(1, 2))
    spec = draw(ring_specs(min_layers=layers, max_layers=layers,
                           min_width=width, max_width=width, max_local=1,
                           accumulators=True))
    spec = _local_cells(draw, spec, 2)
    period = _spec_period(spec)
    taps, streams = _taps_and_streams(draw, layers, width)
    chunks = draw(st.lists(st.integers(1, 2 * period + 1), min_size=2,
                           max_size=8))
    return spec, taps, streams, chunks


@st.composite
def strict_stepped_systems(draw):
    """A feed-forward fabric with strict FIFOs in which one local
    program of LIMIT 2-8 reads (or only pops) FIFO1 in one slot, 1-6
    words deep, under a controller that polls a mailbox (``BFE``), so
    steps, every cycle until the queue runs dry.  Every other local
    program has one slot, so the period stays within native's unroll
    cap."""
    layers = draw(st.integers(2, 3))
    width = draw(st.integers(1, 2))
    spec = _feed_forward(draw(ring_specs(
        min_layers=layers, max_layers=layers, min_width=width,
        max_width=width, max_local=1, fifo_loads=False,
        accumulators=True)))
    cells = list(spec["cells"])
    k = draw(st.integers(0, len(cells) - 1))
    layer, pos, mw, _local, routes, _loads = cells[k]
    limit = draw(st.integers(2, 8))
    program = [MicroWord(Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT,
                         imm=j) for j in range(limit)]
    if draw(st.booleans()):
        fifo_word = MicroWord(Opcode.MOV, Source.FIFO1, dst=Dest.OUT,
                              flags=Flag.POP_FIFO1)
    else:
        fifo_word = MicroWord(Opcode.NOP, flags=Flag.POP_FIFO1)
    program[draw(st.integers(0, limit - 1))] = fifo_word
    words = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=6))
    cells[k] = (layer, pos, mw, program, routes, {1: words})
    spec = dict(spec, cells=cells)
    busy = draw(st.lists(_stepped_instructions(),
                         min_size=limit * (len(words) + 2),
                         max_size=limit * (len(words) + 2) + 4))
    taps, streams = _taps_and_streams(draw, layers, width)
    return (spec, [], busy + [Instruction(ROp.HALT)], taps, streams, [],
            0, 100_000, 0, False)


@contextmanager
def _macro_calls(plan_class=MacroPlan):
    """Record ``(entry counters, cycles, raised)`` per ``run`` of a
    macro plan class (:class:`MacroLanePlan` for lanes): the entry
    counters are the local-mode Dnodes' sequencer counters, layer-major."""
    calls = []
    run = plan_class.run

    def recording(plan, cycles, *args):
        entry = tuple(dn.local.counter for dn in plan._nodes
                      if dn.mode is DnodeMode.LOCAL)
        try:
            result = run(plan, cycles, *args)
        except Exception:
            calls.append((entry, cycles, True))
            raise
        calls.append((entry, cycles, False))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan_class, "run", recording)
        yield calls


def _period_four_ring(**ring_kwargs) -> Ring:
    """A period-4 local program feeding a global accumulator."""
    ring = Ring(RingGeometry(layers=2, width=1), **ring_kwargs)
    ring.config.write_local_program(0, 0, [
        MicroWord(Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=3),
        MicroWord(Opcode.MULH, Source.SELF, Source.BUS, Dest.OUT),
        MicroWord(Opcode.SUB, Source.SELF, Source.IMM, Dest.OUT, imm=1),
        MicroWord(Opcode.XOR, Source.SELF, Source.BUS, Dest.OUT)])
    ring.config.write_mode(0, 0, DnodeMode.LOCAL)
    ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
    ring.config.write_microword(1, 0, MicroWord(
        Opcode.ADD, Source.IN1, Source.SELF, Dest.OUT))
    return ring


class TestMacroStepping:
    """Macro kernels enter at any phase and stop at any cycle.

    They serve controller-stepped cycles and sub-period remainders, and
    raise a strict-FIFO error on a stepped cycle exactly where the
    per-cycle interpreter does.  Every generated case is checked against
    the interpreter, stepped one cycle at a time where a controller
    runs.
    """

    @given(drawn=stepped_systems())
    @settings(max_examples=60, **_SETTINGS)
    def test_stepped_cycles_enter_every_phase(self, drawn):
        case, period = drawn
        plancache.KERNELS.clear()
        with _macro_calls() as calls:
            bulk, bulk_error = _drive(case, per_cycle=False,
                                      backend="native")
        spec, spec_error = _drive(case, per_cycle=True,
                                  backend="interpreter")
        assert _observables(bulk, bulk_error) == \
            _observables(spec, spec_error)
        assert bulk_error is None
        # Every controller-stepped cycle but the configuration's
        # first-time one ran as a one-cycle macro call, and a block of
        # more than a period of them entered at every counter state.
        stepped = bulk.cycle_paths[("per_cycle", "controller")]
        entries = [entry for entry, cycles, _ in calls if cycles == 1]
        assert len(entries) >= stepped - 1
        assert len(set(entries)) == period
        assert bulk.ring.plan_compiles == 1

    @given(drawn=remainder_systems())
    @settings(max_examples=60, **_SETTINGS)
    def test_sub_period_remainders_run_on_macro(self, drawn):
        spec, taps, streams, chunks = drawn
        results = []
        for backend in ("native", "interpreter"):
            ring = build_ring(spec, backend=backend)
            system = RingSystem(ring)
            for channel, words in streams.items():
                system.data.stream(channel, words)
            for layer, pos, skip, every, limit in taps:
                system.data.add_tap(layer, pos, skip=skip, every=every,
                                    limit=limit)
            for chunk in chunks:
                system.run(chunk)
            results.append((system.data.capture_state(),
                            state_digest(ring), system.cycle_paths))
        (host, digest, paths), (want_host, want_digest, _) = results
        assert host == want_host
        assert digest == want_digest
        # Only the first-time cycle steps; every remainder is a window.
        assert paths.get(("per_cycle", "no_plan"), 0) <= 1
        assert set(paths) <= {("per_cycle", "no_plan"), ("bulk", "native"),
                              ("bulk", "macro")}

    @given(case=strict_stepped_systems())
    @settings(max_examples=60, **_SETTINGS)
    def test_strict_fifo_error_on_a_stepped_macro_cycle(self, case):
        with _macro_calls() as calls:
            bulk, bulk_error = _drive(case, per_cycle=False,
                                      backend="native", strict_fifos=True)
        spec, spec_error = _drive(case, per_cycle=True,
                                  backend="interpreter", strict_fifos=True)
        # The message and cycle, the taps and the streams' underruns
        # match; the aborted cycle's partial fabric state is each
        # engine's own (see repro.core.macropath).
        got, want = (_observables(bulk, bulk_error),
                     _observables(spec, spec_error))
        for key in ("error", "cycles", "host", "controller"):
            assert got[key] == want[key], key
        assert bulk.ring.cycles == spec.ring.cycles
        assert "empty FIFO1" in bulk_error
        assert calls and calls[-1][1:] == (1, True), (
            "the error must come from a stepped macro cycle")

    def test_stepping_a_period_four_configuration_compiles_once(self):
        ring = _period_four_ring()
        reference = _period_four_ring(backend="interpreter")
        for cycle in range(12):
            ring.step(bus=cycle + 5)
            reference.step(bus=cycle + 5)
        assert ring.plan_compiles == 1
        assert ring.macro_cycles == 11
        assert state_digest(ring) == state_digest(reference)

    def test_over_cap_configuration_steps_on_the_interpreter(self):
        """Period 280 is over native's unroll cap: only the first-time
        cycle is interpreted, and every other stepped cycle and the
        system's windows run on one macro kernel."""
        def build(**ring_kwargs):
            ring = Ring(RingGeometry(layers=2, width=2), **ring_kwargs)
            for (layer, pos), limit in zip([(0, 0), (0, 1), (1, 0)],
                                           (5, 7, 8)):
                ring.config.write_local_program(layer, pos, [
                    MicroWord(Opcode.ADD, Source.SELF, Source.IMM,
                              Dest.OUT, imm=j) for j in range(limit)])
                ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
            return ring

        ring, reference = build(), build(backend="interpreter")
        with ring.profile() as profile:
            for _ in range(12):
                ring.step()
                reference.step()
        assert profile.interpreted_cycles == 1
        assert ring.macro_cycles == 11
        assert ring.plan_compiles == 1
        assert ring.native_refusal == (
            "period 280 over the unroll cap (64 cycles, 4096 Dnode-cycles)")
        systems = [RingSystem(r) for r in (ring, reference)]
        for system in systems:
            system.data.add_tap(1, 0)
            system.run(20)
        assert systems[0].cycle_paths == {("bulk", "macro"): 20}
        assert ring.plan_compiles == 1
        assert systems[0].data.taps[0].samples == \
            systems[1].data.taps[0].samples
        assert state_digest(ring) == state_digest(reference)


def _lane_streams(streams: dict, batch: int) -> list:
    """Per-lane variants of *streams*: lane k drops its first k words
    and offsets the rest, so lanes differ and run dry at different
    cycles."""
    return [{channel: [(w + 4099 * lane) & 0xFFFF for w in words[lane:]]
             for channel, words in streams.items()}
            for lane in range(batch)]


def _streamed_system(ring: Ring, taps, lane_streams) -> RingSystem:
    """*ring* in a system with *taps* and one stream dict per lane (one
    dict for a scalar ring)."""
    system = RingSystem(ring)
    lanes = system.data.batch > 1
    for lane, streams in enumerate(lane_streams):
        for channel, words in streams.items():
            system.data.stream(channel, words,
                               lane=lane if lanes else None)
    for layer, pos, skip, every, limit in taps:
        system.data.add_tap(layer, pos, skip=skip, every=every,
                            limit=limit)
    return system


def _controlled_lanes(case, lane_streams, **ring_kwargs) -> RingSystem:
    """A :func:`_controlled_system` whose lanes stream *lane_streams*."""
    system = _controlled_system(case[:4] + ({},) + case[5:], **ring_kwargs)
    for lane, streams in enumerate(lane_streams):
        for channel, words in streams.items():
            system.data.stream(channel, words, lane=lane)
    return system


def _controller_state(system: RingSystem) -> tuple:
    ctrl = system.controller
    return (dict(vars(ctrl.state)), ctrl.pc, list(ctrl.regs), ctrl.halted,
            ctrl.bus_out)


def _datapath(ring: Ring) -> dict:
    """A ring's datapath words (no statistics: an aborted cycle's
    Dnodes count it on the interpreter, not on a generated kernel)."""
    snapshot = capture(ring)
    return {field: getattr(snapshot, field)
            for field in ("registers", "outs", "pipelines", "fifos")}


def _over_cap_ring(**ring_kwargs) -> Ring:
    """Local programs of LIMIT 5, 7 and 8 (period 280, over the unroll
    cap) and a host-fed accumulator at D1.1."""
    ring = Ring(RingGeometry(layers=2, width=2), **ring_kwargs)
    for (layer, pos), limit in zip([(0, 0), (0, 1), (1, 0)], (5, 7, 8)):
        ring.config.write_local_program(layer, pos, [
            MicroWord(Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT,
                      imm=j) for j in range(limit)])
        ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
    ring.config.write_switch_route(1, 1, 1, PortSource.host(0))
    ring.config.write_microword(1, 1, MicroWord(
        Opcode.MAC, Source.IN1, Source.SELF, Dest.R1,
        flags=Flag.WRITE_OUT))
    return ring


class TestMacroLanes:
    """Macro lane kernels == one per-cycle interpreter ring per lane.

    The macro lane kernel takes every lane cycle native lane windows do
    not: controller-stepped cycles (entered at every phase), sub-period
    remainders after a native window, native-refused configurations
    (``iir``'s MADD self-recurrence, ``echo``'s cross-Dnode cycle, a
    period over native's unroll cap) and strict FIFOs.  Lanes get their
    own streams, so they differ in data and run dry at different
    cycles; each is checked against its own interpreter run.
    """

    @given(drawn=stepped_systems(), batch=st.integers(2, 3))
    @settings(max_examples=30, **_SETTINGS)
    def test_controller_steps_enter_every_phase(self, drawn, batch):
        case, period = drawn
        spec, budget, drain = case[0], case[7], case[8]
        lane_streams = _lane_streams(case[4], batch)
        plancache.KERNELS.clear()
        with _macro_calls(MacroLanePlan) as calls:
            system = _controlled_lanes(case, lane_streams,
                                       backend="batch", batch_size=batch)
            system.run_until_halt(max_cycles=budget, drain=drain)
        refs = []
        for streams in lane_streams:
            ref = _controlled_system(case[:4] + (streams,) + case[5:],
                                     backend="interpreter")
            _step_until_halt(ref, budget, drain)
            refs.append(ref)
            assert _controller_state(system) == _controller_state(ref)
            assert system.cycles == ref.cycles
        _assert_lanes_match(system, refs, spec)
        # Every controller-stepped cycle is a one-cycle macro lane call,
        # and a block of more than a period of them entered at every
        # counter state.
        stepped = system.cycle_paths[("per_cycle", "controller")]
        entries = [entry for entry, cycles, _ in calls if cycles == 1]
        assert len(entries) >= stepped
        assert len(set(entries)) == period
        assert system.ring.plan_compiles == 1

    @given(drawn=remainder_systems(), batch=st.integers(2, 3))
    @settings(max_examples=30, **_SETTINGS)
    def test_sub_period_remainders_follow_native_windows(self, drawn,
                                                         batch):
        spec, taps, streams, chunks = drawn
        lane_streams = _lane_streams(streams, batch)
        system = _streamed_system(
            build_ring(spec, backend="batch", batch_size=batch), taps,
            lane_streams)
        refs = [_streamed_system(build_ring(spec, backend="interpreter"),
                                 taps, [streams])
                for streams in lane_streams]
        for chunk in chunks:
            system.run(chunk)
            for ref in refs:
                ref.run(chunk)
        _assert_lanes_match(system, refs, spec)
        ring, period = system.ring, _spec_period(spec)
        assert ring.native_cycles + ring.macro_cycles == sum(chunks)
        assert ring.macro_cycles == ring.native_fallback_cycles
        if ring.native_refusal is None:
            # Native takes each run's whole periods, macro the rest.
            assert ring.native_cycles == sum(
                chunk - chunk % period for chunk in chunks if chunk > 1)

    @pytest.mark.parametrize("kernel, reason", [
        ("iir", "MADD self-recurrence has no closed form"),
        ("echo", "cross-Dnode dependence cycle"),
    ])
    def test_native_refused_kernels(self, kernel, reason):
        def build(lane_streams, **ring_kwargs):
            if kernel == "iir":
                ring = Ring(RingGeometry(layers=2, width=2), **ring_kwargs)
                build_first_order_iir(3, -1, ring=ring)
                taps = [(1, 0, 1, 1, None)]
            else:
                ring = Ring(RingGeometry(layers=4, width=2), **ring_kwargs)
                build_echo(20000, ring=ring)
                taps = [(0, 0, 0, 1, None), (3, 0, 0, 2, None)]
            return _streamed_system(ring, taps, lane_streams)

        signal = [(97 * n + 13) % 200 for n in range(40)]
        lane_streams = _lane_streams({0: signal}, 3)
        system = build(lane_streams, backend="batch", batch_size=3)
        refs = [build([streams], backend="interpreter")
                for streams in lane_streams]
        chunks = [1, 1, 9, 24, 7]
        for chunk in chunks:
            system.run(chunk)
            for ref in refs:
                ref.run(chunk)
        spec_ring = system.ring
        assert reason in spec_ring.native_refusal
        assert spec_ring.native_cycles == 0
        assert spec_ring.macro_cycles == spec_ring.native_fallback_cycles \
            == sum(chunks)
        assert spec_ring.plan_compiles == 1
        for lane, ref in enumerate(refs):
            for tap, want in zip(system.data.taps, ref.data.taps):
                assert tap.lane(lane) == want.samples
            target = Ring(spec_ring.geometry)
            system.ring.batch.store_lane(lane, target)
            assert _datapath(target) == _datapath(ref.ring)

    def test_strict_fifo_lanes_run_dry_mid_span(self):
        """Lane k holds 2 + k words for a FIFO read every third cycle,
        so lane 0 runs dry first, mid-span: the lane kernel raises the
        scalar kernel's message on that cycle, with every lane's
        datapath as its own interpreter ring left it."""
        def build(**ring_kwargs):
            ring = Ring(RingGeometry(layers=2, width=2),
                        strict_fifos=True, **ring_kwargs)
            ring.config.write_local_program(0, 0, [
                MicroWord(Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT,
                          imm=1),
                MicroWord(Opcode.MOV, Source.FIFO1, dst=Dest.OUT,
                          flags=Flag.POP_FIFO1),
                MicroWord(Opcode.ADD, Source.SELF, Source.BUS, Dest.OUT)])
            ring.config.write_mode(0, 0, DnodeMode.LOCAL)
            ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
            ring.config.write_microword(1, 0, MicroWord(
                Opcode.ADD, Source.IN1, Source.SELF, Dest.OUT))
            return ring

        loads = [[(500 * lane + 7 * j) & 0xFFFF for j in range(2 + lane)]
                 for lane in range(3)]
        lanes = build(backend="batch", batch_size=3)
        for lane, words in enumerate(loads):
            lanes.batch.push_fifo(0, 0, 1, words, lane=lane)
        lanes.run(2, bus=4)
        with pytest.raises(SimulationError) as got:
            lanes.run(20, bus=4)
        assert str(got.value) == "D0.0 read empty FIFO1 at cycle 7"
        assert lanes.cycles == 7
        assert lanes.macro_cycles == lanes.native_fallback_cycles == 7
        for lane, words in enumerate(loads):
            ref = build(backend="interpreter")
            ref.push_fifo(0, 0, 1, words)
            ref.run(7, bus=4)
            if lane == 0:
                with pytest.raises(SimulationError) as want:
                    ref.run(1, bus=4)
                assert str(want.value) == str(got.value)
                assert ref.cycles == 7
            target = Ring(lanes.geometry)
            lanes.batch.store_lane(lane, target)
            assert _datapath(target) == _datapath(ref)
            assert lanes.batch.fifo_contents(0, 0, 1, lane) == \
                words[2:]

    def test_over_cap_configuration_runs_one_kernel_per_cycle(self):
        """Period 280 is over native's unroll cap: every lane cycle runs
        on one macro lane kernel, one call per run, compiled once and
        cached under one ``"macro_lanes"`` key."""
        signal = [(31 * n + 5) % 300 for n in range(30)]
        lane_streams = _lane_streams({0: signal}, 3)
        taps = [(1, 0, 0, 1, None), (1, 1, 2, 3, None)]
        with _macro_calls(MacroLanePlan) as calls:
            system = _streamed_system(
                _over_cap_ring(backend="batch", batch_size=3), taps,
                lane_streams)
            chunks = [1, 5, 30]
            for chunk in chunks:
                system.run(chunk)
        refs = [_streamed_system(_over_cap_ring(backend="interpreter"),
                                 taps, [streams])
                for streams in lane_streams]
        for ref in refs:
            ref.run(sum(chunks))
        ring = system.ring
        assert ring.native_refusal == (
            "period 280 over the unroll cap (64 cycles, 4096 Dnode-cycles)")
        assert ring.native_cycles == 0
        assert ring.macro_cycles == ring.native_fallback_cycles == 36
        assert [cycles for _, cycles, _ in calls] == [1, 5, 30]
        assert ring.plan_compiles == 1
        assert [key[0] for key in plancache.KERNELS.keys()].count(
            "macro_lanes") == 1
        for lane, ref in enumerate(refs):
            for tap, want in zip(system.data.taps, ref.data.taps):
                assert tap.lane(lane) == want.samples
            target = Ring(ring.geometry)
            ring.batch.store_lane(lane, target)
            assert _datapath(target) == _datapath(ref.ring)

    def test_reconfiguration_mid_run(self):
        """A write drops the lane plan; the next run compiles the new
        configuration's lane kernel once, over the preserved lanes."""
        signal = [(53 * n + 3) % 400 for n in range(40)]
        lane_streams = _lane_streams({0: signal}, 3)

        def build(streams, **ring_kwargs):
            ring = Ring(RingGeometry(layers=2, width=2), **ring_kwargs)
            build_first_order_iir(3, -1, ring=ring)
            return _streamed_system(ring, [(1, 0, 1, 1, None)], streams)

        system = build(lane_streams, backend="batch", batch_size=3)
        refs = [build([streams], backend="interpreter")
                for streams in lane_streams]
        for phase, coeff in enumerate((-1, 2)):
            for s in [system] + refs:
                if phase:
                    s.ring.config.write_microword(1, 0, MicroWord(
                        Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT,
                        imm=coeff & 0xFFFF))
                s.run(3)
                s.run(14)
        ring = system.ring
        assert ring.plan_invalidations == 1
        assert ring.plan_compiles == 2
        assert ring.macro_cycles == 34
        for lane, ref in enumerate(refs):
            assert system.data.taps[0].lane(lane) == \
                ref.data.taps[0].samples
            target = Ring(ring.geometry)
            ring.batch.store_lane(lane, target)
            assert _datapath(target) == _datapath(ref.ring)


#: Over native's unroll caps: period 280 (LIMITs 5, 7 and 8) is over the
#: period cap; LIMITs 7 and 8 (period 56) on 76 Dnodes are over only the
#: cell cap (56 x 76 = 4,256 Dnode-cycles).
_OVER_CAP_SHAPES = {"period": (2, 3, (5, 7, 8)), "cells": (38, 38, (7, 8))}


@st.composite
def over_cap_systems(draw, strict: bool = False):
    """A :func:`controlled_systems`-shaped case (no planes) over native's
    unroll cap: random fabrics with one local program per LIMIT of the
    shape, taps, streams and FIFO loads that run dry, ``run()`` chunks
    with a rollback, and a controller whose busy blocks of random
    length step cycles at random counter alignments between ``WAITI``
    spans.

    With *strict* the fabric is feed-forward with no FIFO traffic but
    one slot of the LIMIT-8 program, which reads and pops a FIFO holding
    1-6 words, so a strict-FIFO error fires mid-window or on a stepped
    cycle.
    """
    min_layers, max_layers, limits = _OVER_CAP_SHAPES[draw(
        st.sampled_from(sorted(_OVER_CAP_SHAPES)))]
    spec = draw(ring_specs(min_layers=min_layers, max_layers=max_layers,
                           max_local=1, fifo_loads=not strict,
                           accumulators=True))
    words = None
    if strict:
        spec = _feed_forward(spec)
        words = st.one_of(microwords(), nonlinear_words()).map(
            lambda w: _no_loop_word(w, fifos=False))
    spec = _local_cells(draw, spec, 0, limits=limits, words=words)
    if strict:
        cells = list(spec["cells"])
        k = next(k for k, cell in enumerate(cells)
                 if cell[3] is not None and len(cell[3]) == 8)
        layer, pos, mw, program, routes, _loads = cells[k]
        program = list(program)
        program[draw(st.integers(0, 7))] = MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1)
        cells[k] = (layer, pos, mw, program, routes, {1: draw(st.lists(
            st.integers(0, 0xFFFF), min_size=1, max_size=6))})
        spec = dict(spec, cells=cells)
    program = []
    for _ in range(draw(st.integers(1, 3))):
        program += draw(st.lists(_busy_instructions(), min_size=1,
                                 max_size=10))
        program.append(Instruction(ROp.WAITI, imm=draw(st.integers(0, 60))))
    program.append(Instruction(ROp.HALT))
    taps, streams = _taps_and_streams(draw, spec["layers"], spec["width"])
    chunks = draw(st.lists(st.integers(0, 40), max_size=3))
    rollback = draw(st.integers(0, max(0, len(chunks) - 1)))
    budget = draw(st.one_of(st.integers(0, 150), st.just(100_000)))
    return (spec, [], program, taps, streams, chunks, rollback, budget,
            draw(st.integers(0, 20)), False)


#: What a strict-FIFO error leaves comparable: the aborted cycle's
#: partial fabric state (and the statistics in the metrics) is each
#: engine's own (see repro.core.macropath); the controller stands on the
#: aborted cycle, as per-cycle stepping leaves it.
_STRICT_OBSERVABLES = ("error", "cycles", "host", "controller")


class TestOverCapConfigurations:
    """Configurations over native's unroll cap run on one macro kernel.

    Native refuses them by its period or cell cap; the macro kernel,
    each Dnode branching on its own sequencer counter, compiles once
    per process on a ring and once on lanes, and takes every cycle but
    a first-time configuration's deferral cycle: stepped cycles entered
    at random counter alignments, windows with taps and streams that
    run dry, strict-FIFO errors mid-window (with the replayed host
    reads) and checkpoint rollback.  Every case is checked against an
    interpreter system stepped one cycle at a time, each lane against
    its own.
    """

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["lenient", "strict"])
    @pytest.mark.parametrize("column", ["native", "fastpath"])
    @given(data=st.data())
    @settings(max_examples=10, **_SETTINGS)
    def test_matches_per_cycle_stepping(self, column, strict, data):
        case = data.draw(over_cap_systems(strict))
        plancache.KERNELS.clear()
        system = _controlled_system(case, backend="native",
                                    strict_fifos=strict)
        ring = system.ring
        with rung_seam(column), ring.profile() as profile:
            bulk, bulk_error = _drive(case, per_cycle=False, system=system)
            if column == "native":
                assert "over the unroll cap" in ring.native_refusal
        spec, spec_error = _drive(case, per_cycle=True,
                                  backend="interpreter", strict_fifos=strict)
        got, want = (_observables(bulk, bulk_error),
                     _observables(spec, spec_error))
        keys = _STRICT_OBSERVABLES if strict else got
        assert {key: got[key] for key in keys} == \
            {key: want[key] for key in keys}
        # One compile once a second cycle ran (a run may stop at the
        # first: a budget of 0, an error).
        assert ring.native_cycles == 0
        assert ring.plan_compiles == (ring.macro_cycles > 0)
        assert profile.interpreted_cycles <= 1
        assert ring.macro_cycles == profile.fastpath_cycles

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["lenient", "strict"])
    @given(data=st.data(), batch=st.integers(2, 3))
    @settings(max_examples=8, **_SETTINGS)
    def test_lanes_match_their_interpreter_runs(self, strict, data, batch):
        case = data.draw(over_cap_systems(strict))
        plancache.KERNELS.clear()
        lane_streams = _lane_streams(case[4], batch)
        system, error = _drive(case, per_cycle=False, system=_controlled_lanes(
            case, lane_streams, backend="batch", batch_size=batch,
            strict_fifos=strict))
        refs = []
        for streams in lane_streams:
            ref, ref_error = _drive(case[:4] + (streams,) + case[5:],
                                    per_cycle=True, backend="interpreter",
                                    strict_fifos=strict)
            assert error == ref_error
            assert system.cycles == ref.cycles
            assert _controller_state(system) == _controller_state(ref)
            refs.append(ref)
        _assert_lanes_match(system, refs, case[0], datapath=not strict)
        ring = system.ring
        assert ring.native_cycles == 0
        assert ring.plan_compiles == (ring.macro_cycles > 0)
        assert [key[0] for key in plancache.KERNELS.keys()].count(
            "macro_lanes") == ring.plan_compiles


#: How a generated case hands its words to a queue: one list, one int64
#: array, one NumPy scalar per push, or a list of NumPy scalars.
_PUSH_FORMS = ("list", "array", "scalars", "scalar_list")


def _push_as(push, words, form: str) -> None:
    """Push *words* in *form*; every form pushes at least once, so an
    empty load opens its queue or channel as a list push does."""
    if form == "array":
        push(np.asarray(words, np.int64))
    elif form == "scalars" and words:
        for value in words:
            push(np.int64(value))
    elif form == "scalar_list":
        push([np.uint16(value) for value in words])
    else:
        push(list(words))


@st.composite
def dry_queue_systems(draw, strict: bool = False):
    """Fabrics whose FIFOs and host streams run dry mid-window.

    A feed-forward fabric that keeps its FIFO reads and pops, with one
    planted Dnode that adds FIFO1 (popped every cycle, 1-8 words) to
    host channel 0 (1-24 words), so both queues run dry inside the
    last 48-cycle chunk if not before.  Half the fabrics also get a
    nonlinear Dnode, so macro windows serve them.  Loads are pushed in
    one drawn form (:data:`_PUSH_FORMS`), and before one drawn chunk
    every loaded queue is refilled (another form), so a drained queue
    fills again.  Each case carries a rollback chunk and an optional
    hand-off to a fresh ring.
    """
    spec = _cut_feedback_into_layer0(_feed_forward(draw(ring_specs(
        min_layers=2, max_layers=4, min_width=1, max_width=3,
        max_local=4)), fifos=True))
    cells = list(spec["cells"])
    k = draw(st.integers(0, len(cells) - 1))
    layer, pos, _mw, _local, routes, _loads = cells[k]
    reader = MicroWord(Opcode.ADD, Source.FIFO1, Source.IN1, Dest.OUT,
                       flags=Flag.POP_FIFO1)
    cells[k] = (layer, pos, reader, None, {**routes, 1: PortSource.host(0)},
                {1: draw(st.lists(st.integers(0, 0xFFFF), min_size=1,
                                  max_size=8))})
    spec = dict(spec, cells=cells)
    nonlinear = not strict and draw(st.booleans())
    if nonlinear:
        spec = _plant(draw, spec)
    layers, width = spec["layers"], spec["width"]
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    streams = draw(st.dictionaries(
        st.integers(1, 3), st.lists(st.integers(0, 0xFFFF), max_size=24),
        max_size=3))
    streams[0] = draw(st.lists(st.integers(0, 0xFFFF), min_size=1,
                               max_size=24))
    chunks = draw(st.lists(st.integers(0, 48), min_size=1, max_size=4))
    chunks.append(48)
    forms = (draw(st.sampled_from(_PUSH_FORMS)),
             draw(st.sampled_from(_PUSH_FORMS)))
    refill = (draw(st.integers(0, len(chunks) - 1)),
              draw(st.lists(st.integers(0, 0xFFFF), max_size=12)))
    rollback = draw(st.integers(0, len(chunks) - 1))
    handoff = draw(st.one_of(st.none(), st.integers(0, len(chunks) - 1)))
    return dict(spec=spec, taps=taps, streams=streams, chunks=chunks,
                forms=forms, refill=refill, rollback=rollback,
                handoff=handoff, nonlinear=nonlinear)


def _dry_run(case, forms=None, step: bool = False, handoff: bool = False,
             **ring_kwargs):
    """Run one :func:`dry_queue_systems` case; returns the system that
    finished and the error message that stopped it (or None).

    *forms* overrides the case's push forms; *step* advances one
    :meth:`RingSystem.step` per cycle instead of one ``run`` per chunk.
    """
    spec = case["spec"]
    forms = forms or case["forms"]
    geometry = RingGeometry(layers=spec["layers"], width=spec["width"])
    loads = [(layer, pos, channel, words)
             for layer, pos, *_, cell_loads in spec["cells"]
             for channel, words in cell_loads.items()]

    def build(ring: Ring) -> RingSystem:
        system = RingSystem(ring)
        for layer, pos, skip, every, limit in case["taps"]:
            system.data.add_tap(layer, pos, skip=skip, every=every,
                                limit=limit)
        return system

    def load(system: RingSystem, form: str, refill=None) -> None:
        ring = system.ring
        for layer, pos, channel, words in loads:
            _push_as(lambda v, l=layer, p=pos, c=channel:
                     ring.push_fifo(l, p, c, v),
                     words if refill is None else refill, form)
        for channel, words in case["streams"].items():
            _push_as(lambda v, c=channel: system.data.stream(c, v),
                     words if refill is None else refill, form)

    def advance(system: RingSystem, cycles: int) -> None:
        if step:
            for _ in range(cycles):
                system.step()
        else:
            system.run(cycles)

    bare = dict(spec, cells=[cell[:5] + ({},) for cell in spec["cells"]])
    system = build(apply_spec(Ring(geometry, **ring_kwargs), bare))
    load(system, forms[0])
    refill_at, refill_words = case["refill"]
    try:
        for k, chunk in enumerate(case["chunks"]):
            if handoff and k == case["handoff"]:
                saved = system.checkpoint()
                system = build(Ring(geometry, **ring_kwargs))
                system.restore_checkpoint(saved)
            if k == refill_at:
                load(system, forms[1], refill_words)
            if k == case["rollback"]:
                saved = system.checkpoint()
                advance(system, chunk)
                system.restore_checkpoint(saved)
            advance(system, chunk)
    except SimulationError as exc:
        return system, str(exc)
    return system, None


#: Engine columns of the dry-queue differential: (rung seam, drive).
#: ``fastpath`` runs every macro window one cycle per kernel call
#: (:func:`tests.conftest.macro_stepped`); ``stepped`` drives a native
#: ring one :meth:`RingSystem.step` at a time.
_DRY_COLUMNS = {"native": ("native", False), "macro": ("macro", False),
                "fastpath": ("fastpath", False),
                "stepped": ("native", True)}


class TestDryQueues:
    """Word queues that run dry mid-window, on every rung.

    Ring FIFOs and host streams are :class:`~repro.core.wordqueue
    .WordQueue` buffers: windows gather them as slices and pop them by
    moving the head.  Each generated case drains them inside native
    windows, macro windows (whole, or one cycle per kernel call) and
    stepped cycles, refills them, rolls back and hands off to a fresh
    ring, with pushes given as lists, int64 arrays and NumPy scalars.
    The per-cycle interpreter, fed plain lists, is the spec.
    """

    @pytest.mark.parametrize("column", list(_DRY_COLUMNS))
    @given(case=dry_queue_systems())
    @settings(max_examples=40, **_SETTINGS)
    def test_dry_queues_match_interpreter(self, column, case):
        seam, step = _DRY_COLUMNS[column]
        with rung_seam(seam):
            got, got_error = _dry_run(case, step=step, handoff=True)
        want, want_error = _dry_run(case, forms=("list", "list"),
                                    backend="interpreter")
        assert got_error is want_error is None
        assert got.data.capture_state() == want.data.capture_state()
        assert state_digest(got.ring) == state_digest(want.ring)
        assert got.cycles == want.cycles == sum(case["chunks"])
        if not step:
            _assert_ladder_served(got.cycle_paths, case["nonlinear"])
        if column == "native" and got.ring.native_refusal is None:
            assert got.ring.native_cycles > 0

    @pytest.mark.parametrize("column", list(_DRY_COLUMNS))
    @given(case=dry_queue_systems(strict=True))
    @settings(max_examples=30, **_SETTINGS)
    def test_strict_fifo_error_on_the_exact_cycle(self, column, case):
        """A strict FIFO raises on the cycle the interpreter does, with
        its message, taps and stream underruns; the aborted cycle's
        partial fabric state is each engine's own."""
        seam, step = _DRY_COLUMNS[column]
        with rung_seam(seam):
            got, got_error = _dry_run(case, step=step, handoff=True,
                                      strict_fifos=True)
        want, want_error = _dry_run(case, forms=("list", "list"),
                                    backend="interpreter",
                                    strict_fifos=True)
        assert got_error == want_error
        assert "empty FIFO" in want_error
        assert got.ring.cycles == want.ring.cycles
        assert got.cycles == want.cycles
        assert got.data.capture_state() == want.data.capture_state()


@st.composite
def lane_queue_systems(draw, strict: bool = False):
    """Batch fabrics whose lane FIFOs and lane streams run dry at
    different cycles.

    The :func:`dry_queue_systems` reader (FIFO1, popped every cycle,
    plus host channel 0) on 2-4 lanes, each lane loaded with its own
    words: every FIFO 0-8 words, every stream 0-24, pushed as one 2-D
    block (ragged when the lengths differ) or one push per lane.  Two
    48-cycle chunks end the run, so every lane has run its reader dry
    before the second; right before it one lane alone gets new words.
    Non-strict cases also draw a ``drop_next`` on channel 0, a read of
    channel 0 ahead of a run (its dry latch), a top-up while lane counts
    differ (one 2-D block on channel 0 and the reader, one broadcast
    block on every other queue), a checkpoint rollback and an optional
    hand-off to a fresh system,
    and half of them a nonlinear Dnode (macro lane windows) unless the
    reader replaced it.  Strict
    cases give the reader's lanes distinct lengths and every other
    FIFO 16-24 words, so one lane raises first.
    """
    spec = _cut_feedback_into_layer0(_feed_forward(draw(ring_specs(
        min_layers=2, max_layers=4, min_width=1, max_width=3,
        max_local=4)), fifos=True))
    nonlinear = not strict and draw(st.booleans())
    if nonlinear:
        spec = _plant(draw, spec)
    cells = list(spec["cells"])
    k = draw(st.integers(0, len(cells) - 1))
    layer, pos, _mw, _local, routes, _loads = cells[k]
    reader = MicroWord(Opcode.ADD, Source.FIFO1, Source.IN1, Dest.OUT,
                       flags=Flag.POP_FIFO1)
    cells[k] = (layer, pos, reader, None, {**routes, 1: PortSource.host(0)},
                {})
    spec = dict(spec, cells=[cell[:5] + ({},) for cell in cells])
    layers, width = spec["layers"], spec["width"]
    batch = draw(st.integers(2, 4))
    words = st.integers(0, 0xFFFF)
    lengths = (draw(st.permutations(range(9)))[:batch] if strict
               else [draw(st.integers(0, 8)) for _ in range(batch)])
    fifos = {}
    for l in range(layers):
        for p in range(width):
            for ch in (1, 2):
                size = (st.integers(16, 24) if strict else
                        st.integers(0, 8))
                fifos[(l, p, ch)] = [
                    draw(st.lists(words, min_size=n, max_size=n))
                    for n in [draw(size) for _ in range(batch)]]
    fifos[(layer, pos, 1)] = [draw(st.lists(words, min_size=n,
                                            max_size=n)) for n in lengths]
    channels = [0] + draw(st.lists(st.integers(1, 3), max_size=2,
                                   unique=True))
    streams = {ch: [draw(st.lists(words, max_size=24))
                    for _ in range(batch)] for ch in channels}
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 6), st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=4))
    chunks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3))
    chunks += [48, 48]
    refill = (draw(st.integers(0, batch - 1)),
              draw(st.lists(words, min_size=1, max_size=12)),
              draw(st.lists(words, min_size=1, max_size=6)))
    index = st.one_of(st.none(), st.integers(0, len(chunks) - 1))
    top_up = (draw(st.integers(0, len(chunks) - 2)),
              draw(st.lists(st.lists(words, min_size=3, max_size=3),
                            min_size=batch, max_size=batch)),
              draw(st.lists(words, max_size=4)))
    events = {} if strict else dict(drop_next=draw(index),
                                    peek=draw(index),
                                    rollback=draw(index),
                                    handoff=draw(index), top_up=top_up)
    return dict(spec=spec, reader=(layer, pos), batch=batch, fifos=fifos,
                streams=streams, taps=taps, chunks=chunks, refill=refill,
                blocks=draw(st.booleans()), nonlinear=nonlinear, **events)


def _lane_queue_system(case, ring: Ring, lane=None) -> RingSystem:
    """A :func:`lane_queue_systems` case on *ring*: every lane loaded on
    a batch ring (as one 2-D block per queue, or one push per lane with
    odd lanes pushing int64 arrays), or lane *lane* alone on a scalar
    one."""
    apply_spec(ring, case["spec"])
    system = RingSystem(ring)
    for layer, pos, skip, every, limit in case["taps"]:
        system.data.add_tap(layer, pos, skip=skip, every=every,
                            limit=limit)
    push_fifo = ring.push_fifo if lane is not None else ring.batch.push_fifo
    pushes = [(lambda v, key=key, **kw: push_fifo(*key, v, **kw), rows)
              for key, rows in case["fifos"].items()]
    pushes += [(lambda v, ch=ch, **kw: system.data.stream(ch, v, **kw), rows)
               for ch, rows in case["streams"].items()]
    for push, rows in pushes:
        if lane is not None:
            push(rows[lane])
        elif case["blocks"]:
            ragged = len({len(row) for row in rows}) > 1
            push(rows if ragged else np.array(rows, np.int64))
        else:
            for k, row in enumerate(rows):
                push(np.asarray(row, np.int64) if k % 2 else row, lane=k)
    return system


def _lane_host_state(system: RingSystem, lane: int) -> dict:
    """One lane's host side in a scalar :meth:`DataController
    .capture_state`'s format (a set dry latch included)."""
    channels = {}
    for index, ch in system.data._channels.items():
        channels[index] = {"queue": ch.lane_words(lane),
                           "delivered": ch.delivered[lane],
                           "underruns": ch.underruns[lane]}
        if ch._dry_seen[lane]:
            channels[index]["dry"] = True
    return {
        "channels": channels,
        "taps": [{"samples": tap.lane(lane), "seen": tap._seen}
                 for tap in system.data.taps],
    }


def _peek_rollback_case() -> dict:
    """A :func:`lane_queue_systems` case whose last chunk peeks channel
    0 while one lane is dry, hands off to a fresh system and rolls back
    over a checkpoint: the restore must keep the dry lane's latch, or
    the rerun counts that cycle's underrun twice (the case hypothesis
    seed 11 found)."""
    reader = MicroWord(Opcode.ADD, Source.FIFO1, Source.IN1, Dest.OUT,
                       flags=Flag.POP_FIFO1)
    idle = {1: PortSource.zero(), 2: PortSource.zero()}
    cells = [(0, 0, reader, None, {1: PortSource.host(0),
                                   2: PortSource.zero()}, {}),
             (0, 1, MicroWord(), None, idle, {}),
             (1, 0, MicroWord(), None, idle, {}),
             (1, 1, MicroWord(), None, idle, {})]
    return dict(
        spec={"layers": 2, "width": 2, "cells": cells}, reader=(0, 0),
        batch=2, fifos={(l, p, ch): [[], []] for l in range(2)
                        for p in range(2) for ch in (1, 2)},
        streams={0: [[], []]}, taps=[(0, 0, 0, 1, None)],
        chunks=[0, 48, 48], refill=(0, [0], [0]), blocks=False,
        nonlinear=False, drop_next=None, peek=2, rollback=2, handoff=2,
        top_up=(0, [[0, 0, 0], [0, 0, 0]], []))


class TestLaneQueues:
    """Lane FIFOs and lane streams == one interpreter system per lane.

    Batch lane FIFOs and lane streams are :class:`~repro.core.wordqueue
    .LaneQueue` buffers: one head shared by every lane and a word count
    per lane.  Each generated case loads its lanes with words of
    unequal length, so they run dry at different cycles inside lane
    windows; tops every lane up while their counts differ; pushes to
    one lane after every lane ran dry; drops a word off every lane
    (``drop_next``); reads a port ahead of a run; rolls back over a
    checkpoint and hands the run to a fresh system.  Every lane must
    match its own per-cycle interpreter system, and a strict FIFO must
    raise on the cycle, and with the message, of the one lane that runs
    dry first.
    """

    @staticmethod
    def _lanes_ring(case, **ring_kwargs) -> Ring:
        spec = case["spec"]
        ring = Ring(RingGeometry(layers=spec["layers"], width=spec["width"]),
                    backend="batch", batch_size=case["batch"],
                    **ring_kwargs)
        ring.batch  # engage the lane engine before lane loads
        return ring

    @staticmethod
    def _refs(case, **ring_kwargs) -> list:
        spec = case["spec"]
        geometry = RingGeometry(layers=spec["layers"], width=spec["width"])
        return [_lane_queue_system(case, Ring(geometry, backend="interpreter",
                                              **ring_kwargs), lane=k)
                for k in range(case["batch"])]

    @given(case=lane_queue_systems())
    @example(case=_peek_rollback_case())
    @settings(max_examples=60, **_SETTINGS)
    def test_every_lane_matches_its_interpreter_run(self, case):
        system = _lane_queue_system(case, self._lanes_ring(case))
        refs = self._refs(case)
        chunks = case["chunks"]
        reader = case["reader"] + (1,)
        for k, chunk in enumerate(chunks):
            if k == case["handoff"]:
                saved = system.checkpoint()
                system = RingSystem(Ring(system.ring.geometry,
                                         backend="batch",
                                         batch_size=case["batch"]))
                for layer, pos, skip, every, limit in case["taps"]:
                    system.data.add_tap(layer, pos, skip=skip, every=every,
                                        limit=limit)
                system.restore_checkpoint(saved)
            if k == case["drop_next"]:
                assert system.data.channel(0).drop_next() == sum(
                    ref.data.channel(0).drop_next() for ref in refs)
            if k == case["peek"]:
                assert system.data.host_in(0).tolist() == [
                    ref.data.host_in(0) for ref in refs]
            if k == case["top_up"][0]:
                _, rows, block = case["top_up"]
                engine = system.ring.batch
                system.data.stream(0, np.array(rows, np.int64))
                engine.push_fifo(*reader, rows)
                for lane, ref in enumerate(refs):
                    ref.data.stream(0, rows[lane])
                    ref.ring.push_fifo(*reader, rows[lane])
                for key in case["fifos"]:
                    if key != reader:
                        engine.push_fifo(*key, block)
                        for ref in refs:
                            ref.ring.push_fifo(*key, block)
                for channel in case["streams"]:
                    if channel:
                        system.data.stream(channel, block)
                        for ref in refs:
                            ref.data.stream(channel, block)
            if k == len(chunks) - 1:
                # Every lane ran its reader FIFO and channel 0 dry in the
                # 48-cycle chunk before: one lane alone gets new words.
                engine = system.ring.batch
                assert system.data.channel(0).pending() == 0
                assert all(engine.fifo_contents(*reader, lane) == []
                           for lane in range(case["batch"]))
                lane, stream, load = case["refill"]
                system.data.stream(0, stream, lane=lane)
                engine.push_fifo(*reader, load, lane=lane)
                refs[lane].data.stream(0, stream)
                refs[lane].ring.push_fifo(*reader, load)
            if k == case["rollback"]:
                saved = system.checkpoint()
                system.run(chunk)
                system.restore_checkpoint(saved)
            system.run(chunk)
            for ref in refs:
                ref.run(chunk)
        assert system.ring.cycles == sum(chunks)
        assert system.cycle_paths.get(("bulk", "lanes"), 0) > 0
        for lane, ref in enumerate(refs):
            assert _lane_host_state(system, lane) == \
                ref.data.capture_state()
        _assert_lanes_match(system, refs, case["spec"])

    @given(case=lane_queue_systems(strict=True))
    @settings(max_examples=40, **_SETTINGS)
    def test_strict_fifo_raises_on_one_lane(self, case):
        """The lane with the fewest reader words raises its interpreter
        run's error on its cycle; the other lanes' host sides match
        their interpreter runs with that cycle's reads replayed."""
        system = _lane_queue_system(
            case, self._lanes_ring(case, strict_fifos=True))
        refs = self._refs(case, strict_fifos=True)
        with pytest.raises(SimulationError) as got:
            for chunk in case["chunks"]:
                system.run(chunk)
        loads = case["fifos"][case["reader"] + (1,)]
        first = min(range(case["batch"]), key=lambda k: len(loads[k]))
        cycles = system.ring.cycles
        assert cycles == len(loads[first])
        reads = []
        for lane, ref in enumerate(refs):
            ref.run(cycles)
            if lane == first:
                host_in = ref.data.host_in
                ref.data.host_in = lambda ch: reads.append(ch) or \
                    host_in(ch)
                with pytest.raises(SimulationError) as want:
                    ref.run(1)
                assert str(got.value) == str(want.value)
                assert "empty FIFO1" in str(want.value)
        for lane, ref in enumerate(refs):
            if lane != first:
                for channel in reads:
                    ref.data.host_in(channel)
            assert _lane_host_state(system, lane) == \
                ref.data.capture_state()


# -- Dnode groups: one local loop replicated over many Dnodes ------------

#: Operands a group member may read besides registers: its own FIFOs, an
#: immediate, zero and the bus.
_OWN_SOURCES = [Source.FIFO1, Source.FIFO2, Source.IMM, Source.ZERO,
                Source.BUS]
_GROUP_OPS = [Opcode.ADD, Opcode.SUB, Opcode.ABSDIFF, Opcode.MIN,
              Opcode.MAX, Opcode.XOR, Opcode.MUL, Opcode.MADD, Opcode.AVG2,
              Opcode.MOV, Opcode.ADDSAT, Opcode.CMPLT, Opcode.NOP]


@st.composite
def group_loops(draw):
    """A local loop native takes that reads only its Dnode's own state.

    1-4 slots; a slot writing ``Rj`` reads only registers below it, so
    no cross-phase register dependence is cyclic, and ``R0`` belongs to
    at most one additive accumulator (``ADD``/``SUB``/``MAC`` into
    ``R0``, or ``ADD``/``SUB`` into OUT through ``SELF``), the
    closed-form chain the me_search SAD loop runs.  Immediates are left
    at 0: each member draws its own.
    """
    slots = draw(st.integers(1, 4))
    acc_slot = draw(st.integers(-1, slots - 1))
    pops = st.sampled_from([Flag.NONE, Flag.POP_FIFO1, Flag.POP_FIFO2,
                            Flag.POP_FIFO1 | Flag.POP_FIFO2])
    loop = []
    for slot in range(slots):
        flags = draw(pops)
        if slot == acc_slot:
            x = draw(st.sampled_from(_OWN_SOURCES + [Source.R1, Source.R2]))
            y = draw(st.sampled_from(_OWN_SOURCES + [Source.R3]))
            form = draw(st.sampled_from(["add", "add_swapped", "sub",
                                         "mac", "add_out", "sub_out"]))
            if form == "mac":
                loop.append(MicroWord(Opcode.MAC, x, y, Dest.R0,
                                      flags=flags | draw(st.sampled_from(
                                          [Flag.NONE, Flag.WRITE_OUT]))))
                continue
            own, dst = ((Source.SELF, Dest.OUT) if form.endswith("_out")
                        else (Source.R0, Dest.R0))
            op = Opcode.SUB if form.startswith("sub") else Opcode.ADD
            a, b = (x, own) if form == "add_swapped" else (own, x)
            loop.append(MicroWord(op, a, b, dst, flags=flags))
            continue
        dst = draw(st.sampled_from([Dest.R1, Dest.R2, Dest.R3, Dest.OUT,
                                    Dest.NONE]))
        below = ([Source(r) for r in range(1, int(dst))]
                 if dst.is_register else [Source.R1, Source.R2, Source.R3])
        sources = st.sampled_from(_OWN_SOURCES + below)
        if draw(st.booleans()):
            flags |= Flag.WRITE_OUT
        loop.append(MicroWord(draw(st.sampled_from(_GROUP_OPS)),
                              draw(sources), draw(sources), dst,
                              flags=flags))
    return loop


def _member_loop(loop, imms):
    return [MicroWord(mw.op, mw.src_a, mw.src_b, mw.dst, flags=mw.flags,
                      imm=imm) for mw, imm in zip(loop, imms)]


@st.composite
def group_systems(draw, controlled: bool = False):
    """One :func:`group_loops` loop replicated over 2-16 Dnodes of a
    ring, each member with its own immediates, FIFO contents (so they
    run dry at different cycles), registers and OUT latch; the other
    Dnodes idle or read their upstream neighbour, members included.
    Taps on members and others, run() chunks with a rollback, and
    strict FIFOs in a quarter of the cases.  *controlled* adds me_search's plane flips: the
    members start global, and a controller loops over a compute plane
    (local mode), a flush plane (``MOV OUT, R0``) and a reset plane
    (``MOV R0, ZERO``)."""
    layers = draw(st.integers(2, 8))
    width = draw(st.integers(1, 2))
    dnodes = layers * width
    members = sorted(draw(st.sets(st.integers(0, dnodes - 1),
                                  min_size=2, max_size=dnodes)))
    loop = draw(group_loops())
    words = st.integers(0, 0xFFFF)
    imms = [draw(words) for _ in loop]
    shared = draw(st.booleans())
    cells, seeds = [], {}
    for i in range(dnodes):
        layer, pos = divmod(i, width)
        loads, routes = {}, {}
        if i in members:
            if not shared:
                imms = [draw(words) for _ in loop]
            local = _member_loop(loop, imms)
            mw = MicroWord()
            for channel in (1, 2):
                loads[channel] = draw(st.lists(words, max_size=24))
            seeds[(layer, pos)] = (draw(st.lists(words, min_size=4,
                                                 max_size=4)), draw(words))
        else:
            local = None
            mw = MicroWord()
            if draw(st.booleans()):
                mw = MicroWord(Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT,
                               imm=draw(words))
                # Layer 0 reads the bus, so no dataflow closes the ring.
                routes[1] = (PortSource.up(draw(st.integers(0, width - 1)))
                             if layer else PortSource.bus())
        cells.append((layer, pos, mw, local, routes, loads))
    spec = {"layers": layers, "width": width, "cells": cells}
    taps = draw(st.lists(st.tuples(
        st.integers(0, layers - 1), st.integers(0, width - 1),
        st.integers(0, 4), st.integers(1, 3),
        st.one_of(st.none(), st.integers(0, 60))), min_size=1, max_size=4))
    taps.append(divmod(members[-1], width) + (0, 1, None))
    chunks = draw(st.lists(st.integers(0, 70), min_size=1, max_size=4))
    rollback = draw(st.integers(0, len(chunks) - 1))
    strict = draw(st.integers(0, 3)) == 3
    program = None
    if controlled:
        program = (draw(st.integers(1, 3)), draw(st.integers(0, 40)))
    return dict(spec=spec, members=members, loop=loop, seeds=seeds,
                taps=taps, chunks=chunks, rollback=rollback, strict=strict,
                program=program)


def _group_planes(case) -> list:
    """me_search's compute, flush and reset planes over the members."""
    width = case["spec"]["width"]
    addrs = [divmod(i, width) for i in case["members"]]
    compute = ConfigPlane(modes={a: DnodeMode.LOCAL for a in addrs})
    flush = ConfigPlane(
        microwords={a: MicroWord(Opcode.MOV, Source.R0, dst=Dest.OUT)
                    for a in addrs},
        modes={a: DnodeMode.GLOBAL for a in addrs})
    reset = ConfigPlane(
        microwords={a: MicroWord(Opcode.MOV, Source.ZERO, dst=Dest.R0)
                    for a in addrs},
        modes={a: DnodeMode.GLOBAL for a in addrs})
    return [compute, flush, reset]


def _group_system(case, **ring_kwargs) -> RingSystem:
    geometry = RingGeometry(layers=case["spec"]["layers"],
                            width=case["spec"]["width"])
    ring = apply_spec(Ring(geometry, strict_fifos=case["strict"],
                           **ring_kwargs), case["spec"])
    for (layer, pos), (regs, out) in case["seeds"].items():
        dn = ring.dnode(layer, pos)
        for r, value in enumerate(regs):
            dn.regs.stage_write(r, value)
            dn.regs.commit()
        dn.out = out
    controller = planes = None
    if case["program"] is not None:
        batches, wait = case["program"]
        for layer, pos in case["seeds"]:
            ring.config.write_mode(layer, pos, DnodeMode.GLOBAL)
        controller = RiscController([
            Instruction(ROp.LDI, rd=1, imm=batches),
            Instruction(ROp.LDI, rd=2, imm=0),
            Instruction(ROp.CFGPLANE, plane=0),
            Instruction(ROp.WAITI, imm=wait),
            Instruction(ROp.CFGPLANE, plane=1),
            Instruction(ROp.CFGPLANE, plane=2),
            Instruction(ROp.ADDI, rd=1, rs=1, imm=-1),
            Instruction(ROp.BNE, rs=1, rt=2, imm=-6),
            Instruction(ROp.HALT)])
        planes = _group_planes(case)
    if ring_kwargs.get("backend") == "batch":
        ring.batch  # engage the lanes after the scalar loads and seeds
    system = RingSystem(ring, controller, planes=planes)
    for layer, pos, skip, every, limit in case["taps"]:
        system.data.add_tap(layer, pos, skip=skip, every=every, limit=limit)
    return system


def _assert_group_match(got, got_error, want, want_error) -> None:
    """Everything observable matches; after a strict-FIFO error the
    aborted cycle's partial fabric state is each engine's own, so only
    the error, the cycle counts and the host side must agree."""
    assert got_error == want_error
    if got_error is None:
        assert _observables(got, got_error) == \
            _observables(want, want_error)
        return
    assert "empty FIFO" in got_error
    assert (got.ring.cycles, got.cycles) == (want.ring.cycles, want.cycles)
    assert got.data.capture_state() == want.data.capture_state()


def _group_run(case, per_cycle: bool, **ring_kwargs):
    """Run a group case, a chunk rolled back over a checkpoint, then
    (with a controller) until HALT; returns the system and any error."""
    system = _group_system(case, **ring_kwargs)

    def advance(cycles):
        if per_cycle:
            for _ in range(cycles):
                system.step()
        else:
            system.run(cycles)

    try:
        for k, chunk in enumerate(case["chunks"]):
            if k == case["rollback"]:
                saved = system.checkpoint()
                advance(chunk)
                system.restore_checkpoint(saved)
            advance(chunk)
        if system.controller is not None:
            if per_cycle:
                _step_until_halt(system, 100_000, 3)
            else:
                system.run_until_halt(drain=3)
    except SimulationError as exc:
        return system, str(exc)
    return system, None


class TestDnodeGroups:
    """Dnodes running one schedule share one group of the native kernel
    (:attr:`~repro.core.nativepath.NativeTemplate.groups`): one NumPy op
    per group over a member axis, per-member immediates as constant
    vectors, and each channel's FIFO gates settled over the members'
    occupancies at once.  Every case must match a per-cycle interpreter
    system in all a caller observes: taps, stream state, controller,
    metrics and the fabric digest."""

    @staticmethod
    def _assert_grouped(case) -> None:
        geometry = RingGeometry(layers=case["spec"]["layers"],
                                width=case["spec"]["width"])
        ring = apply_spec(Ring(geometry, backend="interpreter"),
                          case["spec"])
        groups = native_template(ring).groups
        computes = any(
            mw.op is not Opcode.NOP and (mw.dst is not Dest.NONE
                                         or mw.flags & Flag.WRITE_OUT)
            for mw in case["loop"])
        assert (tuple(case["members"]) in groups) == computes
        assert sorted(i for group in groups for i in group) == \
            list(range(geometry.dnodes))

    @given(case=group_systems())
    @settings(max_examples=120, **_SETTINGS)
    def test_replicated_loops_match_interpreter(self, case):
        self._assert_grouped(case)
        native, native_error = _group_run(case, False, backend="native")
        interp, interp_error = _group_run(case, True,
                                          backend="interpreter")
        _assert_group_match(native, native_error, interp, interp_error)
        if not case["strict"] and max(case["chunks"]) >= 16:
            assert native.ring.native_cycles > 0

    @given(case=group_systems(controlled=True))
    @settings(max_examples=60, **_SETTINGS)
    def test_plane_flips_match_per_cycle_stepping(self, case):
        native, native_error = _group_run(case, False, backend="native")
        interp, interp_error = _group_run(case, True,
                                          backend="interpreter")
        _assert_group_match(native, native_error, interp, interp_error)

    @given(case=group_systems(), batch=st.sampled_from((2, 1, 3)))
    @settings(max_examples=60, **_SETTINGS)
    def test_batch_lanes_bind_the_grouped_kernel(self, case, batch):
        case = dict(case, strict=False)
        system, error = _group_run(case, False, backend="batch",
                                   batch_size=batch)
        ref, ref_error = _group_run(case, True, backend="interpreter")
        assert error is None and ref_error is None
        assert system.cycles == ref.cycles
        _assert_lanes_match(system, [ref] * batch, case["spec"])
        if max(case["chunks"]) >= 16:
            assert system.ring.native_cycles > 0

    def test_me_search_runs_one_group(self):
        from repro.kernels.motion_estimation import build_me_system
        rng = np.random.default_rng(11)
        system, _ = build_me_system(rng.integers(0, 256, (8, 8)),
                                    rng.integers(0, 256, (24, 24)))
        system.run(200)
        native = system.ring._steady_plan("native")
        assert native.template.groups == (tuple(range(16)),)
        assert system.cycle_paths[("bulk", "native")] > 0
