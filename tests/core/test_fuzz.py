"""Robustness fuzzing: random configurations must never corrupt state.

The simulator's contract is that *any* configuration reachable through
the public API (valid microwords, valid routes) executes without
crashing and keeps every architectural value canonical 16-bit.  These
property tests drive randomly-configured fabrics and assert the
invariants — the kind of failure injection that catches evaluation-order
and masking bugs.
"""

from hypothesis import given, settings, strategies as st

from repro import word
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource

from tests.core.test_isa import microwords


def port_sources(width: int = 2):
    """Strategy over every legal route for a switch of *width* lanes."""
    return st.one_of(
        st.just(PortSource.zero()),
        st.just(PortSource.bus()),
        st.integers(min_value=0, max_value=width - 1).map(PortSource.up),
        st.integers(min_value=0, max_value=3).map(PortSource.host),
        st.tuples(st.integers(min_value=1, max_value=4),
                  st.integers(min_value=1, max_value=width)).map(
            lambda t: PortSource.rp(*t)),
    )


def _legal_source(src: Source, width: int) -> Source:
    """Clamp a feedback-tap source to the lanes this fabric has."""
    if src.is_feedback and src.feedback_lane > width:
        return Source.rp(src.feedback_stage, 1)
    return src


def _legal_word(mw: MicroWord, width: int) -> MicroWord:
    return MicroWord(op=mw.op, src_a=_legal_source(mw.src_a, width),
                     src_b=_legal_source(mw.src_b, width), dst=mw.dst,
                     flags=mw.flags, imm=mw.imm)


@st.composite
def accumulator_words(draw):
    """An additive accumulator ``x = x ± v``: ``ADD x, x, v``,
    ``ADD x, v, x`` or ``SUB x, x, v``, with ``x`` a register or OUT
    (read through ``SELF``).  A *v* that is ``x`` itself (``ADD R0, R0,
    R0``) makes it a doubling, which must stay off the closed form."""
    target = draw(st.integers(0, 4))
    if target == 4:
        own, dst = Source.SELF, Dest.OUT
    else:
        own, dst = Source(target), Dest(target)
    v = draw(st.sampled_from([
        Source.IMM, Source.IN1, Source.IN2, Source.FIFO1, Source.BUS,
        Source.R0, Source.R1, Source.SELF, Source.ZERO, Source.rp(2, 1)]))
    form = draw(st.sampled_from(["add", "add_swapped", "sub"]))
    op = Opcode.SUB if form == "sub" else Opcode.ADD
    a, b = (v, own) if form == "add_swapped" else (own, v)
    flags = draw(st.sampled_from(
        [Flag.NONE, Flag.WRITE_OUT, Flag.POP_FIFO1]))
    return MicroWord(op=op, src_a=a, src_b=b, dst=dst, flags=flags,
                     imm=draw(st.integers(0, 0xFFFF)))


@st.composite
def ring_specs(draw, min_layers: int = 4, max_layers: int = 4,
               min_width: int = 2, max_width: int = 2,
               max_local: int = 8, fifo_loads: bool = True,
               accumulators: bool = False):
    """A replayable random fabric configuration.

    The spec is plain data so the *same* drawn configuration can be
    applied to several rings — one per execution backend — which is what
    the differential suite (``test_differential.py``) needs.  Returns::

        {"layers": L, "width": W, "cells": [(layer, pos, microword,
          local_program_or_None, {port: route}, {channel: fifo_words})]}

    With *accumulators*, microwords and local slots are also drawn from
    :func:`accumulator_words`.
    """
    words = microwords()
    if accumulators:
        words = st.one_of(microwords(), accumulator_words())
    layers = draw(st.integers(min_layers, max_layers))
    width = draw(st.integers(min_width, max_width))
    cells = []
    for layer in range(layers):
        for pos in range(width):
            mw = _legal_word(draw(words), width)
            local = None
            if draw(st.booleans()):
                local = [_legal_word(w, width) for w in draw(
                    st.lists(words, min_size=1, max_size=max_local))]
            routes = {port: draw(port_sources(width)) for port in (1, 2)}
            loads = {}
            if fifo_loads and draw(st.booleans()):
                for channel in (1, 2):
                    loads[channel] = draw(st.lists(
                        st.integers(0, 0xFFFF), max_size=8))
            cells.append((layer, pos, mw, local, routes, loads))
    return {"layers": layers, "width": width, "cells": cells}


def apply_spec(ring: Ring, spec: dict) -> Ring:
    """Configure *ring* (and load its FIFOs) as the spec describes."""
    for layer, pos, mw, local, routes, loads in spec["cells"]:
        ring.config.write_microword(layer, pos, mw)
        if local is not None:
            ring.config.write_local_program(layer, pos, local)
            ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
        for port, route in routes.items():
            ring.config.write_switch_route(layer, pos, port, route)
        for channel, values in loads.items():
            ring.push_fifo(layer, pos, channel, values)
    return ring


def build_ring(spec: dict, **ring_kwargs) -> Ring:
    """A fresh ring of the spec's shape, configured and loaded."""
    geometry = RingGeometry(layers=spec["layers"], width=spec["width"])
    return apply_spec(Ring(geometry, **ring_kwargs), spec)


def fuzzed_rings():
    """The historical Ring-8 robustness strategy (spec-backed)."""
    return ring_specs().map(build_ring)


class TestFuzzedFabrics:
    @given(fuzzed_rings(), st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=40, deadline=None)
    def test_runs_without_faults_and_stays_canonical(self, ring, cycles,
                                                     bus):
        ring.run(cycles, bus=bus, host_in=lambda ch: (ch * 37) & 0xFFFF)
        for dn in ring.all_dnodes():
            assert word.is_valid(dn.out)
            for value in dn.regs.snapshot():
                assert word.is_valid(value)
        for k in range(4):
            sw = ring.switch(k)
            for stage in range(1, 5):
                for lane in (1, 2):
                    assert word.is_valid(sw.rp_read(stage, lane))

    @given(fuzzed_rings())
    @settings(max_examples=15, deadline=None)
    def test_reset_restores_datapath(self, ring):
        ring.run(8, host_in=lambda ch: 1)
        ring.reset()
        assert ring.cycles == 0
        for dn in ring.all_dnodes():
            assert dn.out == 0
            assert dn.regs.snapshot() == [0, 0, 0, 0]

    @given(fuzzed_rings(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, ring, cycles):
        """Two identical runs from reset produce identical state."""
        def run_and_snapshot():
            ring.reset()
            # FIFOs are cleared by reset; determinism over stream inputs
            ring.run(cycles, host_in=lambda ch: (ch + 5) & 0xFFFF)
            return [dn.out for dn in ring.all_dnodes()] + [
                v for dn in ring.all_dnodes() for v in dn.regs.snapshot()
            ]

        assert run_and_snapshot() == run_and_snapshot()
