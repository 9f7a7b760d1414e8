"""Directed tests of the native macro-kernel tier.

Covers what the fuzz and conformance suites pin only indirectly: the
eligibility rules and the fallback ladder (native -> macro-step ->
interpreter), phase-keyed plan caching and snapshot re-adoption, the
safe-cycle FIFO gating formulas, and the single-registry backend
contract shared by ``Ring.set_backend``, the CLI and the documentation.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import numpy as np
import pytest

from repro import word
from repro.core import nativepath
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, restore, state_digest
from repro.core.switch import PortSource
from repro.errors import ConfigurationError, SimulationError

REPO = Path(__file__).resolve().parent.parent.parent


def _feedforward_chain(ring: Ring) -> None:
    """An eligible global-mode MADD chain (no ring-wrap cycle)."""
    layers = ring.geometry.layers
    width = ring.geometry.width
    for p in range(width):
        ring.config.write_microword(0, p, MicroWord(
            Opcode.MUL, Source.BUS, Source.IMM, Dest.OUT,
            imm=3 + p))
    for k in range(1, layers):
        for p in range(width):
            ring.config.write_switch_route(k, p, 1, PortSource.up(p))
            ring.config.write_microword(k, p, MicroWord(
                Opcode.MADD, Source.IN1, Source.IN2, Dest.OUT, imm=2))
            ring.config.write_switch_route(
                k, p, 2, PortSource.rp(2, p + 1))


def _mac_program(ring: Ring, layer=0, pos=0) -> None:
    """Local-mode MAC dot-product loop, FIFO-fed (eligible, gated)."""
    ring.config.write_local_program(layer, pos, [MicroWord(
        Opcode.MAC, Source.FIFO1, Source.FIFO2, Dest.R0,
        flags=Flag.POP_FIFO1 | Flag.POP_FIFO2 | Flag.WRITE_OUT)])
    ring.config.write_mode(layer, pos, DnodeMode.LOCAL)


def _twin(build, cycles, **run_kwargs):
    """Run *build* on native and interpreter rings; return both."""
    rn = build(backend="native")
    ri = build(backend="interpreter")
    rn.run(cycles, **run_kwargs)
    for _ in range(cycles):
        ri.step(**run_kwargs)
    return rn, ri


class TestEligibility:
    def test_feedforward_chain_compiles(self):
        ring = Ring(RingGeometry.ring(16), backend="native")
        _feedforward_chain(ring)
        plan = nativepath.compile_native(ring)
        assert plan is not None
        assert plan.period == 1

    def test_self_recurrence_is_ineligible(self):
        """MADD IN1,SELF -> OUT (first-order IIR) falls back."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT, imm=3))
        assert nativepath.compile_native(ring) is None
        assert ring.native_refusal == (
            "D1.0 phase 0: MADD self-recurrence has no closed form")

    def test_saturating_accumulator_is_ineligible(self):
        """MACS has no closed form (saturation breaks the cumsum)."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        ring.config.write_local_program(0, 0, [MicroWord(
            Opcode.MACS, Source.FIFO1, Source.FIFO2, Dest.R0,
            flags=Flag.POP_FIFO1 | Flag.POP_FIFO2)])
        ring.config.write_mode(0, 0, DnodeMode.LOCAL)
        assert nativepath.compile_native(ring) is None
        assert ring.native_refusal == (
            "D0.0 phase 0: saturating MACS accumulator")

    def test_wrapping_accumulator_is_eligible(self):
        """Plain MAC accumulation has the cumsum closed form."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        _mac_program(ring)
        assert nativepath.compile_native(ring) is not None
        assert ring.native_refusal is None

    def test_cross_dnode_ring_cycle_is_ineligible(self):
        """A full wrap-around dataflow cycle cannot be vectorized."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        for k in range(2):
            ring.config.write_switch_route(k, 0, 1, PortSource.up(0))
            ring.config.write_microword(k, 0, MicroWord(
                Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
        assert nativepath.compile_native(ring) is None
        assert ring.native_refusal == (
            "cross-Dnode dependence cycle through D0.0, D1.0")

    def test_cycle_reason_names_only_the_cycle(self):
        """Dnodes merely downstream of a ring-wrap cycle are not named:
        D0.1 and D1.1 read the D0.0 <-> D1.0 loop but feed nothing back."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        for k in range(2):
            for p in range(2):
                ring.config.write_switch_route(k, p, 1, PortSource.up(
                    0 if (k, p) != (1, 1) else 1))
                ring.config.write_microword(k, p, MicroWord(
                    Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
        assert ring.native_refusal == (
            "cross-Dnode dependence cycle through D0.0, D1.0")

    def test_cross_phase_register_cycle_is_ineligible(self):
        """R0 <-> R1 swap across phases (biquad shape) falls back."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        ring.config.write_local_program(0, 0, [
            MicroWord(Opcode.MOV, Source.R1, dst=Dest.R0),
            MicroWord(Opcode.MOV, Source.R0, dst=Dest.R1),
        ])
        ring.config.write_mode(0, 0, DnodeMode.LOCAL)
        assert nativepath.compile_native(ring) is None

    def test_long_period_is_ineligible(self):
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        _mac_program(ring)
        plan = nativepath.compile_native(ring)
        assert plan is not None
        # The limit itself is part of the contract.
        assert nativepath.MAX_WINDOW_CELLS == 1 << 20

    def test_out_of_range_feedback_tap_is_ineligible(self):
        """An Rp stage deeper than the pipeline must fall back (the
        interpreter raises at runtime; the fallback reproduces it)."""
        ring = Ring(RingGeometry(layers=2, width=2, pipeline_depth=2),
                    backend="native")
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.MOV, Source.rp(3, 1), dst=Dest.OUT))
        assert nativepath.compile_native(ring) is None
        assert ring.native_refusal == (
            "D1.0 phase 0: out-of-range feedback source")

    def test_out_of_range_routed_tap_is_ineligible(self):
        ring = Ring(RingGeometry(layers=2, width=2, pipeline_depth=2),
                    backend="native")
        ring.config.write_switch_route(1, 1, 2, PortSource.rp(4, 1))
        assert ring.native_refusal == (
            "switch 1 position 1 port 2: out-of-range feedback tap")

    def test_period_cap_is_ineligible(self):
        """Coprime LIMITs push the period past the unroll cap."""
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        for (layer, pos), limit in zip([(0, 0), (0, 1), (1, 0)],
                                       (5, 7, 8)):
            ring.config.write_local_program(layer, pos, [MicroWord(
                Opcode.ADD, Source.IMM, Source.ZERO, Dest.R0, imm=1)]
                * limit)
            ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
        assert ring.native_refusal.startswith("period 280 over the unroll cap")


def _words(seed: int, count: int) -> list:
    """*count* seeded pseudo-random raw words."""
    rng = random.Random(seed)
    return [rng.getrandbits(16) for _ in range(count)]


class TestClosedForms:
    """Additive accumulators run native, bit-identical to the
    interpreter, over runs long enough to wrap INT16 several times."""

    CYCLES = 1200

    def _check(self, build, wraps_of):
        ring = build(backend="native")
        assert ring.native_refusal is None
        rn, ri = _twin(build, self.CYCLES, bus=0x7123)
        assert rn.native_cycles >= self.CYCLES - 8
        assert state_digest(rn) == state_digest(ri)
        # The unbounded sum the accumulator wrapped: several times 2**16.
        assert wraps_of(rn) >= 4 * 0x10000

    def test_me_sad_loop(self):
        """``absdiff r1, fifo1, fifo2 [pop] / add r0, r0, r1`` — the
        Table 1 SAD loop."""
        ref, cand = _words(1, self.CYCLES), _words(2, self.CYCLES)

        def build(**kw):
            ring = Ring(RingGeometry(layers=2, width=2), **kw)
            ring.config.write_local_program(0, 0, [
                MicroWord(Opcode.ABSDIFF, Source.FIFO1, Source.FIFO2,
                          Dest.R1, flags=Flag.POP_FIFO1 | Flag.POP_FIFO2),
                MicroWord(Opcode.ADD, Source.R0, Source.R1, Dest.R0),
            ])
            ring.config.write_mode(0, 0, DnodeMode.LOCAL)
            ring.push_fifo(0, 0, 1, ref)
            ring.push_fifo(0, 0, 2, cand)
            return ring

        def total(ring):
            pairs = ring.dnode(0, 0).stats.fifo_pops // 2
            return sum(abs(word.to_signed(a) - word.to_signed(b))
                       for a, b in zip(ref[:pairs], cand[:pairs]))
        self._check(build, total)
        ring = build(backend="native")
        ring.run(self.CYCLES)
        assert ring.dnode(0, 0).regs._values[0] == total(ring) & 0xFFFF

    def test_add_out_self_imm(self):
        """``ADD OUT, SELF, IMM``: an arithmetic progression on OUT."""
        def build(**kw):
            ring = Ring(RingGeometry(layers=2, width=2), **kw)
            ring.config.write_microword(0, 1, MicroWord(
                Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=30001))
            return ring
        self._check(build, lambda ring: 30001 * ring.cycles)

    def test_sub_r0_r0_fifo1(self):
        """``SUB R0, R0, FIFO1 [pop]``, mirrored to OUT and read
        downstream."""
        words = _words(3, self.CYCLES + 8)

        def build(**kw):
            ring = Ring(RingGeometry(layers=2, width=2), **kw)
            ring.config.write_microword(0, 0, MicroWord(
                Opcode.SUB, Source.R0, Source.FIFO1, Dest.R0,
                flags=Flag.POP_FIFO1 | Flag.WRITE_OUT))
            ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
            ring.config.write_microword(1, 0, MicroWord(
                Opcode.MOV, Source.IN1, dst=Dest.OUT))
            ring.push_fifo(0, 0, 1, words)
            return ring
        self._check(build, lambda ring: sum(words[:ring.cycles]))

    def test_chains_under_a_longer_period(self):
        """A LIMIT-1 or global accumulator in a ring whose period is 6
        repeats 6 or 3 times per period: one cumsum over the
        interleaved terms (MAC, ADD with the self operand second, and a
        global SELF accumulator over a host stream)."""
        def build(**kw):
            ring = Ring(RingGeometry(layers=3, width=2), **kw)
            ring.config.write_local_program(0, 0, [
                MicroWord(Opcode.MOV, Source.BUS, dst=Dest.R1),
                MicroWord(Opcode.ADD, Source.R1, Source.R0, Dest.R0,
                          flags=Flag.WRITE_OUT)])
            ring.config.write_mode(0, 0, DnodeMode.LOCAL)
            ring.config.write_local_program(0, 1, [MicroWord(
                Opcode.MAC, Source.BUS, Source.IMM, Dest.R3, imm=0x8123)])
            ring.config.write_mode(0, 1, DnodeMode.LOCAL)
            ring.config.write_local_program(1, 0, [
                MicroWord(Opcode.NOP)] * 3)
            ring.config.write_mode(1, 0, DnodeMode.LOCAL)
            ring.config.write_switch_route(1, 1, 1, PortSource.host(0))
            ring.config.write_microword(1, 1, MicroWord(
                Opcode.ADD, Source.IN1, Source.SELF, Dest.OUT))
            return ring

        def host_of(ring):
            return lambda ch: (40503 * ring.cycles) & 0xFFFF
        rn, ri = build(backend="native"), build(backend="interpreter")
        assert rn.native_refusal is None
        rn.run(self.CYCLES, bus=0x7123, host_in=host_of(rn))
        for _ in range(self.CYCLES):
            ri.step(bus=0x7123, host_in=host_of(ri))
        assert rn.native_cycles >= self.CYCLES - 8
        assert state_digest(rn) == state_digest(ri)

    @pytest.mark.parametrize("mw, reason", [
        (MicroWord(Opcode.SUB, Source.IMM, Source.SELF, Dest.OUT, imm=3),
         "D0.0 phase 0: SUB self-recurrence has no closed form"),
        (MicroWord(Opcode.ADD, Source.R0, Source.R0, Dest.R0),
         "D0.0 phase 0: ADD self-recurrence has no closed form"),
        (MicroWord(Opcode.ADD, Source.R0, Source.SELF, Dest.R0,
                   flags=Flag.WRITE_OUT),
         "D0.0 phase 0: ADD self-recurrence has no closed form"),
        (MicroWord(Opcode.ADDSAT, Source.SELF, Source.IMM, Dest.OUT, imm=9),
         "D0.0 phase 0: ADDSAT self-recurrence has no closed form"),
        (MicroWord(Opcode.MUL, Source.R1, Source.IMM, Dest.R1, imm=3),
         "D0.0 phase 0: MUL self-recurrence has no closed form"),
    ])
    def test_non_additive_recurrences_stay_ineligible(self, mw, reason):
        ring = Ring(RingGeometry(layers=2, width=1), backend="native")
        ring.config.write_microword(0, 0, mw)
        assert ring.native_refusal == reason
        twin = Ring(RingGeometry(layers=2, width=1), backend="interpreter")
        twin.config.write_microword(0, 0, mw)
        ring.run(40, bus=5)
        for _ in range(40):
            twin.step(bus=5)
        assert ring.native_cycles == 0
        assert state_digest(ring) == state_digest(twin)


class TestDnodeGroups:
    """The partition :func:`nativepath.native_template` emits over:
    Dnodes with one schedule (immediates aside) that read only their
    own state, a constant or the bus share a group; any other Dnode is
    a group of one."""

    @staticmethod
    def _sad_ring(**kw) -> Ring:
        """Four SAD loops on a 2x2 ring, each on its own FIFOs."""
        ring = Ring(RingGeometry(layers=2, width=2), **kw)
        for i in range(4):
            layer, pos = divmod(i, 2)
            ring.config.write_local_program(layer, pos, [
                MicroWord(Opcode.ABSDIFF, Source.FIFO1, Source.FIFO2,
                          Dest.R1, flags=Flag.POP_FIFO1 | Flag.POP_FIFO2),
                MicroWord(Opcode.ADD, Source.R0, Source.R1, Dest.R0)])
            ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
            ring.push_fifo(layer, pos, 1, _words(10 + i, 40 + 9 * i))
            ring.push_fifo(layer, pos, 2, _words(20 + i, 70 - 7 * i))
        return ring

    def test_me_search_is_one_group_of_sixteen(self):
        from repro.kernels.motion_estimation import build_me_system
        system, _ = build_me_system(np.zeros((8, 8), np.int64),
                                    np.zeros((24, 24), np.int64))
        ring = system.ring
        ring.config.apply_plane(system.planes[0])
        template = nativepath.native_template(ring)
        assert template.groups == (tuple(range(16)),)
        # One op per group: the SAD loop's two ops and one cumsum.
        assert template.source.count("np.abs(") == 1
        assert template.source.count("np.cumsum(") == 1

    def test_every_fir8_dnode_is_a_singleton(self):
        from repro.compiler.codegen import compile_graph
        from repro.compiler.library import fir8
        program = compile_graph(fir8(), ring_kwargs={"backend": "native"})
        ring = program.build_system(
            Ring(program.geometry, **program.ring_kwargs)).ring
        groups = nativepath.native_template(ring).groups
        assert groups == tuple((i,) for i in range(ring.geometry.dnodes))

    def test_grouped_sad_loops_match_the_interpreter(self):
        ring = self._sad_ring(backend="native")
        assert nativepath.native_template(ring).groups == ((0, 1, 2, 3),)
        rn, ri = _twin(self._sad_ring, 120)
        assert rn.native_cycles >= 100
        assert state_digest(rn) == state_digest(ri)

    def test_different_pop_prefixes_split(self):
        """Same opcodes, but D1.1 pops FIFO1 one slot later: its second
        read sees another word, so it cannot share the group."""
        def build(**kw):
            ring = self._sad_ring(**kw)
            ring.config.write_local_program(1, 1, [
                MicroWord(Opcode.ABSDIFF, Source.FIFO1, Source.FIFO2,
                          Dest.R1, flags=Flag.POP_FIFO2),
                MicroWord(Opcode.ADD, Source.R0, Source.FIFO1, Dest.R0,
                          flags=Flag.POP_FIFO1)])
            for i in range(3):
                layer, pos = divmod(i, 2)
                ring.config.write_local_slot(layer, pos, 1, MicroWord(
                    Opcode.ADD, Source.R0, Source.FIFO1, Dest.R0))
            return ring
        ring = build(backend="native")
        assert nativepath.native_template(ring).groups == (
            (0, 1, 2), (3,))
        rn, ri = _twin(build, 120)
        assert rn.native_cycles >= 100
        assert state_digest(rn) == state_digest(ri)

    def test_member_reading_another_member_splits(self):
        """Four Dnodes run ``ADD OUT, IN1, IMM``: three route IN1 to
        the bus, but D2.0 routes it to D1.0's OUT, so it reads another
        member and stays alone; the others' immediates differ and
        become one constant vector."""
        def build(**kw):
            ring = Ring(RingGeometry(layers=4, width=1), **kw)
            for layer in range(4):
                ring.config.write_switch_route(
                    layer, 0, 1, PortSource.up(0) if layer == 2
                    else PortSource.bus())
                ring.config.write_microword(layer, 0, MicroWord(
                    Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT,
                    imm=1000 * layer + 7))
            return ring
        ring = build(backend="native")
        template = nativepath.native_template(ring)
        assert template.groups == ((0, 1, 3), (2,))
        assert "_K" in template.source
        rn, ri = _twin(build, 60, bus=0x4321)
        assert rn.native_cycles >= 50
        assert state_digest(rn) == state_digest(ri)

    def test_coefficients_become_a_constant_vector(self):
        """``MADD`` coefficients are immediates too: two Dnodes with
        different ones share a group."""
        def build(**kw):
            ring = Ring(RingGeometry(layers=2, width=1), **kw)
            for layer in range(2):
                ring.config.write_microword(layer, 0, MicroWord(
                    Opcode.MADD, Source.BUS, Source.IMM, Dest.OUT,
                    imm=(3, 0xFFFB)[layer]))
            return ring
        ring = build(backend="native")
        assert nativepath.native_template(ring).groups == ((0, 1),)
        rn, ri = _twin(build, 40, bus=0x1234)
        assert state_digest(rn) == state_digest(ri)


class TestFallbackLadder:
    def test_ineligible_config_counts_fallback_cycles(self):
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT, imm=3))
        twin = Ring(RingGeometry(layers=2, width=2), backend="interpreter")
        twin.config.write_switch_route(1, 0, 1, PortSource.up(0))
        twin.config.write_microword(1, 0, MicroWord(
            Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT, imm=3))
        ring.run(20, bus=5)
        for _ in range(20):
            twin.step(bus=5)
        assert ring.native_cycles == 0
        assert ring.native_fallback_cycles > 0
        assert state_digest(ring) == state_digest(twin)

    def test_eligible_config_runs_native_after_warmup(self):
        def build(**kw):
            ring = Ring(RingGeometry.ring(16), **kw)
            _feedforward_chain(ring)
            return ring
        rn, ri = _twin(build, 40, bus=7)
        assert rn.native_cycles > 0
        assert rn.native_fallback_cycles == 0
        assert rn.native_compiles == 1
        assert state_digest(rn) == state_digest(ri)

    @staticmethod
    def _loaded_mac(words=10, **kw):
        ring = Ring(RingGeometry(layers=2, width=2), **kw)
        _mac_program(ring)
        ring.push_fifo(0, 0, 1, list(range(1, words + 1)))
        ring.push_fifo(0, 0, 2, list(range(11, words + 11)))
        return ring

    def test_fifo_gated_window_splits_native_and_fallback(self):
        """With strict FIFOs exactly occ//pops periods run native; the
        starved tail falls back down the ladder, which raises the
        interpreter's error at the interpreter's cycle."""
        rn = self._loaded_mac(backend="native", strict_fifos=True)
        ri = self._loaded_mac(backend="interpreter", strict_fifos=True)
        with pytest.raises(SimulationError) as native_error:
            rn.run(16)
        with pytest.raises(SimulationError) as interpreter_error:
            for _ in range(16):
                ri.step()
        assert str(native_error.value) == str(interpreter_error.value)
        assert rn.native_cycles == 9      # 10 loads - 1 warm-up cycle
        assert rn.cycles == ri.cycles == 10

    def test_underflow_tail_runs_native(self):
        """Without strict FIFOs the starved tail has a closed form: the
        native window runs through it, reading 0 and counting the
        underflows, and matches the interpreter bit-for-bit."""
        rn, ri = _twin(self._loaded_mac, 16)
        assert rn.native_cycles == 15     # every cycle after warm-up
        assert rn.native_fallback_cycles == rn.macro_cycles == 0
        # 6 starved cycles, each with 2 empty reads and 2 empty pops.
        assert rn.fifo_underflows == ri.fifo_underflows == 24
        assert state_digest(rn) == state_digest(ri)

    def test_empty_fifo_blocks_the_window_entirely(self):
        """With strict FIFOs an empty queue's safe prefix is empty; a
        non-strict ring runs the whole span native, reading underflows
        exactly as the interpreter does."""
        strict = self._loaded_mac(0, backend="native", strict_fifos=True)
        assert nativepath.compile_native(strict).safe_cycles(10) == 0
        rn, ri = _twin(lambda **kw: self._loaded_mac(0, **kw), 10)
        assert rn.native_cycles == 9
        assert rn.fifo_underflows == ri.fifo_underflows > 0
        assert state_digest(rn) == state_digest(ri)

    def test_step_never_engages_native(self):
        ring = Ring(RingGeometry.ring(16), backend="native")
        _feedforward_chain(ring)
        for _ in range(10):
            ring.step(bus=3)
        assert ring.native_cycles == 0

    def test_observer_chunks_keep_plan_engaged(self):
        def build(**kw):
            ring = Ring(RingGeometry.ring(16), **kw)
            _feedforward_chain(ring)
            return ring
        seen = []
        rn = build(backend="native")
        rn.add_observer(lambda r: seen.append(r.cycles), interval=8)
        ri = build(backend="interpreter")
        rn.run(40, bus=7)
        for _ in range(40):
            ri.step(bus=7)
        assert rn.native_cycles > 0
        assert seen == [8, 16, 24, 32, 40]
        assert state_digest(rn) == state_digest(ri)


class TestPlanCacheAndSnapshots:
    def _build(self, **kw):
        ring = Ring(RingGeometry.ring(16), **kw)
        _feedforward_chain(ring)
        return ring

    def test_plans_are_phase_keyed(self):
        """A local-mode plan only re-engages at its entry phase."""
        def build(**kw):
            ring = Ring(RingGeometry(layers=2, width=2), **kw)
            _mac_program(ring)
            ring.push_fifo(0, 0, 1, list(range(1, 31)))
            ring.push_fifo(0, 0, 2, list(range(31, 61)))
            return ring
        rn, ri = _twin(build, 30)
        plan = rn._steady["native"]
        assert plan is not None and plan.matches_phase()
        assert state_digest(rn) == state_digest(ri)

    def test_reconfiguration_churn_reuses_cached_plans(self):
        ring = self._build(backend="native")
        ring.run(20, bus=7)
        assert ring.native_compiles == 1
        # Touch the config: plan dropped, fingerprint changed ...
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MUL, Source.BUS, Source.IMM, Dest.OUT, imm=9))
        ring.run(20, bus=7)
        assert ring.native_compiles == 2
        # ... and back: the original plan comes from the cache.
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MUL, Source.BUS, Source.IMM, Dest.OUT, imm=3))
        ring.run(20, bus=7)
        assert ring.native_compiles == 2

    def test_snapshot_restore_readopts_without_recompiling(self):
        ring = self._build(backend="native")
        ring.run(20, bus=7)
        snap = capture(ring)
        compiles = ring.native_compiles
        native_before = ring.native_cycles
        restore(ring, snap)
        ring.run(12, bus=7)
        assert ring.native_compiles == compiles
        # Re-adoption skips the interpreted warm-up: all 12 post-restore
        # cycles run on the native plan.
        assert ring.native_cycles == native_before + 12
        twin = self._build(backend="interpreter")
        for _ in range(32):
            twin.step(bus=7)
        assert state_digest(ring) == state_digest(twin)

    def test_refusals_are_cached_per_fingerprint(self, monkeypatch):
        """A/B/A switching between two ineligible configurations runs
        the native compiler once per configuration, not per switch."""
        from repro.core import ring as ring_module
        attempts = []
        compile_native = ring_module.compile_native

        def counted(ring, *args):
            attempts.append(ring.config_fingerprint())
            return compile_native(ring, *args)

        monkeypatch.setattr(ring_module, "compile_native", counted)
        ring = Ring(RingGeometry(layers=2, width=1), backend="native")
        for _ in range(3):
            for imm in (3, 5):  # OUT = imm - OUT: alternating recurrence
                ring.config.write_microword(0, 0, MicroWord(
                    Opcode.SUB, Source.IMM, Source.SELF, Dest.OUT, imm=imm))
                ring.run(6)
        assert len(attempts) == len(set(attempts)) == 2
        assert ring.native_compiles == 0
        assert ring.native_fallback_cycles > 0

    def test_set_backend_away_and_back_is_identical(self):
        ring = self._build(backend="native")
        ring.run(10, bus=7)
        ring.set_backend("interpreter")
        ring.run(10, bus=7)
        ring.set_backend("native")
        ring.run(10, bus=7)
        twin = self._build(backend="interpreter")
        for _ in range(30):
            twin.step(bus=7)
        assert state_digest(ring) == state_digest(twin)


class TestBackendRegistry:
    """One registry: constructor, set_backend, CLI and docs agree."""

    def test_unknown_backend_error_enumerates_registry(self):
        ring = Ring(RingGeometry(layers=2, width=2))
        with pytest.raises(ConfigurationError) as err:
            ring.set_backend("turbo")
        for name in Ring.BACKEND_REGISTRY:
            assert name in str(err.value)

    def test_constructor_uses_the_same_registry(self):
        with pytest.raises(ConfigurationError) as err:
            Ring(RingGeometry(layers=2, width=2), backend="turbo")
        for name in Ring.BACKEND_REGISTRY:
            assert name in str(err.value)

    def test_backend_is_the_only_engine_selector(self):
        """The old ``fastpath=`` alias is an error, never silently
        ignored next to ``backend``."""
        with pytest.raises(TypeError):
            Ring(RingGeometry(layers=2, width=2), backend="native",
                 fastpath=False)

    def test_cli_choices_match_registry(self):
        """The CLI lists the registry and leaves validation to it."""
        from repro.tools.__main__ import build_parser
        parser = build_parser()
        run_parser = None
        for action in parser._subparsers._group_actions:
            run_parser = action.choices.get("run")
        assert run_parser is not None
        backend_action = next(a for a in run_parser._actions
                              if a.dest == "backend")
        assert backend_action.choices is None
        assert backend_action.metavar == \
            "{" + ",".join(Ring.BACKENDS) + "}"

    def test_registry_is_interpreter_native_batch(self):
        assert Ring.BACKENDS == ("interpreter", "native", "batch")

    def test_native_is_the_default(self):
        geometry = RingGeometry(layers=2, width=2)
        assert Ring(geometry).backend == "native"

    def _assert_unknown_fastpath(self, error: str) -> None:
        assert error == ("unknown backend 'fastpath'; expected one of "
                         "('interpreter', 'native', 'batch')")

    def test_fastpath_is_not_a_backend(self):
        with pytest.raises(ConfigurationError) as err:
            Ring(RingGeometry(layers=2, width=2), backend="fastpath")
        self._assert_unknown_fastpath(str(err.value))
        ring = Ring(RingGeometry(layers=2, width=2))
        with pytest.raises(ConfigurationError) as err:
            ring.set_backend("fastpath")
        self._assert_unknown_fastpath(str(err.value))
        assert ring.backend == "native"

    def test_cli_rejects_fastpath_with_the_registry_error(self, tmp_path,
                                                         capsys):
        from repro.tools.__main__ import main
        source = tmp_path / "prog.asm"
        source.write_text(".ring boot\ndnode 0.0 global\n"
                          "    add out, self, #1\n")
        assert main(["asm", str(source)]) == 0
        capsys.readouterr()
        assert main(["run", str(source.with_suffix(".obj")),
                     "--backend", "fastpath", "--cycles", "4"]) == 1
        captured = capsys.readouterr()
        self._assert_unknown_fastpath(
            captured.err.strip().removeprefix("error: "))
        assert "ran" not in captured.out

    def test_docs_table_matches_registry(self):
        """docs/architecture.md's engine table lists every backend."""
        text = (REPO / "docs" / "architecture.md").read_text()
        rows = re.findall(r"^\|\s*`([a-z]+)`\s*\|", text, re.MULTILINE)
        assert set(Ring.BACKEND_REGISTRY) <= set(rows), (
            "docs/architecture.md engine table is missing backends: "
            f"{set(Ring.BACKEND_REGISTRY) - set(rows)}"
        )

    def test_conformance_matrix_covers_every_backend(self):
        from tests.kernels.conftest import ENGINES
        backends = set()
        for kwargs in ENGINES.values():
            ring = Ring(RingGeometry(layers=2, width=2), **kwargs)
            backends.add(ring.backend)
        assert backends == set(Ring.BACKEND_REGISTRY)


class TestHostStreams:
    def test_host_gather_sees_per_cycle_values(self):
        """host_in closures that read ring.cycles stay bit-exact."""
        sig = [word.from_signed(((7 * i) % 100) - 50) for i in range(64)]

        def build(**kw):
            ring = Ring(RingGeometry(layers=3, width=2), **kw)
            ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
            ring.config.write_microword(0, 0, MicroWord(
                Opcode.MOV, Source.IN1, dst=Dest.OUT))
            ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
            ring.config.write_microword(1, 0, MicroWord(
                Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=5))
            return ring

        def host_of(ring):
            return lambda ch: sig[ring.cycles % len(sig)]

        rn = build(backend="native")
        ri = build(backend="interpreter")
        rn.run(40, host_in=host_of(rn))
        for _ in range(40):
            ri.step(host_in=host_of(ri))
        assert rn.native_cycles > 0
        assert state_digest(rn) == state_digest(ri)

    def test_missing_host_reader_is_ineligible_not_wrong(self):
        """No host_in + routed host port: the fallback raises the same
        SimulationError the interpreter raises."""
        from repro.errors import SimulationError
        ring = Ring(RingGeometry(layers=2, width=2), backend="native")
        ring.config.write_switch_route(0, 0, 1, PortSource.host(2))
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.IN1, dst=Dest.OUT))
        with pytest.raises(SimulationError, match="host channel 2"):
            ring.run(10)


class TestMetrics:
    def test_native_counters_surface_in_metrics(self):
        from repro.analysis.metrics import collect_metrics
        ring = Ring(RingGeometry.ring(16), backend="native")
        _feedforward_chain(ring)
        ring.run(30, bus=7)
        report = collect_metrics(ring)
        assert report.value("native_cycles_total") == \
            ring.native_cycles > 0
        assert report.value("native_plan_compiles_total") == 1
        assert report.value("native_fallback_cycles_total") == 0

    def test_native_codegen_is_booked_as_compile_time(self):
        """Native code generation lands in ``compile_seconds`` even when
        the macro kernel is already cached, so a short run on a fresh
        ring shows what it paid for native."""
        from repro.compiler.codegen import compile_graph
        from repro.compiler.library import fir8
        program = compile_graph(fir8())
        ring = Ring(program.geometry, backend="native")
        program.configure(ring)
        for _ in range(2):  # interpret, then compile the macro kernel
            ring.step(host_in=lambda channel: 0)
        assert ring.plan_compiles == 1 and ring.native_compiles == 0
        ring.reset()
        stream = [(5 * n) % 23 - 11 for n in range(64)]
        with ring.profile() as profile:
            outputs = program.run(stream, ring=ring)
        assert outputs == fir8().evaluate({0: stream})
        assert profile.plan_compiles == 0
        assert ring.native_compiles == 1 and ring.native_cycles > 0
        assert profile.compile_seconds > 0
