"""The macro rung: bit-identity, phase handling, error paths, caps.

The fused kernels generated by :mod:`repro.core.macropath` replace
per-cycle dispatch with straight-line source.  They run on the native
ladder, for spans the native tier refuses or leaves over and for every
stepped cycle, so every ring here is a ``backend="native"`` ring with
the native tier refused (the ``refuse_native`` seam), and every
behavioural contract is re-asserted against the interpreter:
architectural state (including statistics and FIFO accounting), host
read ordering (``host_in`` observes the advancing cycle counter), local
sequencer phases across odd chunk boundaries, strict-FIFO error messages
and abort cycle counts, and periods far over the native unroll cap,
which the macro kernel rolls into one counter per Dnode.
"""

from __future__ import annotations

import pytest

from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.nativepath import MAX_PERIOD, native_period
from repro.core.ring import Ring, make_ring
from repro.core.switch import PortSource
from repro.errors import SimulationError

pytestmark = pytest.mark.usefixtures("refuse_native")


def _configure_mixed(ring: Ring) -> None:
    """Global + local modes, FIFOs, feedback taps, host, bus — one of
    everything the codegen emits."""
    cfg = ring.config
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_switch_route(0, 1, 1, PortSource.up(0))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_switch_route(1, 0, 2, PortSource.rp(2, 1))
    cfg.write_switch_route(2, 1, 2, PortSource.bus())
    cfg.write_microword(0, 0, MicroWord(Opcode.MOV, Source.IN1,
                                        dst=Dest.OUT))
    cfg.write_microword(0, 1, MicroWord(Opcode.MAC, Source.IN1,
                                        Source.SELF, dst=Dest.R1,
                                        flags=Flag.WRITE_OUT))
    cfg.write_microword(1, 0, MicroWord(Opcode.MADD, Source.IN1,
                                        Source.IN2, dst=Dest.OUT, imm=7))
    cfg.write_microword(3, 1, MicroWord(Opcode.ADDSAT, Source.SELF,
                                        Source.IMM, dst=Dest.OUT,
                                        imm=0x7F00))
    dn = ring.dnode(2, 1)   # local, limit 3, FIFO read + pop
    dn.local.load_program([
        MicroWord(Opcode.ADD, Source.FIFO1, Source.IN2, dst=Dest.R0,
                  flags=Flag.POP_FIFO1),
        MicroWord(Opcode.MUL, Source.R0, Source.IMM, dst=Dest.OUT, imm=5),
        MicroWord(Opcode.NOP),
    ])
    dn.set_mode(DnodeMode.LOCAL)
    dn2 = ring.dnode(3, 0)  # local, limit 2 -> fabric period 6
    dn2.local.load_program([
        MicroWord(Opcode.SUB, Source.SELF, Source.IMM, dst=Dest.OUT,
                  imm=1),
        MicroWord(Opcode.XOR, Source.SELF, Source.IMM, dst=Dest.OUT,
                  imm=0x5A5A),
    ])
    dn2.set_mode(DnodeMode.LOCAL)
    ring.push_fifo(2, 1, 1, [(100 + i) & 0xFFFF for i in range(300)])


def _state(ring: Ring) -> dict:
    g = ring.geometry
    return {
        "cycles": ring.cycles,
        "outs": [dn.out for dn in ring.all_dnodes()],
        "regs": [dn.regs.snapshot() for dn in ring.all_dnodes()],
        "pipes": [[ring.switch(k).rp_read(s, l)
                   for s in range(1, 5) for l in range(1, g.width + 1)]
                  for k in range(g.layers)],
        "fifos": {key: list(q) for key, q in sorted(ring._fifos.items())
                  if q},
        "underflows": ring.fifo_underflows,
        "stats": [(dn.stats.cycles, dn.stats.instructions,
                   dn.stats.arithmetic_ops, dn.stats.multiplies,
                   dn.stats.fifo_pops) for dn in ring.all_dnodes()],
    }


def _host(ring: Ring):
    # Reads the live cycle counter: proves fused kernels keep it current.
    return lambda ch: (37 * ch + 7 * ring.cycles + 11) & 0xFFFF


class TestMacroEquivalence:
    @pytest.mark.parametrize("periods", [2, 8, 64])
    def test_bit_identical_to_interpreter(self, periods):
        """Calls of *periods* sequencer periods plus one cycle, so every
        call enters the one kernel at a new phase."""
        ref = make_ring(8, backend="interpreter")
        macro = make_ring(8, backend="native")
        for ring in (ref, macro):
            _configure_mixed(ring)
            span = periods * native_period(ring) + 1
            for start in range(0, 401, span):
                ring.run(min(span, 401 - start), bus=5,
                         host_in=_host(ring))
        assert macro.macro_cycles == 400, "every cycle but the first fuses"
        assert macro.plan_compiles == 1
        assert _state(macro) == _state(ref)

    def test_odd_chunks_cross_phases(self):
        """Chunk boundaries land on every sequencer phase; each re-entry
        enters the one kernel at its phase."""
        ref = make_ring(8, backend="interpreter")
        macro = make_ring(8, backend="native")
        for ring in (ref, macro):
            _configure_mixed(ring)
        chunks = [13, 29, 7, 31, 17, 23, 41]
        for chunk in chunks:
            ref.run(chunk, bus=2, host_in=_host(ref))
            macro.run(chunk, bus=2, host_in=_host(macro))
            assert _state(macro) == _state(ref)
        assert macro.macro_cycles > 0

    def test_macro_kernels_are_cached_by_phase(self):
        """Runs entering at different phases share one kernel, cached
        under a key with no phase and re-adopted after a switch."""
        ring = make_ring(8, backend="native")
        _configure_mixed(ring)
        plane = ring.config.capture_plane()
        for chunk in (25, 25, 25, 25):
            ring.run(chunk, host_in=_host(ring))
        macro_keys = [k for k in ring.plan_cache.keys()
                      if k[0] == "macro"]
        assert len(macro_keys) == 1, "one kernel serves every phase"
        assert ring.plan_compiles == 1
        ring.config.write_microword(0, 0, MicroWord(Opcode.NOP))
        ring.run(3, host_in=_host(ring))
        ring.config.apply_plane(plane)
        ring.run(25, host_in=_host(ring))
        assert ring.plan_cache.hits > 0
        assert ring.plan_compiles == 2  # the NOP configuration's kernel

    def test_macro_respects_every_cycle_observer(self):
        """An every-cycle observer forces per-cycle dispatch: each cycle
        is one step, on the macro kernel after the first-time cycle,
        and the observer sees every one of them."""
        ref = make_ring(8, backend="interpreter")
        ring = make_ring(8, backend="native")
        for r in (ref, ring):
            _configure_mixed(r)
        seen = []
        ring.add_observer(lambda r: seen.append(r.cycles))
        ring.run(20, host_in=_host(ring))
        ref.run(20, host_in=_host(ref))
        assert seen == list(range(1, 21))
        assert ring.macro_cycles == 19
        assert ring.native_cycles == 0
        assert _state(ring) == _state(ref)

    def test_macro_with_sampled_observer(self):
        ref = make_ring(8, backend="interpreter")
        macro = make_ring(8, backend="native")
        captures = []
        for ring in (ref, macro):
            _configure_mixed(ring)
        macro.add_observer(lambda r: captures.append(_state(r)),
                           interval=50)
        macro.run(250, host_in=_host(macro))
        for i, snap in enumerate(captures, start=1):
            assert snap["cycles"] == 50 * i
        ref.run(250, host_in=_host(ref))
        assert _state(macro) == _state(ref)
        assert macro.macro_cycles > 0


class TestMacroEligibility:
    def test_period_is_lcm_of_local_limits(self):
        ring = make_ring(8)
        assert native_period(ring) == 1
        _configure_mixed(ring)  # limits 3 and 2
        assert native_period(ring) == 6

    def test_huge_period_is_ineligible(self):
        """A period of 210 is over native's unroll cap, so native
        refuses it; the macro kernel compiles it once, rolled, and stays
        bit-identical to the interpreter."""
        ring = make_ring(8, backend="native")
        _configure_mixed(ring)
        dn = ring.dnode(1, 1)   # add limit 7: lcm(3, 2, 7) = 42 <= 64
        dn.local.load_program([MicroWord(Opcode.NOP)] * 7)
        dn.set_mode(DnodeMode.LOCAL)
        assert native_period(ring) == 42
        dn2 = ring.dnode(0, 0)  # add limit 5: lcm = 210 > MAX_PERIOD
        dn2.local.load_program([MicroWord(Opcode.NOP)] * 5)
        dn2.set_mode(DnodeMode.LOCAL)
        assert native_period(ring) == 210 > MAX_PERIOD
        ref = make_ring(8, backend="interpreter")
        _configure_mixed(ref)
        for layer, pos, n in ((1, 1, 7), (0, 0, 5)):
            d = ref.dnode(layer, pos)
            d.local.load_program([MicroWord(Opcode.NOP)] * n)
            d.set_mode(DnodeMode.LOCAL)
        ref.run(150, host_in=_host(ref))
        ring.run(150, host_in=_host(ring))
        assert ring.macro_cycles == 149, "every cycle but the first fuses"
        assert ring.plan_compiles == 1
        assert _state(ring) == _state(ref)

    def test_reconfiguration_drops_macro(self):
        ring = make_ring(8, backend="native")
        _configure_mixed(ring)
        ring.run(50, host_in=_host(ring))
        assert ring._steady.get("macro") is not None
        ring.dnode(0, 0).configure(MicroWord(Opcode.MOV, Source.IMM,
                                             dst=Dest.OUT, imm=1))
        assert ring._steady.get("macro") is None


class TestMacroStrictFifoAbort:
    def _build(self, **kwargs) -> Ring:
        ring = make_ring(8, strict_fifos=True, **kwargs)
        dn = ring.dnode(1, 0)
        dn.configure(MicroWord(Opcode.ADD, Source.FIFO1, Source.IMM,
                               dst=Dest.OUT, imm=1, flags=Flag.POP_FIFO1))
        ring.push_fifo(1, 0, 1, list(range(10)))
        return ring

    def test_abort_matches_interpreter_cycle_and_message(self):
        ref = self._build(backend="interpreter")
        macro = self._build(backend="native")
        with pytest.raises(SimulationError) as ref_exc:
            ref.run(100)
        with pytest.raises(SimulationError) as macro_exc:
            macro.run(100)
        assert str(macro_exc.value) == str(ref_exc.value)
        assert "read empty FIFO1" in str(macro_exc.value)
        assert macro.cycles == ref.cycles
        assert macro.macro_cycles > 0, "abort happened inside the kernel"
        # Committed state of completed cycles is identical; the aborted
        # cycle itself is the documented divergence (staged temps and
        # eval statistics of the partial cycle are not retained).
        assert ([dn.out for dn in macro.all_dnodes()]
                == [dn.out for dn in ref.all_dnodes()])

    def test_recovery_after_abort_stays_identical(self):
        ref = self._build(backend="interpreter")
        macro = self._build(backend="native")
        for ring in (ref, macro):
            with pytest.raises(SimulationError):
                ring.run(100)
            ring.push_fifo(1, 0, 1, list(range(50)))
            ring.run(40)
        assert macro.cycles == ref.cycles
        assert ([dn.out for dn in macro.all_dnodes()]
                == [dn.out for dn in ref.all_dnodes()])


class TestMacroControls:
    def test_metrics_expose_cache_and_macro_counters(self):
        from repro.host.system import RingSystem
        ring = make_ring(8, backend="native")
        _configure_mixed(ring)
        system = RingSystem(ring)
        ring.run(200, host_in=_host(ring))
        text = system.metrics().to_prometheus()
        assert "plan_cache_hits_total" in text
        assert "plan_cache_misses_total" in text
        assert "plan_cache_evictions_total" in text
        assert "macro_step_cycles_total" in text
        value = [line for line in text.splitlines()
                 if line.startswith("repro_macro_step_cycles_total")]
        assert value and float(value[0].split()[-1]) > 0
