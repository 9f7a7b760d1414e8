"""Tests for signal tracing and VCD export."""

import pytest

from repro.analysis.trace import Probe, SignalTrace, parse_vcd, write_vcd
from repro.controller.core import RiscController
from repro.controller.isa import Instruction, ROp
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import make_ring
from repro.core.switch import PortSource
from repro.errors import SimulationError
from repro.host.system import RingSystem


def counting_ring():
    """D0.0 counts up by 1 every cycle (SELF + 1)."""
    ring = make_ring(4)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=1))
    ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
    ring.config.write_microword(1, 0, MicroWord(
        Opcode.MOV, Source.IN1, dst=Dest.OUT))
    return ring


class TestSignalTrace:
    def test_captures_every_cycle(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0), Probe.out(1, 0)])
        ring.run(5)
        assert trace.cycles == 5
        assert trace.samples["D0.0.out"] == [1, 2, 3, 4, 5]
        assert trace.samples["D1.0.out"] == [0, 1, 2, 3, 4]

    def test_register_probe(self):
        ring = make_ring(4)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MAC, Source.IMM, Source.IMM, Dest.R0, imm=2))
        trace = SignalTrace(ring, [Probe.reg(0, 0, 0)])
        ring.run(3)
        assert trace.samples["D0.0.r0"] == [4, 8, 12]

    def test_needs_probes(self):
        with pytest.raises(SimulationError):
            SignalTrace(make_ring(4), [])

    def test_probe_address_validated(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SignalTrace(make_ring(4), [Probe.out(9, 0)])

    def test_detach_stops_recording(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        ring.run(2)
        trace.detach()
        ring.run(2)
        assert trace.cycles == 2

    def test_detach_leaves_foreign_observer_installed(self):
        # Regression: detach() used to clear the ring's single trace hook
        # unconditionally, silently removing whatever observer was
        # installed after it.
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        seen = []
        ring.add_observer(lambda r: seen.append(r.cycles))
        trace.detach()
        ring.run(3)
        assert trace.cycles == 0
        assert seen == [1, 2, 3]

    def test_detach_leaves_legacy_set_trace_hook_installed(self):
        """A single hook installed before the trace (the pattern the old
        ``set_trace`` wrapper served) survives ``detach`` and leaves
        only through its own ``remove_observer``."""
        ring = counting_ring()
        seen = []
        hook = ring.add_observer(lambda r: seen.append(r.cycles))
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        trace.detach()
        ring.run(2)
        assert seen == [1, 2]
        ring.remove_observer(hook)
        ring.run(1)
        assert seen == [1, 2]

    def test_two_traces_coexist_and_detach_independently(self):
        ring = counting_ring()
        first = SignalTrace(ring, [Probe.out(0, 0)])
        second = SignalTrace(ring, [Probe.out(1, 0)])
        ring.run(2)
        first.detach()
        ring.run(2)
        assert first.samples["D0.0.out"] == [1, 2]
        assert second.samples["D1.0.out"] == [0, 1, 2, 3]

    def test_detach_is_idempotent(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        trace.detach()
        trace.detach()
        ring.run(2)
        assert trace.cycles == 0


class TestSampledTrace:
    def test_interval_samples_every_nth_cycle(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)], interval=4)
        ring.run(20)
        assert trace.sampled_at == [4, 8, 12, 16, 20]
        assert trace.samples["D0.0.out"] == [4, 8, 12, 16, 20]

    def test_interval_does_not_disable_fast_path(self):
        ring = counting_ring()
        SignalTrace(ring, [Probe.out(0, 0)], interval=8)
        ring.run(40)
        assert ring.native_cycles + ring.macro_cycles == 39, \
            "a sampled trace must keep the compiled tiers engaged"
        assert ring.dnode(0, 0).out == 40

    def test_sampled_matches_every_cycle_trace_decimated(self):
        dense_ring, sparse_ring = counting_ring(), counting_ring()
        dense = SignalTrace(dense_ring, [Probe.out(0, 0)])
        sparse = SignalTrace(sparse_ring, [Probe.out(0, 0)], interval=5)
        dense_ring.run(23)
        sparse_ring.run(23)
        decimated = [v for i, v in
                     enumerate(dense.samples["D0.0.out"], start=1)
                     if i % 5 == 0]
        assert sparse.samples["D0.0.out"] == decimated

    def test_window_bounds_capture(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)], start=3, stop=6)
        ring.run(10)
        assert trace.sampled_at == [3, 4, 5, 6]
        assert trace.samples["D0.0.out"] == [3, 4, 5, 6]

    def test_window_with_interval(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)], interval=3, start=5,
                            stop=14)
        ring.run(20)
        assert trace.sampled_at == [6, 9, 12]

    def test_exhausted_window_frees_the_batch(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)], stop=4)
        ring.run(50)
        assert trace.cycles == 4
        assert ring.cycles == 50

    def test_sampling_identical_when_stepping_cycle_by_cycle(self):
        batched, stepped = counting_ring(), counting_ring()
        batch_trace = SignalTrace(batched, [Probe.out(0, 0)], interval=6)
        step_trace = SignalTrace(stepped, [Probe.out(0, 0)], interval=6)
        batched.run(25)
        for _ in range(25):
            stepped.step()
        assert batch_trace.samples == step_trace.samples
        assert batch_trace.sampled_at == step_trace.sampled_at

    def test_bad_interval_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SignalTrace(counting_ring(), [Probe.out(0, 0)], interval=0)

    def test_bad_window_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SignalTrace(counting_ring(), [Probe.out(0, 0)], start=9,
                        stop=2)

    def test_render_ascii(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        ring.run(3)
        diagram = trace.render()
        assert "D0.0.out" in diagram
        assert "3" in diagram

    def test_render_last_n(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        ring.run(10)
        diagram = trace.render(last=2)
        assert "10" in diagram and " 5 " not in diagram

    def test_render_before_run_rejected(self):
        trace = SignalTrace(counting_ring(), [Probe.out(0, 0)])
        with pytest.raises(SimulationError):
            trace.render()


class TestVcd:
    def test_roundtrip(self, tmp_path):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0), Probe.out(1, 0)])
        ring.run(4)
        path = tmp_path / "run.vcd"
        write_vcd(trace, path)
        waves = parse_vcd(path)
        assert [v for _, v in waves["D0_0_out"]] == [1, 2, 3, 4]
        # D1.0 holds 0 initially: first dump at t=0 then changes
        assert waves["D1_0_out"][0] == (0, 0)

    def test_only_changes_dumped(self, tmp_path):
        ring = make_ring(4)  # everything idle: constant zeros
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        ring.run(5)
        path = tmp_path / "idle.vcd"
        write_vcd(trace, path)
        waves = parse_vcd(path)
        assert waves["D0_0_out"] == [(0, 0)]

    def test_header_fields(self, tmp_path):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.out(0, 0)])
        ring.run(1)
        path = tmp_path / "h.vcd"
        write_vcd(trace, path, timescale="10 ns", module="dut")
        text = path.read_text()
        assert "$timescale 10 ns $end" in text
        assert "$scope module dut $end" in text
        assert "$var wire 16" in text

    def test_empty_trace_rejected(self, tmp_path):
        trace = SignalTrace(counting_ring(), [Probe.out(0, 0)])
        with pytest.raises(SimulationError):
            write_vcd(trace, tmp_path / "x.vcd")

    def test_dumpvars_section_holds_initial_values(self, tmp_path):
        ring = make_ring(4)  # idle fabric: values never change
        trace = SignalTrace(ring, [Probe.out(0, 0), Probe.out(0, 1)])
        ring.run(3)
        path = tmp_path / "init.vcd"
        write_vcd(trace, path)
        text = path.read_text()
        dump = text[text.index("$dumpvars"):text.index("$end",
                                                       text.index("$dumpvars"))]
        # every probe gets an initial value even when it never changes
        assert dump.count("b0000000000000000") == 2

    def test_identifier_sequence_is_bijective_base94(self):
        from repro.analysis.trace import _vcd_identifier
        assert _vcd_identifier(0) == "!"
        assert _vcd_identifier(93) == "~"
        assert _vcd_identifier(94) == "!!"
        assert _vcd_identifier(94 + 93) == "!~"
        ids = [_vcd_identifier(i) for i in range(500)]
        assert len(set(ids)) == 500
        assert all(all(33 <= ord(c) <= 126 for c in ident)
                   for ident in ids)

    def test_roundtrip_with_more_than_94_probes(self, tmp_path):
        # Regression: single-char identifiers chr(33+i) walk past '~'
        # (and into collisions) beyond 93 probes.
        ring = make_ring(64)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=1))
        layers = ring.geometry.layers
        width = ring.geometry.width
        probes = [Probe.out(l, p)
                  for l in range(layers) for p in range(width)]
        probes += [Probe.reg(l, p, 0)
                   for l in range(layers) for p in range(width)]
        assert len(probes) == 128
        trace = SignalTrace(ring, probes)
        ring.run(4)
        path = tmp_path / "big.vcd"
        write_vcd(trace, path)
        waves = parse_vcd(path)
        assert len(waves) == 128
        assert [v for _, v in waves["D0_0_out"]] == [1, 2, 3, 4]
        # an idle signal keeps exactly its $dumpvars entry
        assert waves[f"D{layers - 1}_{width - 1}_r0"] == [(0, 0)]


class TestBusProbe:
    def test_bus_probe_records_observed_values(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.bus()])
        for value in (5, 9, 13):
            trace.observe_bus(value)
            ring.step(bus=value)
        assert trace.samples["bus"] == [5, 9, 13]

    def test_observe_bus_validates(self):
        trace = SignalTrace(counting_ring(), [Probe.bus()])
        with pytest.raises(ValueError):
            trace.observe_bus(-1)

    def test_bus_defaults_to_zero(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.bus()])
        ring.run(2)
        assert trace.samples["bus"] == [0, 0]

    def test_bus_probe_sees_controller_busw(self):
        # Regression: the bus probe used to read a field the system never
        # wired up, so controller-driven traffic traced as constant zero.
        ring = make_ring(4)
        ctrl = RiscController([
            Instruction(ROp.LDI, rd=1, imm=42),
            Instruction(ROp.BUSW, rs=1),
            Instruction(ROp.HALT),
        ])
        system = RingSystem(ring, ctrl)
        trace = SignalTrace(ring, [Probe.bus()])
        system.run_until_halt()
        # cycle 1: LDI (bus still 0); cycle 2: BUSW drives 42; the
        # controller latches bus_out, so it stays driven at the HALT cycle.
        assert trace.samples["bus"] == [0, 42, 42]

    def test_bus_probe_sees_run_bus_argument(self):
        ring = counting_ring()
        trace = SignalTrace(ring, [Probe.bus()], interval=2)
        ring.run(4, bus=7)
        ring.run(2, bus=9)
        assert trace.samples["bus"] == [7, 7, 9]

    def test_last_bus_survives_fast_path_batches(self):
        ring = counting_ring()
        ring.run(10, bus=3)  # compiles a kernel, no trace attached
        assert ring.native_cycles + ring.macro_cycles == 9
        assert ring.last_bus == 3
