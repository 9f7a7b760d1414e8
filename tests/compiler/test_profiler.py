"""Tests for the fabric profiler."""

import pytest

from repro.compiler.profiler import profile_report, utilization_by_dnode
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import make_ring
from repro.errors import SimulationError


def _half_busy_ring():
    ring = make_ring(8)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.MAC, Source.ZERO, Source.ZERO, Dest.R0))
    ring.config.write_microword(1, 0, MicroWord(
        Opcode.MOV, Source.BUS, dst=Dest.OUT))
    ring.run(10)
    return ring


class TestUtilization:
    def test_busy_fraction_per_dnode(self):
        ring = _half_busy_ring()
        util = utilization_by_dnode(ring)
        assert util["D0.0"] == 1.0
        assert util["D1.0"] == 1.0
        assert util["D0.1"] == 0.0
        assert len(util) == 8

    def test_requires_a_run(self):
        with pytest.raises(SimulationError):
            utilization_by_dnode(make_ring(8))


class TestReport:
    def test_lists_busy_dnodes_only_by_default(self):
        report = profile_report(_half_busy_ring())
        assert "D0.0" in report and "D1.0" in report
        assert "D0.1" not in report

    def test_include_idle(self):
        report = profile_report(_half_busy_ring(), include_idle=True)
        assert "D0.1" in report

    def test_aggregates(self):
        report = profile_report(_half_busy_ring())
        assert "2/8 Dnodes busy" in report
        # 2 busy of 8 at 200 MHz -> 400 MIPS sustained
        assert "400 MIPS" in report
        assert "25.0%" in report

    def test_op_mix_columns(self):
        report = profile_report(_half_busy_ring())
        assert "muls" in report  # the MAC Dnode multiplied every cycle

    def test_requires_a_run(self):
        with pytest.raises(SimulationError):
            profile_report(make_ring(8))


class TestCompilerIntegration:
    def test_profile_of_compiled_program(self):
        from repro.compiler import DataflowGraph, compile_graph

        g = DataflowGraph()
        x = g.input(0)
        g.output(g.op("add", g.op("mul", x, g.const(3)), g.delay(x, 1)))
        prog = compile_graph(g)
        system = prog.build_system()
        prog.run([1, 2, 3, 4, 5], ring=system.ring)
        report = profile_report(system.ring)
        assert "3/4 Dnodes busy" in report  # mul + relay + add; 1 lane idle


class TestProfileWarmup:
    """Satellite: `Ring.profile(warmup=N)` runs N cycles before timing.

    The warm-up chunk pays plan compilation / engine-adoption cost
    outside the timed region, so the profile measures the plan-cache
    hit path — pinned by profiling the same ring twice and asserting the
    second session compiles nothing and runs fully on the compiled tiers.
    """

    def test_warmup_cycles_excluded_from_profile(self):
        ring = _half_busy_ring()
        with ring.profile(warmup=10) as prof:
            ring.run(6)
        assert prof.total_cycles == 6
        assert ring.cycles == 10 + 6 + 10  # _half_busy_ring ran 10

    def test_warmup_measures_cache_hit_path(self):
        ring = _half_busy_ring()
        with ring.profile(warmup=8) as first:
            ring.run(16)
        with ring.profile(warmup=8) as second:
            ring.run(16)
        assert second.plan_compiles == 0
        assert second.compile_seconds == 0.0
        assert second.fastpath_fraction == 1.0
        assert second.interpreted_cycles == 0
        assert first.total_cycles == second.total_cycles == 16

    def test_negative_warmup_rejected(self):
        ring = _half_busy_ring()
        with pytest.raises(SimulationError):
            with ring.profile(warmup=-1):
                pass

    def test_default_warmup_is_zero(self):
        ring = _half_busy_ring()
        cycles = ring.cycles
        with ring.profile():
            pass
        assert ring.cycles == cycles


class TestMeasuredCyclesPerSecond:
    def test_positive_and_uses_best_of_repeats(self):
        from repro.compiler.profiler import measured_cycles_per_second

        ring = _half_busy_ring()
        rate = measured_cycles_per_second(ring, 64, repeats=2)
        assert rate > 0

    def test_rejects_empty_measurement(self):
        from repro.compiler.profiler import measured_cycles_per_second

        with pytest.raises(SimulationError):
            measured_cycles_per_second(_half_busy_ring(), 0)

    def test_warmup_defaults_to_quarter(self):
        from repro.compiler.profiler import measured_cycles_per_second

        ring = _half_busy_ring()
        begin = ring.cycles
        measured_cycles_per_second(ring, 100, warmup=None, repeats=1)
        assert ring.cycles == begin + 25 + 100

    def test_explicit_warmup_honoured(self):
        from repro.compiler.profiler import measured_cycles_per_second

        ring = _half_busy_ring()
        begin = ring.cycles
        measured_cycles_per_second(ring, 40, warmup=3, repeats=2)
        assert ring.cycles == begin + 2 * (3 + 40)

    def test_utilization_zero_cycle_dnode(self):
        """utilization_by_dnode guards the 0-cycle division branch."""
        ring = _half_busy_ring()
        ring.dnode(0, 1).stats.cycles = 0
        util = utilization_by_dnode(ring)
        assert util["D0.1"] == 0.0
