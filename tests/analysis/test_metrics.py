"""Tests for the tier-1 metrics registry and its exporters."""

import json

import pytest

from repro.analysis.metrics import MetricsRegistry, collect_metrics
from repro.controller.core import RiscController
from repro.controller.isa import Instruction, ROp
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import make_ring
from repro.core.switch import PortSource
from repro.errors import SimulationError
from repro.host.system import RingSystem


def busy_ring(dnodes=8):
    ring = make_ring(dnodes)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=1))
    ring.config.write_microword(0, 1, MicroWord(
        Opcode.MOV, Source.FIFO1, dst=Dest.OUT))
    ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
    return ring


class TestRingMetrics:
    def test_scalar_counters(self):
        ring = busy_ring()
        ring.run(10)
        snap = collect_metrics(ring)
        assert snap.value("ring_cycles_total") == 10
        # Native takes every cycle after the first: no macro kernel.
        assert snap.value("ring_plan_compiles_total") == 0
        assert snap.value("native_plan_compiles_total") == 1
        assert snap.value("ring_plan_invalidations_total") == 0
        assert snap.value("ring_config_writes_total") == 3
        assert snap.value("ring_instructions_total") == 20

    def test_plan_invalidation_counted_only_when_plan_dropped(self):
        ring = busy_ring()
        ring.run(10)  # native kernel compiled
        ring.config.write_microword(0, 0, MicroWord(Opcode.NOP))
        ring.config.write_microword(0, 0, MicroWord(Opcode.NOP))
        snap = collect_metrics(ring)
        # two writes, but only the first one dropped a live plan
        assert snap.value("ring_plan_invalidations_total") == 1

    def test_per_dnode_activity_labels(self):
        ring = busy_ring()
        ring.run(5)
        snap = collect_metrics(ring)
        assert snap.value("dnode_instructions_total", dnode="D0.0") == 5
        assert snap.value("dnode_cycles_total", dnode="D3.1") == 5
        assert snap.value("dnode_instructions_total", dnode="D3.1") == 0

    def test_fifo_depth_and_high_water(self):
        ring = busy_ring()
        ring.push_fifo(0, 1, 1, [1, 2, 3, 4, 5])
        ring.config.write_microword(0, 1, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT,
            flags=Flag.POP_FIFO1))
        ring.run(3)
        snap = collect_metrics(ring)
        assert snap.value("fifo_depth_high_water",
                          dnode="D0.1", channel="1") == 5
        assert snap.value("fifo_depth", dnode="D0.1", channel="1") == 2

    def test_switch_route_write_counts(self):
        ring = busy_ring()
        ring.config.write_switch_route(2, 0, 2, PortSource.bus())
        snap = collect_metrics(ring)
        assert snap.value("switch_route_writes_total", switch="1") == 1
        assert snap.value("switch_route_writes_total", switch="2") == 1
        assert snap.value("switch_route_writes_total", switch="0") == 0

    def test_process_kernel_cache_counters(self):
        """A second ring with the same configuration binds the first
        one's native kernel instead of compiling it (native takes every
        cycle: it reads the empty FIFO as underflows in closed form).
        Both export formats carry the process-wide counters next to the
        per-ring ``plan_cache_*`` families."""
        names = ("kernel_cache_hits_total", "kernel_cache_misses_total",
                 "kernel_cache_evictions_total")
        before = collect_metrics(busy_ring())
        first = busy_ring()
        first.run(10)
        second = busy_ring()
        second.run(10)
        snap = collect_metrics(second)
        assert [snap.value(n) - before.value(n) for n in names] == [1, 1, 0]
        assert second.native_compiles == 0
        hits = int(snap.value("kernel_cache_hits_total"))
        assert json.loads(snap.to_json())["kernel_cache_hits_total"] == hits
        assert f"repro_kernel_cache_hits_total {hits}" in \
            snap.to_prometheus().splitlines()

    def test_batch_lane_plan_counters(self):
        """Lane kernels count in the ring's compile families (a macro
        lane kernel in ``ring_plan_compiles_total``); the batch families
        count the lane plans a write dropped, and no compile family of
        their own remains."""
        ring = make_ring(4, backend="batch", batch_size=3)
        ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
        ring.config.write_microword(1, 0, MicroWord(
            Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT, imm=3))
        ring.run(10, bus=2)  # native refuses the MADD self-recurrence
        snap = collect_metrics(ring)
        assert snap.value("ring_plan_compiles_total") == 1
        assert snap.value("native_plan_compiles_total") == 0
        assert snap.value("macro_step_cycles_total") == 10
        assert snap.value("batch_plan_invalidations_total") == 0
        with pytest.raises(KeyError):
            snap.value("batch_plan_compiles_total")
        ring.config.write_microword(0, 0, MicroWord(Opcode.NOP))
        ring.config.write_microword(0, 0, MicroWord(Opcode.NOP))
        snap = collect_metrics(ring)
        assert snap.value("batch_plan_invalidations_total") == 1
        assert snap.value("ring_plan_invalidations_total") == 1

    def test_unknown_sample_raises(self):
        snap = collect_metrics(make_ring(4))
        with pytest.raises(KeyError):
            snap.value("no_such_metric")

    def test_registry_rejects_non_fabric(self):
        with pytest.raises(SimulationError):
            MetricsRegistry.of(object())


class TestSystemMetrics:
    def controlled_system(self):
        ring = busy_ring()
        ctrl = RiscController([
            Instruction(ROp.LDI, rd=1, imm=42),
            Instruction(ROp.BUSW, rs=1),
            Instruction(ROp.WAITI, imm=3),
            Instruction(ROp.HALT),
        ])
        return RingSystem(ring, ctrl)

    def test_controller_counters_included(self):
        system = self.controlled_system()
        system.run_until_halt()
        snap = system.metrics()
        assert snap.value("controller_bus_writes_total") == 1
        assert snap.value("controller_wait_stalls_total") == 2
        assert snap.value("controller_mailbox_stalls_total") == 0
        assert (snap.value("controller_stalls_total")
                == snap.value("controller_wait_stalls_total"))

    def test_uncontrolled_system_omits_controller_family(self):
        system = RingSystem(make_ring(4))
        system.run(2)
        snap = system.metrics()
        assert snap.value("ring_cycles_total") == 2
        with pytest.raises(KeyError):
            snap.value("controller_cycles_total")

    def test_macro_windows_are_exported(self):
        """``OUT = 3 - OUT`` is native-refused: with a tap attached its
        steady state runs as macro windows, exported by path and
        reason."""
        ring = make_ring(4)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.SUB, Source.IMM, Source.SELF, Dest.OUT, imm=3))
        system = RingSystem(ring)
        system.data.add_tap(0, 0)
        system.run(12)
        snap = system.metrics()
        assert snap.value("system_cycles_total", path="bulk",
                          reason="macro") == 11
        assert snap.value("system_cycles_total", path="per_cycle",
                          reason="no_plan") == 1
        assert snap.value("macro_step_cycles_total") == 11
        assert ('repro_system_cycles_total{path="bulk",reason="macro"} 11'
                in snap.to_prometheus())

    def test_mailbox_stall_split(self):
        ctrl = RiscController([Instruction(ROp.INW, rd=1, ch=0),
                               Instruction(ROp.HALT)])
        ctrl.step()
        ctrl.step()
        assert ctrl.state.mailbox_stalls == 2
        assert ctrl.state.wait_stalls == 0
        assert ctrl.state.stalls == 2


class TestExportFormats:
    def test_json_round_trip(self):
        ring = busy_ring()
        ring.run(4)
        data = json.loads(collect_metrics(ring).to_json())
        assert data["ring_cycles_total"] == 4
        assert data["dnode_instructions_total"]["dnode=D0.0"] == 4

    def test_prometheus_text_format(self):
        ring = busy_ring()
        ring.run(4)
        text = collect_metrics(ring).to_prometheus()
        assert "# HELP repro_ring_cycles_total" in text
        assert "# TYPE repro_ring_cycles_total counter" in text
        assert "repro_ring_cycles_total 4" in text
        assert 'repro_dnode_instructions_total{dnode="D0.0"} 4' in text
        assert "# TYPE repro_ring_utilization gauge" in text
        assert text.endswith("\n")

    def test_prometheus_label_escaping(self):
        from repro.analysis.metrics import Metric, MetricsSnapshot
        snap = MetricsSnapshot([Metric(
            "weird", "gauge", "escape test",
            (((("name", 'a"b\\c'),), 1.0),))])
        line = [l for l in snap.to_prometheus().splitlines()
                if l.startswith("repro_weird{")][0]
        assert line == 'repro_weird{name="a\\"b\\\\c"} 1'

    def test_prometheus_help_escaping(self):
        """Regression: HELP text with a newline or backslash used to be
        emitted raw, splitting the line and corrupting the scrape."""
        from repro.analysis.metrics import Metric, MetricsSnapshot
        snap = MetricsSnapshot([Metric(
            "weird", "gauge", "first\nsecond \\ third", (((), 1.0),))])
        text = snap.to_prometheus()
        help_line = [l for l in text.splitlines()
                     if l.startswith("# HELP")][0]
        assert help_line == "# HELP repro_weird first\\nsecond \\\\ third"
        # One HELP, one TYPE, one sample — no orphan continuation line.
        assert len(text.splitlines()) == 3

    def test_prometheus_hostile_label_value(self):
        """Regression: a label value holding a newline, quote and
        backslash (e.g. a user-supplied name) must stay on one line."""
        from repro.analysis.metrics import Metric, MetricsSnapshot
        snap = MetricsSnapshot([Metric(
            "weird", "gauge", "escape test",
            (((("tenant", 'a\nb"c\\d'),), 2.0),))])
        lines = snap.to_prometheus().splitlines()
        sample = [l for l in lines if l.startswith("repro_weird{")][0]
        assert sample == 'repro_weird{tenant="a\\nb\\"c\\\\d"} 2'
        assert len(lines) == 3

    def test_floats_keep_precision_ints_render_bare(self):
        ring = busy_ring()
        ring.run(3)
        text = collect_metrics(ring).to_prometheus()
        line = [l for l in text.splitlines()
                if l.startswith("repro_ring_utilization ")][0]
        value = float(line.split()[-1])
        assert value == pytest.approx(2 / 8)  # 2 active Dnodes of Ring-8

    def test_snapshot_is_stable_after_more_cycles(self):
        ring = busy_ring()
        ring.run(2)
        snap = collect_metrics(ring)
        before = snap.value("ring_cycles_total")
        ring.run(5)
        assert snap.value("ring_cycles_total") == before
        assert collect_metrics(ring).value("ring_cycles_total") == 7
