"""Tests for the ring fabric and its clock engine."""

import pytest

from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry, make_ring
from repro.core.switch import PortSource
from repro.errors import ConfigurationError, SimulationError


def mov_out_in1():
    return MicroWord(Opcode.MOV, Source.IN1, dst=Dest.OUT)


class TestGeometry:
    def test_ring8_is_4x2(self):
        g = RingGeometry.ring(8)
        assert (g.layers, g.width, g.dnodes) == (4, 2, 8)

    def test_ring64_is_32x2(self):
        g = RingGeometry.ring(64)
        assert (g.layers, g.dnodes) == (32, 64)

    def test_custom_width(self):
        g = RingGeometry.ring(16, width=4)
        assert (g.layers, g.width) == (4, 4)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            RingGeometry.ring(9, width=2)

    def test_minimum_layers(self):
        with pytest.raises(ConfigurationError):
            RingGeometry(layers=1)

    def test_width_positive(self):
        with pytest.raises(ConfigurationError):
            RingGeometry(layers=4, width=0)

    def test_pipeline_depth_positive(self):
        with pytest.raises(ConfigurationError):
            RingGeometry(layers=4, width=2, pipeline_depth=0)


class TestStructure:
    def test_dnode_addressing(self, ring8):
        dn = ring8.dnode(3, 1)
        assert (dn.layer, dn.position) == (3, 1)

    def test_dnode_bounds(self, ring8):
        with pytest.raises(ConfigurationError):
            ring8.dnode(4, 0)
        with pytest.raises(ConfigurationError):
            ring8.dnode(0, 2)

    def test_switch_bounds(self, ring8):
        with pytest.raises(ConfigurationError):
            ring8.switch(4)

    def test_all_dnodes_count(self, ring8):
        assert len(ring8.all_dnodes()) == 8

    def test_upstream_wraps_around(self, ring8):
        assert ring8.upstream_layer(0) == 3
        assert ring8.upstream_layer(1) == 0


class TestDataflow:
    def test_systolic_advance_one_layer_per_cycle(self, ring8):
        cfg = ring8.config
        cfg.write_switch_route(0, 0, 1, PortSource.host(0))
        cfg.write_microword(0, 0, mov_out_in1())
        for k in range(1, 4):
            cfg.write_switch_route(k, 0, 1, PortSource.up(0))
            cfg.write_microword(k, 0, mov_out_in1())
        values = iter([7, 0, 0, 0, 0])
        ring8.run(4, host_in=lambda ch: next(values))
        # after 4 cycles the value reached layer 3
        assert ring8.dnode(3, 0).out == 7

    def test_ring_closure(self, ring8):
        """Data wraps from the last layer back to layer 0."""
        cfg = ring8.config
        for k in range(4):
            cfg.write_switch_route(k, 0, 1, PortSource.up(0))
            cfg.write_microword(k, 0, MicroWord(
                Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=1))
        # seed layer 3's output, then let the token circulate
        ring8.dnode(3, 0)._out = 100
        ring8.run(4)
        # token passed layers 0,1,2,3: +1 each
        assert ring8.dnode(3, 0).out == 104

    def test_bus_broadcast(self, ring8):
        for k in range(4):
            ring8.config.write_microword(k, 0, MicroWord(
                Opcode.MOV, Source.BUS, dst=Dest.OUT))
        ring8.step(bus=55)
        assert all(ring8.dnode(k, 0).out == 55 for k in range(4))

    def test_host_port_requires_reader(self, ring8):
        ring8.config.write_switch_route(0, 0, 1, PortSource.host(0))
        ring8.config.write_microword(0, 0, mov_out_in1())
        with pytest.raises(SimulationError, match="host"):
            ring8.step()

    def test_unrouted_port_reads_zero(self, ring8):
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=9))
        ring8.step()
        assert ring8.dnode(0, 0).out == 9

    def test_evaluation_order_independent(self):
        """Both lanes swap values through the switch simultaneously."""
        ring = make_ring(4)
        cfg = ring.config
        # layer 1 reads layer 0 crossed over
        cfg.write_switch_route(1, 0, 1, PortSource.up(1))
        cfg.write_switch_route(1, 1, 1, PortSource.up(0))
        cfg.write_microword(1, 0, mov_out_in1())
        cfg.write_microword(1, 1, mov_out_in1())
        ring.dnode(0, 0)._out = 1
        ring.dnode(0, 1)._out = 2
        ring.step()
        assert ring.dnode(1, 0).out == 2
        assert ring.dnode(1, 1).out == 1


class TestFifos:
    def test_push_and_consume(self, ring8):
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
        ring8.push_fifo(0, 0, 1, [10, 20])
        ring8.step()
        assert ring8.dnode(0, 0).out == 10
        ring8.step()
        assert ring8.dnode(0, 0).out == 20

    def test_peek_without_pop(self, ring8):
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT))
        ring8.push_fifo(0, 0, 1, [10, 20])
        ring8.run(2)
        assert ring8.dnode(0, 0).out == 10  # never popped

    def test_underflow_counts_by_default(self, ring8):
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
        ring8.step()
        assert ring8.dnode(0, 0).out == 0
        # Two distinct underflow events in the one cycle: the evaluate-phase
        # peek found the FIFO empty, and the commit-phase pop did too.  A
        # pop that underflows must not be billed as a delivered pop.
        assert ring8.fifo_underflows == 2
        assert ring8.dnode(0, 0).stats.fifo_pops == 0

    def test_pop_stats_count_only_real_dequeues(self, ring8):
        # One queued word, two pop cycles: exactly one pop landed; the
        # second cycle's peek and pop both underflow.
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
        ring8.push_fifo(0, 0, 1, [42])
        ring8.run(2)
        assert ring8.dnode(0, 0).stats.fifo_pops == 1
        assert ring8.fifo_underflows == 2

    def test_reset_keeps_fifo_handles_live(self, ring8):
        # reset() must clear the deques in place: a producer holding a
        # queue handle from fifo() keeps feeding the same Dnode afterwards.
        handle = ring8.fifo(0, 0, 1)
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
        ring8.push_fifo(0, 0, 1, [10, 20])
        ring8.step()
        ring8.reset()
        assert ring8.fifo(0, 0, 1) is handle
        assert len(handle) == 0
        handle.append(33)
        ring8.step()
        assert ring8.dnode(0, 0).out == 33
        assert ring8.fifo_underflows == 0

    def test_strict_underflow_raises(self):
        ring = Ring(RingGeometry.ring(8), strict_fifos=True)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.FIFO1, dst=Dest.OUT))
        with pytest.raises(SimulationError, match="empty FIFO"):
            ring.step()

    def test_channel_validation(self, ring8):
        with pytest.raises(ConfigurationError):
            ring8.push_fifo(0, 0, 3, [1])

    def test_push_validates_values(self, ring8):
        with pytest.raises(ValueError):
            ring8.push_fifo(0, 0, 1, [-5])

    def test_single_int_push(self, ring8):
        ring8.push_fifo(0, 0, 1, 7)
        assert list(ring8.fifo(0, 0, 1)) == [7]

    @pytest.mark.parametrize("bad", [-5, 0x10000, 3.0, "7", None])
    def test_bad_word_message_and_partial_push(self, ring8, bad):
        """A block with one bad word falls back to word-by-word checks:
        the words before it land, and the message names the bad word."""
        with pytest.raises(ValueError) as err:
            ring8.push_fifo(0, 0, 1, [1, 0xFFFF, bad, 4])
        assert str(err.value) == \
            f"FIFO push must be a 16-bit raw word, got {bad!r}"
        assert list(ring8.fifo(0, 0, 1)) == [1, 0xFFFF]

    def test_bools_and_int_subclasses_still_accepted(self, ring8):
        class Raw(int):
            pass
        values = [True, Raw(513), 0, False, 0xFFFF]
        ring8.push_fifo(0, 0, 2, values)
        queue = ring8.fifo(0, 0, 2)
        assert list(queue) == [1, 513, 0, 0, 0xFFFF]
        # Stored as pushed, exactly as the per-word check leaves them.
        assert [type(v) for v in queue] == [bool, Raw, int, bool, int]

    def test_block_push_updates_high_water(self, ring8):
        ring8.push_fifo(0, 0, 1, range(300))
        assert len(ring8.fifo(0, 0, 1)) == 300
        assert ring8.fifo_high_water[(0, 0, 1)] == 300


class TestEngine:
    def test_cycle_counter(self, ring8):
        ring8.run(5)
        assert ring8.cycles == 5

    def test_negative_cycles_rejected(self, ring8):
        with pytest.raises(SimulationError):
            ring8.run(-1)

    def test_trace_callback(self, ring8):
        seen = []
        ring8.set_trace(lambda r: seen.append(r.cycles))
        ring8.run(3)
        assert seen == [1, 2, 3]

    def test_reset_preserves_configuration(self, ring8):
        mw = MicroWord(Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=3)
        ring8.config.write_microword(0, 0, mw)
        ring8.config.write_mode(0, 0, DnodeMode.LOCAL)
        ring8.run(2)
        ring8.reset()
        assert ring8.cycles == 0
        assert ring8.dnode(0, 0).global_word == mw
        assert ring8.dnode(0, 0).mode is DnodeMode.LOCAL

    def test_bus_validated(self, ring8):
        with pytest.raises(ValueError):
            ring8.step(bus=-1)


class TestStatistics:
    def test_utilization_zero_when_idle(self, ring8):
        ring8.run(4)
        assert ring8.utilization() == 0.0

    def test_utilization_counts_active_dnodes(self, ring8):
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.ADD, Source.ZERO, Source.IMM, Dest.OUT, imm=1))
        ring8.run(4)
        assert ring8.utilization() == pytest.approx(1 / 8)
        assert ring8.instructions_executed == 4

    def test_arithmetic_ops_counts_dual(self, ring8):
        ring8.config.write_microword(0, 0, MicroWord(
            Opcode.MAC, Source.ZERO, Source.ZERO, Dest.R0))
        ring8.run(2)
        assert ring8.arithmetic_ops_executed == 4

    def test_utilization_before_run(self, ring8):
        assert ring8.utilization() == 0.0

    def test_repr(self, ring8):
        assert "Ring-8" in repr(ring8)
