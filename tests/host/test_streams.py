"""Tests for the data controller: stream channels and output taps."""

import re

import numpy as np
import pytest

from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import PortSource, make_ring
from repro.host.streams import (
    BatchOutputTap,
    BatchStreamChannel,
    DataController,
    OutputTap,
    StreamChannel,
)
from repro.errors import ConfigurationError, HostError


class TestStreamChannel:
    def test_presents_head_until_advance(self):
        ch = StreamChannel([1, 2, 3])
        assert ch.current() == 1
        assert ch.current() == 1
        ch.advance()
        assert ch.current() == 2

    def test_underrun_presents_idle(self):
        ch = StreamChannel(idle_value=9)
        assert ch.current() == 9
        assert ch.underruns == 1

    def test_advance_on_empty_is_noop(self):
        ch = StreamChannel()
        ch.advance()
        assert ch.delivered == 0

    def test_delivered_counter(self):
        ch = StreamChannel([1, 2])
        ch.advance()
        ch.advance()
        ch.advance()
        assert ch.delivered == 2

    def test_push_single_int(self):
        ch = StreamChannel()
        ch.push(5)
        assert ch.pending() == 1

    def test_push_validates(self):
        with pytest.raises(ValueError):
            StreamChannel([70000])

    def test_bad_word_mid_block_keeps_the_partial_push(self):
        """A block push with a bad word raises what a word-by-word push
        would, after queueing the words in front of it."""
        ch = StreamChannel([9])
        with pytest.raises(ValueError, match=re.escape(
                "stream word must be a 16-bit raw word, got 70000")):
            ch.push([1, 2, 70000, 3])
        assert list(ch._queue) == [9, 1, 2]
        with pytest.raises(ValueError, match="got 2.0"):
            ch.push([4, 2.0])
        assert list(ch._queue) == [9, 1, 2, 4]


class TestOutputTap:
    def test_collects_in_order(self):
        tap = OutputTap(0, 0)
        for v in (1, 2, 3):
            tap.observe(v)
        assert tap.samples == [1, 2, 3]

    def test_skip(self):
        tap = OutputTap(0, 0, skip=2)
        for v in (1, 2, 3, 4):
            tap.observe(v)
        assert tap.samples == [3, 4]

    def test_every(self):
        tap = OutputTap(0, 0, every=3)
        for v in range(9):
            tap.observe(v)
        assert tap.samples == [0, 3, 6]

    def test_skip_and_every_combined(self):
        tap = OutputTap(0, 0, skip=1, every=2)
        for v in range(8):
            tap.observe(v)
        assert tap.samples == [1, 3, 5, 7]

    def test_limit(self):
        tap = OutputTap(0, 0, limit=2)
        for v in range(5):
            tap.observe(v)
        assert tap.samples == [0, 1]
        assert tap.full

    def test_unlimited_never_full(self):
        tap = OutputTap(0, 0)
        tap.observe(1)
        assert not tap.full

    def test_unlimited_cycles_to_full_names_the_tap(self):
        with pytest.raises(HostError, match=r"OutputTap\(D1\.2.*no limit"):
            OutputTap(1, 2).cycles_to_full()

    def test_validation(self):
        with pytest.raises(HostError):
            OutputTap(0, 0, skip=-1)
        with pytest.raises(HostError):
            OutputTap(0, 0, every=0)
        with pytest.raises(HostError):
            OutputTap(0, 0, limit=-1)


class TestDataController:
    def test_channels_created_on_demand(self):
        dc = DataController()
        assert dc.channel(3).pending() == 0

    def test_channel_index_validated(self):
        with pytest.raises(HostError):
            DataController().channel(-1)

    def test_host_in_reads_current(self):
        dc = DataController()
        dc.stream(0, [7, 8])
        assert dc.host_in(0) == 7

    def test_advance_moves_all_channels(self):
        dc = DataController()
        dc.stream(0, [1, 2])
        dc.stream(1, [10, 20])
        dc.advance()
        assert dc.host_in(0) == 2
        assert dc.host_in(1) == 20

    def test_collect_samples_dnode_out(self):
        ring = make_ring(4)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.IMM, dst=Dest.OUT, imm=42))
        dc = DataController()
        tap = dc.add_tap(0, 0)
        ring.step()
        dc.collect(ring)
        assert tap.samples == [42]

    def test_word_counters(self):
        dc = DataController()
        dc.stream(0, [1, 2, 3])
        dc.advance()
        dc.advance()
        tap = dc.add_tap(0, 0)
        tap.observe(5)
        assert dc.total_words_in() == 2
        assert dc.total_words_out() == 1


class TestUnderrunOncePerCycle:
    """A dry port is level-sensitive: however many agents read it within
    one cycle, it counts at most one underrun until the next clock edge.
    Regression for the double-count bug where every ``current()`` on a
    dry channel bumped the counter."""

    def test_scalar_repeated_reads_count_one(self):
        ch = StreamChannel(idle_value=9)
        for _ in range(5):
            assert ch.current() == 9
        assert ch.underruns == 1
        ch.advance()
        ch.current()
        ch.current()
        assert ch.underruns == 2

    def test_scalar_underrun_resets_when_words_arrive(self):
        ch = StreamChannel()
        ch.current()
        ch.push(7)
        assert ch.current() == 7
        ch.advance()
        ch.current()
        assert ch.underruns == 2

    def test_batch_repeated_reads_count_one_per_lane(self):
        ch = BatchStreamChannel(3)
        ch.push([1, 2], lane=0)
        ch.current()
        ch.current()
        assert ch.underruns == [0, 1, 1]
        ch.advance()
        for _ in range(3):
            ch.current()
        assert ch.underruns == [0, 2, 2]
        ch.advance()
        ch.current()
        assert ch.underruns == [1, 3, 3]

    def test_fanned_out_host_route_counts_once_per_cycle(self):
        """One HOST channel routed into both switch ports of a Dnode is
        read twice per fabric cycle; the dry channel must still count
        exactly one underrun per cycle of the traced run."""
        ring = make_ring(4)
        ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
        ring.config.write_switch_route(0, 0, 2, PortSource.host(0))
        dc = DataController()
        dc.channel(0)  # materialize the dry channel
        dc.add_tap(0, 0)  # force per-cycle servicing through the system
        from repro.host.system import RingSystem
        system = RingSystem(ring)
        system.data = dc
        system.run(6)
        assert dc.channel(0).underruns == 6


class TestCaptureStateIsDeepCopy:
    """capture_state must hand back fully decoupled state: mutating the
    checkpoint never leaks into the live controller and vice versa."""

    def test_scalar_checkpoint_is_decoupled(self):
        dc = DataController()
        dc.stream(0, [1, 2, 3])
        tap = dc.add_tap(0, 0)
        tap.observe(42)
        state = dc.capture_state()
        state["channels"][0]["queue"].append(999)
        state["taps"][0]["samples"].append(999)
        assert dc.channel(0).pending() == 3
        assert tap.samples == [42]
        dc.channel(0).advance()
        tap.observe(43)
        assert state["channels"][0]["queue"] == [1, 2, 3, 999]
        assert state["taps"][0]["samples"] == [42, 999]

    def test_batch_checkpoint_is_decoupled(self):
        dc = DataController(batch=2)
        dc.stream(0, [5, 6])
        tap = dc.add_tap(0, 0)
        tap.observe([10, 20])
        state = dc.capture_state()
        state["channels"][0]["lanes"][1].append(999)
        state["taps"][0]["samples"][0].append(999)
        assert dc.channel(0).lane_pending(1) == 2
        assert tap.lane(0) == [10]

    def test_batch_checkpoint_format_is_plain_lists(self):
        """A batch checkpoint is plain lists of ints, so one written
        before lanes kept arrays restores and captures back unchanged."""
        state = {"channels": {0: {"lanes": [[1, 2], [3]],
                                  "delivered": [4, 5],
                                  "underruns": [0, 1]}},
                 "taps": [{"samples": [[7, 9], [8, 6]], "seen": 3}]}
        dc = DataController(batch=2)
        tap = dc.add_tap(0, 0)
        dc.restore_state(state)
        assert dc.capture_state() == state
        ch = dc.channel(0)
        assert ch.delivered == [4, 5] and ch.underruns == [0, 1]
        assert ch.current().tolist() == [1, 3]
        assert tap.lane(1) == [8, 6]
        assert {type(v) for v in ch.delivered + tap.samples[0]} == {int}

    def test_restore_decouples_from_checkpoint(self):
        dc = DataController()
        dc.stream(0, [1, 2])
        state = dc.capture_state()
        dc.restore_state(state)
        state["channels"][0]["queue"].append(999)
        assert dc.channel(0).pending() == 2


class TestBatchTapArrays:
    """A batch tap keeps what its schedule picks as arrays: ``array()``
    joins window blocks and per-cycle rows as ``(lanes, n)``, while
    ``samples`` and ``lane()`` give plain ints."""

    def test_windows_and_cycles_join_in_order(self):
        tap = BatchOutputTap(2, 0, 0, skip=1, every=2, limit=4)
        tap.observe_window(np.array([[1, 10], [2, 20], [3, 30]]))
        tap.observe(np.array([4, 40]))
        tap.observe_window(np.array([[5, 50], [6, 60], [7, 70], [8, 80],
                                     [9, 90], [10, 100]]))
        assert tap.array().tolist() == [[2, 4, 6, 8], [20, 40, 60, 80]]
        assert tap.samples == [[2, 4, 6, 8], [20, 40, 60, 80]]
        assert [type(v) for v in tap.lane(1)] == [int] * 4
        assert tap.full and tap.sample_count == 8

    def test_array_is_a_read_only_lane_block(self):
        tap = BatchOutputTap(3, 0, 0)
        assert tap.array().shape == (3, 0)
        assert tap.samples == [[], [], []]
        tap.observe_window(np.arange(6).reshape(2, 3))
        assert tap.array().tolist() == [[0, 3], [1, 4], [2, 5]]
        with pytest.raises(ValueError):
            tap.array()[0, 0] = 9

    def test_unlimited_cycles_to_full_names_the_tap(self):
        with pytest.raises(HostError,
                           match=r"BatchOutputTap\(D1\.2.*no limit"):
            BatchOutputTap(2, 1, 2).cycles_to_full()

    def test_checkpoint_round_trip(self):
        dc = DataController(batch=2)
        tap = dc.add_tap(0, 0)
        tap.observe_window(np.array([[1, 2], [3, 4]]))
        state = dc.capture_state()
        tap.observe([5, 6])
        dc.restore_state(state)
        assert tap.array().tolist() == [[1, 3], [2, 4]]
        tap.observe([7, 8])
        assert tap.lane(0) == [1, 3, 7]
        assert state["taps"][0]["samples"] == [[1, 3], [2, 4]]


class TestSettleAccounting:
    """settle() == the same number of live read + advance() clocks."""

    def _live_twin(self, batch: int):
        dc = DataController(batch=batch)
        dc.stream(0, [1, 2, 3])
        if batch > 1:
            dc.stream(1, [4], lane=0)
        else:
            dc.stream(1, [4])
        return dc

    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_per_cycle_advance(self, batch):
        cycles = 5
        live = self._live_twin(batch)
        for _ in range(cycles):
            live.host_in(0)
            live.host_in(1)
            live.advance()
        chunked = self._live_twin(batch)
        chunked.settle(cycles, routed={0, 1})
        for index in (0, 1):
            a, b = live.channel(index), chunked.channel(index)
            assert a.delivered == b.delivered
            assert a.underruns == b.underruns
            assert a.pending() == b.pending()

    def test_unrouted_channels_advance_without_underruns(self):
        dc = self._live_twin(1)
        dc.settle(6, routed={0})
        assert dc.channel(1).delivered == 1
        assert dc.channel(1).underruns == 0
        assert dc.channel(0).underruns == 3

    def test_rejects_negative_executed(self):
        with pytest.raises(HostError):
            DataController().settle(-1, routed=())


class TestBatchPushValidation:
    """Batch pushes validate a block in one pass; a bad word still
    raises the per-word message and queues nothing."""

    @pytest.mark.parametrize("values", [
        [1, 70000, 3],
        np.array([1, 70000, 3], dtype=np.int64),
    ], ids=["list", "ndarray"])
    def test_stream_push_message(self, values):
        ch = BatchStreamChannel(2)
        with pytest.raises(ValueError, match=re.escape(
                "stream word must be a 16-bit raw word, got 70000")):
            ch.push(values, lane=1)
        assert ch.pending() == 0

    @pytest.mark.parametrize("values", [
        [1, -1, 3],
        np.array([1, -1, 3], dtype=np.int64),
    ], ids=["list", "ndarray"])
    def test_fifo_push_message(self, values):
        ring = make_ring(4, backend="batch", batch_size=2)
        with pytest.raises(ValueError, match=re.escape(
                "FIFO push must be a 16-bit raw word, got -1")):
            ring.batch.push_fifo(0, 0, 1, values, lane=0)
        assert ring.batch.fifo_contents(0, 0, 1, 0) == []

    def test_int64_arrays_queue_plain_ints(self):
        ring = make_ring(4, backend="batch", batch_size=2)
        ring.batch.push_fifo(0, 0, 2, np.array([0, 0xFFFF]), lane=1)
        assert ring.batch.fifo_contents(0, 0, 2, 1) == [0, 0xFFFF]
        ch = BatchStreamChannel(2)
        ch.push(np.array([7, 0xFFFF], dtype=np.int64))
        assert [type(v) for v in ch.lane_words(0)] == [int, int]
        assert ch.current().tolist() == [7, 7]


class TestBlockLaneLoads:
    """A 2-D ``(lanes, n)`` block queues row i on lane i in one call; it
    is range-checked whole, so a bad word queues nothing anywhere."""

    def test_stream_block_fills_each_lane(self):
        ch = BatchStreamChannel(3)
        ch.push(np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64))
        assert [ch.lane_words(lane) for lane in range(3)] == \
            [[1, 2], [3, 4], [5, 6]]
        assert [type(v) for v in ch.lane_words(2)] == [int, int]
        assert ch.current().tolist() == [1, 3, 5]

    def test_fifo_block_fills_each_lane(self):
        ring = make_ring(4, backend="batch", batch_size=3)
        ring.batch.push_fifo(0, 0, 1, [9], lane=1)
        ring.batch.push_fifo(0, 0, 1, np.arange(6).reshape(3, 2))
        assert [ring.batch.fifo_contents(0, 0, 1, lane)
                for lane in range(3)] == [[0, 1], [9, 2, 3], [4, 5]]

    def test_fifo_block_grows_past_the_lane_capacity(self):
        ring = make_ring(4, backend="batch", batch_size=2)
        block = np.arange(40).reshape(2, 20)
        ring.batch.push_fifo(0, 0, 2, block)
        assert [ring.batch.fifo_contents(0, 0, 2, lane)
                for lane in range(2)] == block.tolist()

    def test_data_controller_streams_a_block(self):
        data = DataController(batch=2)
        data.stream(0, np.array([[1, 2, 3], [4, 5, 6]]))
        assert data.channel(0).current().tolist() == [1, 4]

    @pytest.mark.parametrize("block", [
        np.array([[1, 2], [3, 70000]], dtype=np.int64),
        [[1, 2], [3, 70000]],
    ], ids=["ndarray", "lists"])
    def test_bad_word_queues_nothing(self, block):
        ch = BatchStreamChannel(2)
        with pytest.raises(ValueError, match=re.escape(
                "stream word must be a 16-bit raw word, got 70000")):
            ch.push(block)
        assert ch.pending() == 0
        ring = make_ring(4, backend="batch", batch_size=2)
        with pytest.raises(ValueError, match=re.escape(
                "FIFO push must be a 16-bit raw word, got 70000")):
            ring.batch.push_fifo(0, 0, 1, block)
        assert [ring.batch.fifo_contents(0, 0, 1, lane)
                for lane in range(2)] == [[], []]

    def test_block_needs_one_row_per_lane(self):
        with pytest.raises(HostError, match="one row per lane"):
            BatchStreamChannel(3).push(np.zeros((2, 4), np.int64))
        with pytest.raises(HostError, match="one row per lane"):
            BatchStreamChannel(2).push(np.zeros((2, 4), np.int64), lane=0)
        ring = make_ring(4, backend="batch", batch_size=3)
        with pytest.raises(ConfigurationError, match="one row per lane"):
            ring.batch.push_fifo(0, 0, 1, np.zeros((2, 4), np.int64))


class TestNumpyIntegerScalars:
    """A NumPy integer scalar is one word at every push entry point."""

    def test_ring_push_fifo(self):
        ring = make_ring(4)
        ring.push_fifo(0, 0, 1, np.int64(5))
        ring.push_fifo(0, 0, 1, [np.uint16(6)])
        assert list(ring.fifo(0, 0, 1)) == [5, 6]
        assert [type(v) for v in ring.fifo(0, 0, 1)] == [int, int]

    def test_stream_channel_push(self):
        ch = StreamChannel()
        ch.push(np.int64(5))
        ch.push(np.array([6, 7], dtype=np.int32))
        assert list(ch._queue) == [5, 6, 7]
        assert [type(v) for v in ch._queue] == [int, int, int]

    def test_batch_stream_channel_push(self):
        ch = BatchStreamChannel(2)
        ch.push(np.int64(5))
        ch.push(np.int32(6), lane=1)
        assert [ch.lane_words(lane) for lane in range(2)] == [[5], [5, 6]]

    def test_batch_ring_push_fifo(self):
        ring = make_ring(4, backend="batch", batch_size=2)
        ring.batch.push_fifo(0, 0, 1, np.int64(5))
        ring.batch.push_fifo(0, 0, 1, np.int16(6), lane=0)
        assert [ring.batch.fifo_contents(0, 0, 1, lane)
                for lane in range(2)] == [[5, 6], [5]]

    @pytest.mark.parametrize("push", [
        lambda v: make_ring(4).push_fifo(0, 0, 1, v),
        lambda v: StreamChannel().push(v),
        lambda v: BatchStreamChannel(2).push(v),
        lambda v: make_ring(4, backend="batch",
                            batch_size=2).batch.push_fifo(0, 0, 1, v),
    ], ids=["ring", "stream", "batch_stream", "batch_fifo"])
    def test_out_of_range_scalar_raises_the_word_message(self, push):
        with pytest.raises(ValueError, match="got 70000"):
            push(np.int64(70000))
