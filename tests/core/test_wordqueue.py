"""The WordQueue behind ring FIFOs and host streams: the deque subset
its callers use, its block operations and its storage policy; and the
LaneQueue behind batch lane FIFOs and lane streams, against one deque
per lane."""

from __future__ import annotations

import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import make_ring
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.snapshot import capture, restore
from repro.core.wordqueue import LaneQueue, WordQueue
from repro.host.streams import DataController


class TestDequeSubset:
    def test_len_truth_and_iteration(self):
        q = WordQueue()
        assert len(q) == 0 and not q
        assert list(q) == []
        q.extend([3, 1, 4])
        assert len(q) == 3 and q
        assert list(q) == [3, 1, 4]
        assert [type(v) for v in q] == [int, int, int]

    def test_indexing_including_negative(self):
        q = WordQueue([10, 20, 30, 40])
        q.popleft()
        assert [q[0], q[1], q[2]] == [20, 30, 40]
        assert [q[-1], q[-2], q[-3]] == [40, 30, 20]
        assert type(q[0]) is int
        for bad in (3, -4):
            with pytest.raises(IndexError):
                q[bad]

    def test_setitem_flips_a_queued_word(self):
        q = WordQueue([1, 2, 3])
        q[1] ^= 0x8000
        q[-1] = 7
        assert list(q) == [1, 0x8002, 7]
        with pytest.raises(IndexError):
            q[3] = 0

    def test_popleft_and_empty_popleft(self):
        q = WordQueue([5, 6])
        assert q.popleft() == 5
        assert q.popleft() == 6
        with pytest.raises(IndexError, match="empty"):
            q.popleft()
        with pytest.raises(IndexError):
            WordQueue().popleft()

    def test_append_and_clear(self):
        q = WordQueue()
        q.append(9)
        q.append(0xFFFF)
        assert list(q) == [9, 0xFFFF]
        q.clear()
        assert not q and list(q) == []
        q.append(4)
        assert q.peek() == 4

    def test_extend_takes_arrays_iterables_and_queues(self):
        q = WordQueue()
        q.extend(np.array([1, 2], np.uint16))
        q.extend(v for v in (3, 4))
        q.extend(WordQueue([5]))
        q.extend(q)
        assert list(q) == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]


class TestBlockOperations:
    def test_view_is_a_read_only_slice_clipped_to_the_tail(self):
        q = WordQueue([1, 2, 3, 4, 5])
        q.drop(1)
        assert q.view().tolist() == [2, 3, 4, 5]
        assert q.view(1, 2).tolist() == [3, 4]
        assert q.view(2, 10).tolist() == [4, 5]
        assert q.view(7, 3).tolist() == []
        with pytest.raises(ValueError):
            q.view()[0] = 9

    @pytest.mark.parametrize("start, step, want", [
        (0, 1, [2, 3, 4, 5, 0]), (1, 2, [3, 5, 0, 0, 0]),
        (3, 1, [5, 0, 0, 0, 0]), (4, 1, [0, 0, 0, 0, 0]),
        (1, 0, [3, 3, 3, 3, 3]), (9, 0, [0, 0, 0, 0, 0])])
    def test_gather_into_fills_past_the_tail(self, start, step, want):
        q = WordQueue([1, 2, 3, 4, 5])
        q.drop(1)
        out = np.full(5, -1, np.int64)
        q.gather_into(out, start, step)
        assert out.tolist() == want
        assert list(q) == [2, 3, 4, 5]

    def test_drop_returns_how_many_went(self):
        q = WordQueue([1, 2, 3])
        assert q.drop(2) == 2
        assert list(q) == [3]
        assert q.drop(5) == 1
        assert q.drop(1) == 0
        assert not q

    def test_peek(self):
        q = WordQueue()
        assert q.peek() is None
        q.push([0, 7])
        assert q.peek() == 0
        q.drop(1)
        assert q.peek() == 7

    @pytest.mark.parametrize("values", [
        [1, 2, 3], (1, 2, 3), range(1, 4), np.array([1, 2, 3], np.int16),
        np.array([1, 2, 3], np.uint64), [np.int64(1), np.uint16(2), 3],
        iter([1, 2, 3]), [True, 2, 3],
    ], ids=["list", "tuple", "range", "int16", "uint64", "np_scalars",
            "iterator", "bool"])
    def test_push_forms(self, values):
        q = WordQueue([0])
        pushed = q.push(values, "w")
        assert list(q) == [0, 1, 2, 3]
        assert pushed.tolist() == [1, 2, 3]

    def test_push_scalars(self):
        q = WordQueue()
        q.push(np.int64(5), "w")
        q.push(np.uint16(6), "w")
        q.push(7, "w")
        q.push(True, "w")
        assert list(q) == [5, 6, 7, 1]

    @pytest.mark.parametrize("bad", [-5, 0x10000, 3.0, "7", None, 2 ** 70])
    def test_bad_word_in_a_list_keeps_the_partial_push(self, bad):
        q = WordQueue([9])
        with pytest.raises(ValueError) as err:
            q.push([1, 0xFFFF, bad, 4], "w")
        assert str(err.value) == f"w must be a 16-bit raw word, got {bad!r}"
        assert list(q) == [9, 1, 0xFFFF]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32])
    def test_bad_word_in_an_array_keeps_the_partial_push(self, dtype):
        q = WordQueue()
        with pytest.raises(ValueError, match=re.escape(
                "w must be a 16-bit raw word, got 70000")):
            q.push(np.array([1, 2, 70000, 3], dtype), "w")
        assert list(q) == [1, 2]

    def test_bad_scalar_pushes_nothing(self):
        q = WordQueue([1])
        with pytest.raises(ValueError, match="got 70000"):
            q.push(np.int64(70000), "w")
        with pytest.raises(ValueError, match="got -1"):
            q.push(-1, "w")
        assert list(q) == [1]


class TestStorage:
    def test_first_push_is_sized_to_the_block(self):
        q = WordQueue()
        q.push(np.arange(4096))
        assert len(q._buf) == 4096

    def test_growth_is_geometric(self):
        q = WordQueue()
        for k in range(100):
            q.append(k)
        assert len(q._buf) <= 2 * 100
        assert list(q) == list(range(100))

    def test_push_after_the_head_passed_half_compacts_in_place(self):
        q = WordQueue(range(8))
        buf = q._buf
        q.drop(6)
        q.push([8, 9, 10])
        assert q._buf is buf
        assert q._head == 0
        assert list(q) == [6, 7, 8, 9, 10]

    @pytest.mark.parametrize("drop", [0, 5])
    def test_pushing_its_own_view_while_making_room(self, drop):
        q = WordQueue(range(8))
        q.drop(drop)
        q.push(q.view())
        q.extend(q.view(0, 2))
        live = list(range(drop, 8))
        assert list(q) == live + live + live[:2]

    def test_draining_rewinds_the_head(self):
        q = WordQueue(range(4))
        q.drop(4)
        assert (q._head, q._tail) == (0, 0)

    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("push"), st.lists(st.integers(0, 0xFFFF),
                                            max_size=40)),
        st.tuples(st.just("drop"), st.integers(0, 50)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("append"), st.integers(0, 0xFFFF))),
        max_size=60))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_interleaved_push_and_drop_match_a_deque(self, ops):
        q, ref, peak = WordQueue(), deque(), 1
        for op, arg in ops:
            if op == "push":
                q.push(np.asarray(arg, np.int64) if len(arg) % 2 else arg)
                ref.extend(arg)
            elif op == "drop":
                went = min(arg, len(ref))
                assert q.drop(arg) == went
                for _ in range(went):
                    ref.popleft()
            elif op == "pop":
                if ref:
                    assert q.popleft() == ref.popleft()
                else:
                    with pytest.raises(IndexError):
                        q.popleft()
            else:
                q.append(arg)
                ref.append(arg)
            assert list(q) == list(ref)
            assert len(q) == len(ref)
            # A push grows the buffer only when the live words fill over
            # half of it (or the head has not passed half), to at most
            # twice its size: never past 4x the most words ever queued.
            peak = max(peak, len(ref))
            assert len(q._buf) <= 4 * peak


def _lanes(q: LaneQueue):
    return [q.lane_view(lane).tolist() for lane in range(q.lanes)]


def _model_gather(ref, start, n, step, fill):
    """What ``gather`` should return, off one deque per lane."""
    return [[lane[start + step * t] if start + step * t < len(lane)
             else fill for lane in map(list, ref)] for t in range(n)]


class TestLaneQueue:
    """One ``(capacity, lanes)`` buffer with a shared head and a count
    per lane: pushes, windows past each lane's count, pops on lanes
    that ran dry, and growth and compaction."""

    def test_pushes_in_every_form(self):
        q = LaneQueue(3)
        q.push([1, 2])
        q.push(np.int64(3), lane=1)
        q.push(np.array([[4], [5], [6]]))
        q.push([[7], [], [8, 9]])
        assert _lanes(q) == [[1, 2, 4, 7], [1, 2, 3, 5], [1, 2, 6, 8, 9]]
        assert q.count.tolist() == [4, 4, 5]
        assert all(type(v) is int for v in q.lane_view(2).tolist())

    @pytest.mark.parametrize("values, lane", [
        ([1, 70000], None), (np.array([1, -1]), 0),
        ([[1, 2], [3, 70000]], None)])
    def test_a_bad_word_queues_nothing(self, values, lane):
        q = LaneQueue(2)
        q.push([9])
        with pytest.raises(ValueError, match="16-bit raw word"):
            q.push(values, lane, "FIFO push")
        assert _lanes(q) == [[9], [9]]

    def test_gather_fills_past_each_lane_count(self):
        q = LaneQueue(3)
        q.push([[1, 2, 3, 4], [5], []])
        assert q.gather(0, 5, fill=7).tolist() == [
            [1, 5, 7], [2, 7, 7], [3, 7, 7], [4, 7, 7], [7, 7, 7]]
        assert q.gather(1, 2, step=2).tolist() == [[2, 0, 0], [4, 0, 0]]
        assert q.gather(0, 3, step=0).tolist() == [[1, 5, 0]] * 3
        assert q.gather(0, 0).shape == (0, 3)

    def test_gather_of_full_lanes_is_a_copy(self):
        q = LaneQueue(2)
        q.push(np.arange(8).reshape(2, 4))
        window = q.gather(1, 2)
        window[:] = 0
        assert _lanes(q) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_pops_on_empty_lanes(self):
        q = LaneQueue(3)
        q.push([[1, 2, 3], [4], []])
        assert q.drop(2).tolist() == [2, 1, 0]
        assert _lanes(q) == [[3], [], []]
        # A lane that ran dry queues its next words at the shared head.
        q.push([8], lane=1)
        q.push([[], [], [9]])
        assert _lanes(q) == [[3], [8], [9]]
        assert q.peek(5)[0].tolist() == [3, 8, 9]
        assert q.drop(1).tolist() == [1, 1, 1]
        values, empty = q.peek(5)
        assert values.tolist() == [5, 5, 5] and empty.all()
        assert q.drop(4).tolist() == [0, 0, 0]
        assert q._head == 0

    def test_peek_fills_empty_lanes(self):
        q = LaneQueue(2)
        q.push([6], lane=1)
        values, empty = q.peek()
        assert values.tolist() == [0, 6]
        assert empty.tolist() == [True, False]

    def test_first_push_is_sized_to_the_block(self):
        q = LaneQueue(4)
        q.push(np.zeros((4, 100), np.int64))
        assert q._buf.shape == (100, 4)

    def test_growth_under_a_shared_head(self):
        q = LaneQueue(2)
        q.push([[1, 2, 3, 4], [5, 6]])
        q.drop(1)
        q.push([[7, 8, 9], [10]])
        assert len(q._buf) == 8
        assert q._head == 0
        assert _lanes(q) == [[2, 3, 4, 7, 8, 9], [6, 10]]

    def test_push_after_the_head_passed_half_compacts_in_place(self):
        q = LaneQueue(2)
        q.push([[1, 2, 3, 4, 5, 6, 7, 8], [1, 2]])
        buf = q._buf
        q.drop(6)
        q.push([[9, 10], [11, 12, 13]])
        assert q._buf is buf
        assert q._head == 0
        assert _lanes(q) == [[7, 8, 9, 10], [11, 12, 13]]

    def test_lane_view_writes_through(self):
        q = LaneQueue(2)
        q.push([[1, 2], [3]])
        q.lane_view(0)[1] ^= 0x8000
        assert _lanes(q) == [[1, 0x8002], [3]]
        q.clear()
        assert _lanes(q) == [[], []] and q._head == 0

    @given(lanes=st.integers(1, 4), ops=st.lists(st.one_of(
        st.tuples(st.just("rows"), st.lists(
            st.lists(st.integers(0, 0xFFFF), max_size=12),
            min_size=4, max_size=4)),
        st.tuples(st.just("all"), st.lists(st.integers(0, 0xFFFF),
                                           max_size=12)),
        st.tuples(st.just("lane"), st.tuples(
            st.integers(0, 3), st.lists(st.integers(0, 0xFFFF),
                                        max_size=12))),
        st.tuples(st.just("drop"), st.integers(0, 16)),
        st.tuples(st.just("gather"), st.tuples(
            st.integers(0, 8), st.integers(0, 10), st.integers(0, 3)))),
        max_size=50))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_interleaved_ops_match_one_deque_per_lane(self, lanes, ops):
        q = LaneQueue(lanes)
        ref = [deque() for _ in range(lanes)]
        peak = 1
        for op, arg in ops:
            if op == "rows":
                rows = arg[:lanes]
                if len({len(row) for row in rows}) == 1:
                    q.push(np.array(rows, np.int64).reshape(lanes, -1))
                else:
                    q.push(rows)
                for lane, row in zip(ref, rows):
                    lane.extend(row)
            elif op == "all":
                q.push(np.array(arg, np.int64) if len(arg) % 2 else arg)
                for lane in ref:
                    lane.extend(arg)
            elif op == "lane":
                lane, words = arg
                lane %= lanes
                q.push(words, lane)
                ref[lane].extend(words)
            elif op == "drop":
                went = [min(arg, len(lane)) for lane in ref]
                assert q.drop(arg).tolist() == went
                for lane, k in zip(ref, went):
                    for _ in range(k):
                        lane.popleft()
            else:
                start, n, step = arg
                assert q.gather(start, n, step, fill=0xBEEF).tolist() == \
                    _model_gather(ref, start, n, step, 0xBEEF)
            assert _lanes(q) == [list(lane) for lane in ref]
            assert q.count.tolist() == [len(lane) for lane in ref]
            peak = max([peak] + [len(lane) for lane in ref])
            assert len(q._buf) <= 4 * peak


def _fifo_ring():
    ring = make_ring(8)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
    return ring


class TestHeldHandles:
    """``ring.fifo()`` hands out the queue the Dnode reads, for good."""

    def test_handle_stays_live_across_reset(self):
        ring = _fifo_ring()
        handle = ring.fifo(0, 0, 1)
        ring.push_fifo(0, 0, 1, np.array([10, 20]))
        ring.step()
        ring.reset()
        assert ring.fifo(0, 0, 1) is handle
        assert not handle
        handle.append(33)
        ring.step()
        assert ring.dnode(0, 0).out == 33

    def test_handle_stays_live_across_snapshot_restore(self):
        ring = _fifo_ring()
        handle = ring.fifo(0, 0, 1)
        ring.push_fifo(0, 0, 1, [1, 2, 3])
        saved = capture(ring)
        ring.run(3)
        assert not handle
        restore(ring, saved)
        assert ring.fifo(0, 0, 1) is handle
        assert list(handle) == [1, 2, 3]
        handle.append(4)
        ring.run(4)
        assert ring.dnode(0, 0).out == 4

    def test_stream_queue_survives_a_host_restore(self):
        dc = DataController()
        dc.stream(0, np.array([4, 5]))
        state = dc.capture_state()
        held = dc.channel(0)._queue
        dc.settle(2, routed={0})
        assert not held
        dc.restore_state(state)
        assert dc.channel(0)._queue is held
        assert list(held) == [4, 5]
