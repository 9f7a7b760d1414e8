"""The specific input/output data controller of the Systolic Ring.

Paper §4.1/§4.2: the switches manage "data communications with the host
processor by direct dedicated ports", and the local mode "joined to a
specific input/output Data controller ... allows very efficient and high
bandwidth data oriented computation".

* :class:`StreamChannel` — an input stream presented on a direct port:
  one 16-bit word per fabric cycle (the head value is stable within a
  cycle; the channel advances at the clock edge).  Its words wait in a
  :class:`~repro.core.wordqueue.WordQueue`, the same int64 buffer as a
  Dnode input FIFO: a block push is range-checked once, a window is a
  slice of the buffer and settling a window moves the head.
* :class:`OutputTap` — samples a Dnode's output register every cycle
  (optionally after a pipeline-fill delay), collecting result streams.
* :class:`DataController` — the bank of channels and taps a
  :class:`~repro.host.system.RingSystem` drives each cycle.

With the ring's batch backend (``backend="batch"``) the same port
serves B independent streams at once: construct the controller with
``batch=B`` and it hands out :class:`BatchStreamChannel` /
:class:`BatchOutputTap` instead — one
:class:`~repro.core.wordqueue.LaneQueue` for all lanes (an int64
``(capacity, lanes)`` buffer with one shared head), per-lane underrun
accounting, per-lane sample streams collected as arrays — while keeping
the exact same per-cycle protocol (``current``/``advance``/``observe``).

Whole windows at once.  Under the synchronous-dataflow model every rate
here is fixed: a stream presents one word per cycle and a tap's
skip/every/limit schedule depends only on how many cycles it has seen.
So a :class:`~repro.host.system.RingSystem` on a ``backend="native"``
or ``backend="batch"`` ring serves the ports a window of T cycles at a
time, and the totals match T per-cycle clocks exactly (on a batch ring
every window array carries one column per lane:
:meth:`BatchStreamChannel.window`, :meth:`BatchOutputTap.observe_window`):

* :meth:`DataController.window_reader` hands the native or macro
  kernel each routed channel's next T words as one int64 array
  (:meth:`StreamChannel.window`: a slice of the queue from its head,
  padded with the idle value) — nothing is consumed yet;
* the kernel returns each tapped Dnode's post-edge outputs over the
  window, and :meth:`OutputTap.observe_window` applies the tap's
  schedule to them in closed form, advancing its cycle count exactly as
  T :meth:`~OutputTap.observe` calls would;
* :meth:`DataController.settle` then drops the consumed words, counts
  them delivered, and counts one underrun per dry cycle on every routed
  channel (the per-cycle contract: a routed port is read every cycle,
  and a dry read counts once per cycle).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro import word
from repro.core.wordqueue import LaneQueue, WordQueue
from repro.errors import HostError


def _dry_cycles(executed: int, consumed, latched):
    """Underruns a routed port counts over *executed* clocks (at least
    one); *consumed* and *latched* are scalars, or arrays per lane.

    Every cycle past the *consumed* words reads dry — except that a dry
    latch already set before the first cycle means that cycle's
    underrun was counted by an earlier read.
    """
    return executed - consumed - (latched & (consumed == 0))


def _next_pick(seen: int, skip: int, every: int) -> int:
    """The first observation number after *seen* a tap schedule keeps."""
    first = max(seen, skip) + 1
    return first + (skip + 1 - first) % every


def _window_picks(tap, values: np.ndarray, collected: int) -> np.ndarray:
    """The rows of a window of post-edge outputs a tap schedule keeps.

    The closed form of ``len(values)`` ``observe`` calls: the
    skip/every schedule picks a strided slice, *limit* truncates it
    (*collected* samples are already in), and the tap's seen-cycle count
    advances by the window length.
    """
    seen = tap._seen
    tap._seen = seen + len(values)
    picked = values[_next_pick(seen, tap.skip, tap.every) - seen - 1::
                    tap.every]
    if tap.limit is not None:
        picked = picked[:max(0, tap.limit - collected)]
    return picked


def _cycles_to_full(tap, collected: int) -> int:
    """Observations a limited tap still needs before it is full."""
    if tap.limit is None:
        raise HostError(f"{tap!r} has no limit, so it never fills")
    need = tap.limit - collected
    if need <= 0:
        return 0
    return (_next_pick(tap._seen, tap.skip, tap.every)
            + (need - 1) * tap.every - tap._seen)


class StreamChannel:
    """One direct host->fabric input port (a synchronous word stream).

    The value returned by :meth:`current` stays constant within a cycle;
    :meth:`advance` (called once per cycle by the data controller) moves to
    the next word.  When the stream runs dry the port presents *idle_value*
    and counts the underrun, so pipeline drain cycles are harmless but
    observable.
    """

    def __init__(self, values: Optional[Iterable[int]] = None,
                 idle_value: int = 0):
        self._queue = WordQueue()
        self.idle_value = word.check(idle_value, "idle value")
        self.delivered = 0
        self.underruns = 0
        self._dry_seen = False
        if values is not None:
            self.push(values)

    def push(self, values) -> None:
        """Queue one word or an iterable of words for streaming.

        An integer array or a list of ints is range-checked once and
        copied in whole; a bad word raises after the words before it
        were queued (:meth:`~repro.core.wordqueue.WordQueue.push`).
        """
        self._queue.push(values, "stream word")

    def current(self) -> int:
        """The word presented on the port this cycle.

        The port is level-sensitive: however many agents read it within
        one cycle (datapath, trace observer, metrics), a dry queue counts
        at most one underrun until the next clock edge.
        """
        value = self._queue.peek()
        if value is None:
            if not self._dry_seen:
                self._dry_seen = True
                self.underruns += 1
            return self.idle_value
        return value

    def advance(self) -> None:
        """Clock edge: consume the presented word."""
        self._dry_seen = False
        self.delivered += self._queue.drop(1)

    def window(self, offset: int, cycles: int) -> np.ndarray:
        """The words presented over *cycles* clocks, as one int64 array.

        Starts *offset* words past the queue head and pads with
        :attr:`idle_value` where the queue runs dry.  Nothing is consumed
        or counted; :meth:`settle` accounts for the window afterwards.
        """
        words = self._queue.view(offset, cycles)
        if len(words) == cycles:
            return words.copy()
        out = np.full(cycles, self.idle_value, np.int64)
        out[:len(words)] = words
        return out

    def settle(self, executed: int, routed: bool) -> None:
        """Account for *executed* clock edges at once.

        The same totals as *executed* cycles of :meth:`current` reads
        (when *routed*) followed by :meth:`advance`.
        """
        if not executed:
            return
        consumed = self._queue.drop(executed)
        self.delivered += consumed
        if routed:
            self.underruns += _dry_cycles(executed, consumed,
                                          self._dry_seen)
        self._dry_seen = False

    def drop_next(self) -> int:
        """Fault model: silently lose the next queued word.

        Unlike :meth:`advance`, the lost word is neither delivered nor
        counted — exactly what a flipped valid-bit on the host link
        looks like.  Returns how many words were dropped (0 when the
        queue was already dry).
        """
        return self._queue.drop(1)

    def pending(self) -> int:
        """Words still queued."""
        return len(self._queue)

    @property
    def words_delivered(self) -> int:
        """Total words actually consumed by the fabric (all lanes)."""
        return self.delivered

    def __repr__(self) -> str:
        return (
            f"StreamChannel(pending={len(self._queue)}, "
            f"delivered={self.delivered})"
        )


class BatchStreamChannel:
    """One direct host->fabric port carrying B independent lane streams.

    Every lane's words wait in one
    :class:`~repro.core.wordqueue.LaneQueue` on the channel's clock:
    :meth:`current` presents one word per lane (idle value where a lane
    has run dry, with the underrun counted *for that lane only*),
    :meth:`advance` consumes the presented word on every lane that had
    one, and a window gathers every lane's words as one slice and
    settles them with one head move.  Push the same stimulus to every
    lane with ``push(values)``, a lane-specific stream with
    ``push(values, lane=i)``, or every lane's own stream at once with
    ``push(block)``, a 2-D ``(lanes, n)`` block with one row per lane.
    ``delivered`` and ``underruns`` read as lists, one count per lane.
    """

    def __init__(self, batch: int, idle_value: int = 0):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self.idle_value = word.check(idle_value, "idle value")
        self._queue = LaneQueue(batch)
        self._delivered = np.zeros(batch, np.int64)
        self._underruns = np.zeros(batch, np.int64)
        self._dry_seen = np.zeros(batch, bool)

    @property
    def delivered(self) -> List[int]:
        """Words each lane consumed."""
        return self._delivered.tolist()

    @property
    def underruns(self) -> List[int]:
        """Dry reads each lane counted."""
        return self._underruns.tolist()

    def push(self, values, lane: Optional[int] = None) -> None:
        """Queue words on one lane (or broadcast to all when None).

        A 2-D ``(lanes, n)`` block queues row i on lane i.  Every push
        is range-checked whole, and nothing is queued if a word is bad.
        """
        if word.is_rows(values):
            if lane is not None or len(values) != self.batch:
                raise HostError(
                    f"a 2-D stream block needs one row per lane "
                    f"({self.batch}) and no lane, got {len(values)} rows"
                    f" and lane={lane}"
                )
        elif lane is not None and not 0 <= lane < self.batch:
            raise HostError(
                f"lane must be 0..{self.batch - 1}, got {lane}"
            )
        self._queue.push(values, lane, "stream word")

    def current(self) -> np.ndarray:
        """The per-lane words presented on the port this cycle.

        Like the scalar port, repeated reads within one cycle count at
        most one underrun per dry lane until the next clock edge.
        """
        values, dry = self._queue.peek(self.idle_value)
        self._underruns += dry & ~self._dry_seen
        self._dry_seen |= dry
        return values

    def advance(self) -> None:
        """Clock edge: every non-empty lane consumes its word."""
        self._dry_seen[:] = False
        self._delivered += self._queue.drop(1)

    def window(self, offset: int, cycles: int) -> np.ndarray:
        """Every lane's words over *cycles* clocks, as a ``(cycles,
        batch)`` int64 array (see :meth:`StreamChannel.window`)."""
        return self._queue.gather(offset, cycles, fill=self.idle_value)

    def settle(self, executed: int, routed: bool) -> None:
        """Account for *executed* clock edges at once, every lane in one
        array pass (see :meth:`StreamChannel.settle`)."""
        if not executed:
            return
        consumed = self._queue.drop(executed)
        self._delivered += consumed
        if routed:
            self._underruns += _dry_cycles(executed, consumed,
                                           self._dry_seen)
        self._dry_seen[:] = False

    def drop_next(self) -> int:
        """Fault model: silently lose the next word on every lane.

        Returns the number of words dropped (lanes already dry lose
        nothing); none are counted as delivered.
        """
        return int(self._queue.drop(1).sum())

    def pending(self) -> int:
        """Words still queued across all lanes."""
        return int(self._queue.count.sum())

    def lane_pending(self, lane: int) -> int:
        """Words still queued on one lane."""
        return int(self._queue.count[lane])

    def lane_words(self, lane: int) -> List[int]:
        """One lane's queued words, head first, as plain ints."""
        return self._queue.lane_view(lane).tolist()

    @property
    def words_delivered(self) -> int:
        """Total words actually consumed by the fabric (all lanes)."""
        return int(self._delivered.sum())

    def __repr__(self) -> str:
        return (
            f"BatchStreamChannel(lanes={self.batch}, "
            f"pending={self.pending()}, delivered={self.words_delivered})"
        )


def _observe_each(taps, values) -> None:
    """One cycle of :meth:`OutputTap.observe` for each scalar tap of
    *taps*, with its post-edge output value in *values*."""
    for tap, value in zip(taps, values):
        tap._seen = seen = tap._seen + 1
        if seen > tap.skip:
            every = tap.every
            if every == 1 or not (seen - tap.skip - 1) % every:
                limit = tap.limit
                samples = tap.samples
                if limit is None or len(samples) < limit:
                    samples.append(value)


class OutputTap:
    """Samples one Dnode's output register each cycle.

    Args:
        layer, position: which Dnode to observe.
        skip: number of initial cycles to ignore (pipeline fill).
        every: sample period — keep one sample every *every* cycles
            (1 = every cycle).
        limit: stop collecting after this many samples (None = unbounded).
    """

    def __init__(self, layer: int, position: int, skip: int = 0,
                 every: int = 1, limit: Optional[int] = None):
        if skip < 0:
            raise HostError(f"skip must be >= 0, got {skip}")
        if every < 1:
            raise HostError(f"every must be >= 1, got {every}")
        if limit is not None and limit < 0:
            raise HostError(f"limit must be >= 0, got {limit}")
        self.layer = layer
        self.position = position
        self.skip = skip
        self.every = every
        self.limit = limit
        self.samples: List[int] = []
        self._seen = 0

    def observe(self, value: int) -> None:
        """Record this cycle's post-edge output value (if selected)."""
        _observe_each((self,), (value,))

    def observe_window(self, values: np.ndarray) -> None:
        """Record a window of post-edge output values at once.

        The closed form of ``len(values)`` :meth:`observe` calls: the
        skip/every schedule picks a strided slice, *limit* truncates it,
        and the seen-cycle count advances by the window length.
        """
        self.samples.extend(
            _window_picks(self, values, len(self.samples)).tolist())

    def cycles_to_full(self) -> int:
        """Cycles until *limit* samples are collected (0 once full)."""
        return _cycles_to_full(self, len(self.samples))

    @property
    def full(self) -> bool:
        """True once *limit* samples are collected."""
        return self.limit is not None and len(self.samples) >= self.limit

    @property
    def sample_count(self) -> int:
        """Total words collected (all lanes)."""
        return len(self.samples)

    def __repr__(self) -> str:
        return (
            f"OutputTap(D{self.layer}.{self.position}, "
            f"samples={len(self.samples)})"
        )


class BatchOutputTap:
    """Samples one Dnode's output register across every lane each cycle.

    Same skip/every/limit schedule as :class:`OutputTap` (all lanes run
    in lockstep, so one schedule serves the whole batch); the collected
    streams are per lane: :meth:`array` as one ``(lanes, n)`` array,
    ``samples[lane]`` / :meth:`lane` as plain ints.  Picked rows are
    kept as the blocks they arrived in and joined when read.
    """

    def __init__(self, batch: int, layer: int, position: int,
                 skip: int = 0, every: int = 1,
                 limit: Optional[int] = None):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        if skip < 0:
            raise HostError(f"skip must be >= 0, got {skip}")
        if every < 1:
            raise HostError(f"every must be >= 1, got {every}")
        if limit is not None and limit < 0:
            raise HostError(f"limit must be >= 0, got {limit}")
        self.batch = batch
        self.layer = layer
        self.position = position
        self.skip = skip
        self.every = every
        self.limit = limit
        # Picked ``(rows, lanes)`` int64 blocks, oldest first.
        self._blocks: List[np.ndarray] = []
        self._count = 0
        self._seen = 0

    def observe(self, values) -> None:
        """Record this cycle's per-lane output values (if selected)."""
        self._seen += 1
        if self._seen <= self.skip:
            return
        if (self._seen - self.skip - 1) % self.every != 0:
            return
        if self.limit is not None and self._count >= self.limit:
            return
        self._blocks.append(np.array(values, np.int64).reshape(1, -1))
        self._count += 1

    def observe_window(self, values: np.ndarray) -> None:
        """Record a ``(cycles, batch)`` window of per-lane outputs at once
        (the closed form of :meth:`observe`, see
        :meth:`OutputTap.observe_window`)."""
        picked = _window_picks(self, values, self._count)
        if len(picked):
            self._blocks.append(np.array(picked, np.int64))
            self._count += len(picked)

    def array(self) -> np.ndarray:
        """Every lane's samples as one read-only ``(lanes, n)`` int64
        array, row i being lane i's stream."""
        if len(self._blocks) != 1:
            self._blocks = [np.concatenate(self._blocks) if self._blocks
                            else np.empty((0, self.batch), np.int64)]
        view = self._blocks[0].T
        view.flags.writeable = False
        return view

    @property
    def samples(self) -> List[List[int]]:
        """Every lane's sample stream as plain ints (a copy)."""
        return self.array().tolist()

    def lane(self, lane: int) -> List[int]:
        """One lane's collected sample stream (a copy)."""
        return self.array()[lane].tolist()

    def cycles_to_full(self) -> int:
        """Cycles until *limit* samples are collected (0 once full)."""
        return _cycles_to_full(self, self._count)

    @property
    def full(self) -> bool:
        """True once *limit* samples are collected (per lane)."""
        return self.limit is not None and self._count >= self.limit

    @property
    def sample_count(self) -> int:
        """Total words collected (all lanes)."""
        return self._count * self.batch

    def _load(self, samples: List[List[int]]) -> None:
        """Replace the collected streams (a checkpoint restore)."""
        block = np.array(samples, np.int64).reshape(self.batch, -1).T
        self._blocks = [block]
        self._count = len(block)

    def __repr__(self) -> str:
        return (
            f"BatchOutputTap(D{self.layer}.{self.position}, "
            f"lanes={self.batch}, samples={self._count}/lane)"
        )


class _WindowReader:
    """Stream windows for the native and macro tiers and batch lanes (see
    :meth:`DataController.window_reader`)."""

    __slots__ = ("_data", "_base")

    def __init__(self, data: "DataController", base: int):
        self._data = data
        self._base = base

    def gather(self, channel: int, c0: int, cycles: int) -> np.ndarray:
        return self._data.channel(channel).window(c0 - self._base, cycles)


class DataController:
    """Bank of stream channels and output taps driven once per cycle.

    With ``batch > 1`` (the ring's batch backend) every channel is a
    :class:`BatchStreamChannel` and every tap a :class:`BatchOutputTap`;
    the per-cycle protocol is unchanged — ``host_in`` simply presents a
    per-lane word array and taps collect one stream per lane.
    """

    def __init__(self, batch: int = 1):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self._channels: Dict[int, object] = {}
        self.taps: List[object] = []
        # (ring, taps, Dnodes, flat indices) of the tapped Dnodes (see
        # _tapped).
        self._sources = None

    def channel(self, index: int):
        """The stream channel behind direct-port index (created on demand)."""
        if index < 0:
            raise HostError(f"channel index must be >= 0, got {index}")
        if index not in self._channels:
            if self.batch > 1:
                self._channels[index] = BatchStreamChannel(self.batch)
            else:
                self._channels[index] = StreamChannel()
        return self._channels[index]

    def stream(self, index: int, values, lane: Optional[int] = None):
        """Queue *values* on channel *index* (convenience).

        *lane* targets one lane of a batch channel; with the default
        (None) a batch channel broadcasts the words to every lane, or
        queues row i of a 2-D ``(lanes, n)`` block on lane i.
        """
        ch = self.channel(index)
        if lane is None:
            ch.push(values)
        elif self.batch > 1:
            ch.push(values, lane=lane)
        else:
            raise HostError(
                f"lane={lane} requires a batch data controller"
            )
        return ch

    def add_tap(self, layer: int, position: int, **kwargs):
        """Attach an output tap to a Dnode; returns it for later reading."""
        if self.batch > 1:
            tap = BatchOutputTap(self.batch, layer, position, **kwargs)
        else:
            tap = OutputTap(layer, position, **kwargs)
        self.taps.append(tap)
        return tap

    def host_in(self, index: int) -> int:
        """Resolver handed to :meth:`repro.core.ring.Ring.step`."""
        return self.channel(index).current()

    # Stream words were range-checked when pushed, and the idle value
    # when set, so a batch ring's lane kernels take these reads unchecked
    # (see repro.core.batchpath.BatchRing._host_word).
    host_in.words_checked = True

    def bulk_host_in(self, ring):
        """A resolver for whole :meth:`repro.core.ring.Ring.run` chunks.

        Per-cycle servicing resets each channel's dry-latch at every
        clock edge (:meth:`advance`), so a routed dry channel counts one
        underrun per cycle.  A bulk chunk never calls ``advance`` — this
        wrapper watches ``ring.cycles`` instead and clears the latches
        whenever the fabric moves to a new cycle, reproducing the
        per-cycle underrun accounting bit for bit (the same contract
        :meth:`settle` keeps for window reads).  Call
        :meth:`clear_dry_latches` after the chunk: that is its last
        clock edge.
        """
        last = [ring.cycles]

        def host_in(index: int) -> int:
            if ring.cycles != last[0]:
                last[0] = ring.cycles
                self.clear_dry_latches()
            return self.host_in(index)

        host_in.words_checked = True
        return host_in

    def clear_dry_latches(self) -> None:
        """The dry-latch half of a clock edge (see :meth:`bulk_host_in`)."""
        for ch in self._channels.values():
            if isinstance(ch, BatchStreamChannel):
                ch._dry_seen[:] = False
            else:
                ch._dry_seen = False

    def window_reader(self, ring) -> "_WindowReader":
        """A host resolver serving whole stream windows to the native
        and macro tiers and the batch engine.

        Its ``gather(channel, c0, cycles)`` returns the words *channel*
        presents on fabric cycles ``c0 .. c0 + cycles - 1``, counted from
        the current cycle of *ring* (where the queue head is presented),
        with one column per lane on a batch channel.  Nothing is
        consumed: call :meth:`settle` once the cycles ran.
        """
        return _WindowReader(self, ring.cycles)

    @property
    def idle(self) -> bool:
        """True when per-cycle servicing would be a no-op.

        No taps to sample and no queued stream words to advance — empty
        channels still present their idle value (and count underruns)
        through :meth:`host_in`, which needs no per-cycle bookkeeping.
        """
        return not self.taps and not any(
            ch.pending() for ch in self._channels.values()
        )

    def advance(self) -> None:
        """Clock edge: every channel moves to its next word."""
        for ch in self._channels.values():
            ch.advance()

    def collect(self, ring) -> None:
        """Sample every tap from the post-edge fabric state.

        Batch taps read the per-lane OUT values straight from the ring's
        batch engine; scalar taps read the scalar OUT register of Dnodes
        looked up once per ring and tap list.
        """
        taps = self.taps
        if self.batch > 1:
            engine = ring._ensure_batch()
            for tap in taps:
                tap.observe(engine.lane_outs(tap.layer, tap.position))
            return
        _observe_each(taps, [dnode._out for dnode in self._tapped(ring)[2]])

    def tap_nodes(self, ring) -> List[int]:
        """The tapped Dnodes' flat indices (``layer * width +
        position``) on *ring*, in tap order, validated once per ring and
        tap list: what a window returns tap rows for."""
        return self._tapped(ring)[3]

    def _tapped(self, ring) -> tuple:
        """``(ring, taps, Dnodes, flat indices)`` of the taps on *ring*,
        looked up again only when the ring or the tap list changes."""
        sources = self._sources
        if sources is None or sources[0] is not ring or \
                sources[1] != self.taps:
            width = ring.geometry.width
            dnodes = [ring.dnode(tap.layer, tap.position)
                      for tap in self.taps]
            sources = self._sources = (
                ring, list(self.taps), dnodes,
                [tap.layer * width + tap.position for tap in self.taps])
        return sources

    def observe_window(self, outs: np.ndarray) -> None:
        """Hand each scalar tap its row of a window's ``(taps, cycles)``
        post-edge outputs.

        A tap past its skip that keeps every sample and has no limit
        takes its row whole: the rows of all such taps convert to ints
        in one ``tolist``.  Any other tap applies its schedule to its
        array row (:meth:`OutputTap.observe_window`).
        """
        rows = None
        for k, tap in enumerate(self.taps):
            if tap.every == 1 and tap.limit is None and \
                    tap._seen >= tap.skip:
                if rows is None:
                    rows = outs.tolist()
                row = rows[k]
                tap._seen += len(row)
                tap.samples.extend(row)
            else:
                tap.observe_window(outs[k])

    def settle(self, executed: int, routed) -> None:
        """Account for *executed* clock edges whose words were read ahead.

        Native windows (:meth:`window_reader`) read the queued words
        without consuming them.  Afterwards every channel advances once
        per cycle (words past the queue end are simply dry), reproducing
        exactly what *executed* calls to :meth:`advance` would have
        delivered; channels in *routed* — the ones the fabric
        configuration reads every cycle — also count one underrun per
        dry cycle, matching the per-cycle accounting bit for bit.
        """
        if executed < 0:
            raise HostError(f"executed must be >= 0, got {executed}")
        for index, ch in self._channels.items():
            ch.settle(executed, index in routed)

    def capture_state(self) -> dict:
        """Checkpoint the host side: queued words, counters, tap samples,
        and the dry latches that are set (a channel that read dry this
        cycle has already counted the cycle's underrun).

        The fabric snapshot (:mod:`repro.core.snapshot`) covers only the
        ring; rollback-replay of a *streamed* run must also rewind the
        stream queues and tap collections, or replay would re-consume
        words that are already gone.  Pure-Python state, deep-copied.
        """
        channels = {}
        for index, ch in self._channels.items():
            if isinstance(ch, BatchStreamChannel):
                channels[index] = {
                    "lanes": [ch.lane_words(lane)
                              for lane in range(ch.batch)],
                    "delivered": ch.delivered,
                    "underruns": ch.underruns,
                }
                if ch._dry_seen.any():
                    channels[index]["dry"] = ch._dry_seen.tolist()
            else:
                channels[index] = {
                    "queue": list(ch._queue),
                    "delivered": ch.delivered,
                    "underruns": ch.underruns,
                }
                if ch._dry_seen:
                    channels[index]["dry"] = True
        taps = []
        for tap in self.taps:
            if isinstance(tap, BatchOutputTap):
                taps.append({"samples": tap.samples, "seen": tap._seen})
            else:
                taps.append({"samples": list(tap.samples),
                             "seen": tap._seen})
        return {"channels": channels, "taps": taps}

    def restore_state(self, state: dict) -> None:
        """Rewind to a :meth:`capture_state` checkpoint (same topology).

        A channel opened after the checkpoint (pushed to, or read by a
        routed port) did not exist then, so it is dropped; the next
        access opens it afresh.  A state captured without dry latches
        restores them cleared.
        """
        saved_channels = state["channels"]
        for index in [i for i in self._channels if i not in saved_channels]:
            del self._channels[index]
        for index, saved in saved_channels.items():
            ch = self.channel(index)
            if isinstance(ch, BatchStreamChannel):
                ch._queue.clear()
                ch._queue.push_rows(saved["lanes"])
                ch._delivered[:] = saved["delivered"]
                ch._underruns[:] = saved["underruns"]
                ch._dry_seen[:] = saved.get("dry", False)
            else:
                ch._queue.clear()
                ch._queue.extend(saved["queue"])
                ch.delivered = saved["delivered"]
                ch.underruns = saved["underruns"]
                ch._dry_seen = saved.get("dry", False)
        if len(state["taps"]) != len(self.taps):
            raise HostError(
                f"checkpoint has {len(state['taps'])} taps, controller "
                f"has {len(self.taps)}")
        for tap, saved in zip(self.taps, state["taps"]):
            if isinstance(tap, BatchOutputTap):
                tap._load(saved["samples"])
            else:
                tap.samples = list(saved["samples"])
            tap._seen = saved["seen"]

    def total_words_in(self) -> int:
        """Words actually streamed into the fabric so far (all lanes)."""
        return sum(ch.words_delivered for ch in self._channels.values())

    def total_words_out(self) -> int:
        """Samples collected across all taps so far (all lanes)."""
        return sum(tap.sample_count for tap in self.taps)
