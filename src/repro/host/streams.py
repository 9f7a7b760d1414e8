"""The specific input/output data controller of the Systolic Ring.

Paper §4.1/§4.2: the switches manage "data communications with the host
processor by direct dedicated ports", and the local mode "joined to a
specific input/output Data controller ... allows very efficient and high
bandwidth data oriented computation".

* :class:`StreamChannel` — an input stream presented on a direct port:
  one 16-bit word per fabric cycle (the head value is stable within a
  cycle; the channel advances at the clock edge).
* :class:`OutputTap` — samples a Dnode's output register every cycle
  (optionally after a pipeline-fill delay), collecting result streams.
* :class:`DataController` — the bank of channels and taps a
  :class:`~repro.host.system.RingSystem` drives each cycle.

With the ring's batch backend (``backend="batch"``) the same port
serves B independent streams at once: construct the controller with
``batch=B`` and it hands out :class:`BatchStreamChannel` /
:class:`BatchOutputTap` instead — per-lane queues, per-lane underrun
accounting, per-lane sample streams — while keeping the exact same
per-cycle protocol (``current``/``advance``/``observe``).

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
  (:meth:`StreamChannel.window`: the queued head, padded with the idle
  value) — nothing is consumed yet;
* the kernel returns each tapped Dnode's post-edge outputs over the
  window, and :meth:`OutputTap.observe_window` applies the tap's
  schedule to them in closed form, advancing its cycle count exactly as
  T :meth:`~OutputTap.observe` calls would;
* :meth:`DataController.settle` then pops the consumed words, counts
  them delivered, and counts one underrun per dry cycle on every routed
  channel (the per-cycle contract: a routed port is read every cycle,
  and a dry read counts once per cycle).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

from repro import word
from repro.errors import HostError


def _pop(queue: Deque[int], count: int) -> int:
    """Pop up to *count* words off *queue*; returns how many went."""
    count = min(count, len(queue))
    if count == len(queue):
        queue.clear()
    else:
        for _ in range(count):
            queue.popleft()
    return count


def _dry_cycles(executed: int, consumed: int, latched: bool) -> int:
    """Underruns a routed port counts over *executed* clocks.

    Every cycle past the *consumed* words reads dry — except that a dry
    latch already set before the first cycle means that cycle's
    underrun was counted by an earlier read.
    """
    dry = executed - consumed
    if dry and not consumed and latched:
        dry -= 1
    return dry


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


def _queue_window(queue: Deque[int], offset: int, out: np.ndarray) -> None:
    """Fill *out* with the words presented from *offset* past the head
    of *queue*, leaving the idle padding where it runs dry."""
    avail = min(len(out), len(queue) - offset)
    if avail > 0:
        out[:avail] = np.fromiter(
            itertools.islice(queue, offset, offset + avail), np.int64, avail)


def _cycles_to_full(tap, collected: int) -> int:
    """Observations a limited tap still needs before it is full."""
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
        self._queue: Deque[int] = deque()
        self.idle_value = word.check(idle_value, "idle value")
        self.delivered = 0
        self.underruns = 0
        self._dry_seen = False
        if values is not None:
            self.push(values)

    def push(self, values) -> None:
        """Queue one word or an iterable of words for streaming."""
        if isinstance(values, int):
            values = [values]
        for v in values:
            self._queue.append(word.check(v, "stream word"))

    def current(self) -> int:
        """The word presented on the port this cycle.

        The port is level-sensitive: however many agents read it within
        one cycle (datapath, trace observer, metrics), a dry queue counts
        at most one underrun until the next clock edge.
        """
        if not self._queue:
            if not self._dry_seen:
                self._dry_seen = True
                self.underruns += 1
            return self.idle_value
        return self._queue[0]

    def advance(self) -> None:
        """Clock edge: consume the presented word."""
        self._dry_seen = False
        if self._queue:
            self._queue.popleft()
            self.delivered += 1

    def window(self, offset: int, cycles: int) -> np.ndarray:
        """The words presented over *cycles* clocks, as one int64 array.

        Starts *offset* words past the queue head and pads with
        :attr:`idle_value` where the queue runs dry.  Nothing is consumed
        or counted; :meth:`settle` accounts for the window afterwards.
        """
        out = np.full(cycles, self.idle_value, np.int64)
        _queue_window(self._queue, offset, out)
        return out

    def settle(self, executed: int, routed: bool) -> None:
        """Account for *executed* clock edges at once.

        The same totals as *executed* cycles of :meth:`current` reads
        (when *routed*) followed by :meth:`advance`.
        """
        if not executed:
            return
        consumed = _pop(self._queue, executed)
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
        if not self._queue:
            return 0
        self._queue.popleft()
        return 1

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

    Per-lane queues share the channel's clock: :meth:`current` presents
    one word per lane (idle value where a lane has run dry, with the
    underrun counted *for that lane only*), :meth:`advance` consumes the
    presented word on every lane that had one.  Push the same stimulus
    to every lane with ``push(values)`` or a lane-specific stream with
    ``push(values, lane=i)``.
    """

    def __init__(self, batch: int, idle_value: int = 0):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self.idle_value = word.check(idle_value, "idle value")
        self._queues: List[Deque[int]] = [deque() for _ in range(batch)]
        self.delivered = [0] * batch
        self.underruns = [0] * batch
        self._dry_seen = [False] * batch

    def push(self, values, lane: Optional[int] = None) -> None:
        """Queue words on one lane (or broadcast to all when None)."""
        if isinstance(values, int):
            values = [values]
        checked = word.check_block(values, "stream word")
        if lane is None:
            for queue in self._queues:
                queue.extend(checked)
            return
        if not 0 <= lane < self.batch:
            raise HostError(
                f"lane must be 0..{self.batch - 1}, got {lane}"
            )
        self._queues[lane].extend(checked)

    def current(self) -> np.ndarray:
        """The per-lane words presented on the port this cycle.

        Like the scalar port, repeated reads within one cycle count at
        most one underrun per dry lane until the next clock edge.
        """
        out = np.empty(self.batch, dtype=np.int64)
        for lane, queue in enumerate(self._queues):
            if queue:
                out[lane] = queue[0]
            else:
                if not self._dry_seen[lane]:
                    self._dry_seen[lane] = True
                    self.underruns[lane] += 1
                out[lane] = self.idle_value
        return out

    def advance(self) -> None:
        """Clock edge: every non-empty lane consumes its word."""
        for lane, queue in enumerate(self._queues):
            self._dry_seen[lane] = False
            if queue:
                queue.popleft()
                self.delivered[lane] += 1

    def window(self, offset: int, cycles: int) -> np.ndarray:
        """Every lane's words over *cycles* clocks, as a ``(cycles,
        batch)`` int64 array (see :meth:`StreamChannel.window`)."""
        out = np.full((cycles, self.batch), self.idle_value, np.int64)
        for lane, queue in enumerate(self._queues):
            _queue_window(queue, offset, out[:, lane])
        return out

    def settle(self, executed: int, routed: bool) -> None:
        """Account for *executed* clock edges at once, lane by lane (see
        :meth:`StreamChannel.settle`)."""
        if not executed:
            return
        for lane, queue in enumerate(self._queues):
            consumed = _pop(queue, executed)
            self.delivered[lane] += consumed
            if routed:
                self.underruns[lane] += _dry_cycles(
                    executed, consumed, self._dry_seen[lane])
            self._dry_seen[lane] = False

    def drop_next(self) -> int:
        """Fault model: silently lose the next word on every lane.

        Returns the number of words dropped (lanes already dry lose
        nothing); none are counted as delivered.
        """
        dropped = 0
        for queue in self._queues:
            if queue:
                queue.popleft()
                dropped += 1
        return dropped

    def pending(self) -> int:
        """Words still queued across all lanes."""
        return sum(len(queue) for queue in self._queues)

    def lane_pending(self, lane: int) -> int:
        return len(self._queues[lane])

    @property
    def words_delivered(self) -> int:
        """Total words actually consumed by the fabric (all lanes)."""
        return sum(self.delivered)

    def __repr__(self) -> str:
        return (
            f"BatchStreamChannel(lanes={self.batch}, "
            f"pending={self.pending()}, delivered={self.words_delivered})"
        )


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
        self._seen += 1
        if self._seen <= self.skip:
            return
        if (self._seen - self.skip - 1) % self.every != 0:
            return
        if self.limit is not None and len(self.samples) >= self.limit:
            return
        self.samples.append(value)

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
    streams are per lane: ``samples[lane]`` / :meth:`lane`.
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
        self.samples: List[List[int]] = [[] for _ in range(batch)]
        self._seen = 0

    def observe(self, values) -> None:
        """Record this cycle's per-lane output values (if selected)."""
        self._seen += 1
        if self._seen <= self.skip:
            return
        if (self._seen - self.skip - 1) % self.every != 0:
            return
        if self.limit is not None and len(self.samples[0]) >= self.limit:
            return
        for lane, value in enumerate(values):
            self.samples[lane].append(int(value))

    def observe_window(self, values: np.ndarray) -> None:
        """Record a ``(cycles, batch)`` window of per-lane outputs at once
        (the closed form of :meth:`observe`, see
        :meth:`OutputTap.observe_window`)."""
        picked = _window_picks(self, values, len(self.samples[0]))
        if len(picked):
            for stream, column in zip(self.samples, picked.T.tolist()):
                stream.extend(column)

    def lane(self, lane: int) -> List[int]:
        """One lane's collected sample stream (a copy)."""
        return list(self.samples[lane])

    def cycles_to_full(self) -> int:
        """Cycles until *limit* samples are collected (0 once full)."""
        return _cycles_to_full(self, len(self.samples[0]))

    @property
    def full(self) -> bool:
        """True once *limit* samples are collected (per lane)."""
        return self.limit is not None and len(self.samples[0]) >= self.limit

    @property
    def sample_count(self) -> int:
        """Total words collected (all lanes)."""
        return sum(len(stream) for stream in self.samples)

    def __repr__(self) -> str:
        return (
            f"BatchOutputTap(D{self.layer}.{self.position}, "
            f"lanes={self.batch}, samples={len(self.samples[0])}/lane)"
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
        (None) a batch channel broadcasts the words to every lane.
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

        return host_in

    def clear_dry_latches(self) -> None:
        """The dry-latch half of a clock edge (see :meth:`bulk_host_in`)."""
        for ch in self._channels.values():
            if isinstance(ch, BatchStreamChannel):
                ch._dry_seen = [False] * ch.batch
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
        batch engine; scalar taps read the scalar OUT register.
        """
        if self.batch > 1:
            engine = ring._ensure_batch()
            for tap in self.taps:
                tap.observe(engine.lane_outs(tap.layer, tap.position))
            return
        for tap in self.taps:
            tap.observe(ring.dnode(tap.layer, tap.position).out)

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
        """Checkpoint the host side: queued words, counters, tap samples.

        The fabric snapshot (:mod:`repro.core.snapshot`) covers only the
        ring; rollback-replay of a *streamed* run must also rewind the
        stream queues and tap collections, or replay would re-consume
        words that are already gone.  Pure-Python state, deep-copied.
        """
        channels = {}
        for index, ch in self._channels.items():
            if isinstance(ch, BatchStreamChannel):
                channels[index] = {
                    "lanes": [list(queue) for queue in ch._queues],
                    "delivered": list(ch.delivered),
                    "underruns": list(ch.underruns),
                }
            else:
                channels[index] = {
                    "queue": list(ch._queue),
                    "delivered": ch.delivered,
                    "underruns": ch.underruns,
                }
        taps = []
        for tap in self.taps:
            if isinstance(tap, BatchOutputTap):
                taps.append({"samples": [list(s) for s in tap.samples],
                             "seen": tap._seen})
            else:
                taps.append({"samples": list(tap.samples),
                             "seen": tap._seen})
        return {"channels": channels, "taps": taps}

    def restore_state(self, state: dict) -> None:
        """Rewind to a :meth:`capture_state` checkpoint (same topology).

        A channel opened after the checkpoint (pushed to, or read by a
        routed port) did not exist then, so it is dropped; the next
        access opens it afresh.
        """
        saved_channels = state["channels"]
        for index in [i for i in self._channels if i not in saved_channels]:
            del self._channels[index]
        for index, saved in saved_channels.items():
            ch = self.channel(index)
            if isinstance(ch, BatchStreamChannel):
                ch._queues = [deque(lane) for lane in saved["lanes"]]
                ch.delivered = list(saved["delivered"])
                ch.underruns = list(saved["underruns"])
                ch._dry_seen = [False] * ch.batch
            else:
                ch._queue = deque(saved["queue"])
                ch.delivered = saved["delivered"]
                ch.underruns = saved["underruns"]
                ch._dry_seen = False
        if len(state["taps"]) != len(self.taps):
            raise HostError(
                f"checkpoint has {len(state['taps'])} taps, controller "
                f"has {len(self.taps)}")
        for tap, saved in zip(self.taps, state["taps"]):
            if isinstance(tap, BatchOutputTap):
                tap.samples = [list(s) for s in saved["samples"]]
            else:
                tap.samples = list(saved["samples"])
            tap._seen = saved["seen"]

    def total_words_in(self) -> int:
        """Words actually streamed into the fabric so far (all lanes)."""
        return sum(ch.words_delivered for ch in self._channels.values())

    def total_words_out(self) -> int:
        """Samples collected across all taps so far (all lanes)."""
        return sum(tap.sample_count for tap in self.taps)
