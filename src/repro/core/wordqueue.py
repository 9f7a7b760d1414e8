"""Word queues: one int64 buffer with a head and a tail index.

Every Dnode input FIFO (:meth:`repro.core.ring.Ring.fifo`) and every
scalar host stream (:class:`repro.host.streams.StreamChannel`) queues its
16-bit words in a :class:`WordQueue`.  Words arrive from the host in
blocks and leave in windows, so the queue is shaped for blocks:

* a **checked block push** (:meth:`WordQueue.push`) range-checks a whole
  integer ndarray or list of ints at once and copies it in;
* a **gather** is a slice of the buffer (:meth:`WordQueue.view`), which
  the native kernels read as arrays, strided by their pop schedule;
* a **pop of k words** moves the head (:meth:`WordQueue.drop`).

It is the rotating-head idiom of the switches' feedback pipelines, laid
out flat: the head only moves forward, and the live words are compacted
to the front of the buffer when a push needs room and the head has
passed half of it.  The buffer grows geometrically but is sized to the
push that first needs it, so one block load allocates exactly its words.

The deque subset the fabric's callers use is kept — ``len`` and truth
value, ``q[i]`` / ``q[i] = v`` (negative indices included), iteration,
``append``, ``extend``, ``popleft`` and ``clear`` — with two differences:
words come back as plain ints whatever was pushed (a ``bool`` or an int
subclass is stored as its 16-bit value), and :meth:`clear` empties the
queue in place, so a handle held across :meth:`Ring.reset` or a snapshot
restore stays live.  One word at a time costs a Python method call here
against a C call on a deque, so no bulk path reads or pops word by word.

A batch ring's lanes queue their words the same way, one queue for all
lanes: :class:`LaneQueue` is a Dnode input FIFO of a
:class:`~repro.core.batchpath.BatchRing` or a
:class:`~repro.host.streams.BatchStreamChannel`.  It holds one int64
``(capacity, lanes)`` buffer, one shared head and a word count per lane:
lane *i*'s words are rows ``head .. head + count[i]`` of column *i*.
One head serves every lane because lanes share the clock — every pop
asks the same number of words of every lane — and a lane that runs dry
has no words whose position could drift: it just counts 0, and its next
push lands at the shared head.  So a push is one copy (a fancy-indexed
one only while lane counts differ), a window is one slice masked past
each lane's count, and a pop of k words is one head move and
``count -= landed``.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterator, Optional

import numpy as np

from repro import word

_EMPTY = np.empty(0, np.int64)


def _plain(value):
    """A NumPy integer scalar as a Python int; anything else (Python
    ints, bools and int subclasses included) as it is, for
    :func:`repro.word.check` and its message."""
    if isinstance(value, Integral) and not isinstance(value, int):
        return int(value)
    return value


def _int_block(values):
    """*values* as a 1-D integer ndarray, or None when it is not one (a
    block of anything but integers goes word by word)."""
    dtype = getattr(values, "dtype", None)
    if dtype is None:
        try:
            values = np.asarray(values)
        except (ValueError, TypeError, OverflowError):
            return None
        dtype = values.dtype
    if dtype.kind in "iu" and values.ndim == 1:
        return values
    return None


class WordQueue:
    """A FIFO of raw 16-bit words in one int64 buffer (see module doc)."""

    __slots__ = ("_buf", "_head", "_tail")

    def __init__(self, values=None):
        self._buf = _EMPTY
        self._head = 0
        self._tail = 0
        if values is not None:
            self.extend(values)

    # -- the deque subset ---------------------------------------------

    def __len__(self) -> int:
        return self._tail - self._head

    def __bool__(self) -> bool:
        return self._tail != self._head

    def _index(self, i: int) -> int:
        n = self._tail - self._head
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("WordQueue index out of range")
        return self._head + i

    def __getitem__(self, i: int) -> int:
        return self._buf.item(self._index(i))

    def __setitem__(self, i: int, value: int) -> None:
        self._buf[self._index(i)] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self._buf[self._head:self._tail].tolist())

    def __repr__(self) -> str:
        return f"WordQueue({self._buf[self._head:self._tail].tolist()})"

    def append(self, value: int) -> None:
        """Queue one word, unchecked (like ``deque.append``)."""
        self._reserve(1)
        self._buf[self._tail] = value
        self._tail += 1

    def extend(self, values) -> None:
        """Queue a block of words, unchecked (like ``deque.extend``)."""
        if isinstance(values, WordQueue):
            values = values.view()
        elif getattr(values, "dtype", None) is None:
            values = list(values)
        self._put(np.asarray(values, np.int64).reshape(-1))

    def popleft(self) -> int:
        """Dequeue the head word; IndexError when empty."""
        head = self._head
        if head == self._tail:
            raise IndexError("pop from an empty WordQueue")
        value = self._buf.item(head)
        head += 1
        if head == self._tail:
            self._head = self._tail = 0
        else:
            self._head = head
        return value

    def peek(self):
        """The head word, or None when the queue is empty."""
        head = self._head
        if head == self._tail:
            return None
        return self._buf.item(head)

    def clear(self) -> None:
        """Empty the queue in place (held handles stay live)."""
        self._head = self._tail = 0

    # -- block operations ---------------------------------------------

    def push(self, values, what: str = "value") -> np.ndarray:
        """Queue one checked word or a block of them.

        Any integer scalar (a NumPy one included) is one word.  An
        integer ndarray, or a list of ints, takes one range check for
        the whole block and one copy.  Anything else — and any block
        holding a bad word — is checked word by word as
        :func:`repro.word.check`, so a bad word raises exactly its
        message after the words in front of it were queued.  Returns the
        queued words as a view of the buffer, valid until the next push.
        """
        tail = self._tail
        if isinstance(values, Integral):
            self.append(word.check(int(values), what))
            return self._buf[tail:self._tail]
        if isinstance(values, WordQueue):
            values = values.view()
        elif not hasattr(values, "__len__"):
            values = list(values)
        block = _int_block(values)
        if block is not None:
            if not block.size or (block.min() >= 0
                                  and block.max() <= word.MASK):
                self._put(block)
                return self._buf[tail:self._tail]
            bad = int(np.flatnonzero((block < 0) | (block > word.MASK))[0])
            self._put(block[:bad])
            word.check(int(block[bad]), what)
        checked = []
        try:
            for value in values:
                checked.append(word.check(_plain(value), what))
        finally:
            self._put(np.array(checked, np.int64))
        return self._buf[tail:self._tail]

    def view(self, offset: int = 0, n: int = None) -> np.ndarray:
        """Up to *n* words from *offset* past the head (all of them by
        default), as a read-only view of the buffer: shorter when the
        queue runs dry, valid until the next push."""
        start = self._head + offset
        stop = self._tail
        if n is not None and start + n < stop:
            stop = start + n
        out = self._buf[start:stop] if start < stop else _EMPTY[:0]
        out.flags.writeable = False
        return out

    def gather_into(self, out: np.ndarray, start: int, step: int) -> None:
        """Fill *out* with words ``start, start + step, ...`` past the
        head, 0 wherever one lies past the tail (a *step* of 0 repeats
        word *start*).  Nothing is popped."""
        base = self._head + start
        size = self._tail - base
        if size <= 0:
            out[:] = 0
        elif not step:
            out[:] = self._buf[base]
        else:
            served = min(len(out), -(-size // step))
            out[:served] = self._buf[base:base + (served - 1) * step + 1:step]
            out[served:] = 0

    def drop(self, k: int) -> int:
        """Pop up to *k* words at once; returns how many went."""
        k = min(k, self._tail - self._head)
        head = self._head + k
        if head == self._tail:
            self._head = self._tail = 0
        else:
            self._head = head
        return k

    # -- storage ------------------------------------------------------

    def _put(self, block: np.ndarray) -> None:
        n = len(block)
        if n:
            self._reserve(n)
            self._buf[self._tail:self._tail + n] = block
            self._tail += n

    def _reserve(self, n: int) -> None:
        """Room for *n* more words past the tail: compact the live words
        to the front when the head has passed half the buffer and they
        fit, else grow to the larger of the need and twice the size.

        Compaction writes only below the old head, so a view of the live
        words (``q.push(q.view())``) still reads them afterwards."""
        buf = self._buf
        cap = len(buf)
        if self._tail + n <= cap:
            return
        head, size = self._head, self._tail - self._head
        if 2 * head >= cap and size + n <= cap:
            buf[:size] = buf[head:self._tail]
        else:
            new = np.empty(max(size + n, 2 * cap), np.int64)
            new[:size] = buf[head:self._tail]
            self._buf = new
        self._head, self._tail = 0, size


def _checked_block(values, what: str) -> np.ndarray:
    """One word or a 1-D block of them as an int64 array, range-checked
    whole: a bad word raises :func:`repro.word.check`'s message before
    anything is returned."""
    if isinstance(values, Integral):
        return np.array([word.check(int(values), what)], np.int64)
    if not hasattr(values, "__len__"):
        values = list(values)
    block = _int_block(values)
    if block is not None and (not block.size or (
            block.min() >= 0 and block.max() <= word.MASK)):
        return block
    return np.array(word.check_block(values, what), np.int64)


class LaneQueue:
    """One FIFO of raw 16-bit words per lane, all in one int64
    ``(capacity, lanes)`` buffer with a shared head (see module doc).

    ``count`` holds the words queued per lane.  Pops ask the same number
    of words of every lane (:meth:`drop`); a window (:meth:`gather`)
    reads rows past the head and fills what lies past a lane's count.
    """

    __slots__ = ("lanes", "count", "_buf", "_head")

    def __init__(self, lanes: int):
        self.lanes = lanes
        self.count = np.zeros(lanes, np.int64)
        self._buf = np.empty((0, lanes), np.int64)
        self._head = 0

    # -- pushes -------------------------------------------------------

    def push(self, values, lane: Optional[int] = None,
             what: str = "value") -> None:
        """Queue checked words: row i of a 2-D ``(lanes, n)`` block on
        lane i; else one word or a 1-D block on *lane*, or on every lane
        when *lane* is None.  The whole push is range-checked first, so
        a bad word raises :func:`repro.word.check`'s message and queues
        nothing."""
        if word.is_rows(values):
            self.push_rows(word.check_rows(values, what))
        elif lane is None:
            self.push_all(_checked_block(values, what))
        else:
            self.push_lane(lane, _checked_block(values, what))

    def push_rows(self, rows) -> None:
        """Append row i of *rows* to lane i, unchecked: a ``(lanes, n)``
        array, or a sequence of rows that may differ in length."""
        if not isinstance(rows, np.ndarray):
            if len({len(row) for row in rows}) > 1:
                for lane, row in enumerate(rows):
                    self.push_lane(lane, np.asarray(row, np.int64))
                return
            rows = np.array(rows, np.int64).reshape(self.lanes, -1)
        self._put(rows.T, rows.shape[1])

    def push_all(self, block: np.ndarray) -> None:
        """Append the same words to every lane, unchecked."""
        self._put(block[:, None], len(block))

    def push_lane(self, lane: int, block: np.ndarray) -> None:
        """Append words to one lane, unchecked."""
        n = len(block)
        if n:
            count = int(self.count[lane])
            self._reserve(count + n)
            start = self._head + count
            self._buf[start:start + n, lane] = block
            self.count[lane] = count + n

    # -- reads and pops -----------------------------------------------

    def peek(self, fill: int = 0):
        """The head word per lane (*fill* where a lane is empty) and the
        empty-lane mask."""
        empty = self.count == 0
        if empty.all():
            return np.full(self.lanes, fill, np.int64), empty
        head = self._buf[self._head]
        return (np.where(empty, fill, head) if empty.any()
                else head.copy()), empty

    def gather(self, start: int, n: int, step: int = 1,
               fill: int = 0) -> np.ndarray:
        """Rows ``start, start + step, ...`` past the head, *n* of them,
        as an ``(n, lanes)`` int64 array: one slice of the buffer, with
        *fill* wherever a row lies past that lane's count.  Nothing is
        popped."""
        base = self._head + start
        if step:
            words = self._buf[base:base + step * (n - 1) + 1:step]
        else:
            words = np.repeat(self._buf[base:base + 1], n, 0)
        count = self.count
        if n and int(count.min()) > start + step * (n - 1):
            return words.copy()
        out = np.full((n, self.lanes), fill, np.int64)
        out[:len(words)] = words
        out[(start + step * np.arange(n))[:, None] >= count] = fill
        return out

    def drop(self, k: int) -> np.ndarray:
        """Pop *k* words off every lane (fewer where a lane runs dry):
        one head move.  Returns the words that went, per lane."""
        landed = np.minimum(self.count, k)
        self.count -= landed
        self._head = self._head + k if self.count.any() else 0
        return landed

    def lane_view(self, lane: int) -> np.ndarray:
        """One lane's queued words, head first: a writable view of the
        buffer, valid until the next push or pop."""
        return self._buf[self._head:self._head + int(self.count[lane]),
                         lane]

    def clear(self) -> None:
        """Empty every lane in place."""
        self.count[:] = 0
        self._head = 0

    # -- storage ------------------------------------------------------

    def _put(self, cols: np.ndarray, n: int) -> None:
        """Append the rows of *cols* (``(n, lanes)``, or broadcast to
        it) past each lane's count."""
        if not n:
            return
        count = self.count
        low, high = int(count.min()), int(count.max())
        self._reserve(high + n)
        if low == high:
            start = self._head + low
            self._buf[start:start + n] = cols
        else:
            rows = self._head + count + np.arange(n)[:, None]
            self._buf[rows, np.arange(self.lanes)] = cols
        count += n

    def _reserve(self, rows: int) -> None:
        """Room for *rows* rows past the head: compact the live rows to
        the front when the head has passed half the buffer and they fit,
        else grow to the larger of the need and twice the size."""
        buf = self._buf
        cap = len(buf)
        head = self._head
        if head + rows <= cap:
            return
        live = int(self.count.max())
        if 2 * head >= cap and rows <= cap:
            buf[:live] = buf[head:head + live]
        else:
            new = np.empty((max(rows, 2 * cap), self.lanes), np.int64)
            new[:live] = buf[head:head + live]
            self._buf = new
        self._head = 0


__all__ = ["LaneQueue", "WordQueue"]
