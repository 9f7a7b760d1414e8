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
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterator

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


__all__ = ["WordQueue"]
