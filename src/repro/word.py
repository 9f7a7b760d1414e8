"""16-bit word arithmetic for the Systolic Ring datapath.

The Dnode datapath is 16 bits wide (paper §4.1).  All fabric values are
stored as unsigned 16-bit integers (``0 .. 0xFFFF``); arithmetic wraps
modulo 2**16 exactly as a hardware adder would.  Helpers here convert
between the raw bus representation and Python signed integers, so kernel
code can reason in two's complement while the simulator stays in raw bits.
"""

from __future__ import annotations

from numbers import Integral

WIDTH = 16
MASK = (1 << WIDTH) - 1
SIGN_BIT = 1 << (WIDTH - 1)
MIN_SIGNED = -(1 << (WIDTH - 1))
MAX_SIGNED = (1 << (WIDTH - 1)) - 1


def wrap(value: int) -> int:
    """Reduce an arbitrary Python integer to a raw 16-bit bus value."""
    return value & MASK


def to_signed(raw: int) -> int:
    """Interpret a raw 16-bit value as a two's-complement signed integer."""
    raw &= MASK
    return raw - (1 << WIDTH) if raw & SIGN_BIT else raw


def from_signed(value: int) -> int:
    """Encode a Python integer as a raw 16-bit two's-complement value.

    Values outside ``[-32768, 32767]`` wrap, mirroring hardware overflow.
    """
    return value & MASK


def is_valid(raw: int) -> bool:
    """Return True when *raw* is already a canonical 16-bit bus value."""
    return isinstance(raw, int) and 0 <= raw <= MASK


def check(raw: int, what: str = "value") -> int:
    """Validate that *raw* is a canonical bus value, returning it unchanged.

    Raises:
        ValueError: if *raw* is not an integer in ``[0, 0xFFFF]``.
    """
    if not is_valid(raw):
        raise ValueError(f"{what} must be a 16-bit raw word, got {raw!r}")
    return raw


def check_block(values, what: str = "value") -> list:
    """Validate a block of raw words in one pass; returns a list of ints.

    A list of plain ints or a 1-D integer ndarray takes one range check
    for the whole block.  Any integer scalar (a NumPy one included) is a
    block of one word.  Anything else, and any block holding a bad word,
    is checked word by word as ``check(int(v), what)``, so a bad word
    raises exactly the message :func:`check` gives for it.
    """
    if isinstance(values, Integral):
        return [check(int(values), what)]
    dtype = getattr(values, "dtype", None)
    if dtype is not None and dtype.kind in "iu" and values.ndim == 1:
        if not values.size or (values.min() >= 0
                               and values.max() <= MASK):
            return values.tolist()
    else:
        values = list(values)
        if not values or (set(map(type, values)) == {int}
                          and 0 <= min(values) and max(values) <= MASK):
            return values
    return [check(int(v), what) for v in values]


def is_rows(values) -> bool:
    """True when *values* is a 2-D block of words, one row per lane: a
    2-D ndarray, or a list or tuple of rows."""
    ndim = getattr(values, "ndim", None)
    if ndim is not None:
        return ndim == 2
    if not isinstance(values, (list, tuple)) or not values:
        return False
    first = values[0]
    return isinstance(first, (list, tuple)) or getattr(first, "ndim", 0) == 1


def check_rows(block, what: str = "value"):
    """Validate a 2-D block of raw words, one row per lane, before the
    caller queues any row.

    An integer ndarray takes one range check for the whole block and is
    returned as it is.  Otherwise every row is checked as
    :func:`check_block`, so the first bad word (row by row) raises its
    :func:`check` message, and the rows come back as lists of ints.
    """
    dtype = getattr(block, "dtype", None)
    if dtype is not None and dtype.kind in "iu" and (
            not block.size
            or (block.min() >= 0 and block.max() <= MASK)):
        return block
    return [check_block(row, what) for row in block]


def saturate_signed(value: int) -> int:
    """Clamp a Python integer into signed 16-bit range and return raw bits.

    Used by saturating DSP operations (the hardwired multiplier feeding the
    adder can overflow; kernels that need saturation request it explicitly).
    """
    if value > MAX_SIGNED:
        value = MAX_SIGNED
    elif value < MIN_SIGNED:
        value = MIN_SIGNED
    return value & MASK
