"""Per-Dnode local control unit (stand-alone / local mode).

Paper §4.1: "each Dnode has a special control unit constituted by 9
registers, a up to 8-states counter and a 8 to 1 multiplexer which forms a
small local controller.  Each one of the 8 first registers can contain a
Dnode microinstruction code, and each clock cycle the counter increases the
value on the multiplexer address input, thus sending the content of a
register to the datapath part of the Dnode."

We model exactly that: 8 microinstruction slots, a LIMIT register (the 9th)
bounding the counter, and a modulo counter driving an 8:1 mux.  In local
mode the Dnode loops over slots ``0 .. LIMIT-1`` forever with no RISC
controller involvement — the mechanism that makes large rings scalable.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.core.isa import MicroWord, NOP_WORD
from repro.errors import ConfigurationError

NUM_SLOTS = 8


def check_slot(index: int, microword: MicroWord) -> None:
    """Validate one instruction-register write (slot index, word type)."""
    if not 0 <= index < NUM_SLOTS:
        raise ConfigurationError(
            f"local slot index must be 0..{NUM_SLOTS - 1}, got {index}"
        )
    if not isinstance(microword, MicroWord):
        raise ConfigurationError(
            f"local slot expects a MicroWord, got {type(microword).__name__}"
        )


def check_limit(limit: int) -> None:
    """Validate a LIMIT register value."""
    if not 1 <= limit <= NUM_SLOTS:
        raise ConfigurationError(
            f"LIMIT must be 1..{NUM_SLOTS}, got {limit}"
        )


class LocalController:
    """The 9-register local sequencer of a Dnode."""

    __slots__ = ("_slots", "_limit", "_counter", "on_change")

    def __init__(self):
        self._slots: List[MicroWord] = [NOP_WORD] * NUM_SLOTS
        self._limit = 1
        self._counter = 0
        #: Invalidation hook: called after every *configuration* mutation
        #: (slot/LIMIT writes).  Counter movement is runtime state and does
        #: not fire it.  Wired by the owning Dnode.
        self.on_change: Optional[Callable[[], None]] = None

    @property
    def limit(self) -> int:
        """Number of active slots (1..8); the counter wraps at this value."""
        return self._limit

    @property
    def counter(self) -> int:
        """Current state of the modulo counter (0..limit-1)."""
        return self._counter

    def load_slot(self, index: int, microword: MicroWord) -> None:
        """Write one of the 8 instruction registers."""
        check_slot(index, microword)
        self._slots[index] = microword
        if self.on_change is not None:
            self.on_change()

    def load_program(self, program: Iterable[MicroWord]) -> None:
        """Load a whole loop body and set LIMIT to its length.

        Also resets the counter, so the loop starts from slot 0 on the next
        cycle — the normal way kernels install a local program.
        """
        words = list(program)
        if not 1 <= len(words) <= NUM_SLOTS:
            raise ConfigurationError(
                f"local program must be 1..{NUM_SLOTS} microwords, "
                f"got {len(words)}"
            )
        for i, mw in enumerate(words):
            self.load_slot(i, mw)
        for i in range(len(words), NUM_SLOTS):
            self._slots[i] = NOP_WORD
        self.set_limit(len(words))
        self.reset_counter()

    def set_limit(self, limit: int) -> None:
        """Write the LIMIT register (the 9th register of the control unit)."""
        check_limit(limit)
        self._limit = limit
        if self._counter >= limit:
            self._counter = 0
        if self.on_change is not None:
            self.on_change()

    def reset_counter(self) -> None:
        """Force the state counter back to slot 0."""
        self._counter = 0

    def current(self) -> MicroWord:
        """The microword selected by the 8:1 mux this cycle."""
        return self._slots[self._counter]

    def advance(self) -> None:
        """Clock edge: step the modulo counter."""
        self._counter = (self._counter + 1) % self._limit

    def slots(self) -> List[MicroWord]:
        """Copy of all 8 instruction registers (debug/trace helper)."""
        return list(self._slots)

    def __repr__(self) -> str:
        return (
            f"LocalController(limit={self._limit}, counter={self._counter})"
        )
