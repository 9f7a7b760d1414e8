"""The Dnode's 4x16-bit register file with master-slave update semantics.

The paper (§4.1) stresses that "all the possible operations can take place
in a single clock cycle, even between two registers, with the result stored
in one of these two registers (master-slave register architecture)".  We
model that by separating *read* (always the value latched at the previous
clock edge) from *write* (staged, committed at :meth:`RegisterFile.commit`).
"""

from __future__ import annotations

from typing import List, Optional

from repro import word
from repro.errors import SimulationError

NUM_REGISTERS = 4
_ZEROS = (0,) * NUM_REGISTERS


class RegisterFile:
    """Four 16-bit registers with edge-triggered (master-slave) writes.

    Reads within a cycle observe the pre-edge values even after a staged
    write, so an instruction like ``add r0, r0, r1`` behaves like real
    hardware: both operands are the old values and the sum appears only
    after :meth:`commit`.
    """

    __slots__ = ("_values", "_pending_index", "_pending_value")

    def __init__(self, initial: Optional[List[int]] = None):
        if initial is None:
            self._values = [0] * NUM_REGISTERS
        else:
            if len(initial) != NUM_REGISTERS:
                raise SimulationError(
                    f"register file holds {NUM_REGISTERS} words, "
                    f"got {len(initial)} initial values"
                )
            self._values = [word.check(v, "register init") for v in initial]
        self._pending_index: Optional[int] = None
        self._pending_value = 0

    def read(self, index: int) -> int:
        """Read register *index* (0..3) as latched at the last clock edge."""
        self._check_index(index)
        return self._values[index]

    def stage_write(self, index: int, value: int) -> None:
        """Stage a write to register *index*, visible after :meth:`commit`.

        A Dnode executes one microinstruction per cycle, so at most one
        register write can be staged; staging a second one in the same
        cycle indicates an engine bug.
        """
        self._check_index(index)
        word.check(value, "register write")
        if self._pending_index is not None:
            raise SimulationError(
                "register file already has a staged write this cycle"
            )
        self._pending_index = index
        self._pending_value = value

    def commit(self) -> None:
        """Clock edge: apply the staged write, if any."""
        if self._pending_index is not None:
            self._values[self._pending_index] = self._pending_value
            self._pending_index = None

    def discard(self) -> None:
        """Drop the staged write, if any (its cycle was aborted)."""
        self._pending_index = None

    def snapshot(self) -> List[int]:
        """Copy of the committed register values (debug/trace helper)."""
        return list(self._values)

    def reset(self) -> None:
        """Clear all registers and any staged write.

        Clears the backing list in place — the list object's identity is
        stable for the life of the register file, so the ring's fast-path
        engine can close over it directly.
        """
        self._values[:] = _ZEROS
        self._pending_index = None

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < NUM_REGISTERS:
            raise SimulationError(
                f"register index must be 0..{NUM_REGISTERS - 1}, got {index}"
            )

    def __repr__(self) -> str:
        vals = ", ".join(f"r{i}={v:#06x}" for i, v in enumerate(self._values))
        return f"RegisterFile({vals})"
