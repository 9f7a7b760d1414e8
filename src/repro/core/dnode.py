"""The Dnode (Data node): coarse-grained reconfigurable datapath cell.

Paper §4.1.  A Dnode bundles a 16-bit ALU, a hardwired multiplier, a
4x16-bit register file, an output register, and a small local control
unit.  Each cycle it executes one microinstruction that comes from one of
two places depending on its *execution mode*:

* **global mode** — the microword written by the RISC configuration
  controller into the configuration layer (rewritable every cycle:
  hardware multiplexing);
* **local mode** — the microword selected by the Dnode's own 8-slot
  sequencer (:class:`~repro.core.local_controller.LocalController`), with
  no controller involvement (stand-alone macro-operator).

Evaluation is two-phase to model master-slave registers: ``evaluate()``
reads only values latched at the previous clock edge and stages writes;
``commit()`` is the clock edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import word
from repro.core.alu import execute_op
from repro.core.isa import (
    Dest,
    Flag,
    MicroWord,
    NOP_WORD,
    Opcode,
    Source,
    ACCUMULATING_OPS,
)
from repro.core.local_controller import LocalController
from repro.core.regfile import RegisterFile
from repro.errors import ConfigurationError, SimulationError


class DnodeMode(enum.Enum):
    """Execution mode of a Dnode (the paper's multi-level reconfiguration)."""

    GLOBAL = "global"
    LOCAL = "local"


@dataclass
class DnodeInputs:
    """Operand values/accessors supplied by the fabric for one cycle.

    The ring resolves the switch routing before calling the Dnode, so
    ``in1``/``in2`` are plain values; FIFO and feedback-pipeline reads stay
    as callables because which ones are touched depends on the microword.
    """

    in1: int = 0
    in2: int = 0
    bus: int = 0
    fifo_peek: Callable[[int], int] = lambda channel: 0
    rp_read: Callable[[int, int], int] = lambda stage, lane: 0


@dataclass
class DnodeStats:
    """Per-Dnode activity counters (drives MIPS/utilisation reporting)."""

    cycles: int = 0
    instructions: int = 0       # non-NOP microwords executed
    arithmetic_ops: int = 0     # elementary operator activations (MAC = 2)
    multiplies: int = 0
    fifo_pops: int = 0

    def reset(self) -> None:
        self.cycles = 0
        self.instructions = 0
        self.arithmetic_ops = 0
        self.multiplies = 0
        self.fifo_pops = 0


#: Elementary-operator cost of each opcode (the Dnode can chain at most two
#: per cycle; used for utilisation statistics).
_OP_COST = {
    Opcode.NOP: 0,
    Opcode.MOV: 0,
    Opcode.MAC: 2,
    Opcode.MACS: 2,
    Opcode.ABSDIFF: 2,
    Opcode.AVG2: 2,
    Opcode.MADD: 2,
    Opcode.MSUB: 2,
}

_MULTIPLY_OPS = frozenset(
    {Opcode.MUL, Opcode.MULH, Opcode.MAC, Opcode.MACS,
     Opcode.MADD, Opcode.MSUB}
)


def check_microword(microword: MicroWord) -> None:
    """Reject anything but a :class:`MicroWord` as a global microword."""
    if not isinstance(microword, MicroWord):
        raise ConfigurationError(
            f"expected MicroWord, got {type(microword).__name__}"
        )


def check_mode(mode: DnodeMode) -> None:
    """Reject anything but a :class:`DnodeMode`."""
    if not isinstance(mode, DnodeMode):
        raise ConfigurationError(f"expected DnodeMode, got {mode!r}")


def dnode_fingerprint(mode: DnodeMode, global_word: MicroWord,
                       slots: Sequence[MicroWord], limit: int) -> tuple:
    """The configuration digest of a Dnode holding these fields.

    Covers exactly the configuration state a compiled plan depends on:
    the mode bit plus either the global microword or the local
    sequencer's LIMIT and *active* slots (writes to slots at or above
    LIMIT cannot execute, so they do not perturb the fingerprint).
    """
    if mode is DnodeMode.GLOBAL:
        return (0, global_word)
    return (1, limit, tuple(slots[:limit]))


class Dnode:
    """One reconfigurable datapath cell of the operative layer."""

    def __init__(self, layer: int = 0, position: int = 0,
                 name: Optional[str] = None):
        self.layer = layer
        self.position = position
        self.name = name or f"D{layer}.{position}"
        self.regs = RegisterFile()
        self.local = LocalController()
        self.stats = DnodeStats()
        self._mode = DnodeMode.GLOBAL
        self._global_word: MicroWord = NOP_WORD
        self._out = 0
        self._out_pending: Optional[int] = None
        self._pops_pending: tuple = ()
        #: Invalidation hook: called after every configuration mutation
        #: (microword, mode, or local-sequencer contents).  The owning ring
        #: points this at its fast-path invalidator.
        self.on_config_change: Optional[Callable[[], None]] = None
        #: Cached configuration fingerprint (see config_fingerprint()).
        self._config_fp: Optional[tuple] = None
        self.local.on_change = self._config_changed

    def _config_changed(self) -> None:
        self._config_fp = None
        if self.on_config_change is not None:
            self.on_config_change()

    def config_fingerprint(self) -> tuple:
        """A stable, hashable digest of everything that selects execution
        (see :func:`dnode_fingerprint`).  Cached until the next
        configuration mutation.
        """
        fp = self._config_fp
        if fp is None:
            local = self.local
            fp = self._config_fp = dnode_fingerprint(
                self._mode, self._global_word, local._slots, local._limit)
        return fp

    def rewrite(self, microword: Optional[MicroWord],
                mode: Optional[DnodeMode], slot_writes: tuple,
                limit: Optional[int], fingerprint: Optional[tuple]) -> None:
        """Quietly overwrite pre-validated configuration fields.

        The plane-apply path of
        :class:`~repro.core.config_memory.ConfigMemory`: None leaves a
        field as it is, *slot_writes* holds ``(slot, microword)`` pairs,
        and a new LIMIT clamps the counter like
        :meth:`LocalController.set_limit`.  No change hook fires — the
        caller invalidates the ring once for the whole plane — and
        *fingerprint* (None = recompute) replaces the cached one.
        """
        if microword is not None:
            self._global_word = microword
        if mode is not None:
            self._mode = mode
        local = self.local
        for index, slot_word in slot_writes:
            local._slots[index] = slot_word
        if limit is not None:
            local._limit = limit
            if local._counter >= limit:
                local._counter = 0
        self._config_fp = fingerprint

    # ------------------------------------------------------------------
    # Configuration interface (used by the configuration layer/controller)
    # ------------------------------------------------------------------

    @property
    def out(self) -> int:
        """Output register value as latched at the previous clock edge."""
        return self._out

    @out.setter
    def out(self, value: int) -> None:
        """Seed the output register (host-side state injection).

        Lets a host preload recurrence state — e.g. an NCO phase seed
        into a ``ADD SELF`` accumulator — before streaming begins, the
        data-plane analogue of a configuration write.
        """
        self._out = word.from_signed(word.to_signed(int(value)))
        self._out_pending = None

    @property
    def global_word(self) -> MicroWord:
        """Microword currently held for global-mode execution."""
        return self._global_word

    @property
    def mode(self) -> DnodeMode:
        """Current execution mode (global or local)."""
        return self._mode

    @mode.setter
    def mode(self, mode: DnodeMode) -> None:
        self.set_mode(mode)

    def configure(self, microword: MicroWord) -> None:
        """Write the global-mode microinstruction (configuration layer)."""
        check_microword(microword)
        self._global_word = microword
        self._config_changed()

    def set_mode(self, mode: DnodeMode) -> None:
        """Switch between global and local (stand-alone) execution."""
        check_mode(mode)
        self._mode = mode
        self._config_changed()

    def active_microword(self) -> MicroWord:
        """The microinstruction this Dnode will execute this cycle."""
        if self.mode is DnodeMode.LOCAL:
            return self.local.current()
        return self._global_word

    # ------------------------------------------------------------------
    # Two-phase execution
    # ------------------------------------------------------------------

    def evaluate(self, inputs: DnodeInputs) -> None:
        """Phase 1: read operands, compute, stage all writes.

        Reads observe pre-edge state only (registers, OUT of other Dnodes,
        pipelines), so evaluation order across Dnodes cannot matter.
        """
        mw = self.active_microword()
        self.stats.cycles += 1
        pops = []
        if mw.flags & Flag.POP_FIFO1:
            pops.append(1)
        if mw.flags & Flag.POP_FIFO2:
            pops.append(2)
        self._pops_pending = tuple(pops)
        if mw.op is Opcode.NOP:
            return

        a = self._read_source(mw.src_a, mw, inputs)
        b = self._read_source(mw.src_b, mw, inputs) if mw.is_binary else 0
        acc = 0
        if mw.op in ACCUMULATING_OPS:
            acc = self.regs.read(int(mw.dst))
        result = execute_op(mw.op, a, b, acc, imm=mw.imm)

        self.stats.instructions += 1
        self.stats.arithmetic_ops += _OP_COST.get(mw.op, 1)
        if mw.op in _MULTIPLY_OPS:
            self.stats.multiplies += 1

        if mw.dst.is_register:
            self.regs.stage_write(int(mw.dst), result)
        elif mw.dst is Dest.OUT:
            self._out_pending = result
        if mw.flags & Flag.WRITE_OUT and mw.dst is not Dest.OUT:
            self._out_pending = result

    def commit(self) -> tuple:
        """Phase 2 (clock edge): apply staged writes, advance sequencer.

        Returns:
            The FIFO channels (1 and/or 2) this Dnode *requests* to pop
            this cycle; the fabric applies the pops so a peeked head stays
            stable within the cycle, and reports back the pops that
            actually dequeued a word via :meth:`count_fifo_pop` —
            ``stats.fifo_pops`` therefore counts real dequeues only, never
            underflowed pop requests.
        """
        self.regs.commit()
        if self._out_pending is not None:
            self._out = self._out_pending
            self._out_pending = None
        if self.mode is DnodeMode.LOCAL:
            self.local.advance()
        pops = self._pops_pending
        self._pops_pending = ()
        return pops

    def discard(self) -> None:
        """Drop everything :meth:`evaluate` staged: the cycle aborted
        before its clock edge, so no later edge may commit it."""
        self.regs.discard()
        self._out_pending = None
        self._pops_pending = ()

    def count_fifo_pop(self) -> None:
        """Fabric callback: one requested pop actually dequeued a word."""
        self.stats.fifo_pops += 1

    def reset(self) -> None:
        """Return the datapath to its power-on state (config preserved)."""
        self.regs.reset()
        self.local.reset_counter()
        self.stats.reset()
        self._out = 0
        self._out_pending = None
        self._pops_pending = ()

    # ------------------------------------------------------------------

    def _read_source(self, src: Source, mw: MicroWord,
                     inputs: DnodeInputs) -> int:
        if src <= Source.R3:
            return self.regs.read(int(src))
        if src is Source.IN1:
            return word.check(inputs.in1, f"{self.name} IN1")
        if src is Source.IN2:
            return word.check(inputs.in2, f"{self.name} IN2")
        if src is Source.FIFO1:
            return word.check(inputs.fifo_peek(1), f"{self.name} FIFO1")
        if src is Source.FIFO2:
            return word.check(inputs.fifo_peek(2), f"{self.name} FIFO2")
        if src is Source.BUS:
            return word.check(inputs.bus, f"{self.name} BUS")
        if src is Source.IMM:
            return mw.imm
        if src is Source.SELF:
            return self._out
        if src is Source.ZERO:
            return 0
        if src.is_feedback:
            return word.check(
                inputs.rp_read(src.feedback_stage, src.feedback_lane),
                f"{self.name} {src.name}",
            )
        raise SimulationError(f"unhandled source {src!r}")

    def __repr__(self) -> str:
        return (
            f"Dnode({self.name}, mode={self.mode.value}, "
            f"out={self._out:#06x})"
        )


__all__ = ["Dnode", "DnodeMode", "DnodeInputs", "DnodeStats",
           "check_microword", "check_mode", "dnode_fingerprint"]
