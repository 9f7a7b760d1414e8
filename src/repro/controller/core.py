"""Cycle-accurate simulator of the RISC configuration controller.

The controller executes one instruction per system clock (the same clock
that drives the ring).  Its architectural state is 16 x 16-bit registers,
a program counter, a word-addressed data memory, and two mailbox FIFO
banks towards the host CPU.

Configuration side effects are returned from :meth:`RiscController.step`
as :class:`ConfigCommand` objects; the enclosing system
(:class:`repro.host.system.RingSystem`) applies them to the ring's
configuration memory *before* stepping the fabric, so a configuration
written at cycle *t* governs the fabric from cycle *t* on — the paper's
one-instruction-per-cycle hardware-multiplexing rate.

Blocking behaviour: ``INW`` on an empty mailbox stalls (the instruction
retries every cycle until data arrives); ``WAITI n`` occupies the
controller for *n* cycles.  Both model real handshaking without any
callback magic.  The cycles after a ``WAITI`` instruction, like every
cycle after ``HALT``, are *quiet*: no instruction executes, so the
system may run them in bulk and advance the controller in closed form
(:meth:`RiscController.quiet_cycles`, :meth:`RiscController.skip_quiet`).

Only ``RDD`` (the fabric) and ``INW``/``BFE`` (the inbound mailboxes)
read anything outside the controller, so every other instruction may
run ahead of the fabric (:meth:`RiscController.observes_outside`); if
the fabric then fails on a cycle the controller has already passed,
:meth:`RiscController.mark` / :meth:`RiscController.rewind` put the
controller back and :meth:`RiscController.advance` re-steps it to that
cycle.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.isa import MicroWord, decode as decode_microword
from repro.core.switch import PortSource, decode_route
from repro.controller.isa import Instruction, ROp, REG_MASK, NUM_REGISTERS
from repro.errors import SimulationError

DEFAULT_DMEM_WORDS = 4096

#: Instructions that read the fabric (``RDD``) or the inbound mailboxes
#: (``INW``, ``BFE``): the controller cannot run ahead of the fabric
#: over them.
_OBSERVING = frozenset({ROp.RDD, ROp.INW, ROp.BFE})


class ConfigTargetKind(enum.Enum):
    """What a :class:`ConfigCommand` writes."""

    DNODE_WORD = "dnode_word"
    LOCAL_SLOT = "local_slot"
    LOCAL_LIMIT = "local_limit"
    MODE = "mode"
    SWITCH_ROUTE = "switch_route"
    PLANE = "plane"


@dataclass(frozen=True)
class ConfigCommand:
    """One configuration write emitted by the controller.

    ``dnode`` is a flat Dnode index (``layer * width + position``); the
    system maps it onto the ring geometry.  ``microword`` / ``route`` are
    already resolved from the configuration ROM.
    """

    kind: ConfigTargetKind
    dnode: int = 0
    slot: int = 0
    limit: int = 1
    mode: int = 0
    sw: int = 0
    pos: int = 0
    port: int = 1
    plane: int = 0
    microword: Optional[MicroWord] = None
    route: Optional[PortSource] = None


@dataclass
class ControllerState:
    """Observable controller statistics.

    ``stalls`` counts every lost cycle; ``wait_stalls`` and
    ``mailbox_stalls`` split it by cause (``WAITI`` delay vs. ``INW``
    retrying an empty mailbox) so the metrics layer can tell a
    deliberately-paced program from one starved by the host.
    """

    cycles: int = 0
    retired: int = 0
    stalls: int = 0
    wait_stalls: int = 0
    mailbox_stalls: int = 0
    config_commands: int = 0
    bus_writes: int = 0


def _to_signed16(value: int) -> int:
    value &= REG_MASK
    return value - 0x10000 if value & 0x8000 else value


class RiscController:
    """The configuration controller core.

    Args:
        program: controller instructions (management code).
        cfg_rom: configuration ROM — 40-bit entries produced by the
            assembler; microword entries for ``CFGDI/CFGD/CFGL`` targets,
            16-bit route entries for ``CFGS`` targets.
        dmem_words: size of the data memory.
        mailbox_channels: number of host mailbox channels in each
            direction.
    """

    def __init__(self, program: List[Instruction],
                 cfg_rom: Optional[List[int]] = None,
                 dmem_words: int = DEFAULT_DMEM_WORDS,
                 mailbox_channels: int = 4):
        if not program:
            raise SimulationError("controller program must not be empty")
        self.program = list(program)
        self.cfg_rom: List[int] = list(cfg_rom or [])
        #: Resolver for RDD (reads a Dnode's OUT register over the shared
        #: bus); installed by the enclosing RingSystem.
        self.fabric_reader = None
        self.regs = [0] * NUM_REGISTERS
        self.pc = 0
        self.halted = False
        self.bus_out = 0
        self.dmem = [0] * dmem_words
        self.state = ControllerState()
        self._wait_remaining = 0
        self.in_box: Dict[int, Deque[int]] = {
            ch: deque() for ch in range(mailbox_channels)
        }
        self.out_box: Dict[int, Deque[int]] = {
            ch: deque() for ch in range(mailbox_channels)
        }
        # Does a mark need the data memory (only SW writes it)?
        self._stores = any(instr.op is ROp.SW for instr in self.program)

    # ------------------------------------------------------------------
    # Host-side mailbox access
    # ------------------------------------------------------------------

    def host_send(self, channel: int, value: int) -> None:
        """Host pushes a word into the controller's inbound mailbox."""
        self._check_channel(channel, self.in_box)
        self.in_box[channel].append(value & REG_MASK)

    def host_receive(self, channel: int) -> Optional[int]:
        """Host pops a word from the outbound mailbox (None when empty)."""
        self._check_channel(channel, self.out_box)
        box = self.out_box[channel]
        return box.popleft() if box else None

    @staticmethod
    def _check_channel(channel: int, bank: Dict[int, Deque[int]]) -> None:
        if channel not in bank:
            raise SimulationError(f"mailbox channel {channel} does not exist")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> List[ConfigCommand]:
        """Execute one controller cycle; return configuration commands."""
        self.state.cycles += 1
        if self.halted:
            return []
        if self._wait_remaining > 0:
            self._wait_remaining -= 1
            self.state.stalls += 1
            self.state.wait_stalls += 1
            return []
        if not 0 <= self.pc < len(self.program):
            raise SimulationError(
                f"controller PC {self.pc} outside program "
                f"(0..{len(self.program) - 1})"
            )
        instr = self.program[self.pc]
        commands = self._execute(instr)
        self.state.config_commands += len(commands)
        return commands

    def quiet_cycles(self) -> Optional[int]:
        """Upcoming cycles that execute no instruction.

        The rest of a ``WAITI`` delay, or None (unbounded) once halted.
        Quiet cycles emit no configuration commands and leave
        :attr:`bus_out` alone, so the enclosing system may run them in
        bulk and account for them with :meth:`skip_quiet`.
        """
        return None if self.halted else self._wait_remaining

    def skip_quiet(self, cycles: int) -> None:
        """The closed form of *cycles* quiet :meth:`step` calls."""
        quiet = self.quiet_cycles()
        if cycles < 0 or (quiet is not None and cycles > quiet):
            raise SimulationError(
                f"cannot skip {cycles} cycles: {quiet} quiet cycles left")
        self.state.cycles += cycles
        if quiet is not None:
            self._wait_remaining -= cycles
            self.state.stalls += cycles
            self.state.wait_stalls += cycles

    def observes_outside(self) -> bool:
        """Does the next cycle execute ``RDD``, ``INW`` or ``BFE``?

        Those read the fabric or the host mailboxes; every other cycle
        depends only on the controller's own state, so it may run ahead
        of the fabric it configures.
        """
        return (not self.halted and not self._wait_remaining
                and 0 <= self.pc < len(self.program)
                and self.program[self.pc].op in _OBSERVING)

    def mark(self) -> tuple:
        """A checkpoint of the run state for :meth:`rewind`.

        Cheap: the data memory is copied only for a program that stores
        to it, and the mailboxes only by length, so it holds while the
        controller runs ahead (no mailbox read, no host traffic).
        """
        return (list(self.regs), self.pc, self.halted, self.bus_out,
                self._wait_remaining, vars(self.state).copy(),
                [len(box) for box in self.out_box.values()],
                list(self.dmem) if self._stores else None)

    def rewind(self, mark: tuple) -> None:
        """Return to a :meth:`mark` taken since the last mailbox read."""
        (regs, self.pc, self.halted, self.bus_out, self._wait_remaining,
         state, sent, dmem) = mark
        self.regs[:] = regs
        vars(self.state).update(state)
        for box, length in zip(self.out_box.values(), sent):
            while len(box) > length:
                box.pop()
        if dmem is not None:
            self.dmem[:] = dmem

    def advance(self, cycles: int) -> None:
        """Step *cycles* cycles, quiet stretches in closed form, and drop
        their configuration commands: re-stepping cycles whose commands
        were already applied (after a :meth:`rewind`)."""
        while cycles:
            quiet = self.quiet_cycles()
            if quiet == 0:
                self.step()
                cycles -= 1
            else:
                span = cycles if quiet is None else min(quiet, cycles)
                self.skip_quiet(span)
                cycles -= span

    def run_until_halt(self, max_cycles: int = 1_000_000) -> int:
        """Free-run (no fabric attached) until HALT; returns cycles used."""
        start = self.state.cycles
        while not self.halted:
            self.step()
            if self.state.cycles - start > max_cycles:
                raise SimulationError(
                    f"controller did not halt within {max_cycles} cycles"
                )
        return self.state.cycles - start

    # ------------------------------------------------------------------

    def _execute(self, instr: Instruction) -> List[ConfigCommand]:
        op = instr.op
        next_pc = self.pc + 1
        commands: List[ConfigCommand] = []

        if op is ROp.NOP:
            pass
        elif op is ROp.HALT:
            self.halted = True
            next_pc = self.pc
        elif op is ROp.LDI:
            self.regs[instr.rd] = instr.imm & REG_MASK
        elif op is ROp.MOV:
            self.regs[instr.rd] = self.regs[instr.rs]
        elif op in (ROp.ADD, ROp.SUB, ROp.AND, ROp.OR, ROp.XOR,
                    ROp.SHL, ROp.SHR, ROp.SAR, ROp.MUL):
            self.regs[instr.rd] = self._alu(op, self.regs[instr.rs],
                                            self.regs[instr.rt])
        elif op is ROp.ADDI:
            self.regs[instr.rd] = (self.regs[instr.rs] + instr.imm) & REG_MASK
        elif op in (ROp.BEQ, ROp.BNE, ROp.BLT, ROp.BGE):
            if self._branch_taken(op, self.regs[instr.rs],
                                  self.regs[instr.rt]):
                next_pc = self.pc + 1 + instr.imm
        elif op is ROp.JMP:
            next_pc = instr.imm
        elif op is ROp.JAL:
            self.regs[15] = (self.pc + 1) & REG_MASK
            next_pc = instr.imm
        elif op is ROp.JR:
            next_pc = self.regs[instr.rs]
        elif op is ROp.LW:
            self.regs[instr.rd] = self.dmem[self._dmem_addr(instr)]
        elif op is ROp.SW:
            self.dmem[self._dmem_addr(instr)] = self.regs[instr.rt]
        elif op is ROp.CFGDI:
            commands.append(ConfigCommand(
                ConfigTargetKind.DNODE_WORD, dnode=instr.dnode,
                microword=self._rom_microword(instr.cfg)))
        elif op is ROp.CFGD:
            commands.append(ConfigCommand(
                ConfigTargetKind.DNODE_WORD, dnode=self.regs[instr.rs],
                microword=self._rom_microword(self.regs[instr.rt])))
        elif op is ROp.CFGL:
            commands.append(ConfigCommand(
                ConfigTargetKind.LOCAL_SLOT, dnode=instr.dnode,
                slot=instr.slot, microword=self._rom_microword(instr.cfg)))
        elif op is ROp.CFGLIM:
            commands.append(ConfigCommand(
                ConfigTargetKind.LOCAL_LIMIT, dnode=instr.dnode,
                limit=instr.limit))
        elif op is ROp.CFGMODE:
            commands.append(ConfigCommand(
                ConfigTargetKind.MODE, dnode=instr.dnode, mode=instr.mode))
        elif op is ROp.CFGS:
            commands.append(ConfigCommand(
                ConfigTargetKind.SWITCH_ROUTE, sw=instr.sw, pos=instr.pos,
                port=instr.port, route=self._rom_route(instr.cfg)))
        elif op is ROp.CFGPLANE:
            commands.append(ConfigCommand(
                ConfigTargetKind.PLANE, plane=instr.plane))
        elif op is ROp.CFGIMM:
            template = self._rom_microword(instr.cfg)
            patched = MicroWord(
                op=template.op, src_a=template.src_a,
                src_b=template.src_b, dst=template.dst,
                flags=template.flags, imm=self.regs[instr.rs])
            commands.append(ConfigCommand(
                ConfigTargetKind.DNODE_WORD, dnode=instr.dnode,
                microword=patched))
        elif op is ROp.RDD:
            if self.fabric_reader is None:
                raise SimulationError(
                    "RDD executed with no fabric attached (the shared "
                    "bus read path is wired by RingSystem)"
                )
            self.regs[instr.rd] = self.fabric_reader(instr.dnode) \
                & REG_MASK
        elif op is ROp.BUSW:
            self.bus_out = self.regs[instr.rs]
            self.state.bus_writes += 1
        elif op is ROp.INW:
            box = self.in_box.get(instr.ch)
            if box is None:
                raise SimulationError(f"INW: no mailbox channel {instr.ch}")
            if not box:
                # Stall: retry this instruction next cycle.
                self.state.stalls += 1
                self.state.mailbox_stalls += 1
                return []
            self.regs[instr.rd] = box.popleft()
        elif op is ROp.OUTW:
            box = self.out_box.get(instr.ch)
            if box is None:
                raise SimulationError(f"OUTW: no mailbox channel {instr.ch}")
            box.append(self.regs[instr.rs])
        elif op is ROp.BFE:
            box = self.in_box.get(instr.ch)
            if box is None:
                raise SimulationError(f"BFE: no mailbox channel {instr.ch}")
            if not box:
                next_pc = self.pc + 1 + instr.imm
        elif op is ROp.WAITI:
            self._wait_remaining = max(instr.imm - 1, 0)
        else:  # pragma: no cover - every opcode is handled above
            raise SimulationError(f"unimplemented opcode {op!r}")

        self.state.retired += 1
        self.pc = next_pc
        return commands

    @staticmethod
    def _alu(op: ROp, a: int, b: int) -> int:
        if op is ROp.ADD:
            return (a + b) & REG_MASK
        if op is ROp.SUB:
            return (a - b) & REG_MASK
        if op is ROp.AND:
            return a & b
        if op is ROp.OR:
            return a | b
        if op is ROp.XOR:
            return a ^ b
        if op is ROp.SHL:
            return (a << (b & 15)) & REG_MASK
        if op is ROp.SHR:
            return (a & REG_MASK) >> (b & 15)
        if op is ROp.SAR:
            return (_to_signed16(a) >> (b & 15)) & REG_MASK
        if op is ROp.MUL:
            return (_to_signed16(a) * _to_signed16(b)) & REG_MASK
        raise SimulationError(f"not an ALU op: {op!r}")

    @staticmethod
    def _branch_taken(op: ROp, a: int, b: int) -> bool:
        if op is ROp.BEQ:
            return a == b
        if op is ROp.BNE:
            return a != b
        if op is ROp.BLT:
            return _to_signed16(a) < _to_signed16(b)
        if op is ROp.BGE:
            return _to_signed16(a) >= _to_signed16(b)
        raise SimulationError(f"not a branch op: {op!r}")

    def _dmem_addr(self, instr: Instruction) -> int:
        addr = (self.regs[instr.rs] + instr.imm) & REG_MASK
        if addr >= len(self.dmem):
            raise SimulationError(
                f"data-memory access at {addr:#06x} outside "
                f"{len(self.dmem)}-word memory"
            )
        return addr

    def _rom_entry(self, index: int) -> int:
        if not 0 <= index < len(self.cfg_rom):
            raise SimulationError(
                f"configuration ROM index {index} outside "
                f"0..{len(self.cfg_rom) - 1}"
            )
        return self.cfg_rom[index]

    def _rom_microword(self, index: int) -> MicroWord:
        return decode_microword(self._rom_entry(index))

    def _rom_route(self, index: int) -> PortSource:
        return decode_route(self._rom_entry(index))

    def __repr__(self) -> str:
        status = "halted" if self.halted else f"pc={self.pc}"
        return f"RiscController({status}, cycle={self.state.cycles})"


__all__ = [
    "ConfigCommand",
    "ConfigTargetKind",
    "ControllerState",
    "RiscController",
]
