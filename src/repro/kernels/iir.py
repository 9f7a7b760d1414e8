"""Recursive ("RII") filters on the Systolic Ring.

First-order section ``y[n] = b0*x[n] + a1*y[n-1]`` mapped on two Dnodes at
1 sample/cycle:

* layer 0: ``mul out, in1, #b0`` (host stream in);
* layer 1: ``madd out, in1, self, #a1`` — the recursion closes through
  the Dnode's own output register (``SELF``), the tightest feedback path
  the architecture offers; no routing resources are consumed.

The :func:`mac_accumulate` kernel is the paper's headline MAC
macro-operator: one local-mode Dnode performing a multiply-accumulate
every cycle ("its instruction set features for instance a MAC operation
using this resources"), i.e. a 1-MAC/cycle dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import word
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.host.system import RingSystem
from repro.kernels.taps import tap_lane0


@dataclass
class IirResult:
    """Outcome of a fabric IIR run."""

    outputs: List[int]
    cycles: int
    dnodes_used: int


def build_first_order_iir(b0: int, a1: int,
                          ring: Optional[Ring] = None) -> RingSystem:
    """Configure *ring* as a first-order recursive filter."""
    if ring is None:
        ring = Ring(RingGeometry(layers=2, width=2))
    cfg = ring.config
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_microword(0, 0, MicroWord(
        Opcode.MUL, Source.IN1, Source.IMM, Dest.OUT,
        imm=word.from_signed(int(b0))))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_microword(1, 0, MicroWord(
        Opcode.MADD, Source.IN1, Source.SELF, Dest.OUT,
        imm=word.from_signed(int(a1))))
    return RingSystem(ring)


def first_order_iir(signal: Sequence[int], b0: int, a1: int,
                    ring: Optional[Ring] = None) -> IirResult:
    """Run ``y[n] = b0*x[n] + a1*y[n-1]`` on the fabric.

    Bit-exact against
    :func:`repro.kernels.reference.iir_first_order` (shift=0) while the
    outputs stay within 16 bits.
    """
    system = build_first_order_iir(b0, a1, ring)
    samples = [word.from_signed(int(v)) for v in signal]
    system.data.stream(0, samples)
    tap = system.data.add_tap(1, 0, skip=1, limit=len(samples))
    system.run(len(samples) + 2)
    return IirResult(
        outputs=[word.to_signed(v) for v in tap_lane0(tap)],
        cycles=system.cycles,
        dnodes_used=2,
    )


def biquad_program(b0: int, a1: int, a2: int) -> List[MicroWord]:
    """Local-mode loop for ``y[n] = b0*x[n] + a1*y[n-1] + a2*y[n-2]``.

    One Dnode, five slots, one sample per 5 cycles (the resource-shared
    "RII" of the conclusion).  Register allocation: R1 = y[n-1],
    R2 = y[n-2]; the recursion state never leaves the Dnode::

        0: mul  r0, fifo1, #b0  [pop1]
        1: madd r0, r0, r1, #a1
        2: madd r0, r0, r2, #a2 [wout]   ; y[n] published
        3: mov  r2, r1
        4: mov  r1, r0
    """
    return [
        MicroWord(Opcode.MUL, Source.FIFO1, Source.IMM, Dest.R0,
                  flags=Flag.POP_FIFO1, imm=word.from_signed(int(b0))),
        MicroWord(Opcode.MADD, Source.R0, Source.R1, Dest.R0,
                  imm=word.from_signed(int(a1))),
        MicroWord(Opcode.MADD, Source.R0, Source.R2, Dest.R0,
                  flags=Flag.WRITE_OUT, imm=word.from_signed(int(a2))),
        MicroWord(Opcode.MOV, Source.R1, dst=Dest.R2),
        MicroWord(Opcode.MOV, Source.R0, dst=Dest.R1),
    ]


def biquad(signal: Sequence[int], b0: int, a1: int, a2: int,
           ring: Optional[Ring] = None,
           layer: int = 0, position: int = 0) -> IirResult:
    """Run a second-order recursive section on one local-mode Dnode.

    The section runs as one :meth:`RingSystem.run`; an output tap keeps
    the Dnode's output after each publish slot (slot 2 of every
    five-cycle sample).  Bit-exact against :func:`reference_biquad`
    while outputs stay within 16 bits.
    """
    if ring is None:
        ring = Ring(RingGeometry(layers=2, width=2))
    program = biquad_program(b0, a1, a2)
    ring.config.write_local_program(layer, position, program)
    ring.config.write_mode(layer, position, DnodeMode.LOCAL)
    ring.push_fifo(layer, position, 1,
                   [word.from_signed(int(v)) for v in signal])
    system = RingSystem(ring)
    tap = system.data.add_tap(layer, position, skip=2, every=len(program),
                              limit=len(signal))
    system.run(len(program) * len(signal))
    return IirResult(outputs=[word.to_signed(v) for v in tap_lane0(tap)],
                     cycles=ring.cycles, dnodes_used=1)


def reference_biquad(signal: Sequence[int], b0: int, a1: int,
                     a2: int) -> List[int]:
    """Golden model of the all-pole biquad (plain integer arithmetic)."""
    y1 = y2 = 0
    out = []
    for v in signal:
        y = b0 * int(v) + a1 * y1 + a2 * y2
        out.append(y)
        y2, y1 = y1, y
    return out


def mac_accumulate(a: Sequence[int], b: Sequence[int],
                   ring: Optional[Ring] = None,
                   layer: int = 0, position: int = 0) -> int:
    """Dot product via the single-cycle MAC: one Dnode, one MAC per cycle.

    The two operand vectors stream through the Dnode's FIFOs; the
    accumulator lives in R0 and is published to OUT every cycle via the
    WRITE_OUT flag, so the host can watch the running sum.
    """
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    if ring is None:
        ring = Ring(RingGeometry(layers=2, width=2))
    program = [MicroWord(
        Opcode.MAC, Source.FIFO1, Source.FIFO2, Dest.R0,
        flags=Flag.POP_FIFO1 | Flag.POP_FIFO2 | Flag.WRITE_OUT)]
    ring.config.write_local_program(layer, position, program)
    ring.config.write_mode(layer, position, DnodeMode.LOCAL)
    ring.push_fifo(layer, position, 1,
                   [word.from_signed(int(v)) for v in a])
    ring.push_fifo(layer, position, 2,
                   [word.from_signed(int(v)) for v in b])
    ring.run(len(a))
    return word.to_signed(ring.dnode(layer, position).out)
