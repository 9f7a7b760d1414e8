"""Time-based effects on ring FIFOs: chorus voice and feedback echo.

Two delay effects, one per feedback mechanism the fabric offers:

* :func:`chorus_graph` — feed-forward: ``y = (x[n] + x[n-depth]) >> 1``.
  Depths up to 4 ride the switches' feedback pipelines directly; deeper
  voices chain ``delay -> mov -> delay`` hops (each mov materialises the
  stream on a Dnode so the next pipeline segment can tap it) — the
  compiled flavour of the paper's Dnode-as-FIFO macro-operator.
* :func:`build_echo` — **feedback through the ring closure**: switch 0
  reads the *last* layer, so an adder at layer 0 summing
  ``host + up(lane)`` with a MOV relay chain down the lane and a MULH
  gain stage at the top closes a true recirculating delay line,
  ``y[n] = x[n] + (y[n-L] * gain) >> 16`` with ``L = layers``.  Every
  stored sample lives in a Dnode OUT register (no Rp state), which is
  what lets the scenario pipelines freeze the echo mid-stream under a
  different configuration plane and resume it bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import word
from repro.compiler.codegen import compile_graph
from repro.compiler.graph import CompileError, DataflowGraph
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.host.system import RingSystem
from repro.kernels.taps import tap_lane0


@dataclass
class EffectResult:
    """Outcome of a fabric effect run."""

    samples: List[int]
    dnodes_used: int
    latency: int


def chorus_graph(depth: int = 6) -> DataflowGraph:
    """Chorus voice: average of the stream with its *depth*-delayed self."""
    if depth < 1:
        raise CompileError(f"depth must be >= 1, got {depth}")
    g = DataflowGraph()
    x = g.input(0)
    tap, remaining = x, depth
    while remaining > 4:
        # A mov rematerialises the delayed stream so the next 4-deep
        # pipeline segment can tap it (the collapsed-delay legality cap).
        tap = g.op("mov", g.delay(tap, 4))
        remaining -= 4
    tap = g.delay(tap, remaining) if remaining else tap
    g.output(g.op("avg2", x, tap))
    return g


def chorus_fabric(signal: Sequence[int], depth: int = 6,
                  ring: Optional[Ring] = None,
                  **compile_kwargs) -> EffectResult:
    """Run the chorus voice on the fabric.

    Bit-exact against :func:`repro.kernels.reference.chorus`.
    """
    graph = chorus_graph(depth)
    program = compile_graph(graph, **compile_kwargs)
    outs = program.run(list(signal), ring=ring)
    return EffectResult(samples=outs[graph.outputs[0]],
                        dnodes_used=program.dnodes_used,
                        latency=program.latency)


def build_echo(gain: int, ring: Optional[Ring] = None, lane: int = 0,
               layers: int = 8, channel: int = 0) -> RingSystem:
    """Configure a recirculating echo down *lane* of *ring*.

    Layer 0 adds the host stream (*channel*) to the fed-back tail read
    through the ring closure; layers ``1..L-2`` are a MOV relay chain;
    layer ``L-1`` applies the Q16 feedback *gain* (MULH immediate).  The
    echo delay equals the ring's layer count, and the wet output
    ``y[n] = x[n] + (y[n-L]*gain >> 16)`` is published at layer 0 with
    zero latency.
    """
    if ring is None:
        ring = Ring(RingGeometry(layers=layers, width=2))
    depth = ring.geometry.layers
    if depth < 3:
        raise ValueError(f"echo needs >= 3 layers, got {depth}")
    if not 0 <= lane < ring.geometry.width:
        raise ValueError(f"lane {lane} outside width "
                         f"{ring.geometry.width}")
    cfg = ring.config
    cfg.write_switch_route(0, lane, 1, PortSource.host(channel))
    cfg.write_switch_route(0, lane, 2, PortSource.up(lane))
    cfg.write_microword(0, lane, MicroWord(
        Opcode.ADD, Source.IN1, Source.IN2, Dest.OUT))
    for layer in range(1, depth - 1):
        cfg.write_switch_route(layer, lane, 1, PortSource.up(lane))
        cfg.write_microword(layer, lane, MicroWord(
            Opcode.MOV, Source.IN1, dst=Dest.OUT))
    cfg.write_switch_route(depth - 1, lane, 1, PortSource.up(lane))
    cfg.write_microword(depth - 1, lane, MicroWord(
        Opcode.MULH, Source.IN1, Source.IMM, Dest.OUT,
        imm=word.from_signed(int(gain))))
    return RingSystem(ring)


def echo_fabric(signal: Sequence[int], gain: int,
                ring: Optional[Ring] = None, lane: int = 0,
                layers: int = 8) -> EffectResult:
    """Run the feedback echo on the fabric (delay = ring layers).

    Bit-exact against :func:`repro.kernels.reference.echo` with
    ``delay = layers``.
    """
    system = build_echo(gain, ring=ring, lane=lane, layers=layers)
    depth = system.ring.geometry.layers
    system.data.stream(0, np.asarray(signal, np.int64) & word.MASK)
    tap = system.data.add_tap(0, lane, limit=len(signal))
    system.run(len(signal))
    return EffectResult(
        samples=[word.to_signed(v) for v in tap_lane0(tap)],
        dnodes_used=depth, latency=0)
