"""Gain staging: voltage-controlled amplifier and N-input mixer.

* :func:`vca_graph` — ``y = ((x * g) >> 16) << 1`` with the Q15 gain
  stream on channel 1 (32767 ~ unity).  MULH keeps the product exact
  (no overflow possible); the SHL restores unity scale.
* :func:`mixer_graph` — ``y = sum_i ((x_i * G_i) >> 16)`` over N input
  channels with compile-time Q15 gains, summed by a left-fold ADD chain
  (wrap semantics identical to :func:`repro.kernels.reference.mix`).

Both compile through ``compile_graph`` like any library
graph; the VCA is also the building block the scenario pipelines use for
envelopes and master gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.compiler.codegen import compile_graph
from repro.compiler.graph import CompileError, DataflowGraph
from repro.core.ring import Ring

#: Default 4-channel mixer gains (Q15: ~0.61, 0.49, 0.37, 0.73).
MIXER4_GAINS = (20000, 16000, 12000, 24000)


@dataclass
class MixResult:
    """Outcome of a fabric VCA/mixer run."""

    samples: List[int]
    dnodes_used: int
    latency: int


def vca_graph() -> DataflowGraph:
    """VCA: signal on channel 0, Q15 gain stream on channel 1."""
    g = DataflowGraph()
    x, gain = g.input(0), g.input(1)
    g.output(g.op("shl", g.op("mulh", x, gain), g.const(1)))
    return g


def mixer_graph(gains: Sequence[int] = MIXER4_GAINS) -> DataflowGraph:
    """N-input mixer: channel *i* weighted by compile-time Q15 gain i."""
    if not gains:
        raise CompileError("mixer needs at least one gain")
    g = DataflowGraph()
    terms = [g.op("mulh", g.input(i), g.const(int(gain)))
             for i, gain in enumerate(gains)]
    acc = terms[0]
    for term in terms[1:]:
        acc = g.op("add", acc, term)
    g.output(acc)
    return g


def vca_fabric(signal: Sequence[int], gains: Sequence[int],
               ring: Optional[Ring] = None,
               **compile_kwargs) -> MixResult:
    """Amplify *signal* by the Q15 *gains* stream on the fabric.

    Bit-exact against :func:`repro.kernels.reference.vca`.
    """
    graph = vca_graph()
    program = compile_graph(graph, **compile_kwargs)
    outs = program.run({0: list(signal), 1: list(gains)}, ring=ring)
    return MixResult(samples=outs[graph.outputs[0]],
                     dnodes_used=program.dnodes_used,
                     latency=program.latency)


def mixer_fabric(signals: Sequence[Sequence[int]],
                 gains: Sequence[int] = MIXER4_GAINS,
                 ring: Optional[Ring] = None,
                 **compile_kwargs) -> MixResult:
    """Mix N signal streams with Q15 *gains* on the fabric.

    Bit-exact against :func:`repro.kernels.reference.mix`.
    """
    if len(signals) != len(gains):
        raise CompileError(
            f"{len(signals)} signals vs {len(gains)} gains")
    graph = mixer_graph(gains)
    program = compile_graph(graph, **compile_kwargs)
    streams = {i: list(s) for i, s in enumerate(signals)}
    outs = program.run(streams, ring=ring)
    return MixResult(samples=outs[graph.outputs[0]],
                     dnodes_used=program.dnodes_used,
                     latency=program.latency)
