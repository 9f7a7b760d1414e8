"""CORDIC rotation/vectoring on the Systolic Ring — shift-add only.

The classic multiplier-free coordinate rotator, spatially unrolled: each
iteration is a branch-free bundle of ASR/XOR/SUB/ADD Dnodes (the rotation
direction becomes a sign mask ``m``, conditional negation is
``(v ^ m) - m``), so ``iterations`` bundles pipeline down the ring at one
full 3-component rotation per cycle.  Angles use the binary convention of
:data:`repro.kernels.reference.ATAN16` — 2^16 units per turn, the 16-bit
word wrap *is* the circle wrap.

Both modes compile from :class:`~repro.compiler.graph.DataflowGraph`
builders, so they feed ``compile_graph`` like any library graph, and
run bit-identical to
:func:`repro.kernels.reference.cordic_rotate` /
:func:`~repro.kernels.reference.cordic_vector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.compiler.codegen import CompiledProgram, compile_graph
from repro.compiler.graph import CompileError, DataflowGraph
from repro.core.ring import Ring
from repro.kernels.reference import ATAN16


@dataclass
class CordicResult:
    """Outcome of a fabric CORDIC run (streams of x/y/z components)."""

    x: List[int]
    y: List[int]
    z: List[int]
    iterations: int
    dnodes_used: int
    latency: int


def _step(g: DataflowGraph, x: int, y: int, z: int, m: int, i: int):
    """One CORDIC iteration: conditional add/sub via the sign mask *m*."""
    ex = g.op("sub", g.op("xor", g.op("asr", y, g.const(i)), m), m)
    ey = g.op("sub", g.op("xor", g.op("asr", x, g.const(i)), m), m)
    ez = g.op("sub", g.op("xor", g.const(ATAN16[i]), m), m)
    return (g.op("sub", x, ex), g.op("add", y, ey), g.op("sub", z, ez))


def _check_iterations(iterations: int) -> None:
    if not 1 <= iterations <= len(ATAN16):
        raise CompileError(
            f"iterations must be 1..{len(ATAN16)}, got {iterations}")


def rotation_graph(iterations: int = 8) -> DataflowGraph:
    """Rotation mode: rotate ``(x, y)`` on channels 0/1 by ``z`` (ch 2).

    The direction mask is ``z >> 15`` (rotate the residual angle toward
    zero); outputs are the x/y/z streams after *iterations* stages.
    """
    _check_iterations(iterations)
    g = DataflowGraph()
    x, y, z = g.input(0), g.input(1), g.input(2)
    for i in range(iterations):
        m = g.op("asr", z, g.const(15))
        x, y, z = _step(g, x, y, z, m, i)
    for node in (x, y, z):
        g.output(node)
    return g


def vectoring_graph(iterations: int = 8) -> DataflowGraph:
    """Vectoring mode: drive ``y`` (ch 1) to zero, accumulate the angle.

    The direction mask is ``~(y >> 15)`` — rotate toward the x axis —
    so ``x`` converges to ``CORDIC_GAIN * |(x, y)|`` and ``z`` to
    ``z + atan2(y, x)`` in 2^16-per-turn units.
    """
    _check_iterations(iterations)
    g = DataflowGraph()
    x, y, z = g.input(0), g.input(1), g.input(2)
    for i in range(iterations):
        m = g.op("not", g.op("asr", y, g.const(15)))
        x, y, z = _step(g, x, y, z, m, i)
    for node in (x, y, z):
        g.output(node)
    return g


def compile_cordic(mode: str = "rotate", iterations: int = 8,
                   **compile_kwargs) -> CompiledProgram:
    """Compile one CORDIC mode; *compile_kwargs* go to ``compile_graph``."""
    if mode == "rotate":
        graph = rotation_graph(iterations)
    elif mode == "vector":
        graph = vectoring_graph(iterations)
    else:
        raise CompileError(f"unknown CORDIC mode {mode!r}")
    return compile_graph(graph, **compile_kwargs)


def _run(graph: DataflowGraph, xs, ys, zs, iterations: int,
         ring: Optional[Ring], compile_kwargs: dict) -> CordicResult:
    program = compile_graph(graph, **compile_kwargs)
    streams: Dict[int, Sequence[int]] = {0: list(xs), 1: list(ys),
                                         2: list(zs)}
    outs = program.run(streams, ring=ring)
    xo, yo, zo = (outs[node] for node in graph.outputs)
    return CordicResult(x=xo, y=yo, z=zo, iterations=iterations,
                        dnodes_used=program.dnodes_used,
                        latency=program.latency)


def cordic_rotate_fabric(xs: Sequence[int], ys: Sequence[int],
                         zs: Sequence[int], iterations: int = 8,
                         ring: Optional[Ring] = None,
                         **compile_kwargs) -> CordicResult:
    """Rotate a stream of ``(x, y)`` points by their ``z`` angles.

    Bit-exact against :func:`repro.kernels.reference.cordic_rotate`
    applied per sample.
    """
    return _run(rotation_graph(iterations), xs, ys, zs, iterations,
                ring, compile_kwargs)


def cordic_vector_fabric(xs: Sequence[int], ys: Sequence[int],
                         zs: Optional[Sequence[int]] = None,
                         iterations: int = 8,
                         ring: Optional[Ring] = None,
                         **compile_kwargs) -> CordicResult:
    """Vector a stream of points: magnitude on x, angle accumulated on z.

    Bit-exact against :func:`repro.kernels.reference.cordic_vector`
    applied per sample.
    """
    if zs is None:
        zs = [0] * len(list(xs))
    return _run(vectoring_graph(iterations), xs, ys, zs, iterations,
                ring, compile_kwargs)
