"""Code generation: a placement -> fabric configuration (+ assembly text).

Each physical node becomes one global-mode microword; operand descriptors
become operand sources and switch routes:

* direct edge          -> ``IN1``/``IN2`` + a switch route ``up(lane)``;
* delayed edge (d)     -> operand source ``Rp(d, lane+1)`` (no route);
* input stream         -> ``IN1``/``IN2`` + a switch route ``host(ch)``;
* constant             -> the ``IMM`` source + the microword immediate.

A :class:`CompiledProgram` can configure any large-enough ring, run a
workload end to end (streams in, taps out, latency-aligned), report its
resource usage, and export itself as two-level assembly text that the
:mod:`repro.asm` toolchain assembles back to the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import word
from repro.asm.microasm import format_dnode_op
from repro.compiler.graph import CompileError, DataflowGraph
from repro.compiler.schedule import Operand, Placement, PhysNode, schedule
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.host.system import RingSystem

Streams = Union[Sequence[int], Dict[int, Sequence[int]]]


def _int64(values) -> np.ndarray:
    """*values* (an array, a sequence or any iterable of numbers) as one
    int64 array, each value truncated like ``int(v)``."""
    if getattr(values, "dtype", None) is not None:
        return np.asarray(values, np.int64)
    if not hasattr(values, "__len__"):
        values = list(values)
    return np.fromiter(values, np.int64, len(values))


def _raw_words(samples) -> np.ndarray:
    """Signed samples as raw 16-bit words (wrapping), in one array."""
    return _int64(samples) & word.MASK


def _signed(raw: Sequence[int]) -> List[int]:
    """Raw 16-bit words as signed ints, flipped in one array pass."""
    return ((_int64(raw) ^ word.SIGN_BIT) - word.SIGN_BIT).tolist()


#: Dnode execution-mode assignments the code generator can emit.  A
#: one-slot local program loops one microword — bit-identical to global
#: mode — so mode assignment is a *mapping* choice (which engines and
#: reconfiguration styles the placement composes with), not a semantic
#: one.  ``"hybrid"`` keeps operators global and pushes pass-node relays
#: into local loops (the paper's mixed operating point).
MODES = ("global", "local", "hybrid")


@dataclass
class CompiledProgram:
    """A dataflow graph compiled for a ring geometry."""

    graph: DataflowGraph
    placement: Placement
    geometry: RingGeometry
    microwords: Dict[Tuple[int, int], MicroWord]
    routes: Dict[Tuple[int, int, int], PortSource]
    #: Mode assignment emitted by :meth:`configure` (see :data:`MODES`).
    mode: str = "global"
    #: Keyword arguments for the default ring :meth:`build_system`
    #: creates (backend, batch_size, ...).
    ring_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def dnodes_used(self) -> int:
        return len(self.microwords)

    @property
    def latency(self) -> int:
        """Deepest pipeline level = cycles from input to last output."""
        return self.placement.levels

    def local_addrs(self) -> frozenset:
        """The ``(layer, lane)`` addresses emitted in local mode."""
        if self.mode == "local":
            return frozenset(self.microwords)
        if self.mode == "hybrid":
            return frozenset(
                (p.level - 1, p.lane) for p in self.placement.phys
                if p.graph_node is None
            )
        return frozenset()

    def configure(self, ring: Ring) -> None:
        """Write the compiled configuration into *ring*."""
        if ring.geometry.layers < self.geometry.layers or \
                ring.geometry.width < self.geometry.width:
            raise CompileError(
                f"program needs {self.geometry.layers}x"
                f"{self.geometry.width}, ring is "
                f"{ring.geometry.layers}x{ring.geometry.width}"
            )
        local = self.local_addrs()
        for (layer, lane), mw in self.microwords.items():
            if (layer, lane) in local:
                ring.config.write_local_program(layer, lane, [mw])
                ring.config.write_mode(layer, lane, DnodeMode.LOCAL)
            else:
                ring.config.write_microword(layer, lane, mw)
                ring.config.write_mode(layer, lane, DnodeMode.GLOBAL)
        for (switch, pos, port), source in self.routes.items():
            ring.config.write_switch_route(switch, pos, port, source)

    def build_system(self, ring: Optional[Ring] = None) -> RingSystem:
        """A configured, ready-to-stream system."""
        if ring is None:
            ring = Ring(self.geometry, **self.ring_kwargs)
        self.configure(ring)
        return RingSystem(ring)

    def run(self, streams: Streams,
            ring: Optional[Ring] = None) -> Dict[int, List[int]]:
        """Execute on the fabric; returns signed outputs per output node.

        *streams* is a single list (for channel 0) or a dict
        ``channel -> samples``.  Outputs are latency-aligned so they
        compare directly against :meth:`DataflowGraph.evaluate`.
        """
        if not isinstance(streams, dict):
            streams = {0: streams}
        raw = {channel: _raw_words(samples)
               for channel, samples in streams.items()}
        length = max((len(v) for v in raw.values()), default=0)
        system = self.build_system(ring)
        for channel, words in raw.items():
            system.data.stream(channel, words)
        taps = {}
        for graph_index, phys_index in self.placement.outputs:
            p = self.placement.phys[phys_index]
            if graph_index not in taps:
                taps[graph_index] = system.data.add_tap(
                    p.level - 1, p.lane, skip=p.level - 1, limit=length)
        system.run(length + self.latency)
        # Batch rings hand out BatchOutputTaps; lane 0 always carries
        # the scalar answer (host streams broadcast across lanes).
        return {
            graph_index: _signed(tap.lane(0) if hasattr(tap, "lane")
                                 else tap.samples)
            for graph_index, tap in taps.items()
        }

    def to_assembly(self, plane: str = "compiled") -> str:
        """Export as `.ring` assembly accepted by :func:`repro.asm.assemble`."""
        local = self.local_addrs()
        lines = [f".ring {plane}"]
        for (layer, lane) in sorted(self.microwords):
            kind = "local" if (layer, lane) in local else "global"
            lines.append(f"dnode {layer}.{lane} {kind}")
            lines.append("    " + format_dnode_op(
                self.microwords[(layer, lane)]))
        by_switch: Dict[int, List[Tuple[int, int, PortSource]]] = {}
        for (switch, pos, port), source in sorted(self.routes.items()):
            by_switch.setdefault(switch, []).append((pos, port, source))
        for switch in sorted(by_switch):
            lines.append(f"switch {switch}")
            for pos, port, source in by_switch[switch]:
                lines.append(f"    route {pos}.{port} <- {source}")
        return "\n".join(lines) + "\n"

    def resource_report(self) -> str:
        ops = sum(1 for p in self.placement.phys if p.graph_node is not None)
        passes = self.dnodes_used - ops
        return (
            f"{self.dnodes_used} Dnodes "
            f"({ops} operators + {passes} pass nodes) on "
            f"{self.geometry.layers}x{self.geometry.width} layers, "
            f"latency {self.latency} cycles, 1 sample/cycle throughput"
        )


def _operand_source(operand: Operand, phys: List[PhysNode],
                    direct_ports: List[int]) -> Tuple[Source, int]:
    """Resolve one operand to (Source, immediate contribution)."""
    if operand.kind == "const":
        return Source.IMM, operand.value
    if operand.kind == "node" and operand.delay > 0:
        lane = phys[operand.producer].lane
        return Source.rp(operand.delay, lane + 1), 0
    # direct edge or input: allocate IN1 then IN2
    port = len(direct_ports) + 1
    if port > 2:
        raise CompileError(
            "an operator has more than two routed operands"
        )
    direct_ports.append(port)
    return Source.IN1 if port == 1 else Source.IN2, 0


#: Widest fabric the auto-widening default will try before giving up.
_MAX_AUTO_WIDTH = 16


def compile_graph(graph: DataflowGraph,
                  geometry: Optional[RingGeometry] = None,
                  mode: str = "global",
                  lane_order: str = "index",
                  ring_kwargs: Optional[Dict[str, object]] = None,
                  autotune: bool = False,
                  **autotune_opts) -> CompiledProgram:
    """Compile *graph* for *geometry* (default: narrowest ring that fits).

    Args:
        graph: the dataflow graph to compile.
        geometry: target fabric shape; None derives the smallest fit
            (width 2 first, widened until the widest level fits).
        mode: Dnode execution-mode assignment (see :data:`MODES`).
        lane_order: per-level lane order (see
            :data:`repro.compiler.schedule.LANE_ORDERS`).
        ring_kwargs: keyword arguments for the default ring
            ``build_system`` creates (backend, batch_size, ...).
        autotune: search the mapping space instead of emitting the
            hand-shaped default — candidates are scored by measured
            cycles/s and verified bit-identical against
            :meth:`DataflowGraph.evaluate` before one can win; remaining
            keyword arguments go to
            :func:`repro.compiler.autotune.autotune_graph`.

    Raises:
        CompileError: for unmappable graphs (see
            :func:`repro.compiler.schedule.schedule`).
    """
    if autotune:
        from repro.compiler.autotune import autotune_graph
        return autotune_graph(graph, geometry=geometry,
                              **autotune_opts).program
    if autotune_opts:
        raise TypeError(
            f"unexpected arguments {sorted(autotune_opts)} "
            f"(only valid with autotune=True)")
    if mode not in MODES:
        raise CompileError(
            f"unknown mode {mode!r}; expected one of {MODES}")
    if geometry is not None:
        placement = schedule(graph, max_levels=geometry.layers,
                             width=geometry.width, lane_order=lane_order)
    else:
        width, placement = 2, None
        while True:
            try:
                placement = schedule(graph, width=width,
                                     lane_order=lane_order)
                break
            except CompileError as exc:
                # Auto-widen only on width exhaustion; everything else
                # (depth, delay legality) re-raises untouched.
                if "wide" not in str(exc) or width >= _MAX_AUTO_WIDTH:
                    raise
                width += 1
        geometry = RingGeometry(layers=max(placement.levels, 2),
                                width=width)

    microwords: Dict[Tuple[int, int], MicroWord] = {}
    routes: Dict[Tuple[int, int, int], PortSource] = {}
    for p in placement.phys:
        layer = p.level - 1
        direct_ports: List[int] = []
        sources: List[Source] = []
        imm = 0
        for operand in p.operands:
            source, imm_value = _operand_source(operand, placement.phys,
                                                direct_ports)
            sources.append(source)
            if source is Source.IMM:
                imm = imm_value
            elif source in (Source.IN1, Source.IN2):
                port = 1 if source is Source.IN1 else 2
                if operand.kind == "input":
                    routes[(layer, p.lane, port)] = \
                        PortSource.host(operand.channel)
                else:
                    routes[(layer, p.lane, port)] = \
                        PortSource.up(placement.phys[operand.producer].lane)
        src_a = sources[0] if sources else Source.ZERO
        src_b = sources[1] if len(sources) > 1 else Source.ZERO
        microwords[(layer, p.lane)] = MicroWord(
            op=p.op, src_a=src_a, src_b=src_b, dst=Dest.OUT, imm=imm)
    return CompiledProgram(graph=graph, placement=placement,
                           geometry=geometry, microwords=microwords,
                           routes=routes, mode=mode,
                           ring_kwargs=dict(ring_kwargs or {}))
