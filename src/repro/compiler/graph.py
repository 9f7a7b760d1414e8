"""Dataflow-graph intermediate representation.

A graph describes a streaming computation: every cycle one sample enters
per input stream and every operator node fires once.  Node kinds:

* ``INPUT`` — a host stream channel (one 16-bit word per cycle);
* ``CONST`` — a compile-time constant (becomes a microword immediate);
* ``OP`` — one Dnode operation (any unary/binary :class:`Opcode`);
* ``DELAY`` — the sample stream delayed by *n* cycles (compiled onto the
  switches' feedback pipelines, or pass chains when deeper than the
  pipeline depth);
* ``OUTPUT`` markers select which node values the host collects.

The :meth:`DataflowGraph.evaluate` golden evaluator runs the graph in
pure Python with the exact fabric arithmetic, so the compiler's output
can be verified bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import word
from repro.core.alu import execute_op
from repro.core.isa import Opcode, is_binary_op
from repro.errors import ReproError


class CompileError(ReproError):
    """Graph is invalid or cannot be mapped onto the requested ring."""


class NodeKind(enum.Enum):
    INPUT = "input"
    CONST = "const"
    OP = "op"
    DELAY = "delay"


@dataclass(frozen=True)
class Node:
    """One graph node; identity is the (graph-unique) ``index``."""

    index: int
    kind: NodeKind
    op: Optional[Opcode] = None       # OP nodes
    operands: Tuple[int, ...] = ()    # indices of predecessor nodes
    channel: int = 0                  # INPUT nodes
    value: int = 0                    # CONST nodes (raw 16-bit)
    amount: int = 0                   # DELAY nodes

    def __str__(self) -> str:
        if self.kind is NodeKind.INPUT:
            return f"n{self.index}=input{self.channel}"
        if self.kind is NodeKind.CONST:
            return f"n{self.index}=#{word.to_signed(self.value)}"
        if self.kind is NodeKind.DELAY:
            return f"n{self.index}=delay(n{self.operands[0]}, {self.amount})"
        args = ", ".join(f"n{i}" for i in self.operands)
        return f"n{self.index}={self.op.name.lower()}({args})"


#: Opcodes the compiler accepts for OP nodes (everything computable
#: without register state: accumulating MAC/MACS are excluded).
SUPPORTED_OPS = frozenset(
    op for op in Opcode
    if op not in (Opcode.NOP, Opcode.MAC, Opcode.MACS,
                  Opcode.MADD, Opcode.MSUB)
)


class DataflowGraph:
    """Builder + container for a streaming dataflow graph."""

    def __init__(self):
        self._nodes: List[Node] = []
        self.outputs: List[int] = []

    # -- construction ---------------------------------------------------

    def _add(self, node: Node) -> int:
        self._nodes.append(node)
        return node.index

    def input(self, channel: int) -> int:
        """A host input stream on direct-port *channel*."""
        if channel < 0:
            raise CompileError(f"channel must be >= 0, got {channel}")
        return self._add(Node(len(self._nodes), NodeKind.INPUT,
                              channel=channel))

    def const(self, value: int) -> int:
        """A compile-time constant (16-bit two's complement)."""
        return self._add(Node(len(self._nodes), NodeKind.CONST,
                              value=word.from_signed(int(value))))

    def op(self, opcode, a: int, b: Optional[int] = None) -> int:
        """An operator node; *opcode* is an Opcode or its lowercase name."""
        if isinstance(opcode, str):
            try:
                opcode = Opcode[opcode.upper()]
            except KeyError:
                raise CompileError(f"unknown opcode {opcode!r}")
        if opcode not in SUPPORTED_OPS:
            raise CompileError(
                f"{opcode.name} is not compilable (stateful or NOP)"
            )
        operands = [self._check_ref(a)]
        if is_binary_op(opcode):
            if b is None:
                raise CompileError(f"{opcode.name} needs two operands")
            operands.append(self._check_ref(b))
        elif b is not None:
            raise CompileError(f"{opcode.name} takes one operand")
        return self._add(Node(len(self._nodes), NodeKind.OP, op=opcode,
                              operands=tuple(operands)))

    def delay(self, source: int, amount: int) -> int:
        """The *source* stream delayed by *amount* cycles (>= 1)."""
        if amount < 1:
            raise CompileError(f"delay must be >= 1, got {amount}")
        return self._add(Node(len(self._nodes), NodeKind.DELAY,
                              operands=(self._check_ref(source),),
                              amount=amount))

    def output(self, node: int) -> int:
        """Mark *node* as an observed output; returns the node index."""
        self._check_ref(node)
        self.outputs.append(node)
        return node

    def _check_ref(self, index: int) -> int:
        if not isinstance(index, int) or not 0 <= index < len(self._nodes):
            raise CompileError(f"unknown node reference {index!r}")
        return index

    # -- access -----------------------------------------------------------

    def node(self, index: int) -> Node:
        return self._nodes[self._check_ref(index)]

    def nodes(self) -> List[Node]:
        return list(self._nodes)

    def input_channels(self) -> List[int]:
        """All distinct input channels, sorted."""
        return sorted({n.channel for n in self._nodes
                       if n.kind is NodeKind.INPUT})

    def validate(self) -> None:
        """Check the graph is runnable: has outputs, no dangling refs."""
        if not self.outputs:
            raise CompileError("graph has no outputs")
        if not any(n.kind is NodeKind.INPUT for n in self._nodes):
            raise CompileError("graph has no input streams")

    # -- golden evaluation ------------------------------------------------

    def evaluate(self, streams: Dict[int, Sequence[int]]) -> Dict[int, List[int]]:
        """Run the graph in pure Python on the given input streams.

        Args:
            streams: channel -> list of signed samples.  All streams must
                share one length; shorter cycles read 0 (like idle ports).

        Returns:
            node index -> list of signed output samples (one per cycle),
            for every node marked as an output.
        """
        self.validate()
        length = max((len(v) for v in streams.values()), default=0)
        history: Dict[int, List[int]] = {n.index: [] for n in self._nodes}
        results: Dict[int, List[int]] = {i: [] for i in set(self.outputs)}
        for t in range(length):
            for n in self._nodes:
                if n.kind is NodeKind.INPUT:
                    stream = streams.get(n.channel, ())
                    raw = word.from_signed(int(stream[t])) \
                        if t < len(stream) else 0
                elif n.kind is NodeKind.CONST:
                    raw = n.value
                elif n.kind is NodeKind.DELAY:
                    src = history[n.operands[0]]
                    raw = src[t - n.amount] if t >= n.amount else 0
                else:
                    vals = [history[i][t] for i in n.operands]
                    a = vals[0]
                    b = vals[1] if len(vals) > 1 else 0
                    raw = execute_op(n.op, a, b)
                history[n.index].append(raw)
            for out in results:
                results[out].append(word.to_signed(history[out][t]))
        return results

    def __len__(self) -> int:
        return len(self._nodes)

    def __str__(self) -> str:
        lines = [str(n) for n in self._nodes]
        lines.append("outputs: " + ", ".join(f"n{i}" for i in self.outputs))
        return "\n".join(lines)
