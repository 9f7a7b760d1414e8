"""Scheduling: dataflow graph -> placed operators on ring layers.

The mapping discipline (which mirrors how the paper's hand mappings
work):

* every operator occupies one Dnode; operators are *levelled* so each
  one sits exactly one layer downstream of its producers (systolic
  adjacency);
* an edge spanning more than one level gets MOV *pass nodes* inserted in
  the intermediate layers (spatial routing through the fabric, never
  global wires);
* an explicit stream delay of ``d`` cycles (1 <= d <= pipeline depth)
  costs nothing: the consumer reads the producer through the upstream
  switch's feedback tap ``Rp(d, lane)`` instead of the direct port —
  exactly the paper's "required delays ... automatically achieved";
* constants become microword immediates (at most one per operator);
* input streams may only feed level-1 consumers directly (host ports
  present the *current* sample everywhere, so deeper consumers need
  pass chains, and a *delayed* input needs one pass node first because
  the feedback pipelines only carry Dnode outputs).

The result is a :class:`Placement`: physical nodes with (level, lane)
coordinates and fully resolved operand descriptors, ready for code
generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.isa import FEEDBACK_DEPTH, Opcode
from repro.compiler.graph import CompileError, DataflowGraph, NodeKind


@dataclass
class Operand:
    """One resolved operand of a physical node."""

    kind: str                 # "node" | "input" | "const"
    producer: int = -1        # physical node index (kind == "node")
    channel: int = 0          # host channel (kind == "input")
    value: int = 0            # raw constant (kind == "const")
    delay: int = 0            # extra cycles read through Rp (kind=="node")


@dataclass
class PhysNode:
    """A physical operator: one Dnode's worth of work."""

    index: int
    op: Opcode                     # MOV for pass nodes
    operands: List[Operand] = field(default_factory=list)
    graph_node: Optional[int] = None   # original node (None for passes)
    level: int = 0
    lane: int = -1


@dataclass
class Placement:
    """The scheduled program: physical nodes + output bindings."""

    phys: List[PhysNode]
    outputs: List[Tuple[int, int]]     # (graph node index, phys index)
    levels: int                        # deepest level used
    width_needed: int                  # widest level

    def at(self, level: int) -> List[PhysNode]:
        return [p for p in self.phys if p.level == level]


def _collapse_delays(graph: DataflowGraph):
    """Resolve every operand through DELAY chains to (source, total d)."""

    def resolve(index: int) -> Tuple[int, int]:
        node = graph.node(index)
        total = 0
        while node.kind is NodeKind.DELAY:
            total += node.amount
            node = graph.node(node.operands[0])
        return node.index, total

    return resolve


#: Lane-assignment orders the scheduler understands.  Feedback taps
#: (``Rp``) only reach lanes 0..1, so *which* nodes land in the low
#: lanes decides whether a delayed-operand placement is legal at all.
LANE_ORDERS = ("index", "reverse", "delay-first")


def schedule(graph: DataflowGraph, max_levels: Optional[int] = None,
             width: int = 2, lane_order: str = "index") -> Placement:
    """Schedule *graph* onto a ``max_levels x width`` fabric.

    Args:
        graph: the dataflow graph to place.
        max_levels: fabric depth bound (None = unbounded).
        width: fabric width (Dnodes per layer).
        lane_order: per-level lane-assignment order — ``"index"``
            (creation order, the default), ``"reverse"``, or
            ``"delay-first"`` (producers read through feedback taps
            claim lanes 0..1 first, which can make an otherwise-illegal
            delayed placement legal).

    Raises:
        CompileError: when the graph needs more layers/lanes than
            available, uses a delay deeper than the feedback pipelines,
            or has an operator with two constant operands.
    """
    if lane_order not in LANE_ORDERS:
        raise CompileError(
            f"unknown lane order {lane_order!r}; expected one of "
            f"{LANE_ORDERS}"
        )
    graph.validate()
    resolve = _collapse_delays(graph)

    # ------------------------------------------------------------------
    # 1. Build physical op nodes for every OP graph node.
    # ------------------------------------------------------------------
    phys: List[PhysNode] = []
    phys_of_graph: Dict[int, int] = {}
    for node in graph.nodes():
        if node.kind is not NodeKind.OP:
            continue
        p = PhysNode(index=len(phys), op=node.op, graph_node=node.index)
        for operand_ref in node.operands:
            src_index, delay = resolve(operand_ref)
            src = graph.node(src_index)
            if delay > FEEDBACK_DEPTH:
                raise CompileError(
                    f"delay of {delay} exceeds the feedback-pipeline "
                    f"depth ({FEEDBACK_DEPTH}); split the delay across "
                    f"explicit pass operators"
                )
            if src.kind is NodeKind.CONST:
                if delay:
                    raise CompileError("delaying a constant is meaningless")
                p.operands.append(Operand("const", value=src.value))
            elif src.kind is NodeKind.INPUT:
                p.operands.append(Operand("input", channel=src.channel,
                                          delay=delay))
            else:
                p.operands.append(Operand("node", delay=delay,
                                          producer=src.index))
        consts = [o for o in p.operands if o.kind == "const"]
        if len(consts) > 1:
            raise CompileError(
                f"node n{node.index}: an operator can absorb only one "
                f"constant (one immediate field); fold the constants"
            )
        phys.append(p)
        phys_of_graph[node.index] = p.index
    # rewire producer references from graph indices to phys indices
    for p in phys:
        for o in p.operands:
            if o.kind == "node":
                if o.producer not in phys_of_graph:
                    raise CompileError(
                        f"output/operand n{o.producer} is not an operator"
                    )
                o.producer = phys_of_graph[o.producer]

    # ------------------------------------------------------------------
    # 2. Level: one layer downstream of the deepest producer.  A delayed
    #    input needs one pass node, so it contributes level 1.
    # ------------------------------------------------------------------
    levels: Dict[int, int] = {}

    def level_of(p: PhysNode) -> int:
        if p.index in levels:
            return levels[p.index]
        contributions = [0]
        for o in p.operands:
            if o.kind == "node":
                contributions.append(level_of(phys[o.producer]))
            elif o.kind == "input" and o.delay > 0:
                contributions.append(1)
        levels[p.index] = 1 + max(contributions)
        return levels[p.index]

    for p in list(phys):
        p.level = level_of(p)

    # ------------------------------------------------------------------
    # 3. Insert pass nodes for edges spanning more than one level, and
    #    for delayed inputs.
    # ------------------------------------------------------------------
    relay_cache: Dict[Tuple, int] = {}

    def make_pass(level: int, operand: Operand) -> PhysNode:
        """Create (or reuse) a pass node relaying *operand* at *level*.

        Identical relays are shared: many consumers of the same stream
        or the same producer cost one Dnode per level, not one each.
        """
        if operand.kind == "input":
            key = ("input", operand.channel, level)
        else:
            key = ("node", operand.producer, level)
        if key in relay_cache:
            return phys[relay_cache[key]]
        p = PhysNode(index=len(phys), op=Opcode.MOV,
                     operands=[operand], level=level)
        phys.append(p)
        relay_cache[key] = p.index
        return p

    def input_relay(channel: int, up_to_level: int) -> PhysNode:
        """A (shared) pass chain carrying input *channel* to a level."""
        relay = make_pass(1, Operand("input", channel=channel))
        for lvl in range(2, up_to_level + 1):
            relay = make_pass(lvl, Operand("node", producer=relay.index))
        return relay

    for p in list(phys):
        for o in p.operands:
            if o.kind == "input" and o.delay > 0:
                # the feedback pipelines only hold Dnode outputs, so a
                # delayed stream needs at least one materialising relay
                relay = input_relay(o.channel, p.level - 1)
                o.kind, o.producer = "node", relay.index
            elif o.kind == "input" and p.level > 1:
                relay = input_relay(o.channel, p.level - 1)
                o.kind, o.producer = "node", relay.index
        for o in p.operands:
            if o.kind != "node":
                continue
            gap = p.level - phys[o.producer].level - 1
            if gap < 0:
                raise CompileError("internal: negative level gap")
            relay = phys[o.producer]
            for _ in range(gap):
                relay = make_pass(relay.level + 1,
                                  Operand("node", producer=relay.index))
            o.producer = relay.index

    # ------------------------------------------------------------------
    # 4. Lane assignment per level.
    # ------------------------------------------------------------------
    if not phys:
        raise CompileError("graph has no operator nodes")
    delayed_producers = {
        o.producer for p in phys for o in p.operands
        if o.kind == "node" and o.delay > 0
    }
    if lane_order == "reverse":
        def lane_key(q):
            return -q.index
    elif lane_order == "delay-first":
        def lane_key(q):
            return (q.index not in delayed_producers, q.index)
    else:
        def lane_key(q):
            return q.index
    max_level = max(p.level for p in phys)
    width_needed = 0
    for level in range(1, max_level + 1):
        members = [p for p in phys if p.level == level]
        width_needed = max(width_needed, len(members))
        if len(members) > width:
            raise CompileError(
                f"level {level} needs {len(members)} Dnodes but the "
                f"fabric is only {width} wide"
            )
        for lane, p in enumerate(sorted(members, key=lane_key)):
            p.lane = lane
    if max_levels is not None and max_level > max_levels:
        raise CompileError(
            f"graph needs {max_level} layers, fabric has {max_levels}"
        )
    # Rp reads address lanes 1..2 only: check delayed producers' lanes.
    for p in phys:
        for o in p.operands:
            if o.kind == "node" and o.delay > 0 \
                    and phys[o.producer].lane >= 2:
                raise CompileError(
                    f"delayed operand producer sits in lane "
                    f"{phys[o.producer].lane}, but feedback taps only "
                    f"reach lanes 0..1"
                )

    outputs = []
    for out in graph.outputs:
        if out not in phys_of_graph:
            raise CompileError(
                f"output n{out} must be an operator node (wrap inputs "
                f"in `mov` if needed)"
            )
        outputs.append((out, phys_of_graph[out]))
    return Placement(phys=phys, outputs=outputs, levels=max_level,
                     width_needed=width_needed)
