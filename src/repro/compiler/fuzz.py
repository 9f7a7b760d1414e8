"""Coverage-guided configuration fuzzer: a cross-engine conformance hammer.

Mutated graphs, seeded from :data:`~repro.compiler.library.GRAPH_LIBRARY`,
are compiled through :func:`~repro.compiler.codegen.compile_graph` and
run on every engine against the golden evaluator (see
:func:`fuzz_conformance`).  Run it as
``python -m repro.tools fuzz --rounds N --seed S``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro import word
from repro.compiler.codegen import CompiledProgram, compile_graph
from repro.compiler.graph import CompileError, DataflowGraph, NodeKind
from repro.compiler.library import GRAPH_LIBRARY, library_streams
from repro.core.ring import Ring, RingGeometry
from repro.errors import SimulationError

#: Opcodes the mutator draws from: every compilable shape class
#: (wrapping, saturating, dual-op, compare, shift, unary).
FUZZ_OPS = ("mov", "add", "sub", "mul", "and", "or", "xor", "min",
            "max", "avg2", "absdiff", "addsat", "subsat", "cmpeq",
            "cmplt", "abs", "neg", "not", "shr")

#: Engines every fuzz candidate executes on — the full
#: :attr:`Ring.BACKEND_REGISTRY` matrix.
FUZZ_ENGINES = Ring.BACKENDS

#: (mode, lane order) pairs each fuzz graph is compiled under (the
#: engine is the separate FUZZ_ENGINES axis).
FUZZ_MAPPINGS = (
    ("global", "index"),
    ("local", "index"),
    ("hybrid", "delay-first"),
    ("global", "reverse"),
)


def _fuzz_ring(engine: str, geometry: RingGeometry) -> Ring:
    return Ring(geometry, backend=engine,
                batch_size=2 if engine == "batch" else 1)


def _run_program(program: CompiledProgram, ring: Ring,
                 streams: Dict[int, List[int]],
                 length: int) -> List[Dict[int, List[int]]]:
    """Execute *program* on *ring*; outputs per lane (signed samples)."""
    system = program.build_system(ring)
    for channel, samples in streams.items():
        system.data.stream(
            channel, [word.from_signed(int(v)) for v in samples])
    taps = {}
    for graph_index, phys_index in program.placement.outputs:
        p = program.placement.phys[phys_index]
        if graph_index not in taps:
            taps[graph_index] = system.data.add_tap(
                p.level - 1, p.lane, skip=p.level - 1, limit=length)
    system.run(length + program.latency)
    batched = ring.backend == "batch"
    lanes = ring.batch_size if batched else 1
    results = []
    for lane in range(lanes):
        results.append({
            graph_index: [word.to_signed(v) for v in
                          (tap.lane(lane) if batched else tap.samples)]
            for graph_index, tap in taps.items()
        })
    return results


class _Genome:
    """A mutable recipe for a DataflowGraph (the fuzz corpus unit)."""

    def __init__(self, specs: List[tuple]):
        self.specs = list(specs)

    def build(self) -> DataflowGraph:
        from repro.core.isa import Opcode, is_binary_op
        g = DataflowGraph()
        refs: List[int] = []
        op_refs: List[int] = []
        for spec in self.specs:
            kind = spec[0]
            if kind == "input":
                refs.append(g.input(spec[1]))
            elif kind == "const":
                refs.append(g.const(spec[1]))
            elif kind == "delay":
                refs.append(g.delay(refs[spec[1] % len(refs)], spec[2]))
            else:  # ("op", name, a, b)
                opcode = Opcode[spec[1].upper()]
                a = refs[spec[2] % len(refs)]
                b = (refs[spec[3] % len(refs)]
                     if is_binary_op(opcode) else None)
                index = g.op(spec[1], a, b)
                refs.append(index)
                op_refs.append(index)
        if not op_refs:
            raise CompileError("genome has no operator nodes")
        g.output(op_refs[-1])
        if len(op_refs) > 2:
            g.output(op_refs[len(op_refs) // 2])
        return g


def _genome_from_graph(graph: DataflowGraph) -> _Genome:
    """Re-express a built graph as a fuzz genome.

    Node indices are positional in construction order, so operand
    references map straight onto genome spec indices.  The genome's
    synthesized outputs (last + middle operator) replace the graph's
    declared ones — corpus seeds steer the *shape* of the walk, they are
    not re-verified against the original kernel's output selection.
    """
    specs: List[tuple] = []
    for node in graph.nodes():
        if node.kind is NodeKind.INPUT:
            specs.append(("input", node.channel))
        elif node.kind is NodeKind.CONST:
            specs.append(("const", word.to_signed(node.value)))
        elif node.kind is NodeKind.DELAY:
            specs.append(("delay", node.operands[0], node.amount))
        else:
            specs.append(("op", node.op.name.lower(), node.operands[0],
                          node.operands[1] if len(node.operands) > 1
                          else 0))
    return _Genome(specs)


def _library_corpus(max_nodes: int) -> List[_Genome]:
    """Fuzz seeds from every library recipe small enough to mutate.

    Oversized graphs (the CORDIC unrolls) are skipped — a mutant larger
    than *max_nodes* is truncated to a stub by the campaign loop, so
    seeding them would only waste rounds.
    """
    seeds = []
    for name in sorted(GRAPH_LIBRARY):
        graph = GRAPH_LIBRARY[name]()
        if len(graph.nodes()) <= max_nodes:
            seeds.append(_genome_from_graph(graph))
    return seeds


def _mutate(genome: _Genome, rng: random.Random) -> _Genome:
    specs = list(genome.specs)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.55:
            specs.append(("op", rng.choice(FUZZ_OPS),
                          rng.randrange(64), rng.randrange(64)))
        elif roll < 0.75:
            specs.append(("delay", rng.randrange(64), rng.randint(1, 4)))
        elif roll < 0.9:
            specs.append(("const", rng.randint(-40, 40)))
        else:
            specs.append(("input", 0))
    return _Genome(specs)


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz_conformance` campaign."""

    rounds: int
    seed: int
    candidates_checked: int
    corpus_size: int
    coverage: int
    rejected: int
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = ("all engines bit-identical" if self.ok
                   else f"{len(self.mismatches)} MISMATCHES")
        return (f"fuzz: {self.rounds} rounds, "
                f"{self.candidates_checked} candidates x "
                f"{len(FUZZ_ENGINES)} engines, coverage "
                f"{self.coverage}, corpus {self.corpus_size}, "
                f"{self.rejected} unmappable — {verdict}")


def fuzz_conformance(rounds: int = 16, seed: int = 2002,
                     samples: int = 10,
                     max_nodes: int = 28) -> FuzzReport:
    """Coverage-guided conformance hammer across every backend.

    Each round mutates a corpus genome into a fresh graph, compiles it
    under :data:`FUZZ_MAPPINGS`, executes every compiled candidate on
    every :data:`FUZZ_ENGINES` ring, and bit-compares all outputs (every
    lane of the batch engine) against the golden evaluator.  A mutant
    that reaches a new coverage signature — (opcode set, depth, width,
    mode, lane order) — joins the corpus, steering the walk toward
    unexplored mapping shapes.  Deterministic for a given *seed*.
    """
    rng = random.Random(seed)
    corpus = [_Genome([("input", 0), ("op", "mov", 0, 0)])]
    corpus.extend(_library_corpus(max_nodes))
    coverage = set()
    mismatches: List[str] = []
    checked = rejected = 0
    for round_index in range(rounds):
        genome = _mutate(rng.choice(corpus), rng)
        if len(genome.specs) > max_nodes:
            genome = _Genome(genome.specs[:2])
        try:
            graph = genome.build()
            streams = library_streams(graph, samples,
                                      seed=seed + round_index)
            golden = graph.evaluate(streams)
        except CompileError:
            rejected += 1
            continue
        grew = False
        for mode, lane_order in FUZZ_MAPPINGS:
            try:
                program = compile_graph(graph, mode=mode,
                                        lane_order=lane_order)
            except CompileError:
                rejected += 1
                continue
            checked += 1
            mapping = f"{mode}/{lane_order}"
            signature = (
                frozenset(spec[1] for spec in genome.specs
                          if spec[0] == "op"),
                program.placement.levels,
                program.placement.width_needed,
                mode, lane_order,
            )
            if signature not in coverage:
                coverage.add(signature)
                grew = True
            for engine in FUZZ_ENGINES:
                ring = _fuzz_ring(engine, program.geometry)
                try:
                    lanes = _run_program(program, ring, streams, samples)
                except SimulationError as exc:
                    mismatches.append(
                        f"round {round_index} {mapping} {engine}: "
                        f"aborted: {exc}")
                    continue
                for lane, produced in enumerate(lanes):
                    if produced != golden:
                        mismatches.append(
                            f"round {round_index} {mapping} {engine} "
                            f"lane {lane}: mismatch vs golden")
        if grew:
            corpus.append(genome)
    return FuzzReport(rounds=rounds, seed=seed,
                      candidates_checked=checked,
                      corpus_size=len(corpus),
                      coverage=len(coverage), rejected=rejected,
                      mismatches=mismatches)
