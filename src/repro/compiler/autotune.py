"""Compiler autopilot: measured-throughput search over the mapping space.

``compile_graph`` emits exactly one hand-shaped mapping per graph.  This
module searches the mapping space instead — the step the paper's
conclusion calls "the key to success of reconfigurable computing
architectures": a user submits a *graph* and gets the fastest mapping
the fabric + host engine stack is known to execute.

The search space per :class:`~repro.compiler.graph.DataflowGraph`:

* **mode assignment** — global / local / hybrid Dnode emission (a
  one-slot local loop is bit-identical to the global word, so this is a
  pure mapping choice, see :data:`repro.compiler.codegen.MODES`);
* **placement** — per-level lane orders
  (:data:`repro.compiler.schedule.LANE_ORDERS`; feedback taps only reach
  lanes 0..1, so lane order decides legality *and* shape).

Every candidate runs on the default ``native`` ring: its ladder already
falls back to macro kernels (and the interpreter over their unroll
cap) wherever native refuses, so the engine is not a search axis.

Scoring is *measured*, not modelled: each candidate is configured onto a
private ring and timed with :func:`~repro.compiler.profiler.\
measured_cycles_per_second` (short :meth:`~repro.core.ring.Ring.profile`
runs behind a warm-up chunk, so compile cost never skews the score).
A candidate can only win after it reproduces the graph's golden
:meth:`~repro.compiler.graph.DataflowGraph.evaluate` output bit-for-bit
on deterministic streams; the winner additionally proves its *bulk
engine* path bit-identical to the reference interpreter by state digest.

Winning mappings are memoized in an LRU keyed by (graph canonical
fingerprint, fabric shape) — a repeat submission pays one dict lookup
plus a recompile, no search.

:func:`fuzz_conformance` reuses the machinery as a coverage-guided
configuration fuzzer: randomly mutated graphs sweep candidate mappings
and every execution engine, each run checked against the golden
evaluator — a conformance hammer across the full engine matrix.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import word
from repro.compiler.codegen import MODES, CompiledProgram, compile_graph
from repro.compiler.graph import CompileError, DataflowGraph, NodeKind
from repro.compiler.library import GRAPH_LIBRARY, library_streams
from repro.compiler.profiler import measured_cycles_per_second
from repro.compiler.schedule import schedule
from repro.core.plancache import PlanCache
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.errors import SimulationError

#: Bus word driven while scoring (arbitrary; compiled graphs never read
#: the bus, but the value must be identical across engine comparisons).
_SCORE_BUS = 0

#: Constant host word presented on every routed channel while scoring.
#: Throughput is data-independent, so a constant keeps the resolver as
#: cheap as a host can be — the measurement approaches engine ceiling.
_SCORE_WORD = 17


def _score_host(channel: int) -> int:
    return _SCORE_WORD


@dataclass(frozen=True)
class Mapping:
    """One point in the mapping space (the memoized search result)."""

    mode: str = "global"
    lane_order: str = "index"

    def describe(self) -> str:
        return f"{self.mode}/{self.lane_order}"


#: Lane orders the placement search tries (reverse adds nothing the
#: other two cannot reach on levelled graphs, so it stays fuzzer-only).
PLACEMENT_ORDERS = ("index", "delay-first")


class AutotuneStats:
    """Process-wide autotuner counters (the ``autotune_*`` families)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.searches = 0
        self.candidates_evaluated = 0
        self.verifications = 0
        self.verification_failures = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.search_ms_total = 0.0
        self.best_cycles_per_sec = 0.0
        self.fuzz_rounds = 0
        self.fuzz_candidates = 0
        self.fuzz_mismatches = 0

    @property
    def touched(self) -> bool:
        return bool(self.searches or self.fuzz_rounds)


#: Module-level stats instance surfaced through
#: :meth:`repro.analysis.metrics.MetricsRegistry.collect`.
STATS = AutotuneStats()

#: Best-known-mapping memo: (graph fingerprint, fabric shape) ->
#: (Mapping, measured cycles/s, baseline cycles/s).
MEMO = PlanCache(64)


def reset_autotune_state() -> None:
    """Clear the memo cache and the stats counters (tests, benchmarks)."""
    MEMO.clear()
    STATS.reset()


def memo_key(graph: DataflowGraph,
             geometry: Optional[RingGeometry]) -> tuple:
    """The LRU key: graph content and fabric shape."""
    shape = (None if geometry is None else
             (geometry.layers, geometry.width, geometry.pipeline_depth))
    return (graph.fingerprint(), shape)


def _program_for(graph: DataflowGraph,
                 geometry: Optional[RingGeometry],
                 mapping: Mapping) -> CompiledProgram:
    """Compile *graph* under *mapping* (deriving geometry when free)."""
    if geometry is None:
        width, placement = 2, None
        while placement is None:
            try:
                placement = schedule(graph, width=width,
                                     lane_order=mapping.lane_order)
            except CompileError as exc:
                if "wide" not in str(exc) or width >= 16:
                    raise
                width += 1
        geometry = RingGeometry(layers=max(placement.levels, 2),
                                width=width)
    return compile_graph(graph, geometry=geometry, mode=mapping.mode,
                         lane_order=mapping.lane_order)


@dataclass
class ScoredCandidate:
    """One evaluated mapping: its measured score and verification fate."""

    mapping: Mapping
    cycles_per_second: float = 0.0
    verified: bool = False
    error: Optional[str] = None


@dataclass
class AutotuneResult:
    """The autopilot's verdict for one graph submission."""

    program: CompiledProgram
    mapping: Mapping
    cycles_per_second: float
    baseline_cycles_per_second: float
    search_ms: float
    cache_hit: bool
    candidates: List[ScoredCandidate] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Measured winner throughput over the default mapping's."""
        if self.baseline_cycles_per_second <= 0:
            return 1.0
        return self.cycles_per_second / self.baseline_cycles_per_second

    def report(self) -> str:
        """Rendered candidate table (best first)."""
        from repro.analysis.report import render_table
        rows = []
        for c in sorted(self.candidates,
                        key=lambda c: -c.cycles_per_second):
            rows.append([
                c.mapping.describe(),
                f"{c.cycles_per_second:,.0f}",
                "ok" if c.verified else (c.error or "unverified"),
            ])
        source = "memo" if self.cache_hit else "searched"
        table = render_table(
            ["mapping", "cyc/s", "verdict"], rows,
            title=f"autotune: {self.mapping.describe()} wins "
                  f"({self.speedup:.2f}x default, {source} in "
                  f"{self.search_ms:.1f} ms)",
        ) if rows else (
            f"autotune: {self.mapping.describe()} "
            f"(memo hit, {self.search_ms:.1f} ms)"
        )
        return table


def _verify(program: CompiledProgram, golden: Dict[int, List[int]],
            streams: Dict[int, List[int]]) -> Optional[str]:
    """Bit-compare a candidate's fabric output against the golden run.

    Returns None on success, a short reason string on mismatch.  This
    drives the configured fabric through the per-cycle system path (taps
    attached), which exercises the mode assignment and placement; the
    winner's bulk-engine path is separately digest-checked.
    """
    STATS.verifications += 1
    try:
        produced = program.run(streams)
    except (SimulationError, CompileError) as exc:
        STATS.verification_failures += 1
        return f"run failed: {exc}"
    if produced != golden:
        STATS.verification_failures += 1
        return "output mismatch vs golden evaluate()"
    return None


def _verify_bulk_engine(program: CompiledProgram,
                        cycles: int = 192) -> Optional[str]:
    """Digest-check the mapping's *bulk* engine against the interpreter.

    Scoring and production runs take :meth:`Ring.run`'s steady-state
    ladder (native / macro / interpreter), which per-cycle tap
    verification never touches — so the winner must additionally prove
    that path bit-identical to the reference interpreter.
    """
    tuned = Ring(program.geometry)
    program.configure(tuned)
    reference = Ring(program.geometry, backend="interpreter")
    program.configure(reference)
    tuned.run(cycles, bus=_SCORE_BUS, host_in=_score_host)
    reference.run(cycles, bus=_SCORE_BUS, host_in=_score_host)
    if state_digest(tuned) != state_digest(reference):
        STATS.verification_failures += 1
        return "bulk-engine state digest diverged from interpreter"
    return None


def _score(program: CompiledProgram, score_cycles: int,
           repeats: int) -> float:
    """Measured steady-state cycles/s of *program* on a private ring."""
    ring = Ring(program.geometry)
    program.configure(ring)
    return measured_cycles_per_second(
        ring, score_cycles, bus=_SCORE_BUS, host_in=_score_host,
        repeats=repeats)


def autotune_graph(graph: DataflowGraph,
                   geometry: Optional[RingGeometry] = None,
                   score_cycles: int = 1500,
                   repeats: int = 2,
                   verify_samples: int = 24,
                   seed: int = 2002,
                   memo: bool = True) -> AutotuneResult:
    """Search the mapping space for *graph*; return the measured winner.

    Every placement variant (mode x lane order) is scored on the
    default engine.  Every candidate that would win is first verified
    bit-identical to the golden evaluator; the winner's bulk engine is
    digest-checked against the reference interpreter on top.

    Args:
        graph: the dataflow graph to map.
        geometry: fabric shape constraint (None = derive per candidate).
        score_cycles: timed cycles per measurement run.
        repeats: measurement repeats per candidate (best-of).
        verify_samples: golden-stream length for bit verification.
        seed: stream seed (verification data only; search is
            deterministic given a machine).
        memo: consult/update the best-known-mapping LRU.
    """
    began = time.perf_counter()
    STATS.searches += 1
    key = memo_key(graph, geometry)
    if memo:
        hit = MEMO.get(key)
        if hit is not None:
            mapping, best_cps, base_cps = hit
            program = _program_for(graph, geometry, mapping)
            STATS.cache_hits += 1
            ms = (time.perf_counter() - began) * 1e3
            STATS.search_ms_total += ms
            return AutotuneResult(
                program=program, mapping=mapping,
                cycles_per_second=best_cps,
                baseline_cycles_per_second=base_cps,
                search_ms=ms, cache_hit=True)
    STATS.cache_misses += 1

    streams = library_streams(graph, verify_samples, seed=seed)
    golden = graph.evaluate(streams)
    candidates: List[ScoredCandidate] = []

    def evaluate(mapping: Mapping) -> ScoredCandidate:
        scored = ScoredCandidate(mapping)
        candidates.append(scored)
        STATS.candidates_evaluated += 1
        try:
            program = _program_for(graph, geometry, mapping)
        except CompileError as exc:
            scored.error = f"unmappable: {exc}"
            return scored
        failure = _verify(program, golden, streams)
        if failure is not None:
            scored.error = failure
            return scored
        scored.verified = True
        scored.cycles_per_second = _score(program, score_cycles, repeats)
        return scored

    # The plain default mapping doubles as the speedup baseline.
    baseline = evaluate(Mapping())
    for lane_order in PLACEMENT_ORDERS:
        for mode in MODES:
            mapping = Mapping(mode=mode, lane_order=lane_order)
            if mapping != baseline.mapping:
                evaluate(mapping)

    # The winner's bulk engine must be bit-identical to the interpreter;
    # on divergence (never observed — this is the safety net) fall back
    # to the next-best candidate down the ranking.
    ranked = sorted((c for c in candidates if c.verified),
                    key=lambda c: -c.cycles_per_second)
    winner = None
    for scored in ranked:
        program = _program_for(graph, geometry, scored.mapping)
        failure = _verify_bulk_engine(program)
        if failure is None:
            winner = scored
            break
        scored.verified = False
        scored.error = failure
    if winner is None:
        raise CompileError(
            "autotune found no verifiable mapping for the graph")

    program = _program_for(graph, geometry, winner.mapping)
    if memo:
        MEMO.put(key, (winner.mapping, winner.cycles_per_second,
                       baseline.cycles_per_second))
    ms = (time.perf_counter() - began) * 1e3
    STATS.search_ms_total += ms
    STATS.best_cycles_per_sec = winner.cycles_per_second
    return AutotuneResult(
        program=program, mapping=winner.mapping,
        cycles_per_second=winner.cycles_per_second,
        baseline_cycles_per_second=baseline.cycles_per_second,
        search_ms=ms, cache_hit=False, candidates=candidates)


# ----------------------------------------------------------------------
# Coverage-guided configuration fuzzer / cross-engine conformance hammer
# ----------------------------------------------------------------------

#: Opcodes the mutator draws from: every compilable shape class
#: (wrapping, saturating, dual-op, compare, shift, unary).
FUZZ_OPS = ("mov", "add", "sub", "mul", "and", "or", "xor", "min",
            "max", "avg2", "absdiff", "addsat", "subsat", "cmpeq",
            "cmplt", "abs", "neg", "not", "shr")

#: Engines every fuzz candidate executes on — the full
#: :attr:`Ring.BACKEND_REGISTRY` matrix.
FUZZ_ENGINES = Ring.BACKENDS

#: Candidate mappings each fuzz graph sweeps (the engine is the
#: separate FUZZ_ENGINES axis).
FUZZ_MAPPINGS = (
    Mapping(),
    Mapping(mode="local"),
    Mapping(mode="hybrid", lane_order="delay-first"),
    Mapping(lane_order="reverse"),
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
        STATS.fuzz_rounds += 1
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
        for mapping in FUZZ_MAPPINGS:
            try:
                program = _program_for(graph, None, mapping)
            except CompileError:
                rejected += 1
                continue
            checked += 1
            STATS.fuzz_candidates += 1
            signature = (
                frozenset(spec[1] for spec in genome.specs
                          if spec[0] == "op"),
                program.placement.levels,
                program.placement.width_needed,
                mapping.mode, mapping.lane_order,
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
                        f"round {round_index} {mapping.describe()} "
                        f"{engine}: aborted: {exc}")
                    STATS.fuzz_mismatches += 1
                    continue
                for lane, produced in enumerate(lanes):
                    if produced != golden:
                        mismatches.append(
                            f"round {round_index} "
                            f"{mapping.describe()} {engine} "
                            f"lane {lane}: mismatch vs golden")
                        STATS.fuzz_mismatches += 1
        if grew:
            corpus.append(genome)
    return FuzzReport(rounds=rounds, seed=seed,
                      candidates_checked=checked,
                      corpus_size=len(corpus),
                      coverage=len(coverage), rejected=rejected,
                      mismatches=mismatches)
