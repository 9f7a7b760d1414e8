"""Compiler mappings and the configuration fuzzer.

Pinned here:

* every mode (global / local / hybrid Dnode emission) and every lane
  order of ``compile_graph`` reproduces the golden evaluator
  bit-for-bit, and the default geometry widens until a graph fits;
* every ``GRAPH_LIBRARY`` kernel compiles and matches its golden output,
  with deterministic per-channel test streams;
* the configuration fuzzer (:mod:`repro.compiler.fuzz`) drives mutated
  graphs, seeded from the library, across its (mode, lane order)
  mappings and every execution engine, bit-comparing all of them; the
  CI campaign (8 rounds, seed 2002) is pinned count for count;
* the ``fuzz`` CLI subcommand prints the campaign's verdict.
"""

import pytest

from repro.compiler.codegen import MODES, compile_graph
from repro.compiler.fuzz import FUZZ_MAPPINGS, fuzz_conformance
from repro.compiler.graph import CompileError
from repro.compiler.library import (
    GRAPH_LIBRARY,
    build_graph,
    library_streams,
)
from repro.compiler.schedule import LANE_ORDERS, schedule


class TestMapping:
    def test_mapping_has_no_engine_axis(self):
        """A fuzz mapping is a (mode, lane order) pair: the engine is
        the fuzzer's separate axis."""
        for mode, lane_order in FUZZ_MAPPINGS:
            assert mode in MODES and lane_order in LANE_ORDERS
        assert len(set(FUZZ_MAPPINGS)) == len(FUZZ_MAPPINGS)


class TestCompileGraphIntegration:
    def test_unknown_mode_rejected(self):
        with pytest.raises(CompileError):
            compile_graph(build_graph("envelope"), mode="turbo")

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_bit_identical(self, mode):
        graph = build_graph("dct4")
        streams = library_streams(graph, 10)
        program = compile_graph(graph, mode=mode)
        assert program.run(streams) == graph.evaluate(streams)

    def test_local_mode_emits_local_dnodes(self):
        asm = compile_graph(build_graph("envelope"),
                            mode="local").to_assembly()
        assert " local" in asm and " global" not in asm

    def test_hybrid_mode_localises_pass_nodes_only(self):
        program = compile_graph(build_graph("fir8"), mode="hybrid")
        local = program.local_addrs()
        assert local, "fir8 has relay pass nodes"
        passes = {(p.level - 1, p.lane) for p in program.placement.phys
                  if p.graph_node is None}
        assert local == passes

    def test_assembly_round_trip_local_mode(self):
        from repro.asm import assemble
        program = compile_graph(build_graph("envelope"), mode="local")
        obj = assemble(program.to_assembly(),
                       layers=program.geometry.layers,
                       width=program.geometry.width)
        assert obj.planes

    @pytest.mark.parametrize("lane_order", LANE_ORDERS)
    def test_all_lane_orders_bit_identical(self, lane_order):
        graph = build_graph("envelope")
        streams = library_streams(graph, 10)
        program = compile_graph(graph, lane_order=lane_order)
        assert program.run(streams) == graph.evaluate(streams)

    def test_unknown_lane_order_rejected(self):
        with pytest.raises(CompileError):
            schedule(build_graph("envelope"), lane_order="sideways")

    def test_auto_widen_fits_wide_graphs(self):
        # fir8 needs width 3: the default geometry must widen past 2.
        program = compile_graph(build_graph("fir8"))
        assert program.geometry.width == 3


class TestLibrary:
    def test_catalogue(self):
        assert {"fir8", "dct4", "cmul", "envelope"} <= set(GRAPH_LIBRARY)
        assert {"cordic4", "cordic_vec4", "nco_wave", "up2", "down2",
                "up3", "down3", "vca", "mixer4", "chorus6", "cmul4",
                "cmag"} <= set(GRAPH_LIBRARY)

    def test_unknown_name_raises(self):
        with pytest.raises(CompileError):
            build_graph("fft1024")

    @pytest.mark.parametrize("name", sorted(GRAPH_LIBRARY))
    def test_every_kernel_compiles_and_matches_golden(self, name):
        graph = build_graph(name)
        streams = library_streams(graph, 16)
        assert compile_graph(graph).run(streams) == \
            graph.evaluate(streams)

    def test_streams_deterministic_and_per_channel(self):
        graph = build_graph("cmul")
        a = library_streams(graph, 8, seed=5)
        b = library_streams(graph, 8, seed=5)
        assert a == b
        assert set(a) == {0, 1}
        assert a[0] != a[1]


class TestFuzzer:
    def test_engines_bit_identical_under_fuzzing(self):
        report = fuzz_conformance(rounds=6, seed=2002, samples=6)
        assert report.ok, report.mismatches
        assert report.candidates_checked > 0
        assert report.coverage > 0

    def test_deterministic_for_a_seed(self):
        a = fuzz_conformance(rounds=4, seed=11, samples=5)
        b = fuzz_conformance(rounds=4, seed=11, samples=5)
        assert (a.candidates_checked, a.coverage, a.corpus_size,
                a.rejected) == (b.candidates_checked, b.coverage,
                                b.corpus_size, b.rejected)

    def test_summary_carries_the_verdict(self):
        report = fuzz_conformance(rounds=3, seed=7, samples=5)
        assert "bit-identical" in report.summary()
        assert report.rounds == 3

    def test_ci_campaign_is_pinned(self):
        """The CI campaign's counts: moving the fuzzer onto
        ``compile_graph`` must not change which graphs it builds, maps
        or rejects."""
        report = fuzz_conformance(rounds=8, seed=2002, samples=10)
        assert report.ok, report.mismatches
        assert (report.candidates_checked, report.coverage,
                report.corpus_size, report.rejected) == (28, 24, 20, 4)


class TestCli:
    def test_table_output_with_fuzz_leg(self, capsys):
        from repro.tools.__main__ import main
        assert main(["fuzz", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 rounds" in out
        assert "all engines bit-identical" in out


class TestScenarioRecipeTuning:
    """The scenario recipes are registered library graphs, and the
    fuzz corpus is seeded from :data:`GRAPH_LIBRARY`."""

    def test_scenario_graphs_registered(self):
        for name in ("cordic4", "cordic_vec4", "nco_wave", "up2",
                     "down2", "up3", "down3", "vca", "mixer4",
                     "chorus6", "cmul4", "cmag"):
            graph = build_graph(name)
            streams = library_streams(graph, 6)
            assert graph.evaluate(streams)

    def test_fuzz_corpus_seeded_from_library(self):
        from repro.compiler.fuzz import _genome_from_graph, _library_corpus

        seeds = _library_corpus(max_nodes=28)
        # Every small library recipe contributes one genome; the CORDIC
        # unrolls (>28 nodes) are skipped by design.
        assert len(seeds) >= 10
        for genome in seeds:
            graph = genome.build()
            assert len(graph.nodes()) <= 28
            graph.evaluate(library_streams(graph, 4))
        # Round trip: a re-expressed graph preserves node structure.
        original = build_graph("up2")
        rebuilt = _genome_from_graph(original).build()
        assert [(n.kind, n.op) for n in rebuilt.nodes()] == \
            [(n.kind, n.op) for n in original.nodes()]

    def test_fuzz_campaign_with_seeded_corpus_is_green(self):
        report = fuzz_conformance(rounds=6, seed=11, samples=8)
        assert report.ok, report.mismatches
        assert report.corpus_size >= 14
