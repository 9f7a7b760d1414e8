"""Compiler autopilot: measured speedup over the default mapping.

The tentpole perf claim: for library kernel graphs, the autotuner's
measured-throughput search finds a mapping at least 1.5x faster than the
default ``compile_graph`` emission (in practice the native / macro-fused
engines land 5-10x), every winner proven bit-identical to the golden
evaluator, and a repeat submission pays ~zero search via the
graph+fabric-fingerprint memo.

The scenario recipes ``mixer4`` and ``up2`` carry the same floor at the
small search budget the tier-1 tests use (200 scored cycles, one
repeat).  A single such search is too noisy to gate on a loaded host,
so their claim is judged as the median of repeated searches.

Results land in ``BENCH_autotune.json`` so CI archives a perf data point
per PR.  Run with ``pytest -s benchmarks/test_autotune.py`` for the
table.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.analysis.metrics import collect_metrics
from repro.compiler.autotune import autotune_graph, reset_autotune_state
from repro.compiler.library import build_graph, library_streams
from repro.core import nativepath
from repro.core.ring import Ring, RingGeometry

#: Acceptance floor: winner cycles/s over the default mapping, required
#: on every benchmarked kernel graph (the issue asks for >= 2 graphs).
TARGET_SPEEDUP = 1.5

#: Kernel graphs the autopilot must beat the floor on.
KERNELS = ("fir8", "dct4")

#: Measurement budget per candidate (scoring runs inside the search).
SCORE_CYCLES = 20_000
REPEATS = 3

#: Samples for the final bit-identity demonstration per kernel.
VERIFY_SAMPLES = 48

#: Scenario recipes judged at the tier-1 search budget, and how many
#: searches the median takes.
RECIPES = ("mixer4", "up2")
RECIPE_BUDGET = dict(score_cycles=200, repeats=1, verify_samples=12)
RECIPE_SEARCHES = 5

#: Where the recorded numbers land (repo root, picked up by CI).
BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_autotune.json"


def test_autotune_speedup_and_memoized_resubmission():
    reset_autotune_state()
    record = {
        "workload": "library-kernel-autotune",
        "score_cycles": SCORE_CYCLES,
        "target_speedup": TARGET_SPEEDUP,
        "numba_available": nativepath.numba_available(),
        "kernels": {},
    }
    rows = []
    for name in KERNELS:
        graph = build_graph(name)
        first = autotune_graph(graph, score_cycles=SCORE_CYCLES,
                               repeats=REPEATS,
                               verify_samples=VERIFY_SAMPLES)
        assert not first.cache_hit

        # Bit-identity: the winner reproduces the golden evaluator.
        streams = library_streams(graph, VERIFY_SAMPLES)
        bit_identical = \
            first.program.run(streams) == graph.evaluate(streams)
        assert bit_identical, f"{name}: tuned mapping diverged"

        # Memoized resubmission: same graph, fresh object, ~zero search.
        second = autotune_graph(build_graph(name),
                                score_cycles=SCORE_CYCLES,
                                repeats=REPEATS,
                                verify_samples=VERIFY_SAMPLES)
        assert second.cache_hit and second.mapping == first.mapping
        assert second.search_ms < first.search_ms / 10, (
            f"{name}: memo hit took {second.search_ms:.1f} ms vs "
            f"{first.search_ms:.1f} ms search"
        )

        record["kernels"][name] = {
            "mapping": first.mapping.describe(),
            "cycles_per_second": round(first.cycles_per_second),
            "baseline_cycles_per_second":
                round(first.baseline_cycles_per_second),
            "speedup": round(first.speedup, 2),
            "candidates": len(first.candidates),
            "search_ms": round(first.search_ms, 1),
            "resubmit_search_ms": round(second.search_ms, 2),
            "bit_identical": bit_identical,
        }
        rows.append([name, first.mapping.describe(),
                     f"{first.cycles_per_second:,.0f}",
                     f"{first.speedup:.1f}x",
                     f"{first.search_ms:.0f}",
                     f"{second.search_ms:.2f}"])

    snapshot = collect_metrics(Ring(RingGeometry(layers=2, width=2)))
    data = json.loads(snapshot.to_json())
    assert data["autotune_cache_hits_total"] >= 1
    record["autotune_cache_hits_total"] = \
        data["autotune_cache_hits_total"]
    record["autotune_candidates_evaluated_total"] = \
        data["autotune_candidates_evaluated_total"]

    emit(render_table(
        ["graph", "winner", "cyc/s", "vs default", "search ms",
         "resubmit ms"],
        rows,
        title=f"compiler autopilot, {SCORE_CYCLES:,} scored cycles per "
              f"candidate (best of {REPEATS})",
    ))
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")

    for name, stats in record["kernels"].items():
        assert stats["speedup"] >= TARGET_SPEEDUP, (
            f"{name}: autotuned mapping sustained only "
            f"{stats['speedup']:.2f}x the default compile_graph "
            f"emission (target {TARGET_SPEEDUP}x)"
        )


def test_scenario_recipe_speedup_median():
    rows, medians = [], {}
    for name in RECIPES:
        speedups = sorted(
            autotune_graph(build_graph(name), memo=False,
                           **RECIPE_BUDGET).speedup
            for _ in range(RECIPE_SEARCHES))
        medians[name] = statistics.median(speedups)
        rows.append([name, f"{medians[name]:.2f}x",
                     f"{speedups[0]:.2f}x", f"{speedups[-1]:.2f}x"])
    emit(render_table(
        ["recipe", "median", "min", "max"], rows,
        title=f"autotuned speedup over the default mapping, "
              f"{RECIPE_SEARCHES} searches at "
              f"{RECIPE_BUDGET['score_cycles']} scored cycles"))
    for name, median in medians.items():
        assert median >= TARGET_SPEEDUP, (
            f"{name}: median autotuned speedup {median:.2f}x over "
            f"{RECIPE_SEARCHES} searches (target {TARGET_SPEEDUP}x)")
