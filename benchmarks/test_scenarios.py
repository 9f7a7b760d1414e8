"""Scenario-library benchmark: recipe throughput + reconfiguration churn.

Two measurements, recorded in ``BENCH_scenarios.json`` for CI artifacts:

* **per-kernel engine sweep** — steady-state fabric cycles/s for a
  representative slice of the scenario library (hand-mapped NCO and
  echo, compiled resampler/mixer/magnitude/CORDIC) on the interpreter,
  the macro rung (held there by the ``native_refused`` test seam) and
  the native ladder (which runs its macro rung where the native tier
  refuses, e.g. the echo's ring-closing feedback);
* **reconfiguration churn** — end-to-end samples/s of the two
  plane-switching pipelines (synth voice, effects chain) across chunk
  sizes, with the plan-cache telemetry that proves steady-state churn
  costs zero code generation (one kernel per plane — the voice or
  master plane's native kernel and the echo plane's macro kernel — no
  matter how many switches).

Run with ``pytest -s benchmarks/test_scenarios.py`` for the tables.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.compiler.codegen import compile_graph
from repro.compiler.library import build_graph
from repro.core.plancache import KERNELS
from repro.core.ring import Ring, RingGeometry
from repro.kernels.effects import build_echo
from repro.kernels.nco import NCO_LAYERS, build_nco
from repro.kernels.scenarios import (EFFECTS_GEOMETRY, SYNTH_GEOMETRY,
                                     run_effects_chain, run_synth_voice)
from tests.conftest import rung_seam

#: Where the recorded numbers land (repo root, picked up by CI artifacts).
BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_scenarios.json"

#: Engine sweep for the per-kernel table (the batch backend is covered
#: by ``BENCH_batch.json`` on its own terms).  "macro" is a native ring
#: held on its macro rung by :func:`rung_seam`.
ENGINES = {
    "interpreter": {"backend": "interpreter"},
    "macro": {"backend": "native"},
    "native": {"backend": "native"},
}

#: Acceptance floor: the macro rung over the interpreter on the
#: hand-mapped NCO.  Real ratios are far higher; the floor only guards
#: against the macro rung silently falling back to interpretation.
TARGET_NCO_MACRO_SPEEDUP = 1.5

_MEASURE_CYCLES = 2_000


def _host_zero(channel: int) -> int:
    return 0


def _cycles_per_second(ring: Ring, cycles: int = _MEASURE_CYCLES,
                       repeats: int = 3) -> float:
    ring.run(8, host_in=_host_zero)          # engage engine, warm plans
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles, host_in=_host_zero)
        best = max(best, cycles / (time.perf_counter() - start))
    return best


def _kernel_rings():
    """name -> engine_kwargs -> configured ring, for the sweep."""
    def nco_ring(kwargs):
        ring = Ring(RingGeometry(layers=NCO_LAYERS, width=2), **kwargs)
        build_nco(1873, ring=ring)
        return ring

    def echo_ring(kwargs):
        ring = Ring(RingGeometry(layers=8, width=2), **kwargs)
        build_echo(22000, ring=ring)
        return ring

    def compiled(name):
        program = compile_graph(build_graph(name))

        def make(kwargs):
            ring = Ring(program.geometry, **kwargs)
            program.configure(ring)
            return ring
        return make

    return {
        "nco": nco_ring,
        "echo8": echo_ring,
        "up2": compiled("up2"),
        "mixer4": compiled("mixer4"),
        "cmag": compiled("cmag"),
        "cordic4": compiled("cordic4"),
    }


def test_scenario_kernel_engine_sweep_and_pipeline_churn():
    kernels = {}
    for name, make in _kernel_rings().items():
        kernels[name] = {}
        for engine, kwargs in ENGINES.items():
            with rung_seam(engine):
                kernels[name][engine] = round(
                    _cycles_per_second(make(dict(kwargs))))

    emit(render_table(
        ["kernel"] + list(ENGINES),
        [[name] + [f"{kernels[name][e]:,}" for e in ENGINES]
         for name in kernels],
        title="scenario kernels: fabric cycles/s per engine",
    ))

    nco_speedup = kernels["nco"]["macro"] / kernels["nco"]["interpreter"]
    assert nco_speedup >= TARGET_NCO_MACRO_SPEEDUP, (
        f"NCO macro rung sustained only {nco_speedup:.2f}x the "
        f"interpreter (target {TARGET_NCO_MACRO_SPEEDUP}x)"
    )

    envelope = [min(32767, 500 * (n % 80)) for n in range(960)]
    signal = [((7 * n + 11) % 120) - 60 for n in range(960)]
    pipelines = {}
    for chunk in (32, 96, 480):
        # Each pipeline starts cold, as a fresh process would: a fresh
        # ring would otherwise bind the previous chunk size's kernels.
        KERNELS.clear()
        ring = Ring(SYNTH_GEOMETRY)
        start = time.perf_counter()
        synth = run_synth_voice(envelope, chunk=chunk, ring=ring)
        synth_elapsed = time.perf_counter() - start
        # One kernel per plane, ever: native for the voice plane,
        # macro for the echo plane.
        assert (synth.plan_compiles, ring.native_compiles) == (1, 1)

        KERNELS.clear()
        ring = Ring(EFFECTS_GEOMETRY)
        start = time.perf_counter()
        effects = run_effects_chain(signal, chunk=chunk, ring=ring)
        effects_elapsed = time.perf_counter() - start
        assert (effects.plan_compiles, ring.native_compiles) == (1, 1)

        pipelines[str(chunk)] = {
            "synth_voice": {
                "samples_per_second": round(
                    len(envelope) / synth_elapsed),
                "switches": synth.switches,
                "plan_hits": synth.plan_hits,
                "plan_compiles": synth.plan_compiles,
            },
            "effects_chain": {
                "samples_per_second": round(
                    len(signal) / effects_elapsed),
                "switches": effects.switches,
                "plan_hits": effects.plan_hits,
                "plan_compiles": effects.plan_compiles,
            },
        }

    emit(render_table(
        ["chunk", "pipeline", "samples/s", "switches", "plan hits",
         "compiles"],
        [[chunk, name,
          f"{stats['samples_per_second']:,}", str(stats["switches"]),
          str(stats["plan_hits"]), str(stats["plan_compiles"])]
         for chunk, per in pipelines.items()
         for name, stats in per.items()],
        title="reconfiguration churn: plane-switching pipelines",
    ))

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "scenario_library",
        "measure_cycles": _MEASURE_CYCLES,
        "kernel_cycles_per_second": kernels,
        "nco_macro_speedup_vs_interpreter": round(nco_speedup, 2),
        "target_nco_macro_speedup": TARGET_NCO_MACRO_SPEEDUP,
        "pipeline_churn": pipelines,
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
