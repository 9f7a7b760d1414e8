"""Observability overhead: what does watching the fabric cost?

The tier-2 sampled tracer exists so that waveform capture does not force
a Ring-64 run back onto per-cycle dispatch: :meth:`Ring.run`
chunk-runs the compiled ladder between capture points.  This benchmark
measures Ring-64 steady-state throughput in four operating points —
interpreter, the untraced native ladder (the default engine), every-cycle
trace (one macro step per cycle), and an interval-64 sampled trace —
asserts the acceptance target (a sampled trace still
beats the bare interpreter by at least 5x), exercises the tier-3
:meth:`Ring.profile` accounting, and records everything in
``BENCH_observability.json`` so CI archives a perf data point per PR.

Run with ``pytest -s benchmarks/test_observability.py`` to see the table.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from benchmarks.test_steady_state_throughput import _configure
from repro.analysis import render_table
from repro.analysis.trace import Probe, SignalTrace
from repro.core.plancache import KERNELS
from repro.core.ring import Ring, RingGeometry

#: Acceptance floor: an interval-64 sampled trace on Ring-64 must keep at
#: least this multiple of the bare interpreter's throughput.
TARGET_TRACED_SPEEDUP = 5.0

#: Where the recorded numbers land (repo root, picked up by CI artifacts).
BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_observability.json"

_PROBES = [Probe.out(0, 0), Probe.out(16, 1), Probe.reg(8, 0, 0),
           Probe.bus()]


def _ring64(backend: str = "native") -> Ring:
    # Every operating point starts cold: a fresh ring would otherwise
    # bind the kernels an earlier one left in the process-wide cache.
    KERNELS.clear()
    ring = Ring(RingGeometry.ring(64), backend=backend)
    _configure(ring)
    return ring


def _cycles_per_second(ring: Ring, cycles: int, repeats: int = 3) -> float:
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles)
        elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def _measure_operating_points() -> dict:
    cycles = 3_000
    points = {}

    ring = _ring64(backend="interpreter")
    ring.run(4)
    points["interpreter"] = _cycles_per_second(ring, cycles)

    ring = _ring64()
    ring.run(4)
    assert ring._steady, "no compiled kernel was adopted"
    points["native"] = _cycles_per_second(ring, cycles)

    ring = _ring64()
    SignalTrace(ring, _PROBES)  # every cycle: forces per-cycle dispatch
    ring.run(4)
    points["traced_dense"] = _cycles_per_second(ring, cycles)

    ring = _ring64()
    trace = SignalTrace(ring, _PROBES, interval=64)
    ring.run(4)
    points["traced_sampled_64"] = _cycles_per_second(ring, cycles)
    assert ring.native_cycles + ring.macro_cycles > 0, (
        "sampled trace knocked out the compiled ladder")
    assert trace.cycles > 0, "sampled trace captured nothing"
    return points


def test_sampled_trace_keeps_fastpath_throughput():
    """The sampled trace keeps the compiled ladder (native and macro)
    engaged."""
    points = _measure_operating_points()
    sampled_speedup = points["traced_sampled_64"] / points["interpreter"]
    untraced_speedup = points["native"] / points["interpreter"]
    emit(render_table(
        ["operating point", "cyc/s", "vs interpreter"],
        [[name, f"{rate:,.0f}",
          f"{rate / points['interpreter']:.1f}x"]
         for name, rate in points.items()],
        title="Ring-64 observability overhead",
    ))
    assert sampled_speedup >= TARGET_TRACED_SPEEDUP, (
        f"interval-64 trace sustained only {sampled_speedup:.2f}x the "
        f"interpreter (target {TARGET_TRACED_SPEEDUP}x)"
    )

    ring = _ring64()
    with ring.profile() as profile:
        ring.run(3_000)
    assert profile.plan_compiles == 1
    assert profile.fastpath_fraction > 0.99, (
        f"steady state should be almost entirely compiled, got "
        f"{profile.fastpath_fraction:.3f}"
    )
    assert profile.compile_seconds > 0.0

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "observability",
        "fabric": "Ring-64",
        "cycles_per_second": {k: round(v) for k, v in points.items()},
        "sampled_trace_speedup_vs_interpreter": round(sampled_speedup, 2),
        "untraced_speedup_vs_interpreter": round(untraced_speedup, 2),
        "target_sampled_speedup": TARGET_TRACED_SPEEDUP,
        "profile": profile.summary(),
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
