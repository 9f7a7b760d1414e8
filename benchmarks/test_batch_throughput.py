"""Batched multi-stream throughput: one fabric, B independent streams.

The batch backend (:mod:`repro.core.batchpath`) amortises Python
dispatch across a lane axis: every compiled kernel computes one Dnode's
result for all B streams with a handful of NumPy array operations, so
aggregate lane-cycles per second grow far faster than the per-lane cost.
This benchmark measures a steady-state 8-tap spatial FIR (the paper's
canonical data-oriented kernel) on the interpreter, the scalar fast
path, and the batch backend at B = 1/8/32, asserts the acceptance
target — batch-32 sustains at least 4x the scalar fast path's aggregate
throughput — and records everything in ``BENCH_batch.json`` so CI
archives a perf data point per PR.

Run with ``pytest -s benchmarks/test_batch_throughput.py`` for the table.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core.ring import Ring, RingGeometry
from repro.kernels.fir import build_spatial_fir

#: Acceptance floor: batch-32 aggregate lane-cycles/s over the scalar
#: fast path's cycles/s on the same FIR configuration.  Measured ratios
#: are typically far higher; 4x keeps the assertion robust on loaded CI.
TARGET_BATCH_SPEEDUP = 4.0

#: The headline batch width.
BATCH = 32

#: Where the recorded numbers land (repo root, picked up by CI artifacts).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]


def _fir_ring(**kwargs) -> Ring:
    ring = Ring(RingGeometry(layers=len(_TAPS), width=2), **kwargs)
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _host_zero(channel: int) -> int:
    return 0


def _cycles_per_second(ring: Ring, cycles: int, repeats: int = 3) -> float:
    """Best-of-*repeats* steady-state throughput of ``ring.run``."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles, host_in=_host_zero)
        elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def _measure() -> dict:
    cycles = 3_000
    points = {}

    ring = _fir_ring(backend="interpreter")
    ring.run(4, host_in=_host_zero)
    points["interpreter"] = (_cycles_per_second(ring, cycles), 1)

    ring = _fir_ring()
    ring.run(4, host_in=_host_zero)
    assert ring._plan is not None
    points["fastpath"] = (_cycles_per_second(ring, cycles), 1)

    for batch in (1, 8, BATCH):
        ring = _fir_ring(backend="batch", batch_size=batch)
        if batch == 1:
            # B=1 now rides the scalar fast path unless the vector engine
            # is explicitly engaged; this point measures the engine's
            # per-lane overhead, so engage it.
            ring.batch
        ring.run(4, host_in=_host_zero)
        assert ring._batch_engine is not None
        assert ring._batch_engine._kernels is not None
        points[f"batch_{batch}"] = (_cycles_per_second(ring, cycles), batch)
    return points


def test_batch32_beats_scalar_fastpath_aggregate():
    points = _measure()
    fastpath_rate = points["fastpath"][0] * points["fastpath"][1]

    def lane_rate(name: str) -> float:
        rate, lanes = points[name]
        return rate * lanes

    emit(render_table(
        ["operating point", "cyc/s", "lanes", "lane-cyc/s", "vs fastpath"],
        [[name, f"{rate:,.0f}", str(lanes), f"{rate * lanes:,.0f}",
          f"{rate * lanes / fastpath_rate:.1f}x"]
         for name, (rate, lanes) in points.items()],
        title="8-tap FIR multi-stream throughput",
    ))

    speedup = lane_rate(f"batch_{BATCH}") / fastpath_rate
    assert speedup >= TARGET_BATCH_SPEEDUP, (
        f"batch-{BATCH} sustained only {speedup:.2f}x the scalar fast "
        f"path's aggregate throughput (target {TARGET_BATCH_SPEEDUP}x)"
    )

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "batch_throughput",
        "fabric": f"Ring-{len(_TAPS) * 2} spatial FIR ({len(_TAPS)} taps)",
        "batch": BATCH,
        "cycles_per_second": {
            name: round(rate) for name, (rate, _) in points.items()},
        "lane_cycles_per_second": {
            name: round(rate * lanes)
            for name, (rate, lanes) in points.items()},
        "batch32_aggregate_speedup_vs_fastpath": round(speedup, 2),
        "target_speedup": TARGET_BATCH_SPEEDUP,
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
