"""Native tier throughput on the steady-state Ring-16.

The tier's perf claim: once a steady-state window is compiled to a
time-vectorized NumPy program, advancing T cycles costs a *fixed*
number of array operations, so cycles/s should leave the per-cycle
engines behind by an order of magnitude on plan-friendly fabrics.  The
acceptance floor is 5x the macro rung (the same native ring with the
native tier refused by the ``native_refused`` test seam) on a Ring-16
feed-forward MADD chain.  The chain is native-eligible end to end, so
the macro rung of the plain native ring never runs here.

Results land in ``BENCH_native.json`` so CI archives a perf data point
per PR.  Run with ``pytest -s benchmarks/test_native_throughput.py``
for the table.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.core.switch import PortSource
from tests.conftest import native_refused

#: Acceptance floor: native cycles/s over the macro rung on the
#: steady-state Ring-16 chain.
TARGET_NATIVE_SPEEDUP = 5.0

#: Cycles per timed run and timing repeats (best-of).
CYCLES = 200_000
REPEATS = 3

#: Where the recorded numbers land (repo root, picked up by CI).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_native.json"

BUS = 7


def _ring16(**kwargs) -> Ring:
    """Ring-16 feed-forward MADD chain: layer 0 scales the bus word,
    layers 1..7 multiply-accumulate the upstream value against a
    2-cycle-old feedback tap — every Dnode busy, no ring-wrap cycle,
    so the configuration is native-eligible at period 1."""
    ring = Ring(RingGeometry.ring(16), **kwargs)
    width = ring.geometry.width
    for p in range(width):
        ring.config.write_microword(0, p, MicroWord(
            Opcode.MUL, Source.BUS, Source.IMM, Dest.OUT, imm=3 + p))
    for k in range(1, ring.geometry.layers):
        for p in range(width):
            ring.config.write_switch_route(k, p, 1, PortSource.up(p))
            ring.config.write_microword(k, p, MicroWord(
                Opcode.MADD, Source.IN1, Source.IN2, Dest.OUT, imm=2))
            ring.config.write_switch_route(
                k, p, 2, PortSource.rp(2, p + 1))
    return ring


def _cycles_per_second(ring: Ring, cycles: int = CYCLES,
                       repeats: int = REPEATS) -> float:
    ring.run(4, bus=BUS)  # settle + compile outside the timed region
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles, bus=BUS)
        elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def test_native_throughput_vs_per_cycle_engines():
    with native_refused():
        macro_ring = _ring16()
        rates = {"macro": _cycles_per_second(macro_ring)}
    assert macro_ring.native_cycles == 0 and macro_ring.macro_cycles > 0
    native_ring = _ring16()
    rates["native"] = _cycles_per_second(native_ring)

    assert native_ring.native_cycles > 0, "native tier must engage"
    assert native_ring.native_fallback_cycles == 0, (
        "the chain is eligible end-to-end; nothing may fall back"
    )
    # Same cycle count on every engine -> identical architectural state.
    assert state_digest(native_ring) == state_digest(macro_ring)

    baseline = rates["macro"]
    speedup = rates["native"] / baseline
    emit(render_table(
        ["engine", "cyc/s", "vs macro"],
        [[name, f"{rate:,.0f}", f"{rate / baseline:.1f}x"]
         for name, rate in rates.items()],
        title=f"steady-state Ring-16 MADD chain, {CYCLES:,} cycles "
              f"(best of {REPEATS})",
    ))

    BENCH_PATH.write_text(json.dumps({
        "workload": "ring16-madd-chain-steady-state",
        "cycles": CYCLES,
        "cycles_per_second": {k: round(v) for k, v in rates.items()},
        "native_speedup_vs_macro": round(speedup, 2),
        "target_speedup": TARGET_NATIVE_SPEEDUP,
        "native_cycles": native_ring.native_cycles,
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")

    assert speedup >= TARGET_NATIVE_SPEEDUP, (
        f"native tier sustained only {speedup:.2f}x the macro rung "
        f"(target {TARGET_NATIVE_SPEEDUP}x)"
    )
