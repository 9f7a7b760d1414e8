"""Steady-state simulation throughput: interpreter vs pre-decoded fast path.

The fast path (:mod:`repro.core.fastpath`) exists so that large rings —
the paper's Ring-64 SoC operating point — simulate at a useful speed: in
steady state the configuration is static, so per-cycle routing resolution
and microword dispatch are pure overhead.  This benchmark measures fabric
cycles per second on a representative DSP configuration (forward MADD
chains, local-mode MAC loops, feedback taps) for Ring-8/16/64 with the
fast path disabled and enabled, and asserts the tentpole target: at least
a 3x steady-state speedup on Ring-64.

Run with ``pytest -s benchmarks/test_steady_state_throughput.py`` to see
the reproduced table.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource

#: Ring-64 acceptance floor (steady-state cycles/sec, fast path over
#: interpreter).  The measured ratio is typically far higher; 3x keeps the
#: assertion robust on loaded CI machines.
TARGET_SPEEDUP = 3.0


def _configure(ring: Ring) -> None:
    """A representative always-active DSP steady state.

    Straight inter-layer routing; even positions run a global MADD on the
    forward stream (multiplier + adder every cycle), odd positions run a
    4-slot local loop mixing MAC accumulation, feedback-tap reads and a
    register move — so both execution modes, both operand planes and the
    feedback pipelines are all on the measured path.
    """
    g = ring.geometry
    for k in range(g.layers):
        for pos in range(g.width):
            ring.config.write_switch_route(k, pos, 1, PortSource.up(pos))
            ring.config.write_switch_route(k, pos, 2,
                                           PortSource.rp(2, pos + 1))
    for layer in range(g.layers):
        for pos in range(g.width):
            if pos % 2 == 0:
                ring.config.write_microword(layer, pos, MicroWord(
                    Opcode.MADD, Source.IN1, Source.SELF, dst=Dest.OUT,
                    imm=3))
            else:
                ring.config.write_mode(layer, pos, DnodeMode.LOCAL)
                ring.config.write_local_program(layer, pos, [
                    MicroWord(Opcode.MAC, Source.IN1, Source.IN2,
                              dst=Dest.R0, flags=Flag.WRITE_OUT),
                    MicroWord(Opcode.ADD, Source.R0, Source.IN2,
                              dst=Dest.R1),
                    MicroWord(Opcode.ABSDIFF, Source.R1, Source.SELF,
                              dst=Dest.OUT),
                    MicroWord(Opcode.MOV, Source.R1, dst=Dest.R2),
                ])


def _cycles_per_second(ring: Ring, cycles: int, repeats: int = 3) -> float:
    """Best-of-*repeats* steady-state throughput of ``ring.run``."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles)
        elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def _measure(dnodes: int, cycles: int) -> tuple:
    results = []
    for backend in ("interpreter", "fastpath"):
        ring = Ring(RingGeometry.ring(dnodes), backend=backend)
        _configure(ring)
        ring.run(4)  # settle + (fast path) compile outside the timed region
        if backend == "fastpath":
            assert ring._plan is not None, "fast path failed to engage"
        results.append(_cycles_per_second(ring, cycles))
    return tuple(results)


def test_ring64_steady_state_speedup():
    interp, fast = _measure(64, cycles=3_000)
    speedup = fast / interp
    emit(
        f"Ring-64 steady state: interpreter {interp:,.0f} cyc/s, "
        f"fast path {fast:,.0f} cyc/s -> {speedup:.1f}x"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"fast path delivered only {speedup:.2f}x on Ring-64 "
        f"(target {TARGET_SPEEDUP}x)"
    )


def test_throughput_scaling_table():
    rows = []
    for dnodes, cycles in ((8, 12_000), (16, 8_000), (64, 3_000)):
        interp, fast = _measure(dnodes, cycles)
        rows.append([f"Ring-{dnodes}", f"{interp:,.0f}", f"{fast:,.0f}",
                     f"{fast / interp:.1f}x"])
    emit(render_table(
        ["fabric", "interpreter cyc/s", "fast path cyc/s", "speedup"],
        rows,
        title="Steady-state simulation throughput",
    ))
    # Larger fabrics must not lose the advantage: the fast path's per-cycle
    # cost is linear in *active* Dnodes with no global re-decode, so the
    # ratio should hold (or grow) with ring size.
    assert all(float(r[3][:-1]) >= 1.5 for r in rows)
