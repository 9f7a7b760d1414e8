"""Profiler: utilisation and operator-mix reports from fabric statistics.

The second half of the paper's future-work tool.  Works on any
:class:`~repro.core.ring.Ring` that has run: the per-Dnode activity
counters (cycles, instructions, elementary operations, multiplies, FIFO
traffic) become a utilisation table, plus aggregate numbers the §5.1
analysis consumes (sustained MIPS at a given clock).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_table
from repro.core.ring import Ring
from repro.errors import SimulationError
from repro.host.dma import DEFAULT_CLOCK_HZ


def utilization_by_dnode(ring: Ring) -> Dict[str, float]:
    """Per-Dnode utilisation (busy fraction), keyed by Dnode name."""
    if ring.cycles == 0:
        raise SimulationError("ring has not run yet")
    out = {}
    for dn in ring.all_dnodes():
        out[dn.name] = (dn.stats.instructions / dn.stats.cycles
                        if dn.stats.cycles else 0.0)
    return out


def profile_report(ring: Ring,
                   clock_hz: float = DEFAULT_CLOCK_HZ,
                   include_idle: bool = False) -> str:
    """A rendered utilisation/op-mix table for a finished run.

    Args:
        ring: the fabric after :meth:`~repro.core.ring.Ring.run`.
        clock_hz: clock used for the sustained-rate footer.
        include_idle: also list Dnodes that never executed anything.
    """
    if ring.cycles == 0:
        raise SimulationError("ring has not run yet")
    rows: List[list] = []
    for dn in ring.all_dnodes():
        stats = dn.stats
        if stats.instructions == 0 and not include_idle:
            continue
        utilisation = stats.instructions / stats.cycles if stats.cycles \
            else 0.0
        rows.append([
            dn.name,
            stats.instructions,
            stats.arithmetic_ops,
            stats.multiplies,
            stats.fifo_pops,
            100.0 * utilisation,
        ])
    busy = sum(1 for dn in ring.all_dnodes() if dn.stats.instructions)
    total = len(ring.all_dnodes())
    per_cycle = ring.instructions_executed / ring.cycles
    table = render_table(
        ["dnode", "instr", "ops", "muls", "fifo pops", "busy %"],
        rows,
        title=f"Profile — {ring.cycles} cycles, {busy}/{total} Dnodes busy",
    )
    footer = (
        f"\nsustained: {per_cycle:.2f} instr/cycle = "
        f"{per_cycle * clock_hz / 1e6:.0f} MIPS at "
        f"{clock_hz / 1e6:.0f} MHz; fabric utilisation "
        f"{100 * ring.utilization():.1f}%"
    )
    return table + footer
