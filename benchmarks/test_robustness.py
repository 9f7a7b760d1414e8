"""Robustness-layer cost model: checkpoint overhead + campaign smoke.

Two numbers are pinned here:

1. **Checkpoint overhead**: running a steady-state FIR under
   ``CheckpointManager`` (interval 256) must cost no more than 15% of
   plain fast-path throughput.  Snapshots are cheap relative to the
   compiled inner loop, and this assertion keeps them that way.  Plain
   and checkpointed runs are timed as interleaved pairs on fresh rings,
   and the gate reads the median per-pair overhead: host load drifts
   between runs far more than it does within one pair, so two
   independent best-of-N rates swing too widely to gate on.
2. **Campaign determinism**: a pinned-seed :class:`FaultCampaign` must
   reproduce the exact same summary every run — injected/detected/
   recovered/masked counts are recorded so a behaviour change in the
   fault models shows up as a JSON diff in CI artifacts.

Everything lands in ``BENCH_robustness.json``.  Run with
``pytest -s benchmarks/test_robustness.py`` for the tables.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core.ring import Ring, RingGeometry
from repro.kernels.fir import build_spatial_fir
from repro.robustness import CheckpointManager, FaultCampaign

#: Acceptance ceiling: fractional throughput cost of interval-256
#: checkpointing on the fast path.  Measured overhead is typically ~5%;
#: 15% keeps the assertion robust on loaded CI.
MAX_CHECKPOINT_OVERHEAD = 0.15

CHECKPOINT_EVERY = 256
STEADY_CYCLES = 20_000
#: Interleaved (plain, checkpointed) timing pairs behind the gate.
OVERHEAD_PAIRS = 7

#: Pinned campaign shape — change these and the recorded summary moves.
CAMPAIGN_SEED = 2002  # DATE 2002
CAMPAIGN_CYCLES = 48
CAMPAIGN_TRIALS = 12

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_robustness.json"

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]


def _fir_ring(**kwargs) -> Ring:
    ring = Ring(RingGeometry(layers=len(_TAPS), width=2), **kwargs)
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _driver(ring: Ring, cycle: int) -> None:
    ring.step(host_in=lambda channel: cycle & 0xFF)


def _plain_seconds() -> float:
    """Wall time of STEADY_CYCLES plain fast-path cycles, fresh ring."""
    ring = _fir_ring()
    ring.run(4, host_in=lambda ch: 0)
    start = time.perf_counter()
    for cycle in range(STEADY_CYCLES):
        _driver(ring, cycle)
    return time.perf_counter() - start


def _checkpointed_seconds() -> float:
    """The same run under interval-CHECKPOINT_EVERY checkpointing."""
    ring = _fir_ring()
    ring.run(4, host_in=lambda ch: 0)
    manager = CheckpointManager(ring, every=CHECKPOINT_EVERY,
                                driver=_driver, keep=2)
    start = time.perf_counter()
    manager.run(STEADY_CYCLES)
    elapsed = time.perf_counter() - start
    assert ring.checkpoints >= STEADY_CYCLES // CHECKPOINT_EVERY
    return elapsed


def _paired_overheads():
    """Per-pair overhead ``1 - plain_s / checkpointed_s`` and the two
    run times, OVERHEAD_PAIRS pairs; the side that runs first
    alternates so neither always gets the warmer cache."""
    overheads, plain, checkpointed = [], [], []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            ckpt_s = _checkpointed_seconds()
            plain_s = _plain_seconds()
        else:
            plain_s = _plain_seconds()
            ckpt_s = _checkpointed_seconds()
        overheads.append(1.0 - plain_s / ckpt_s)
        plain.append(plain_s)
        checkpointed.append(ckpt_s)
    return overheads, plain, checkpointed


def _campaign_factory() -> Ring:
    return _fir_ring()


def test_checkpoint_overhead_and_campaign_smoke():
    overheads, plain_s, checkpointed_s = _paired_overheads()
    overhead = statistics.median(overheads)
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    plain = STEADY_CYCLES / statistics.median(plain_s)
    checkpointed = STEADY_CYCLES / statistics.median(checkpointed_s)

    emit(render_table(
        ["mode", "cyc/s", "overhead"],
        [["fast path", f"{plain:,.0f}", "--"],
         [f"+ checkpoint/{CHECKPOINT_EVERY}", f"{checkpointed:,.0f}",
          f"{overhead * 100.0:.1f}% (IQR {(q3 - q1) * 100.0:.1f} pts)"]],
        title=f"steady-state {len(_TAPS)}-tap FIR checkpoint overhead "
              f"(median of {OVERHEAD_PAIRS} interleaved pairs)",
    ))

    campaign = FaultCampaign(_campaign_factory, cycles=CAMPAIGN_CYCLES,
                             checkpoint_every=8, seed=CAMPAIGN_SEED,
                             trials=CAMPAIGN_TRIALS)
    result = campaign.run()
    summary = result.summary()

    emit(render_table(
        ["injected", "detected", "recovered", "masked"],
        [[str(summary["injected"]), str(summary["detected"]),
          str(summary["recovered"]), str(summary["masked"])]],
        title=f"fault campaign (seed {CAMPAIGN_SEED}, "
              f"{CAMPAIGN_TRIALS} trials x {CAMPAIGN_CYCLES} cycles)",
    ))

    assert overhead <= MAX_CHECKPOINT_OVERHEAD, (
        f"interval-{CHECKPOINT_EVERY} checkpointing cost a median "
        f"{overhead * 100.0:.1f}% of fast-path throughput over "
        f"{OVERHEAD_PAIRS} pairs {[round(o * 100.0, 1) for o in overheads]} "
        f"(ceiling {MAX_CHECKPOINT_OVERHEAD * 100.0:.0f}%)"
    )
    assert result.all_recovered, "campaign left an unrecovered fault"
    assert summary["detected"] > 0, "campaign never landed a visible fault"

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "robustness",
        "fabric": f"Ring-{len(_TAPS) * 2} spatial FIR ({len(_TAPS)} taps)",
        "checkpoint_every": CHECKPOINT_EVERY,
        "steady_cycles_per_second": {
            "fastpath": round(plain),
            "checkpointed": round(checkpointed),
        },
        "checkpoint_overhead_percent": round(overhead * 100.0, 2),
        "checkpoint_overhead_pairs_percent":
            [round(o * 100.0, 2) for o in overheads],
        "checkpoint_overhead_iqr_percent": round((q3 - q1) * 100.0, 2),
        "max_checkpoint_overhead_percent":
            MAX_CHECKPOINT_OVERHEAD * 100.0,
        "campaign": {
            "seed": CAMPAIGN_SEED,
            "cycles": CAMPAIGN_CYCLES,
            "trials": CAMPAIGN_TRIALS,
            **summary,
        },
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
