"""Fault injection, checkpointing, and recovery for the ring fabric.

The paper's scalability argument rests on the fabric staying correct
while it is dynamically reconfigured; this package adds the matching
robustness story — what happens when state is corrupted or a Dnode
misbehaves — working identically across all four execution engines
(interpreter, fast path, batch, the native ladder):

* :mod:`repro.robustness.faults` — seeded, deterministic fault models:
  SEU bit-flips in register files, OUT registers, switch feedback
  pipelines, FIFO words and the configuration plane, stuck-at/disabled
  Dnodes, and dropped host stream words.  Configuration faults are
  applied through :class:`~repro.core.config_memory.ConfigMemory`, so
  the existing invalidation-listener hooks fire and compiled plans are
  correctly dropped.
* :mod:`repro.robustness.checkpoint` — periodic checkpointing built on
  :func:`repro.core.snapshot.capture`/``restore`` with rollback-replay
  recovery, plus graceful degradation (remap around a disabled Dnode)
  with a measured throughput report.
* :mod:`repro.robustness.campaign` — :class:`FaultCampaign`, sweeping
  fault sites x injection cycles x seeds with golden-run detection and
  bit-identity verification of every recovery.
"""

from repro.robustness.campaign import CampaignResult, FaultCampaign, TrialResult
from repro.robustness.checkpoint import (
    CheckpointManager,
    ThroughputReport,
    degradation_report,
    disable_dnode,
    remap_around,
    rollback_replay,
    throughput,
)
from repro.robustness.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSite,
    enumerate_sites,
)

__all__ = [
    "CampaignResult",
    "CheckpointManager",
    "FaultCampaign",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSite",
    "ThroughputReport",
    "TrialResult",
    "degradation_report",
    "disable_dnode",
    "enumerate_sites",
    "remap_around",
    "rollback_replay",
    "throughput",
]
