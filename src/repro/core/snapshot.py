"""Checkpoint/restore of complete fabric runtime state.

Long systolic simulations (frame-level motion search, full-image
transforms) benefit from checkpoints: capture *everything* live in the
fabric — register files, output registers, feedback pipelines, FIFO
contents, local-sequencer counters, cycle/statistics counters, FIFO
underflow and high-water accounting, the last bus value — and restore it
later onto a same-geometry ring.  Configuration state is captured via a
:class:`~repro.core.config_memory.ConfigPlane`, so one snapshot fully
determines future behaviour: a restored ring is cycle-for-cycle *and
counter-for-counter* identical to the original (tested on every
execution engine).

Engine interaction contract:

* ``restore()`` ends with an explicit
  :meth:`~repro.core.ring.Ring._invalidate_fastpath` — the active
  macro and native kernels are dropped and every invalidation listener
  fires, so no engine can keep executing a kernel compiled for the
  pre-restore configuration.  Kernels retained in the fingerprint cache
  stay valid (they are keyed by configuration and entry phase and bound
  to the ring's stable state containers), and restore immediately
  re-adopts the cached kernels for the restored fingerprint via
  :meth:`~repro.core.ring.Ring.adopt_cached_plan` — a
  restore-to-known-config pays one cache lookup per tier, zero
  recompiles and zero interpreted warm-up cycles.
* A ring running the batch backend captures the full per-lane state
  (:meth:`~repro.core.batchpath.BatchRing.capture_lanes`); restoring
  onto a batch ring of the same lane count rebuilds every lane, not
  just the lane-0 scalar mirror.  Restoring a batch snapshot onto a
  scalar ring (or vice versa) is permitted and keeps lane 0.

What a snapshot deliberately does *not* cover: engine-lifetime counters
(``plan_compiles``, ``plan_invalidations``, ``macro_cycles``, the plan
cache and its hit/miss statistics, configuration write counters) and the
robustness counters (``faults_injected`` etc.) — those describe the
simulation host, not the architectural state of the fabric, and restoring
must not rewrite history (a rollback still counts as a rollback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from repro.core.config_memory import ConfigPlane
from repro.core.ring import Ring
from repro.errors import SimulationError

#: Per-Dnode statistics captured in a snapshot, field order matching
#: :class:`~repro.core.dnode.DnodeStats`.
_STAT_FIELDS = ("cycles", "instructions", "arithmetic_ops", "multiplies",
                "fifo_pops")


@dataclass
class RingSnapshot:
    """Frozen runtime + configuration state of a ring."""

    layers: int
    width: int
    pipeline_depth: int
    cycles: int
    configuration: ConfigPlane
    registers: Dict[Tuple[int, int], List[int]] = field(
        default_factory=dict)
    outs: Dict[Tuple[int, int], int] = field(default_factory=dict)
    local_counters: Dict[Tuple[int, int], int] = field(
        default_factory=dict)
    pipelines: Dict[int, List[List[int]]] = field(default_factory=dict)
    fifos: Dict[Tuple[int, int, int], List[int]] = field(
        default_factory=dict)
    #: Per-Dnode activity counters, as tuples in ``_STAT_FIELDS`` order.
    stats: Dict[Tuple[int, int], Tuple[int, ...]] = field(
        default_factory=dict)
    fifo_underflows: int = 0
    fifo_high_water: Dict[Tuple[int, int, int], int] = field(
        default_factory=dict)
    last_bus: int = 0
    #: Full per-lane batch-engine state (``BatchRing.capture_lanes()``),
    #: present only when the source ring had a live batch engine.
    lanes: Optional[dict] = None


def capture(ring: Ring) -> RingSnapshot:
    """Snapshot *ring*'s complete state (configuration + runtime)."""
    geometry = ring.geometry
    snapshot = RingSnapshot(
        layers=geometry.layers,
        width=geometry.width,
        pipeline_depth=geometry.pipeline_depth,
        cycles=ring.cycles,
        configuration=ring.config.capture_plane(),
        fifo_underflows=ring.fifo_underflows,
        fifo_high_water=dict(ring.fifo_high_water),
        last_bus=ring.last_bus,
    )
    for dn in ring.all_dnodes():
        addr = (dn.layer, dn.position)
        snapshot.registers[addr] = dn.regs.snapshot()
        snapshot.outs[addr] = dn.out
        snapshot.local_counters[addr] = dn.local.counter
        snapshot.stats[addr] = tuple(
            getattr(dn.stats, name) for name in _STAT_FIELDS)
    for k in range(geometry.layers):
        sw = ring.switch(k)
        snapshot.pipelines[k] = [
            [sw.rp_read(stage, lane) for stage in
             range(1, geometry.pipeline_depth + 1)]
            for lane in range(1, geometry.width + 1)
        ]
    # Iterate the live dict rather than ring.fifo(): capture must not
    # materialize empty queues as a side effect (a restored-then-rebuilt
    # batch engine would mirror the extra queues and its lane digest
    # would differ from a never-restored twin's).
    for key, queue in ring._fifos.items():
        if queue:
            snapshot.fifos[key] = list(queue)
    engine = ring._live_batch()
    if engine is not None:
        snapshot.lanes = engine.capture_lanes()
    return snapshot


def restore(ring: Ring, snapshot: RingSnapshot) -> None:
    """Load *snapshot* onto *ring* (must share the exact geometry)."""
    geometry = ring.geometry
    if (geometry.layers, geometry.width, geometry.pipeline_depth) != \
            (snapshot.layers, snapshot.width, snapshot.pipeline_depth):
        raise SimulationError(
            f"snapshot is for a {snapshot.layers}x{snapshot.width} ring "
            f"(pipeline depth {snapshot.pipeline_depth}); target is "
            f"{geometry.layers}x{geometry.width}"
        )
    ring.reset()
    ring.config.apply_plane(snapshot.configuration)
    for (layer, pos), values in snapshot.registers.items():
        dn = ring.dnode(layer, pos)
        for index, value in enumerate(values):
            dn.regs.stage_write(index, value)
            dn.regs.commit()
        dn._out = snapshot.outs[(layer, pos)]
        dn.local._counter = snapshot.local_counters[(layer, pos)]
        stat_values = snapshot.stats.get((layer, pos))
        if stat_values is not None:
            for name, value in zip(_STAT_FIELDS, stat_values):
                setattr(dn.stats, name, value)
    for k, lanes in snapshot.pipelines.items():
        sw = ring.switch(k)
        for lane in range(snapshot.width):
            for stage in range(1, snapshot.pipeline_depth + 1):
                sw.rp_write(stage, lane + 1, lanes[lane][stage - 1])
    for (layer, pos, channel), values in snapshot.fifos.items():
        ring.push_fifo(layer, pos, channel, values)
    # The pushes above recorded fresh high-water marks; overwrite with
    # the source ring's history so the counters round-trip exactly.
    ring.fifo_underflows = snapshot.fifo_underflows
    ring.fifo_high_water.clear()
    ring.fifo_high_water.update(snapshot.fifo_high_water)
    ring.last_bus = snapshot.last_bus
    ring.cycles = snapshot.cycles
    if (snapshot.lanes is not None
            and ring.backend == "batch"
            and ring.batch_size == snapshot.lanes["batch"]):
        # Load the captured lanes into the engine the reset above kept
        # (or one built over the restored scalar state).  Without lanes
        # the kept engine broadcasts the restored scalar state at its
        # next use, as a fresh engine would.
        engine = ring._batch_engine or ring._ensure_batch()
        engine.restore_lanes(snapshot.lanes)
    # Contract: a restore is a configuration event.  apply_plane() above
    # already fired the invalidation hooks, but the runtime-state writes
    # happened afterwards — invalidate once more so the active kernels
    # are dropped *after* the last mutation and every listener observes
    # the completed restore.
    ring._invalidate_fastpath()
    # Restore-to-known-config must not pay a recompile or an interpreted
    # warm-up cycle: the restored configuration is final at this point,
    # so re-adopt cached kernels eagerly, one lookup per tier.  A miss
    # leaves the lazy step()-time policy in charge, unchanged.
    ring.adopt_cached_plan()


def state_digest(ring: Ring) -> tuple:
    """Canonical, hashable digest of a ring's complete state.

    Equal digests mean bit-identical fabric state: configuration,
    datapath contents, every per-lane word when a batch engine is live,
    and the architectural counters a snapshot round-trips (statistics,
    underflows, FIFO high-water marks, the cycle count and last bus
    value).  Engine-lifetime counters are excluded, mirroring the
    snapshot contract, so digests are comparable across execution
    backends and across a rollback.
    """
    return snapshot_digest(capture(ring))


def snapshot_digest(snapshot: RingSnapshot) -> tuple:
    """The :func:`state_digest` of a snapshot without a target ring."""

    def freeze(value):
        if isinstance(value, (dict, MappingProxyType)):
            return tuple(sorted(
                (freeze(k), freeze(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        return value

    plane = snapshot.configuration
    return (
        snapshot.layers, snapshot.width, snapshot.pipeline_depth,
        snapshot.cycles,
        freeze(plane.microwords), freeze(plane.modes),
        freeze(plane.local_programs), freeze(plane.switch_routes),
        freeze(snapshot.registers), freeze(snapshot.outs),
        freeze(snapshot.local_counters), freeze(snapshot.pipelines),
        freeze(snapshot.fifos), freeze(snapshot.stats),
        snapshot.fifo_underflows, freeze(snapshot.fifo_high_water),
        snapshot.last_bus, freeze(snapshot.lanes),
    )


__all__ = ["RingSnapshot", "capture", "restore", "state_digest",
           "snapshot_digest"]
