"""Checkpointing, rollback-replay recovery, and graceful degradation.

The recovery model is classic checkpoint/rollback for a deterministic
fabric: snapshot the complete ring state every *N* cycles (via
:mod:`repro.core.snapshot`); on detecting corruption, restore the last
checkpoint and replay the cycles since.  Because the simulator is
bit-deterministic given the same cycle-indexed stimulus, replay converges
to *bit-identity* with an uninjected golden run — proven across all four
execution engines by ``tests/robustness``.

Determinism hinges on the **driver**: a callable ``driver(ring, cycle)``
that advances the ring exactly one cycle using only ``cycle`` to decide
its stimulus (bus value, host stream words).  Replay calls the same
driver with the same cycle numbers, so the fabric re-sees the original
inputs.  The default driver steps with an idle bus and no host input.

Graceful degradation models a permanently dead Dnode: park it on a NOP
local program (:func:`disable_dnode`), then reroute its downstream
consumers to a healthy neighbour (:func:`remap_around`).  The cost is
quantified by :func:`throughput`/:func:`degradation_report`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.dnode import DnodeMode
from repro.core.isa import NOP_WORD
from repro.core.ring import Ring
from repro.core.snapshot import RingSnapshot, capture, restore, state_digest
from repro.core.switch import PortKind, PortSource
from repro.errors import ConfigurationError, SimulationError

#: Advances *ring* by one cycle given the global cycle number.
Driver = Callable[[Ring, int], None]


def default_driver(ring: Ring, cycle: int) -> None:
    """Idle-bus driver; host ports present 0 (an idle link).

    A host reader must exist even for fabrics that route no HOST port:
    a route-corruption fault can repoint any port at a host channel,
    and execution has to keep going so the divergence is *detected*
    rather than crashing the simulation.
    """
    ring.step(host_in=lambda channel: 0)


class CheckpointManager:
    """Periodic checkpointing for one ring.

    Args:
        ring: the fabric to protect.
        every: checkpoint interval in cycles (>= 1).
        driver: deterministic single-cycle stimulus (see module docs).
        keep: how many checkpoints to retain (oldest dropped first).
    """

    def __init__(self, ring: Ring, every: int,
                 driver: Optional[Driver] = None, keep: int = 4):
        if every < 1:
            raise ConfigurationError(
                f"checkpoint interval must be >= 1 cycle, got {every}")
        if keep < 1:
            raise ConfigurationError(
                f"must keep >= 1 checkpoint, got {keep}")
        self.ring = ring
        self.every = every
        self.driver = driver if driver is not None else default_driver
        self.keep = keep
        #: Retained checkpoints, oldest first.
        self.checkpoints: List[RingSnapshot] = []
        self.checkpoint()  # cycle-0 baseline: recovery is always possible

    def checkpoint(self) -> RingSnapshot:
        """Capture the ring now and retain the snapshot."""
        snapshot = capture(self.ring)
        self.checkpoints.append(snapshot)
        if len(self.checkpoints) > self.keep:
            del self.checkpoints[0]
        self.ring.checkpoints += 1
        return snapshot

    @property
    def latest(self) -> RingSnapshot:
        """The most recent retained checkpoint."""
        return self.checkpoints[-1]

    def step(self) -> None:
        """Drive one cycle; checkpoint when the interval elapses."""
        self.driver(self.ring, self.ring.cycles)
        if self.ring.cycles % self.every == 0:
            self.checkpoint()

    def run(self, cycles: int) -> None:
        """Drive *cycles* cycles with periodic checkpoints."""
        for _ in range(cycles):
            self.step()

    def rollback(self) -> RingSnapshot:
        """Restore the latest checkpoint (no replay); returns it."""
        snapshot = self.latest
        restore(self.ring, snapshot)
        self.ring.rollbacks += 1
        return snapshot

    def rollback_replay(self, target_cycle: int) -> tuple:
        """Recover to *target_cycle* from the latest checkpoint.

        Returns the post-recovery :func:`~repro.core.snapshot.state_digest`
        — equal to the golden run's digest at *target_cycle* when the
        driver is deterministic.
        """
        return rollback_replay(self.ring, self.latest, target_cycle,
                               driver=self.driver)


def rollback_replay(ring: Ring, snapshot: RingSnapshot, target_cycle: int,
                    driver: Optional[Driver] = None) -> tuple:
    """Restore *snapshot* onto *ring* and replay up to *target_cycle*.

    Counts one rollback and ``target_cycle - snapshot.cycles`` recovery
    cycles on the ring.  Returns the recovered state digest.
    """
    if target_cycle < snapshot.cycles:
        raise SimulationError(
            f"cannot replay backwards: checkpoint is at cycle "
            f"{snapshot.cycles}, target is {target_cycle}")
    if driver is None:
        driver = default_driver
    restore(ring, snapshot)
    ring.rollbacks += 1
    replayed = target_cycle - snapshot.cycles
    for cycle in range(snapshot.cycles, target_cycle):
        driver(ring, cycle)
    ring.recovery_cycles += replayed
    return state_digest(ring)


# -- whole-system checkpoints -----------------------------------------


#: Controller fields a checkpoint carries: everything that evolves as the
#: program runs.  ``program``/``cfg_rom`` are fixed at construction and
#: ``fabric_reader`` is wiring to the enclosing system, not state.
_CONTROLLER_FIELDS = ("regs", "pc", "halted", "bus_out", "dmem", "state",
                      "_wait_remaining", "in_box", "out_box")


@dataclass
class SystemCheckpoint:
    """A consistent checkpoint of a complete RingSystem.

    Fabric state via :class:`~repro.core.snapshot.RingSnapshot`, the
    host side (stream queues, delivery counters, tap collections) via
    :meth:`~repro.host.streams.DataController.capture_state`, and the
    configuration controller's run state (``None`` for an uncontrolled
    system), anchored at the system cycle counter.  Restored onto any
    system with the same geometry, tap topology and controller program,
    the run continues bit-identical from the captured cycle.
    """

    cycles: int
    snapshot: RingSnapshot
    host: dict
    controller: Optional[dict] = None


def capture_system(system) -> SystemCheckpoint:
    """Checkpoint *system* (a :class:`~repro.host.system.RingSystem`)."""
    controller = None
    if system.controller is not None:
        controller = copy.deepcopy({name: getattr(system.controller, name)
                                    for name in _CONTROLLER_FIELDS})
    return SystemCheckpoint(
        cycles=system.cycles,
        snapshot=capture(system.ring),
        host=system.data.capture_state(),
        controller=controller,
    )


def restore_system(system, checkpoint: SystemCheckpoint) -> None:
    """Restore *system* to *checkpoint*.

    The data controller must already have the same tap topology the
    checkpoint was captured with (taps are identity, not data — create
    them first, then restore), and the system must have a controller
    exactly when the checkpoint carries one.  The ring restore re-adopts
    a cached compiled plan when the restored fingerprint is known, so
    the resumed run pays no interpreted cycles for a known
    configuration.
    """
    if (checkpoint.controller is None) != (system.controller is None):
        raise ConfigurationError(
            "checkpoint and system disagree on having a controller")
    restore(system.ring, checkpoint.snapshot)
    system.data.restore_state(checkpoint.host)
    if checkpoint.controller is not None:
        vars(system.controller).update(copy.deepcopy(checkpoint.controller))
    system.cycles = checkpoint.cycles


# -- graceful degradation ---------------------------------------------


def disable_dnode(ring: Ring, layer: int, position: int) -> None:
    """Model a permanently failed Dnode: park it on a NOP loop.

    Applied through the configuration plane, so compiled plans for the
    pre-failure configuration are invalidated like any reconfiguration.
    """
    ring.config.write_local_program(layer, position, [NOP_WORD])
    ring.config.write_mode(layer, position, DnodeMode.LOCAL)


def remap_around(ring: Ring, layer: int,
                 position: int) -> List[Tuple[int, int, int, PortSource]]:
    """Reroute consumers of a dead Dnode to a healthy ring neighbour.

    Every switch port sourcing ``UP`` from ``(layer, position)`` is
    repointed at position ``(position + 1) % width`` on the same layer —
    the systolic analogue of column sparing.  Requires ``width >= 2``
    (a 1-wide ring has no spare neighbour).  Returns the remapped ports
    as ``(switch, position, port, old_source)`` records.
    """
    g = ring.geometry
    if g.width < 2:
        raise ConfigurationError(
            "cannot remap around a dead Dnode on a width-1 ring: "
            "no healthy neighbour exists")
    spare = (position + 1) % g.width
    downstream = (layer + 1) % g.layers
    remapped: List[Tuple[int, int, int, PortSource]] = []
    cfg = ring.switch(downstream).config
    for pos in range(g.width):
        for port in (1, 2):
            src = cfg.source_for(pos, port)
            if src.kind is PortKind.UP and src.index == position:
                ring.config.write_switch_route(
                    downstream, pos, port, PortSource.up(spare))
                remapped.append((downstream, pos, port, src))
    return remapped


@dataclass(frozen=True)
class ThroughputReport:
    """Measured fabric throughput over one run window."""

    cycles: int
    wall_seconds: float
    arithmetic_ops: int
    instructions: int

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def ops_per_cycle(self) -> float:
        return self.arithmetic_ops / self.cycles if self.cycles else 0.0


def throughput(ring: Ring, cycles: int,
               driver: Optional[Driver] = None) -> ThroughputReport:
    """Run *cycles* cycles and measure delivered work.

    ``arithmetic_ops``/``instructions`` are deltas of the per-Dnode
    statistics counters over the window, so the measurement composes
    with prior activity on the ring.
    """
    if driver is None:
        driver = default_driver
    before_ops = sum(dn.stats.arithmetic_ops for dn in ring.all_dnodes())
    before_insn = sum(dn.stats.instructions for dn in ring.all_dnodes())
    start = time.perf_counter()
    for _ in range(cycles):
        driver(ring, ring.cycles)
    elapsed = time.perf_counter() - start
    after_ops = sum(dn.stats.arithmetic_ops for dn in ring.all_dnodes())
    after_insn = sum(dn.stats.instructions for dn in ring.all_dnodes())
    return ThroughputReport(
        cycles=cycles,
        wall_seconds=elapsed,
        arithmetic_ops=after_ops - before_ops,
        instructions=after_insn - before_insn,
    )


def degradation_report(baseline: ThroughputReport,
                       degraded: ThroughputReport) -> dict:
    """Quantify throughput loss between two measurement windows.

    The architectural ratio (ops/cycle) is the meaningful number — wall
    time is host noise — but both are reported.
    """
    base = baseline.ops_per_cycle
    ratio = degraded.ops_per_cycle / base if base else 0.0
    return {
        "baseline_ops_per_cycle": base,
        "degraded_ops_per_cycle": degraded.ops_per_cycle,
        "throughput_ratio": ratio,
        "throughput_loss_percent": round((1.0 - ratio) * 100.0, 3),
        "baseline_cycles_per_second": baseline.cycles_per_second,
        "degraded_cycles_per_second": degraded.cycles_per_second,
    }


__all__ = [
    "CheckpointManager",
    "Driver",
    "SystemCheckpoint",
    "ThroughputReport",
    "capture_system",
    "default_driver",
    "degradation_report",
    "disable_dnode",
    "remap_around",
    "restore_system",
    "rollback_replay",
    "throughput",
]
