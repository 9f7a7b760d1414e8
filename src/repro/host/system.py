"""RingSystem: controller + fabric + data controller on one clock.

This is the SoC-level view of Fig. 2: the host CPU uploads management code
to the configuration controller, streams data through the data controller's
direct ports, and reads results back.  One :meth:`RingSystem.step` is one
clock of the whole accelerator:

1. the controller executes one instruction and its configuration commands
   are applied to the fabric (a configuration written at cycle *t* governs
   the fabric from cycle *t* on — the hardware-multiplexing rate of one
   full-function change per cycle);
2. the ring evaluates and commits one cycle, reading the shared bus value
   currently driven by the controller and the direct-port streams;
3. the data controller samples output taps and advances input streams.

A system can also run *uncontrolled* (controller=None) when the fabric is
fully configured up front and left in local mode — the stand-alone
operating point the paper's multi-level reconfiguration enables.

:meth:`RingSystem.run` executes the same clock in bulk wherever that is
exact.  The controller runs ahead of the fabric: it is stepped cycle by
cycle (a quiet stretch — a ``WAITI`` delay, or every cycle once halted —
in closed form, :meth:`~repro.controller.core.RiscController.skip_quiet`),
while the fabric's cycles pile up as one *pending* span under the
configuration and bus that hold.  The span runs as one bulk window when
something forces it: a configuration command (the lagging cycles run
under the old configuration, and the command's cycle starts the next
span), a bus change (``BUSW``), an instruction that reads the fabric or
the host mailboxes (``RDD``, ``INW``, ``BFE``: the span runs, then that
cycle is stepped whole), or the end of the call.  This is the paper's
split of work: the controller rewrites the configuration in global mode
while the Dnodes run on their own in local mode, and nothing the
controller does between those points depends on the fabric.  A window
that fails (a strict FIFO running dry, an out-of-range feedback tap)
puts the controller back on the failing cycle
(:meth:`~repro.controller.core.RiscController.rewind` and
:meth:`~repro.controller.core.RiscController.advance`), where per-cycle
stepping leaves it; a controller error runs the lagging cycles first.
A traced ring, a ring whose batch lanes run and a ring with no compiled
rung step every instruction cycle whole instead, and lag only over
quiet stretches.

A span runs like an uncontrolled run: on a scalar ring
(``backend="native"``, the default) as windows on the native or the
macro rung (streams are handed to the kernel as arrays, taps come back
as the tapped Dnodes' output history, and the host side is settled in
closed form after each window, see :mod:`repro.host.streams`); on a
``backend="batch"`` ring as lane windows, the same protocol with every
stream and tap carrying one column per lane and lane 0 written back once
per window; or whole through ``Ring.run`` when the host side is idle.
A first-time configuration steps the fabric alone for one cycle first.
:attr:`RingSystem.cycle_paths` records which path every cycle took, and
why a cycle had to be stepped alone.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config_memory import ConfigPlane
from repro.core.ring import Ring
from repro.controller.core import (
    ConfigCommand,
    ConfigTargetKind,
    RiscController,
)
from repro.host.streams import DataController
from repro.errors import SimulationError

#: Longest lane window :meth:`RingSystem.run` gathers at once: bounds the
#: ``(cycles, lanes)`` stream and tap arrays a long batch run allocates.
LANE_WINDOW = 1024


class RingSystem:
    """A complete Systolic Ring accelerator instance."""

    def __init__(self, ring: Ring,
                 controller: Optional[RiscController] = None,
                 planes: Optional[Sequence[ConfigPlane]] = None):
        self.ring = ring
        self.controller = controller
        self.planes: List[ConfigPlane] = list(planes or [])
        # A batch ring gets a batch data controller: per-lane stream
        # channels and output taps on the same direct ports.
        batch = ring.batch_size if ring.backend == "batch" else 1
        self.data = DataController(batch=batch)
        self.cycles = 0
        # cycle_paths bookkeeping: cycles booked by run()/run_until_halt,
        # every step() call, and the steps among them already booked.
        self._paths: Dict[Tuple[str, str], int] = {}
        self._steps = 0
        self._booked_steps = 0
        # System cycles of the instructions that ran ahead into the span
        # being run (booked as "ahead" when a window takes them).
        self._ahead: List[int] = []
        if controller is not None:
            width = ring.geometry.width
            controller.fabric_reader = (
                lambda dnode: ring.dnode(*divmod(dnode, width)).out)

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole accelerator by one clock cycle.

        The bus value driven by the controller is handed to the ring,
        which records it (:attr:`~repro.core.ring.Ring.last_bus`) — so an
        attached :class:`~repro.analysis.trace.SignalTrace` bus probe
        observes the controller's ``BUSW`` traffic, not a stale default.
        """
        bus = 0
        if self.controller is not None:
            commands = self.controller.step()
            for command in commands:
                self._apply(command)
            bus = self.controller.bus_out
        self._step_fabric(bus)
        self.cycles += 1
        self._steps += 1

    def _step_fabric(self, bus: int) -> None:
        """The fabric's and the host side's part of one clock: the
        controller's part is done (or runs ahead)."""
        self.ring.step(bus=bus, host_in=self.data.host_in)
        self.data.collect(self.ring)
        self.data.advance()

    @property
    def cycle_paths(self) -> Dict[Tuple[str, str], int]:
        """Cycles per execution path, ``{(path, reason): cycles}``.

        Exported as ``system_cycles_total{path, reason}``.  Path
        ``"bulk"``: ``"native"`` or ``"macro"`` (windows on that rung
        with taps/streams), ``"lanes"`` (batch-engine lane windows with
        taps/streams) or ``"idle"`` (idle host side, whole chunk to
        ``Ring.run``).  Path ``"ahead"``, by the same rungs: cycles that
        executed a controller instruction which ran ahead of the fabric,
        so the cycle rode in a window.  Path ``"per_cycle"`` names what
        forced the step: ``"controller"`` (the controller executed an
        instruction that cannot run ahead: ``RDD``, ``INW`` or ``BFE``,
        or any instruction on a ring that steps its controller, see
        :meth:`run`), ``"lanes"`` (batch engine with taps or queued
        words under a ring observer or with strict FIFOs), the
        :meth:`~repro.core.ring.Ring.window_span` refusals ``"trace"``,
        ``"backend"`` and ``"no_plan"`` (a first-time configuration only:
        a plan cached on the ring, or a kernel the process compiled for
        another ring, is adopted at the window boundary), or
        ``"direct"`` (:meth:`step` called outside :meth:`run`).  No
        span is stepped for want of a rung: macro takes whatever native
        does not.
        """
        paths = dict(self._paths)
        direct = self._steps - self._booked_steps
        if direct:
            paths[("per_cycle", "direct")] = direct
        return paths

    def run(self, cycles: int) -> None:
        """Advance *cycles* clocks, in bulk wherever that is exact.

        The controller runs ahead of the fabric (see the module
        docstring): its cycles are stepped, and the fabric's pile up as
        one span, run down the bulk ladder of :meth:`_run_span` when a
        configuration command, a bus change, an instruction that reads
        the fabric or the mailboxes, or the end of the call forces it.
        A traced ring, a ring whose batch lanes run and a ring with no
        compiled rung step every instruction cycle whole instead; only
        their quiet spans go down the ladder.
        """
        if cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {cycles}")
        self._run(cycles, until_halt=False)

    def _run(self, cycles: int, until_halt: bool) -> None:
        """Advance up to *cycles* clocks, stopping early once the
        controller halts if *until_halt*."""
        controller = self.controller
        if controller is None:
            self._run_span(cycles, 0)
            return
        ring = self.ring
        ahead = (ring.fastpath_enabled and not ring.runs_lanes
                 and ring._trace is None)
        # The fabric lags the controller by *pending* cycles, all under
        # *bus* and the configuration that holds now; *mark* is the
        # controller as the lag began, *covered* cycles into it.
        pending, bus = 0, controller.bus_out
        mark, covered = None, 0
        remaining = cycles
        while remaining and not (until_halt and controller.halted):
            quiet = controller.quiet_cycles()
            if quiet != 0:
                span = remaining if quiet is None else min(quiet, remaining)
                if not pending:
                    mark, covered = controller.mark(), 0
                controller.skip_quiet(span)
                pending += span
                remaining -= span
                continue
            if not ahead or controller.observes_outside():
                self._flush(pending, bus, mark, covered)
                pending = 0
                self._step_many(1, "controller")
                bus = controller.bus_out
                remaining -= 1
                continue
            if not pending:
                mark, covered = controller.mark(), 0
            try:
                commands = controller.step()
            except BaseException:
                self._flush(pending, bus, mark, covered)
                raise
            remaining -= 1
            if commands or controller.bus_out != bus:
                # The lagging cycles run under the old configuration and
                # bus; this cycle starts the next span.
                self._flush(pending, bus, mark, covered)
                pending = 0
                for command in commands:
                    self._apply(command)
                bus = controller.bus_out
                mark, covered = controller.mark(), 1
            self._ahead.append(self.cycles + pending)
            pending += 1
        self._flush(pending, bus, mark, covered)

    def _flush(self, pending: int, bus: int, mark, covered: int) -> None:
        """Run the *pending* cycles the fabric lags the controller by.

        If a cycle fails, the controller is rewound to *mark* (taken
        *covered* cycles into the span) and re-stepped up to the failing
        cycle, where stepping would have left it: a lagging span holds
        no instruction that reads the fabric or the mailboxes, so its
        controller cycles replay exactly.
        """
        if not pending:
            return
        start = self.cycles
        try:
            self._run_span(pending, bus)
        except BaseException:
            self.controller.rewind(mark)
            self.controller.advance(self.cycles - start + 1 - covered)
            raise
        finally:
            self._ahead.clear()

    def _run_span(self, cycles: int, bus: int) -> None:
        """Run *cycles* fabric clocks under the configuration and *bus*
        that hold now; the controller is not stepped.

        * With an idle data controller (no taps, no queued stream words)
          no per-cycle host servicing is needed, so the whole span is
          handed to :meth:`repro.core.ring.Ring.run`.  Idleness is
          re-checked as the span progresses: once the queued stream
          words drain, the remaining cycles take this path too.
        * On a scalar compiled ring the steady state runs as native or
          macro windows with taps and streams attached
          (:meth:`repro.core.ring.Ring.window_span`).
        * On a batch ring every cycle runs in lane windows
          (:meth:`_run_lanes`: native lane windows, then macro lane
          kernels) unless a ring observer must see each cycle or a
          strict FIFO may raise mid-window.
        * The rest is stepped one fabric cycle at a time, booked under
          the reason the ladder gave (``"lanes"`` on a batch ring).
        """
        ring, data = self.ring, self.data
        lanes = ring.runs_lanes
        # A lane window settles the host side after the fact, so it
        # needs every cycle to run to completion without being watched:
        # no ring observer, and no strict FIFO that may raise mid-window.
        windows = lanes and ring._trace is None and not ring.strict_fifos
        reason = "lanes" if lanes else None
        remaining = cycles
        while remaining:
            if data.idle:
                c0 = ring.cycles
                try:
                    ring.run(remaining, bus=bus,
                             host_in=data.bulk_host_in(ring))
                finally:
                    self._count("bulk", "idle", ring.cycles - c0)
                data.clear_dry_latches()
                return
            if windows:
                span = min(remaining, LANE_WINDOW)
                self._run_lanes(span, bus)
                remaining -= span
                continue
            # Every refusal but a missing plan (an observer, the
            # backend, lanes) holds for the rest of the span.
            if reason is None or reason == "no_plan":
                plan, span, reason = ring.window_span(remaining)
                if span:
                    self._run_window(plan, span, bus)
                    remaining -= span
                    continue
            # Without taps, draining streams can make the host side idle
            # mid-span: re-check it every cycle then.
            steps = (remaining if reason != "no_plan" and data.taps
                     else 1)
            for _ in range(steps):
                self._step_fabric(bus)
                self._count("per_cycle", reason, 1)
            remaining -= steps

    def _step_many(self, cycles: int, reason: str) -> None:
        """Step *cycles* whole clocks, booked as per-cycle for *reason*."""
        before = self._steps
        try:
            for _ in range(cycles):
                self.step()
        finally:
            stepped = self._steps - before
            self._booked_steps += stepped
            key = ("per_cycle", reason)
            self._paths[key] = self._paths.get(key, 0) + stepped

    def _run_window(self, plan, span: int, bus: int) -> None:
        """Run *span* cycles on a native or macro plan, then settle
        streams and taps.

        An error inside a macro window (a strict-FIFO error, say) keeps
        the cycles before it: those are settled and booked all the
        same, and the aborted cycle's host-port reads are replayed, so
        the host side matches per-cycle stepping up to the error.
        """
        ring, data = self.ring, self.data
        c0 = ring.cycles
        outs, reads = None, ()
        try:
            outs = ring.run_window(plan, span, bus=bus,
                                   host_in=data.window_reader(ring),
                                   taps=data.tap_nodes(ring))
        except Exception as exc:
            outs = getattr(exc, "window_taps", None)
            reads = getattr(exc, "host_reads", ())
            raise
        finally:
            done = ring.cycles - c0
            data.settle(done, plan.host_channels)
            for channel in reads:
                data.host_in(channel)
            if outs is not None:
                data.observe_window(outs)
            if done:
                self._count("bulk", plan.rung, done)

    def _run_lanes(self, span: int, bus: int) -> None:
        """Run *span* lockstep lane cycles as one window on the batch
        engine, settle streams and taps, and write lane 0 back once."""
        ring, data = self.ring, self.data
        engine = ring._ensure_batch()
        outs = ring._run_plan(
            engine, span, bus, data.window_reader(ring),
            [(tap.layer, tap.position) for tap in data.taps])
        engine.store_lane(0)
        data.settle(span, engine.host_channels)
        for tap, values in zip(data.taps, outs):
            # A scalar data controller on a one-lane engine reads lane 0.
            tap.observe_window(values if data.batch > 1 else values[:, 0])
        self._count("bulk", "lanes", span)

    def _count(self, path: str, reason: str, cycles: int) -> None:
        """Book *cycles* clocks under ``(path, reason)``; on a bulk path
        the controller instructions that ran ahead into them go under
        ``("ahead", reason)``."""
        end = self.cycles + cycles
        ahead = self._ahead
        if ahead and ahead[0] < end:
            k = bisect_left(ahead, end)
            del ahead[:k]
            if path == "bulk":
                key = ("ahead", reason)
                self._paths[key] = self._paths.get(key, 0) + k
                cycles -= k
        if cycles:
            key = (path, reason)
            self._paths[key] = self._paths.get(key, 0) + cycles
        self.cycles = end

    def checkpoint(self):
        """Capture a whole-system checkpoint (fabric, host streams and
        controller).

        Returns a :class:`~repro.robustness.checkpoint.SystemCheckpoint`
        restorable onto this system — or onto a fresh system with the
        same geometry, tap topology and controller program.
        """
        from repro.robustness.checkpoint import capture_system
        return capture_system(self)

    def restore_checkpoint(self, checkpoint) -> None:
        """Restore a :meth:`checkpoint` (taps must already exist)."""
        from repro.robustness.checkpoint import restore_system
        restore_system(self, checkpoint)

    def metrics(self):
        """Aggregate every live counter into a MetricsSnapshot.

        Covers the fabric (cycles, per-Dnode activity, FIFO depths and
        high-water marks, fast-path plan lifecycle, configuration
        traffic) and — when a controller is attached — its retire/stall
        statistics.  Read-only; call as often as needed.
        """
        from repro.analysis.metrics import MetricsRegistry
        return MetricsRegistry.of(self).collect()

    def run_until_halt(self, max_cycles: int = 1_000_000,
                       drain: int = 0) -> int:
        """Run until the controller halts (plus *drain* extra cycles).

        Returns the number of cycles executed.  Raises if no controller is
        attached, or if the controller has not halted after *max_cycles*
        + 1 cycles — a silent infinite loop is always a bug in the
        management code.  The whole budget goes to one run of
        :meth:`run`'s loop, which stops at ``HALT``, so the error fires
        on the same cycle as stepping would.
        """
        controller = self.controller
        if controller is None:
            raise SimulationError("run_until_halt needs a controller")
        start = self.cycles
        if not controller.halted:
            self._run(max_cycles + 1, until_halt=True)
            if self.cycles - start > max_cycles:
                raise SimulationError(
                    f"controller did not halt within {max_cycles} "
                    f"cycles"
                )
        self.run(drain)
        return self.cycles - start

    def run_until_taps_full(self, max_cycles: int = 1_000_000) -> int:
        """Run until every limited output tap has all its samples.

        A tap's schedule fixes how many more cycles it needs, so the
        cycles go to :meth:`run` in one call (bulk where possible).
        """
        limited = [t for t in self.data.taps if t.limit is not None]
        if not limited:
            raise SimulationError(
                "run_until_taps_full needs at least one tap with a limit"
            )
        start = self.cycles
        while True:
            elapsed = self.cycles - start
            todo = max(t.cycles_to_full() for t in limited)
            if not todo:
                return elapsed
            if elapsed + todo > max_cycles:
                self.run(max_cycles + 1 - elapsed)
                raise SimulationError(
                    f"taps not full within {max_cycles} cycles "
                    f"({[len(t.samples) for t in limited]} collected)"
                )
            self.run(todo)

    # ------------------------------------------------------------------

    def _apply(self, command: ConfigCommand) -> None:
        """Apply one controller configuration command to the fabric."""
        cfg = self.ring.config
        width = self.ring.geometry.width
        if command.kind in (ConfigTargetKind.DNODE_WORD,
                            ConfigTargetKind.LOCAL_SLOT,
                            ConfigTargetKind.LOCAL_LIMIT,
                            ConfigTargetKind.MODE):
            layer, pos = divmod(command.dnode, width)
        if command.kind is ConfigTargetKind.DNODE_WORD:
            cfg.write_microword(layer, pos, command.microword)
        elif command.kind is ConfigTargetKind.LOCAL_SLOT:
            cfg.write_local_slot(layer, pos, command.slot, command.microword)
        elif command.kind is ConfigTargetKind.LOCAL_LIMIT:
            cfg.write_local_limit(layer, pos, command.limit)
        elif command.kind is ConfigTargetKind.MODE:
            from repro.core.dnode import DnodeMode
            mode = DnodeMode.LOCAL if command.mode else DnodeMode.GLOBAL
            cfg.write_mode(layer, pos, mode)
        elif command.kind is ConfigTargetKind.SWITCH_ROUTE:
            cfg.write_switch_route(command.sw, command.pos, command.port,
                                   command.route)
        elif command.kind is ConfigTargetKind.PLANE:
            if not 0 <= command.plane < len(self.planes):
                raise SimulationError(
                    f"CFGPLANE {command.plane}: only {len(self.planes)} "
                    f"plane(s) installed"
                )
            cfg.apply_plane(self.planes[command.plane])
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unhandled config command {command!r}")

    def __repr__(self) -> str:
        ctrl = "no controller" if self.controller is None else repr(
            self.controller)
        return f"RingSystem({self.ring!r}, {ctrl}, cycle={self.cycles})"
