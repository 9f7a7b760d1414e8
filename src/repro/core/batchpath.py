"""Vectorized multi-stream execution backend for the ring fabric.

The scalar generated tiers (:mod:`repro.core.nativepath`,
:mod:`repro.core.macropath`) exploit the configuration being *static
between controller writes*; this module exploits a second invariant:
the configuration is also *lane-invariant*.  Control flow — which
microword executes, which writes are staged, how local sequencers
advance, which FIFO pops are requested — is decided entirely by the
configuration, never by data.  So B independent sample streams pushed
through one configuration take exactly the same control path and differ
only in their data words: every state element grows a trailing *lane*
axis of length B, and the generated kernels run every lane at once.

Lane state.  :class:`BatchRing` owns the datapath of every lane as
``int32`` arrays:

* ``outs[layer, position, lane]`` — OUT registers,
* ``regs[layer, position, r, lane]`` — register files,
* ``pipes[layer, lane_idx, stage, lane]`` — feedback pipelines, which
  all rotate in lockstep so one shared head index serves every switch.

``int32`` is sufficient headroom: the widest intermediate any opcode
produces is a signed 16x16 product (|x| <= 2^30) plus a 16-bit addend,
or ``SHL``'s ``0xFFFF << 15`` — both comfortably inside 31 bits.  What
is lane-invariant stays on the attached ring, a single copy: the local
sequencer counters, the per-Dnode cycle/instruction/op/multiply
statistics and the cycle count.

Lane FIFOs.  Each Dnode input FIFO is one
:class:`~repro.core.wordqueue.LaneQueue` for all lanes: an int64
``(capacity, lanes)`` buffer with one head shared by every lane and a
word count per lane, since occupancy is data the lanes do not share.  A
block load is one copy, a native window's read site is one strided
slice masked past each lane's count, and its pops are one head move.
Underflows (``lane_underflows``) and pops (``lane_fifo_pops``) are
counted per lane.

The lane ladder has two rungs, both generated from the same
:class:`~repro.core.macropath.SteadySchedule` as the scalar tiers and
bound from the process-wide template cache (:mod:`repro.core.plancache`)
by the ring's plan lookup (:meth:`~repro.core.ring.Ring._lookup_plan`).
The engine keeps only its active lane plans (``BatchRing._plans``): a
lane plan holds the engine's lane arrays and lane queues, which are
only ever overwritten in place, so the plans stay bound until a
configuration write drops them.

1. **native lane windows** (:class:`~repro.core.nativepath.NativeLanePlan`,
   tier ``"native"``): :meth:`BatchRing.run` runs the whole periods of
   a span of two or more cycles as one time-vectorized window, unless
   the FIFOs are strict.  The template is the scalar ring's own, bound
   to the lane arrays, so a configuration run on a ring and on lanes
   compiles once;
2. **macro lane kernels** (:class:`~repro.core.macropath.MacroLanePlan`,
   tier ``"macro_lanes"``): the scalar macro kernel with every value a
   row of lanes, entered at any phase of its orbit and stopped after
   any cycle.  It runs everything native leaves: one-cycle steps,
   sub-period remainders, native-refused configurations and strict
   FIFOs, whose errors it raises cycle-exactly with the scalar
   kernel's messages.  A configuration over the macro unroll cap runs
   one kernel call per cycle, each baked for the cycle at the live
   phase (tier ``"lane_cycle"``, compiled for every cycle and never
   cached).

Lane cycles are booked like the scalar ladder's: ``ring.native_cycles``
for native windows, ``ring.macro_cycles`` and
``ring.native_fallback_cycles`` for the macro rung, and kernel
generation in ``ring.native_compiles`` / ``ring.plan_compiles`` and the
ring's profile.

Plan lifetime mirrors the scalar kernels: the ring fires its
invalidation hook on every configuration write (Dnode microwords and
modes, local slots/LIMIT, switch routes), the active lane plans are
dropped, and the next ``run()`` rebinds a cached template or compiles
over the *preserved* lane state — mid-run reconfiguration behaves
identically to the scalar engines.

Reset, checkpointing and writeback.  A ring reset keeps the engine
and its lane plans but marks it stale: the cleared scalar state is the
datapath until the engine's next use, when :meth:`BatchRing.resync`
broadcasts it over the lanes in place, so whatever a restore, a fault
or a FIFO push wrote there in between reaches every lane.
:meth:`BatchRing.capture_lanes` freezes every lane as plain data (part
of a :mod:`repro.core.snapshot` checkpoint of a batch ring) and
:meth:`BatchRing.restore_lanes` loads it back;
:meth:`BatchRing.store_lane` writes one lane's datapath into a scalar
ring, which is how the ring keeps its scalar view (observers, metrics,
taps, inspection) coherent with lane 0 after every run.

Known divergence (shared with the macro rung): inside a cycle aborted by
a strict-FIFO error the partial state differs from the interpreter, and
closed-form statistics cover completed cycles only.  Like a scalar
native window, a native lane window whose host read raises (a missing
reader, an invalid word) commits none of its cycles.  Error messages
themselves are identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro import word
from repro.core.regfile import NUM_REGISTERS
from repro.core.wordqueue import LaneQueue
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Storage dtype of every lane-indexed state array (see module docstring
#: for the 31-bit headroom argument).
LANE_DTYPE = np.int32


def batch_to_signed(v):
    """Reinterpret raw 16-bit words as signed (scalar or ndarray)."""
    return (v ^ word.SIGN_BIT) - word.SIGN_BIT


# ----------------------------------------------------------------------
# The batch engine
# ----------------------------------------------------------------------


class BatchRing:
    """B independent streams advanced through one ring configuration.

    The engine attaches to a fully constructed :class:`Ring`, broadcasts
    its current datapath state across *batch* lanes, and thereafter owns
    the lane state.  ``run(cycles)`` advances every lane together;
    :meth:`store_lane` writes one lane's state back into a scalar ring
    (the attached one by default), which is how the embedded
    ``backend="batch"`` mode keeps the scalar view (observers, metrics,
    taps, ``_state``-style inspection) coherent with lane 0.

    Host reads may return a plain int (broadcast to every lane) or an
    integer array of shape ``(batch,)`` for per-lane streams; per-lane
    FIFO contents are loaded with :meth:`push_fifo`.
    """

    def __init__(self, ring: "Ring", batch: int):
        if batch < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch}"
            )
        self.ring = ring
        self.batch = batch
        g = ring.geometry
        layers, width, depth = g.layers, g.width, g.pipeline_depth
        self.outs = np.zeros((layers, width, batch), dtype=LANE_DTYPE)
        self.regs = np.zeros((layers, width, NUM_REGISTERS, batch),
                             dtype=LANE_DTYPE)
        self.pipes = np.zeros((layers, width, depth, batch),
                              dtype=LANE_DTYPE)
        self.lane_underflows = np.zeros(batch, dtype=np.int64)
        # FIFO pops per Dnode and lane; lane_fifo_pops views its rows.
        self._pops = np.zeros((layers, width, batch), dtype=np.int64)
        self.lane_fifo_pops: Dict[Tuple[int, int], np.ndarray] = {
            (l, p): self._pops[l, p]
            for l in range(layers) for p in range(width)
        }
        self._head = 0
        self._fifos: Dict[Tuple[int, int, int], LaneQueue] = {}
        #: Lane plans dropped by reconfiguration (mirrors the ring's
        #: ``plan_invalidations``).
        self.invalidations = 0
        # Active lane plan per tier (absent = not resolved, a _Refusal =
        # the tier refuses the configuration).
        self._plans: Dict[str, object] = {}
        #: Host channels the configuration routes, read every cycle
        #: (valid once a run has bound a lane plan).
        self.host_channels: frozenset = frozenset()
        self._detached = False
        # Set by Ring.reset and a lane-less snapshot restore: the scalar
        # state is the datapath until the next use broadcasts it.
        self._stale = False
        # Set for a run whose host reader presents words that were
        # range-checked when queued (a data controller's streams).
        self._words_checked = False
        ring.add_invalidation_listener(self._on_config_change)
        self.resync()

    # -- lifecycle -----------------------------------------------------

    def detach(self) -> None:
        """Unhook from the ring's invalidation chain (engine retired).

        Also drops the lane plans: their kernels bind this engine, and
        that cycle would keep a retired engine's lane arrays alive until
        the cyclic collector ran.
        """
        self.ring.remove_invalidation_listener(self._on_config_change)
        self._plans.clear()
        self._detached = True

    def _on_config_change(self) -> None:
        if any(not isinstance(plan, str) for plan in self._plans.values()):
            self.invalidations += 1
            self.ring.plan_invalidations += 1
        self._plans.clear()

    def resync(self) -> None:
        """(Re)load lane state by broadcasting the ring's scalar state.

        Everything is overwritten in place: the lane arrays, and every
        lane queue, emptied and refilled with its scalar queue's words.
        The active lane plans bind those same arrays and queues, so they
        stay valid.
        """
        ring = self.ring
        # One row per Dnode: OUT, the register file, FIFO pops.  The
        # all-zero state a reset leaves is one fill per array.
        rows = [(dn._out, *dn.regs._values, dn.stats.fifo_pops)
                for layer in ring._dnodes for dn in layer]
        if any(map(any, rows)):
            state = np.array(rows, dtype=np.int64).reshape(
                self.outs.shape[:2] + (-1, 1))
            self.outs[:] = state[:, :, 0]
            self.regs[:] = state[:, :, 1:1 + NUM_REGISTERS]
            self._pops[:] = state[:, :, 1 + NUM_REGISTERS]
        else:
            self.outs.fill(0)
            self.regs.fill(0)
            self._pops.fill(0)
        switches = ring._switches
        head = switches[0]._head
        if any(sw._head != head for sw in switches):  # pragma: no cover
            raise SimulationError(
                "switch pipeline heads diverged; cannot batch"
            )
        self._head = head
        pipes = [sw._pipes for sw in switches]
        if any(any(pipe) for lanes in pipes for pipe in lanes):
            self.pipes[:] = np.array(pipes, dtype=LANE_DTYPE)[..., None]
        else:
            self.pipes.fill(0)
        for fifo in self._fifos.values():
            fifo.clear()
        for key, queue in ring._fifos.items():
            if queue:
                self._fifo_for(key).push_all(queue.view())
        self.lane_underflows[:] = ring.fifo_underflows
        self._stale = False

    # -- lane checkpointing -------------------------------------------

    def capture_lanes(self) -> dict:
        """Freeze the full per-lane state as plain Python data.

        The returned dict is self-contained (no live array views), so a
        :mod:`repro.core.snapshot` checkpoint of a batch ring carries
        every lane, not just the lane-0 scalar mirror.
        """
        return {
            "batch": self.batch,
            "outs": self.outs.tolist(),
            "regs": self.regs.tolist(),
            "pipes": self.pipes.tolist(),
            "head": self._head,
            "counters": {(l, p): dn.local._counter
                         for l, layer in enumerate(self.ring._dnodes)
                         for p, dn in enumerate(layer)},
            # All-empty queues are omitted: they exist only because a
            # queue object was materialized at some point, which is not
            # architectural state and must not affect digests.
            "fifos": {
                key: [fifo.lane_view(lane).tolist()
                      for lane in range(self.batch)]
                for key, fifo in self._fifos.items()
                if fifo.count.any()
            },
            "lane_underflows": self.lane_underflows.tolist(),
            "lane_fifo_pops": {key: counts.tolist()
                               for key, counts in
                               self.lane_fifo_pops.items()},
        }

    def restore_lanes(self, state: dict) -> None:
        """Load a :meth:`capture_lanes` snapshot back into the lanes.

        Like :meth:`resync`, every lane array and queue is overwritten
        in place, so the active lane plans stay bound.  The local
        counters go to the ring, their one copy.
        """
        if state["batch"] != self.batch:
            raise SimulationError(
                f"lane snapshot holds {state['batch']} lanes; engine has "
                f"{self.batch}"
            )
        self.outs[:] = np.asarray(state["outs"], dtype=LANE_DTYPE)
        self.regs[:] = np.asarray(state["regs"], dtype=LANE_DTYPE)
        self.pipes[:] = np.asarray(state["pipes"], dtype=LANE_DTYPE)
        self._head = state["head"]
        for (l, p), value in state["counters"].items():
            self.ring._dnodes[l][p].local._counter = value
        for fifo in self._fifos.values():
            fifo.clear()
        for key, lanes in state["fifos"].items():
            self._fifo_for(key).push_rows(lanes)
        self.lane_underflows[:] = np.asarray(state["lane_underflows"],
                                             dtype=np.int64)
        for key, counts in state["lane_fifo_pops"].items():
            self.lane_fifo_pops[key][:] = np.asarray(counts,
                                                     dtype=np.int64)
        self._stale = False
        # Re-align the scalar mirror (including the pipeline rotation
        # head) with the restored lane 0 — the writeback contract.
        self.store_lane(0)

    # -- lane state access --------------------------------------------

    def lane_outs(self, layer: int, position: int) -> np.ndarray:
        """The OUT register of one Dnode across all lanes (a copy)."""
        self.ring.dnode(layer, position)  # validates the address
        return self.outs[layer, position].copy()

    def lane_regs(self, layer: int, position: int) -> np.ndarray:
        """The register file of one Dnode across all lanes (a copy)."""
        self.ring.dnode(layer, position)
        return self.regs[layer, position].copy()

    def fifo_contents(self, layer: int, position: int, channel: int,
                      lane: int) -> List[int]:
        """One lane's view of a Dnode input FIFO."""
        self._check_lane(lane)
        fifo = self._fifos.get((layer, position, channel))
        return fifo.lane_view(lane).tolist() if fifo is not None else []

    def push_fifo(self, layer: int, position: int, channel: int,
                  values, lane: Optional[int] = None) -> None:
        """Queue words on one lane's FIFO (``lane=None`` = every lane).

        A 2-D ``(batch, n)`` block queues row i on lane i.  Every push
        is range-checked whole, and nothing is queued if a word is bad.
        """
        self.ring.dnode(layer, position)
        if channel not in (1, 2):
            raise ConfigurationError(
                f"FIFO channel must be 1 or 2, got {channel}"
            )
        if word.is_rows(values):
            if lane is not None or len(values) != self.batch:
                raise ConfigurationError(
                    f"a 2-D FIFO block needs one row per lane "
                    f"({self.batch}) and no lane, got {len(values)} rows"
                    f" and lane={lane}"
                )
        elif lane is not None:
            self._check_lane(lane)
        self._fifo_for((layer, position, channel)).push(values, lane,
                                                        "FIFO push")

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.batch:
            raise ConfigurationError(
                f"lane must be 0..{self.batch - 1}, got {lane}"
            )

    def _fifo_for(self, key: Tuple[int, int, int]) -> LaneQueue:
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = LaneQueue(self.batch)
            self._fifos[key] = fifo
        return fifo

    # -- execution -----------------------------------------------------

    def run(self, cycles: int, bus: int = 0, host_in=None,
            taps: Optional[Sequence[Tuple[int, int]]] = None):
        """Advance every lane by *cycles* fabric clocks.

        ``bus`` is the (scalar) shared bus value; ``host_in(channel)``
        may return a scalar word or a ``(batch,)`` integer array.
        *host_in* may instead be a window reader
        (:meth:`~repro.host.streams.DataController.window_reader`): each
        routed channel's words for the whole run are then gathered once
        as a ``(cycles, batch)`` array and nothing is consumed, so the
        caller settles the streams afterwards (see :attr:`host_channels`).

        The span climbs the lane ladder: its whole periods run as one
        native lane window when it has two or more cycles, the
        configuration has a native kernel and the FIFOs are not strict;
        the rest runs on the macro lane kernel (one call per cycle over
        the unroll cap).

        Returns the number of cycles executed — or, given *taps*
        (``(layer, position)`` pairs), one ``(cycles, batch)`` int64
        array per tap of that Dnode's post-edge OUT values, row ``t``
        being what an output tap observes after cycle ``t``.
        """
        if self._detached:
            raise SimulationError("batch engine is detached from its ring")
        if cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {cycles}")
        word.check(bus, "bus value")
        ring = self.ring
        width = ring.geometry.width
        nodes = []
        for layer, position in taps or ():
            ring.dnode(layer, position)  # validates the address
            nodes.append(layer * width + position)
        records = [np.empty((cycles, self.batch), np.int64) for _ in nodes]
        ring.last_bus = bus
        self._words_checked = getattr(host_in, "words_checked", False)
        done = 0
        native = (self._plan("native")
                  if cycles > 1 and not ring.strict_fifos else None)
        if native is not None:
            done = cycles - cycles % native.period
            if done:
                self._run_on(native, done, bus, host_in, nodes, records, 0)
        if done < cycles:
            before = ring.cycles
            try:
                macro = self._plan("macro_lanes")
                if macro is not None:
                    self._run_on(macro, cycles - done, bus, host_in, nodes,
                                 records, done)
                else:
                    for t in range(done, cycles):
                        self._run_on(self._plan("lane_cycle"), 1, bus,
                                     host_in, nodes, records, t)
            finally:
                ring.native_fallback_cycles += ring.cycles - before
        return cycles if taps is None else records

    def _plan(self, tier: str):
        """The active *tier* lane plan for the current configuration and
        entry phase (looked up again when the phase left it), or None
        when the tier refuses the configuration."""
        plan = self._plans.get(tier)
        if plan is None or not (isinstance(plan, str)
                                or plan.matches_phase()):
            plan = self._plans[tier] = self.ring._lookup_plan(tier, self)
        return None if isinstance(plan, str) else plan

    def _run_on(self, plan, cycles: int, bus: int, host_in, nodes,
                records, offset: int) -> None:
        """Run *cycles* on a lane *plan*, tap rows from *offset* on."""
        self.host_channels = plan.host_channels
        for record, values in zip(records,
                                  plan.run(cycles, bus, host_in, nodes)):
            record[offset:offset + cycles] = values

    def step(self, bus: int = 0, host_in=None) -> None:
        """Advance every lane by one clock cycle."""
        self.run(1, bus=bus, host_in=host_in)

    # -- state writeback ----------------------------------------------

    def store_lane(self, lane: int = 0,
                   target: Optional["Ring"] = None) -> None:
        """Write one lane's datapath state into a scalar ring.

        With the default target (the attached ring) this is the embedded
        backend's writeback: the scalar structures mirror lane *lane*.
        A foreign *target* must share the ring's geometry; its datapath
        (OUT/registers/pipelines/counters/FIFOs/statistics/cycle count)
        is overwritten, its configuration is left untouched.
        """
        self._check_lane(lane)
        ring = self.ring
        if target is None:
            target = ring
        g = ring.geometry
        if target.geometry != g:
            raise ConfigurationError(
                f"target geometry {target.geometry} != {g}"
            )
        outs = self.outs[:, :, lane].tolist()
        regs = self.regs[:, :, :, lane].tolist()
        pops = self._pops[:, :, lane].tolist()
        foreign = target is not ring
        for l, layer in enumerate(target._dnodes):
            for p, dn in enumerate(layer):
                dn._out = outs[l][p]
                dn._out_pending = None
                dn.regs._values[:] = regs[l][p]
                dn.stats.fifo_pops = pops[l][p]
                if foreign:
                    src = ring._dnodes[l][p]
                    dn.local._counter = src.local._counter
                    stats, sstats = dn.stats, src.stats
                    stats.cycles = sstats.cycles
                    stats.instructions = sstats.instructions
                    stats.arithmetic_ops = sstats.arithmetic_ops
                    stats.multiplies = sstats.multiplies
        pipes = self.pipes[:, :, :, lane].tolist()
        for sw, lanes in zip(target._switches, pipes):
            sw._head = self._head
            for pipe, words in zip(sw._pipes, lanes):
                pipe[:] = words
        for key, fifo in self._fifos.items():
            queue = target.fifo(*key)
            queue.clear()
            queue.extend(fifo.lane_view(lane))
        target.cycles = ring.cycles
        target.fifo_underflows = int(self.lane_underflows[lane])
        if target is not ring:
            target.last_bus = ring.last_bus

    # -- host reads ----------------------------------------------------

    def _host_word(self, value, channel: int):
        """One host read as lane words: an int for every lane, or a
        ``(batch,)`` array.  A reader marked ``words_checked`` (a data
        controller's, whose stream words were range-checked when pushed)
        is not range-checked again, as a window reader's ``gather`` is
        not; any other reader's words are."""
        checked = self._words_checked
        if isinstance(value, (int, np.integer)):
            if checked:
                return int(value)
            return word.check(int(value), f"host channel {channel}")
        arr = value if checked else np.asarray(value)
        if arr.shape != (self.batch,):
            raise SimulationError(
                f"host channel {channel} batch read must have shape "
                f"({self.batch},), got {arr.shape}"
            )
        if checked:
            return arr.astype(LANE_DTYPE, copy=False)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(
                f"host channel {channel} must be 16-bit raw words, "
                f"got dtype {arr.dtype}"
            )
        if arr.size and (int(arr.min()) < 0
                         or int(arr.max()) > word.MASK):
            raise ValueError(
                f"host channel {channel} must be 16-bit raw words"
            )
        return arr.astype(LANE_DTYPE, copy=False)

    def __repr__(self) -> str:
        g = self.ring.geometry
        return (
            f"BatchRing(Ring-{g.dnodes} x {self.batch} lanes, "
            f"cycle={self.ring.cycles})"
        )


__all__ = [
    "BatchRing",
    "LANE_DTYPE",
    "batch_to_signed",
]
