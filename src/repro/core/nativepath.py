"""Native tier: time-axis-vectorized macro kernels (NumPy).

The macro rung (:mod:`repro.core.macropath`) removes per-cycle
Python dispatch by generating straight-line Python for one clock — but
every cycle of every Dnode is still a handful of Python bytecode
operations.  This module goes one axis further: it vectorizes
over **time**.  For a steady-state configuration the whole T-cycle
window is one dataflow graph per Dnode phase, so each microword becomes
a single NumPy array operation over all T/period executions at once:

* every Dnode gets a **visible-out array** ``VO`` where ``VO[D + t]``
  is the value of its OUT register visible *during* cycle ``t`` (the
  first ``D + 1`` entries seed the pre-window history: the live OUT
  latch and the downstream switch's feedback pipeline).  An OUT write
  at phase ``p`` is one strided store ``VO[D+1+p :: period] = res_p``;
  the remaining residues are forward-filled from the nearest earlier
  write, so an upstream read at any pipeline lag is a strided load;
* register and SELF reads resolve at compile time to the nearest
  previous writer within the period (same period instance, or the
  previous one — a one-slot shift of that writer's result vector);
* an op that reads its own previous result is an accumulator with a
  closed form when the recurrence is additive: a single-writer MAC
  accumulating into its own destination register, or ``ADD x, x, v`` /
  ``ADD x, v, x`` / ``SUB x, x, v`` where ``x`` is a register or the OUT
  latch read through ``SELF``.  Each becomes ``(init ± cumsum(terms))
  & 0xFFFF``, exact in int64 (terms are bounded by 2**30 and a window
  holds at most :data:`MAX_WINDOW_CELLS` = 2**20 cycles);
* FIFO reads/pops are schedule-determined, so a window gathers each
  read site's words as one vector and its **underflow tail** has a
  closed form (:func:`fifo_tail`): a read past the occupancy reads 0
  and a pop on an empty queue dequeues nothing, each counting one
  underflow.  Only strict FIFOs, whose underflow must raise at its
  cycle, clip the window to the **safe prefix** the occupancy can serve
  (:meth:`NativePlan.safe_cycles`); host-port reads are pre-gathered
  into per-port arrays — whole stream windows from a resolver with a
  ``gather`` method, otherwise one poll per cycle in interpreter order;
* an output tap is a slice of its Dnode's ``VO`` array:
  :meth:`NativePlan.run` returns the post-edge output history of every
  Dnode the caller taps;
* **Dnode groups**: Dnodes with the same per-phase schedule (opcodes,
  flags, destinations, closed-form chains, FIFO pop and read prefixes)
  whose operands are only their own state, a constant or the bus form
  one group (:attr:`NativeTemplate.groups`), emitted once over a
  leading member axis.  The ``VO`` arrays are the rows of one matrix,
  so a group's stores and fills are row slices; immediates that differ
  between members are a constant vector; a group's FIFO read sites
  arrive as one stacked ``(members, n)`` array and its FIFO gates settle
  in one :func:`fifo_tail` call over the members' occupancies.  Any
  other Dnode is a group of one, emitted by the same code.  The paper's
  Table 1 mapping (16 SAD loops in local mode) is one group of 16.

The generated kernel is one pure-array function ``_core``.  It takes
every piece of state as an argument (the ``VO`` matrix, one row per
Dnode; ``_INIT``/``_FIN`` register and OUT values, which a group reads
and writes as a slice of consecutive slots), so it holds no ring:
:func:`native_template` builds a :class:`NativeTemplate` (the kernel and
the window schedule by Dnode index and FIFO key) once per configuration
and entry phase.  The ring keeps templates in the process-wide kernel
cache (:mod:`repro.core.plancache`), so every fresh ring with a
configuration the process has compiled binds it in microseconds.

The kernel is shape-generic: a group's temporaries are ``(members, n)``
plus ``_INIT``'s trailing axes (none on a ring, ``(lanes,)`` on lanes)
and every running sum is ``np.cumsum`` along the time axis.  So one
template serves both bindings: :meth:`NativeTemplate.bind` maps it onto
a ring's state containers (:class:`NativePlan`) and
:meth:`NativeTemplate.bind_lanes` onto a
:class:`~repro.core.batchpath.BatchRing`'s lane arrays and lane FIFOs
(:class:`NativeLanePlan`), whose arrays carry a trailing lane axis.  A
configuration run on a ring and on lanes compiles once.

Eligibility — :func:`compile_native` returns None (the ring then falls
back to the macro rung, and keeps the reason as
:attr:`~repro.core.ring.Ring.native_refusal`) when:

* the period, the LCM of the local LIMITs, exceeds :data:`MAX_PERIOD`,
  or period × Dnodes exceeds :data:`MAX_UNROLL_CELLS`: this is the one
  tier that unrolls a period, which bounds its source;
* any routed feedback tap or feedback-source operand is out of range
  (the interpreter raises at runtime; the fall-back engines reproduce
  that error exactly);
* the Dnode dependence graph over one cycle is cyclic (a ring-closing
  configuration where every layer feeds the next has no time-parallel
  order), or a within-Dnode dependence is a recurrence with no closed
  form: a cross-phase register swap, a saturating MACS accumulator
  (saturation is not linear), ``SUB x, v, x`` (the sign alternates), or
  any other op reading its own previous result (e.g. a ``MADD``
  first-order IIR).

Bit-identity: for every completed window the native tier commits
exactly the interpreter's architectural state — OUT latches, register
files, pipelines, FIFO contents and pop accounting, statistics, cycle
counters, host-read order.  Like the macro tier, an aborted window
(host reader missing / invalid word) commits nothing: divergence from
the interpreter is bounded to the error cycle itself.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro import word
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, Opcode, Source
from repro.core.macropath import (Ineligible, SteadyPlan, SteadySchedule,
                                  _signed, _vector_expr)
from repro.core.switch import PortKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Largest local-sequencer period (LCM of LIMITs) a native kernel unrolls.
MAX_PERIOD = 64
#: Cap on period * dnodes, bounding generated-source size.
MAX_UNROLL_CELLS = 4096
#: Cap on Dnode-count x window-cycles (x lanes) per kernel call: windows
#: beyond it are split, bounding peak VO-array memory (~8 MB of int64 at
#: the cap).
MAX_WINDOW_CELLS = 1 << 20


def native_period(ring: "Ring") -> int:
    """The period a native kernel unrolls: the LCM of the local-mode
    LIMITs (1 for an all-global fabric)."""
    return math.lcm(*(dn.local.limit for dn in ring.all_dnodes()
                      if dn.mode is DnodeMode.LOCAL))


def fifo_tail(occupancy, n: int, ppp: int, reads):
    """Pops that land and underflows counted by *n* periods on
    non-strict FIFOs holding *occupancy* words: an array with one per
    group member (by lane), elementwise.

    Pops are set by the schedule: *ppp* per period, and each read of
    *reads* (``(prefix, reads per period)``) sees the word *prefix* pops
    into its period.  A pop on an empty queue dequeues nothing, and a
    read past the occupancy reads 0; each counts one underflow.
    Returns ``(landed, underflows)``.
    """
    landed = np.minimum(occupancy, n * ppp)
    underflows = n * ppp - landed
    for prefix, count in reads:
        if ppp:
            # Periods whose read still finds a word: ceil((occ - prefix)
            # / ppp), clipped to the window.
            served = np.minimum(
                np.maximum(-((prefix - occupancy) // ppp), 0), n)
        else:
            served = n * (occupancy > prefix)
        underflows = underflows + count * (n - served)
    return landed, underflows


def _queue_reads(queues, prefix: int, ppp: int, n: int) -> np.ndarray:
    """A read site's words over *n* periods off each scalar
    :class:`~repro.core.wordqueue.WordQueue` of *queues*, one row per
    queue (0 past its occupancy).

    When every queue holds the site's last word, each row is one strided
    slice of the queue's buffer, stacked (me_search's read sites always
    are); otherwise each row is gathered with its dry tail.
    """
    last = prefix + (n - 1) * ppp
    if ppp and min(map(len, queues)) > last:
        return _stack([q._buf[q._head + prefix:q._head + last + 1:ppp]
                       for q in queues])
    out = np.empty((len(queues), n), np.int64)
    for row, queue in zip(out, queues):
        queue.gather_into(row, prefix, ppp)
    return out


class NativeTemplate:
    """A compiled native kernel with no ring in it.

    ``core`` is the pure-array kernel (``source`` its text), shared by
    every ring and batch engine bound to it.  ``groups`` is the Dnode
    partition the kernel runs over: a tuple of Dnode-index tuples, each
    emitted once over a member axis.  The rest is the window's schedule
    by Dnode index and FIFO key, which a :class:`NativePlan` maps to one
    ring's state containers, or a :class:`NativeLanePlan` to one batch
    engine's lane arrays: ``period`` is the unrolled period,
    ``counter_entries`` ``(node, entry counter)`` per sequenced Dnode
    (the entry phase the kernel is baked against), ``fifo_reads``
    ``(keys, prefix, pops per period)`` per stacked read site,
    ``fifo_gates`` ``(keys, pops per period, largest read prefix,
    reads)`` per group and channel.
    """

    __slots__ = ("schedule", "period", "counter_entries", "source", "core",
                 "groups", "init_fill", "fin_regs", "fifo_reads",
                 "fifo_gates")

    def __init__(self, schedule, period, counter_entries, source, groups,
                 consts, init_fill, fin_regs, fifo_reads, fifo_gates):
        self.schedule = schedule
        self.period = period
        self.counter_entries = counter_entries
        self.source = source
        env: Dict[str, object] = {"np": np, **consts}
        exec(compile(source, f"<native period={period}>", "exec"), env)
        self.core = env["_core"]
        self.groups = groups
        self.init_fill = init_fill
        self.fin_regs = fin_regs
        self.fifo_reads = fifo_reads
        self.fifo_gates = fifo_gates

    def bind(self, ring: "Ring") -> "NativePlan":
        """The plan that runs this kernel over *ring*'s state."""
        return NativePlan(self, ring)

    def bind_lanes(self, engine) -> "NativeLanePlan":
        """The plan that runs this kernel over a batch *engine*'s lanes."""
        return NativeLanePlan(self, engine)


class _NativeWindows(SteadyPlan):
    """What both bindings of a native kernel share: a run is a series of
    windows of at most ``_max_periods`` periods, which bounds the
    visible-out arrays to :data:`MAX_WINDOW_CELLS` cells per lane."""

    rung = "native"

    __slots__ = ("period", "_counter_entries", "_meta", "_max_periods")

    def __init__(self, template: NativeTemplate, nodes, lanes: int):
        super().__init__(template)
        self.period = template.period
        self._counter_entries = tuple(
            (nodes[i].local, c0) for i, c0 in template.counter_entries)
        self._max_periods = max(1, MAX_WINDOW_CELLS // (
            len(nodes) * self.period * lanes))

    def matches_phase(self) -> bool:
        """True when every local counter sits at the baked entry phase."""
        for lc, c0 in self._counter_entries:
            if lc._counter != c0:
                return False
        return True

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance *cycles* fabric clocks (a period multiple; on a
        strict-FIFO ring, a safe one).

        Returns one array with a row per Dnode index (``layer * width +
        position``) in *taps*: its post-edge output values over the run,
        element ``t`` being what an output tap observes after cycle
        ``t`` (one value per lane on a lane plan).
        """
        n = cycles // self.period
        taps = list(taps)
        parts = []
        while n > 0:
            m = min(n, self._max_periods)
            parts.append(self._window(m, bus, host_in, taps))
            n -= m
        return parts[0] if len(parts) == 1 else np.concatenate(parts, 1)


class NativePlan(_NativeWindows):
    """A :class:`NativeTemplate` bound to one ring."""

    __slots__ = ()

    def __init__(self, template: NativeTemplate, ring: "Ring"):
        nodes = tuple(ring.all_dnodes())
        super().__init__(template, nodes, 1)
        geometry = ring.geometry
        layers, width = geometry.layers, geometry.width
        fifo = ring.fifo
        vo_seed = []
        for i, dn in enumerate(nodes):
            down = ring._switches[(i // width + 1) % layers]
            vo_seed.append((dn, down._pipes[i % width], down))
        pipes = []
        for k, sw in enumerate(ring._switches):
            lu = ring.upstream_layer(k)
            pipes.append((sw, tuple((sw._pipes[j], lu * width + j)
                                    for j in range(width))))
        gate_queues = [tuple(fifo(*key) for key in keys)
                       for keys, *_ in template.fifo_gates]
        self._meta = {
            "ring": ring,
            "depth": geometry.pipeline_depth,
            "host_ports": template.schedule.host_ports,
            "fifo_reads": [(tuple(fifo(*key) for key in keys), prefix, ppp)
                           for keys, prefix, ppp in template.fifo_reads],
            "fifo_gates": [(queues, ppp, maxprefix, reads,
                            tuple(nodes[l * width + p].stats
                                  for l, p, _ch in keys))
                           for queues, (keys, ppp, maxprefix, reads)
                           in zip(gate_queues, template.fifo_gates)],
            "init_fill": [(nodes[i].regs._values, r) if kind == "reg"
                          else (nodes[i], None)
                          for kind, i, r in template.init_fill],
            "vo_seed": vo_seed,
            "pipes": pipes,
            "fin_count": len(template.fin_regs),
            "fin_regs": [(nodes[i].regs._values, r, k)
                         for i, r, k in template.fin_regs],
            "all_stats": tuple(dn.stats for dn in nodes),
            "stat_entries": _bind_stats(template.schedule, nodes),
        }

    @property
    def source(self) -> str:
        """The generated kernel's source text."""
        return self.template.source

    def safe_cycles(self, cycles: int) -> int:
        """Longest whole-period prefix of *cycles* this plan can run.

        On a non-strict ring that is every whole period: pops are set by
        the schedule, so FIFO underflow tails have a closed form
        (:func:`fifo_tail`).  With strict FIFOs an underflow must raise
        at its exact cycle, so the prefix stops short of the first one;
        safety is a pure occupancy computation, and the unsafe remainder
        falls back to the macro rung, which raises cycle-exactly.
        """
        per = self.period
        n = cycles // per
        if n <= 0:
            return 0
        if not self._meta["ring"].strict_fifos:
            return n * per
        for queues, ppp, maxprefix, _reads, _stats in self._meta[
                "fifo_gates"]:
            occ = np.array([len(queue) for queue in queues], np.int64)
            if ppp == 0:
                # Reads but never a pop: any occupancy serves forever.
                if not occ.all():
                    return 0
                continue
            limit = occ // ppp
            if maxprefix is not None:
                limit = np.minimum(limit, (occ - maxprefix - 1) // ppp + 1)
            n = min(n, int(limit.min()))
            if n <= 0:
                return 0
        return n * per

    # ------------------------------------------------------------------

    def _window(self, n: int, bus: int, host_in,
                taps: List[int]) -> np.ndarray:
        """Run one n-period window: gather, kernel, write back.

        Returns the ``VO[depth + 1 : depth + 1 + T]`` rows of the Dnodes
        in *taps*: their post-edge outputs over the window.
        """
        meta = self._meta
        ring = meta["ring"]
        depth = meta["depth"]
        T = n * self.period
        c0 = ring.cycles

        # Host gather; nothing is committed if a read raises.
        hv = _host_windows(meta["host_ports"], host_in, ring, T,
                           _host_word, ())

        # FIFO gather: each read site gets one (members, n) array.
        fv = [_queue_reads(queues, prefix, ppp, n)
              for queues, prefix, ppp in meta["fifo_reads"]]

        init = np.array([obj._out if idx is None else obj[idx]
                         for obj, idx in meta["init_fill"]] or [0],
                        np.int64)

        # Visible-out history, one row per Dnode: the downstream
        # pipeline's stages depth..1, then the live OUT latch.
        seed = []
        for dn, pipe, down_sw in meta["vo_seed"]:
            head = down_sw._head
            row = pipe[head:] + pipe[:head]
            row.reverse()
            row.append(dn._out)
            seed.append(row)
        vos = np.empty((len(seed), T + depth + 1), np.int64)
        vos[:, :depth + 1] = seed

        fin = np.zeros(max(1, meta["fin_count"]), np.int64)
        self.template.core(n, bus, init, fin, vos, *hv, *fv)

        fin = fin.tolist()
        for values, r, k in meta["fin_regs"]:
            values[r] = fin[k]
        for (dn, _pipe, _sw), out in zip(meta["vo_seed"],
                                         vos[:, depth + T].tolist()):
            dn._out = out
        # Pipeline write-back: each lane takes its upstream Dnode's last
        # depth visible outputs (stage 1 first), rotated to the head.
        tail = vos[:, T:T + depth]
        if tail.min() < 0 or tail.max() > word.MASK:
            # Per word, so the first bad one raises where rp_write would.
            for sw, lanes in meta["pipes"]:
                for j, (_pipe, vi) in enumerate(lanes):
                    for s in range(1, depth + 1):
                        sw.rp_write(s, j + 1, int(vos[vi, depth + T - s]))
        stages = tail[:, ::-1].tolist()
        for sw, lanes in meta["pipes"]:
            head = sw._head
            for pipe, vi in lanes:
                # In place: macro kernels bind these list objects.
                lane = stages[vi]
                pipe[:] = lane[-head:] + lane[:-head]
        # FIFO settlement: one closed form per group and channel, over
        # the members' occupancies; none is needed when every queue
        # serves the whole window (all pops land, no read runs dry).
        underflows = 0
        for queues, ppp, maxprefix, reads, stats in meta["fifo_gates"]:
            pops = n * ppp
            need = pops if maxprefix is None else max(
                pops, maxprefix + (n - 1) * ppp + 1)
            if min(map(len, queues)) >= need:
                if pops:
                    for queue, st in zip(queues, stats):
                        queue.drop(pops)
                        st.fifo_pops += pops
                continue
            landed, under = fifo_tail(
                np.array([len(queue) for queue in queues], np.int64),
                n, ppp, reads)
            underflows += int(under.sum())
            if ppp:
                for queue, st, k in zip(queues, stats, landed.tolist()):
                    if k:
                        queue.drop(k)
                        st.fifo_pops += k
        ring.fifo_underflows += underflows
        _book_stats(meta, n, T)
        # Entry phase is period-preserving (every LIMIT divides the
        # period), so local counters are already correct; only the
        # global clocks move.
        ring.cycles = c0 + T
        ring.native_cycles += T
        return vos[taps, depth + 1:]


def _host_word(value, channel: int) -> int:
    return word.check(value, f"host channel {channel}")


def _host_windows(host_ports, host_in, ring, T: int, check, lane_shape):
    """Each routed host port's words over a T-cycle window.

    A resolver with a ``gather(channel, c0, T)`` method (the data
    controller's stream windows) hands over each routed channel's words
    as one array; stream words were range-checked when pushed.  A plain
    closure is polled per cycle in the interpreter's routed-port order
    (layer, position, port), each value validated by ``check(value,
    channel)``, with ``ring.cycles`` tracking the simulated cycle so
    cycle-dependent closures observe exactly what they would per cycle.
    *lane_shape* is ``()`` for a scalar ring, ``(lanes,)`` for lanes.
    """
    if not host_ports:
        return []
    c0 = ring.cycles
    gather = getattr(host_in, "gather", None)
    if gather is not None:
        windows: Dict[int, np.ndarray] = {}
        for *_, ch in host_ports:
            if ch not in windows:
                window = gather(ch, c0, T)
                if window.ndim == 1 and lane_shape:
                    # A one-lane engine under a scalar data controller.
                    window = np.repeat(window[:, None], lane_shape[0], 1)
                windows[ch] = window
        return [windows[ch] for *_, ch in host_ports]
    if host_in is None:
        l, p, port, ch = host_ports[0]
        raise SimulationError(
            f"switch {l} routes port {port} of position {p} to "
            f"host channel {ch}, but no host reader was supplied"
        )
    hv = [np.empty((T,) + lane_shape, np.int64) for _ in host_ports]
    try:
        for j in range(T):
            ring.cycles = c0 + j
            for slot, (_l, _p, _port, ch) in enumerate(host_ports):
                hv[slot][j] = check(host_in(ch), ch)
    finally:
        ring.cycles = c0
    return hv


def _bind_stats(schedule, nodes) -> tuple:
    """``(statistics record, LIMIT, totals)`` per Dnode of the
    schedule's ``stat_entries`` (*nodes* is ``ring.all_dnodes()``)."""
    return tuple((nodes[i].stats, limit, totals)
                 for i, limit, totals, _prefix in schedule.stat_entries)


def _book_stats(meta, n: int, T: int) -> None:
    """Lane-invariant statistics of an n-period, T-cycle window: every
    LIMIT divides the period, so a Dnode runs its slots T / LIMIT times."""
    for stats in meta["all_stats"]:
        stats.cycles += T
    for stats, limit, (ti, ta, tm) in meta["stat_entries"]:
        k = T // limit
        stats.instructions += k * ti
        stats.arithmetic_ops += k * ta
        if tm:
            stats.multiplies += k * tm


class NativeLanePlan(_NativeWindows):
    """A :class:`NativeTemplate` bound to one batch engine.

    The kernel's arrays carry a trailing lane axis: ``(T, lanes)`` host
    windows, ``(members, n, lanes)`` stacked FIFO reads and a ``(Dnodes,
    T + depth + 1, lanes)`` visible-out matrix.  A window reads the
    engine's ``outs`` / ``regs`` / ``pipes`` lane arrays and lane FIFOs
    and writes them back; statistics are lane-invariant and go to the
    ring's Dnodes, FIFO pops and underflows per lane (:func:`fifo_tail`).
    Only non-strict rings run it: a strict underflow must raise at its
    cycle.
    """

    __slots__ = ()

    def __init__(self, template: NativeTemplate, engine):
        ring = engine.ring
        nodes = tuple(ring.all_dnodes())
        super().__init__(template, nodes, engine.batch)
        geometry = ring.geometry
        layers, width = geometry.layers, geometry.width
        regs_per_node = engine.regs.shape[2]
        init = template.init_fill
        self._meta = {
            "engine": engine,
            "depth": geometry.pipeline_depth,
            "host_ports": template.schedule.host_ports,
            "fifo_reads": [(tuple(engine._fifo_for(key) for key in keys),
                            prefix, ppp)
                           for keys, prefix, ppp in template.fifo_reads],
            "fifo_gates": [(tuple(engine._fifo_for(key) for key in keys),
                            ppp, reads,
                            tuple(engine.lane_fifo_pops[key[:2]]
                                  for key in keys))
                           for keys, ppp, _maxprefix, reads
                           in template.fifo_gates],
            "init_regs": (
                [k for k, (kind, *_) in enumerate(init) if kind == "reg"],
                [i * regs_per_node + r for kind, i, r in init
                 if kind == "reg"]),
            "init_outs": (
                [k for k, (kind, *_) in enumerate(init) if kind == "out"],
                [i for kind, i, _ in init if kind == "out"]),
            "init_count": max(1, len(init)),
            "fin_count": max(1, len(template.fin_regs)),
            "fin_regs": ([k for _i, _r, k in template.fin_regs],
                         [i * regs_per_node + r
                          for i, r, _k in template.fin_regs]),
            # Dnode (l, p) feeds lane p of switch l + 1; switch k is fed
            # by its upstream layer.
            "down": [(l + 1) % layers for l in range(layers)],
            "up": [ring.upstream_layer(k) for k in range(layers)],
            "all_stats": tuple(dn.stats for dn in nodes),
            "stat_entries": _bind_stats(template.schedule, nodes),
        }

    def _window(self, n: int, bus: int, host_in,
                taps: List[int]) -> np.ndarray:
        meta = self._meta
        engine = meta["engine"]
        ring = engine.ring
        depth = meta["depth"]
        lanes = engine.batch
        T = n * self.period
        c0 = ring.cycles
        hv = _host_windows(meta["host_ports"], host_in, ring, T,
                           engine._host_word, (lanes,))
        fv = [_stack([fifo.gather(prefix, n, ppp) for fifo in fifos])
              for fifos, prefix, ppp in meta["fifo_reads"]]

        nodes = engine.outs.shape[0] * engine.outs.shape[1]
        outs = engine.outs.reshape(nodes, lanes)
        regs = engine.regs.reshape(-1, lanes)
        init = np.empty((meta["init_count"], lanes), np.int64)
        slots, rows = meta["init_regs"]
        init[slots] = regs[rows]
        slots, rows = meta["init_outs"]
        init[slots] = outs[rows]

        # Visible-out history, one (T + depth + 1, lanes) block per
        # Dnode: the downstream pipeline's stages depth..1, then the
        # live OUT latch.
        head = engine._head
        stage = (head + np.arange(depth)) % depth   # stages 1..depth
        vos = np.empty((nodes, T + depth + 1, lanes), np.int64)
        vos[:, :depth] = engine.pipes[meta["down"]].reshape(
            nodes, depth, lanes)[:, stage[::-1]]
        vos[:, depth] = outs

        fin = np.zeros((meta["fin_count"], lanes), np.int64)
        self.template.core(n, bus, init, fin, vos, *hv, *fv)

        slots, rows = meta["fin_regs"]
        regs[rows] = fin[slots]
        outs[:] = vos[:, depth + T]
        # Each pipeline lane takes its upstream Dnode's last depth
        # visible outputs, stage 1 first, at the shared head.
        engine.pipes[:, :, stage] = vos[:, T:T + depth][:, ::-1].reshape(
            -1, engine.outs.shape[1], depth, lanes)[meta["up"]]
        for fifos, ppp, reads, pops in meta["fifo_gates"]:
            _landed, under = fifo_tail(
                _stack([fifo.count for fifo in fifos]), n, ppp, reads)
            if ppp:
                for fifo, lane_pops in zip(fifos, pops):
                    lane_pops += fifo.drop(n * ppp)
            engine.lane_underflows += under.sum(axis=0)
        _book_stats(meta, n, T)
        ring.cycles = c0 + T
        ring.native_cycles += T
        return vos[taps, depth + 1:]


def _stack(arrays: List[np.ndarray]) -> np.ndarray:
    """*arrays* stacked along a new leading member axis (a view for a
    group of one)."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def compile_native(ring: "Ring",
                   refusal: Optional[List[str]] = None,
                   engine=None):
    """Compile *ring*'s current configuration into a native plan.

    Returns the :func:`native_template` bound to *ring*, or to the lanes
    of the ring's batch *engine* when one is given, or None when the
    configuration is ineligible; the caller falls back to the macro
    rung.  The reason for a refusal is appended to *refusal*
    when a list is given.
    """
    try:
        template = native_template(ring)
    except Ineligible as exc:
        if refusal is not None:
            refusal.append(str(exc))
        return None
    return (template.bind(ring) if engine is None
            else template.bind_lanes(engine))


def _additive_step(mw, a_self: bool, b_self: bool) -> Optional[str]:
    """Sign of an additive self-recurrence ``x = x ± v``, else None.

    ``ADD x, x, v`` and ``ADD x, v, x`` accumulate ``+v``; ``SUB x, x, v``
    accumulates ``-v``.  ``SUB x, v, x`` alternates sign, and an op
    reading its own result twice is not additive.
    """
    if a_self and b_self:
        return None
    if mw.op is Opcode.ADD:
        return "+"
    if mw.op is Opcode.SUB and a_self:
        return "-"
    return None


def _cycle_members(deps: Dict[int, set], unordered: set) -> List[int]:
    """The nodes of *unordered* that lie on a dependence cycle.

    *unordered* is what a Kahn pass could not order: the cycles plus
    everything downstream of them.  Pruning nodes nothing left depends
    on strips the downstream part.
    """
    left = set(unordered)
    while True:
        used = {d for i in left for d in deps[i] if d in left}
        if used >= left:
            return sorted(left)
        left = used


def native_template(ring: "Ring") -> NativeTemplate:
    """Generate and compile the native kernel for *ring*'s configuration
    and entry phase; raises :class:`Ineligible` when it has none.

    The kernel serves a ring and a batch engine's lanes alike: every
    temporary is shaped ``_S = (n,) + _INIT.shape[1:]``, so it carries a
    trailing lane axis exactly when its inputs do (see
    :class:`NativeLanePlan`).
    """
    P = native_period(ring)
    geometry = ring.geometry
    if P > MAX_PERIOD or P * geometry.dnodes > MAX_UNROLL_CELLS:
        raise Ineligible(
            f"period {P} over the unroll cap ({MAX_PERIOD} "
            f"cycles, {MAX_UNROLL_CELLS} Dnode-cycles)")
    steady = SteadySchedule(ring)
    layers, width = geometry.layers, geometry.width
    depth = geometry.pipeline_depth
    # One period of each Dnode's slots, unrolled from its live counter:
    # the kernel is baked against that entry phase.
    schedule: Dict[tuple, List] = {}
    counter_entries = []
    for (l, p), slots in steady.slots.items():
        c0 = 0
        if len(slots) > 1:
            c0 = ring._dnodes[l][p].local._counter
            counter_entries.append((l * width + p, c0))
        schedule[(l, p)] = [slots[(c0 + j) % len(slots)]
                            for j in range(P)]

    def dn_index(l: int, p: int) -> int:
        return l * width + p

    # --- routed-port survey -------------------------------------------
    # The interpreter resolves BOTH routed ports of every position every
    # cycle: host channels are read (in layer/position/port order) and
    # out-of-range feedback taps raise, whether or not the microword
    # uses the operand.  Host ports (the schedule's) become pre-gathered
    # arrays; an out-of-range tap anywhere makes the window ineligible
    # so the fall-back engines surface the identical runtime error.
    host_ports = steady.host_ports
    host_slot = {(l, p, port): slot
                 for slot, (l, p, port, _ch) in enumerate(host_ports)}
    port_src: Dict[Tuple[int, int, int], object] = {}
    for l in range(layers):
        sw = ring._switches[l]
        for p in range(width):
            for port in (1, 2):
                src = sw.config.source_for(p, port)
                port_src[(l, p, port)] = src
                if src.kind is PortKind.RP:
                    if not (1 <= src.index <= depth
                            and 1 <= src.lane <= width):
                        raise Ineligible(
                            f"switch {l} position {p} port {port}: "
                            f"out-of-range feedback tap")

    # --- operand resolution -------------------------------------------
    # Operands name their Dnode's own state relatively (a register or
    # the OUT latch by key, a FIFO by channel and pop prefix), so Dnodes
    # with one schedule resolve to equal records and can share a group;
    # "vo" and "host" operands name another Dnode or a host port.
    pop_phases: Dict[Tuple[int, int, int], List[int]] = {}
    for (l, p), sched in schedule.items():
        for phase, mw in enumerate(sched):
            if mw.flags & Flag.POP_FIFO1:
                pop_phases.setdefault((l, p, 1), []).append(phase)
            if mw.flags & Flag.POP_FIFO2:
                pop_phases.setdefault((l, p, 2), []).append(phase)

    # ops[dnode index][phase] -> op record for computed results
    ops: Dict[int, Dict[int, dict]] = {i: {} for i in
                                       range(geometry.dnodes)}
    writers: Dict[int, tuple] = {}
    # Operand reads per period at each (channel, prefix) of a Dnode's
    # FIFOs, computed or not: each read of an empty queue counts one
    # underflow.
    fifo_read_counts: Dict[int, Dict[Tuple[int, int], int]] = {}

    for l in range(layers):
        lu = ring.upstream_layer(l)
        for p in range(width):
            i = dn_index(l, p)
            sched = schedule[(l, p)]
            L = len(steady.slots[(l, p)])
            reg_writers: List[List[int]] = [[] for _ in range(4)]
            out_writers: List[int] = []
            for phase, mw in enumerate(sched):
                if mw.op is Opcode.NOP:
                    continue
                if mw.dst.is_register:
                    reg_writers[int(mw.dst)].append(phase)
                if mw.dst is Dest.OUT or mw.flags & Flag.WRITE_OUT:
                    out_writers.append(phase)
            writers[i] = (reg_writers, out_writers)
            read_counts = fifo_read_counts[i] = {}

            def resolve_writers(phase, writers, key):
                prev = [w for w in writers if w < phase]
                if prev:
                    return ("res", max(prev))
                if writers:
                    return ("res1", max(writers), key)
                return ("init", key)

            def resolve_reg(phase, r):
                return resolve_writers(phase, reg_writers[r], ("reg", r))

            def fifo_operand(phase, ch):
                pops = pop_phases.get((l, p, ch), ())
                prefix = sum(1 for q in pops if q < phase)
                read_counts[(ch, prefix)] = read_counts.get(
                    (ch, prefix), 0) + 1
                return ("fifo", ch, prefix)

            def port_operand(phase, port):
                src = port_src[(l, p, port)]
                kind = src.kind
                if kind is PortKind.ZERO:
                    return ("const", 0)
                if kind is PortKind.UP:
                    return ("vo", lu, src.index, 0)
                if kind is PortKind.RP:
                    return ("vo", lu, src.lane - 1, src.index)
                if kind is PortKind.BUS:
                    return ("bus",)
                if kind is PortKind.HOST:
                    return ("host", host_slot[(l, p, port)])
                raise Ineligible(f"unhandled port source {src!r}")

            def resolve_src(phase, mw, src):
                if src <= Source.R3:
                    return resolve_reg(phase, int(src))
                if src is Source.IN1:
                    return port_operand(phase, 1)
                if src is Source.IN2:
                    return port_operand(phase, 2)
                if src is Source.FIFO1:
                    return fifo_operand(phase, 1)
                if src is Source.FIFO2:
                    return fifo_operand(phase, 2)
                if src is Source.BUS:
                    return ("bus",)
                if src is Source.IMM:
                    return ("const", mw.imm)
                if src is Source.SELF:
                    return resolve_writers(phase, out_writers, ("out", 0))
                if src is Source.ZERO:
                    return ("const", 0)
                if src.is_feedback:
                    stage = src.feedback_stage
                    lane = src.feedback_lane
                    if not (stage <= depth and lane <= width):
                        raise Ineligible(
                            f"D{l}.{p} phase {phase}: out-of-range "
                            f"feedback source")
                    return ("vo", lu, lane - 1, stage)
                raise Ineligible(f"unhandled source {src!r}")

            for phase, mw in enumerate(sched):
                if mw.op is Opcode.NOP:
                    continue
                computed = (mw.dst.is_register or mw.dst is Dest.OUT
                            or bool(mw.flags & Flag.WRITE_OUT))
                a = resolve_src(phase, mw, mw.src_a)
                b = (resolve_src(phase, mw, mw.src_b)
                     if mw.is_binary else None)
                acc = (resolve_reg(phase, int(mw.dst))
                       if mw.op in (Opcode.MAC, Opcode.MACS) else None)
                if not computed:
                    # Result discarded (Dest.NONE, no WRITE_OUT): the
                    # operand *reads* above still registered their FIFO
                    # gating; nothing to generate.
                    continue

                def dep_of(opnd):
                    if opnd is not None and opnd[0] in ("res", "res1"):
                        return opnd[1]
                    return None

                # An operand whose nearest writer is this op's previous
                # instance (phase - L, the same schedule slot) makes the
                # op an accumulator; only additive ones have a closed
                # form.  MACS saturates (non-linear): no closed form.
                where = f"D{l}.{p} phase {phase}"
                own = (phase - L) % P
                a_self, b_self = dep_of(a) == own, dep_of(b) == own
                closed = None
                if a_self or b_self:
                    closed = _additive_step(mw, a_self, b_self)
                    if closed is None:
                        raise Ineligible(
                            f"{where}: {mw.op.name} self-recurrence has "
                            f"no closed form")
                elif dep_of(acc) == own:
                    if mw.op is not Opcode.MAC:
                        raise Ineligible(
                            f"{where}: saturating {mw.op.name} accumulator")
                    closed = "+"
                ops[i][phase] = {
                    "mw": mw, "a": a, "b": b, "acc": acc, "a_self": a_self,
                    # A MADD/MSUB coefficient is an immediate too.
                    "coeff": (("const", word.to_signed(mw.imm))
                              if mw.op in (Opcode.MADD, Opcode.MSUB)
                              else None),
                    "closed": closed, "slot": phase % L,
                    "deps": {dep_of(x) for x in (a, b, acc)} - {None, own},
                }

    # --- within-Dnode op order (Kahn; any residual cycle bails) -------
    # The instances of one closed-form accumulator slot (phases s,
    # s + L, ...) form one cumsum chain: one node, generated as a unit.
    op_order: Dict[int, List[List[int]]] = {}
    for i, table in ops.items():
        members: Dict[int, List[int]] = {}
        node_of: Dict[int, int] = {}
        for ph in sorted(table):
            node = table[ph]["slot"] if table[ph]["closed"] else ph
            node_of[ph] = node
            members.setdefault(node, []).append(ph)
        indeg = {k: 0 for k in members}
        users: Dict[int, List[int]] = {k: [] for k in members}
        for k, chain in members.items():
            for d in {node_of[d] for ph in chain
                      for d in table[ph]["deps"]}:
                indeg[k] += 1
                users[d].append(k)
        ready = sorted(k for k in members if indeg[k] == 0)
        order: List[List[int]] = []
        while ready:
            k = ready.pop(0)
            order.append(members[k])
            for u in sorted(users[k]):
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(order) != len(members):
            l, p = divmod(i, width)
            raise Ineligible(
                f"D{l}.{p}: cyclic register dependence across phases")
        op_order[i] = order

    # --- Dnode-level dependence graph over the window -----------------
    dn_deps: Dict[int, set] = {i: set() for i in range(geometry.dnodes)}
    for i, table in ops.items():
        for rec in table.values():
            for opnd in (rec["a"], rec["b"], rec["acc"]):
                if opnd is not None and opnd[0] == "vo":
                    dn_deps[i].add(dn_index(opnd[1], opnd[2]))
    indeg = {i: len(dn_deps[i]) for i in dn_deps}
    users2: Dict[int, List[int]] = {i: [] for i in dn_deps}
    for i, deps in dn_deps.items():
        for d in deps:
            users2[d].append(i)
    ready = sorted(i for i in dn_deps if indeg[i] == 0)
    dn_order: List[int] = []
    while ready:
        i = ready.pop(0)
        dn_order.append(i)
        for u in sorted(users2[i]):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(dn_order) != geometry.dnodes:
        cycle = _cycle_members(dn_deps, set(dn_deps) - set(dn_order))
        names = ", ".join("D%d.%d" % divmod(i, width) for i in cycle)
        raise Ineligible(f"cross-Dnode dependence cycle through {names}")

    # --- Dnode groups -------------------------------------------------
    def signature(i: int):
        """What a Dnode must share with another to run in its group:
        the schedule up to immediates, and op records whose operands
        read only the Dnode's own state, a constant or the bus.  None
        keeps the Dnode a group of one (it reads another Dnode or a host
        port, or computes nothing)."""
        records = []
        for ph, rec in sorted(ops[i].items()):
            opnds = (rec["a"], rec["b"], rec["acc"], rec["coeff"])
            if any(x is not None and x[0] in ("vo", "host")
                   for x in opnds):
                return None
            records.append((ph, rec["closed"], rec["slot"], rec["a_self"],
                            tuple(("const",) if x is not None
                                  and x[0] == "const" else x
                                  for x in opnds)))
        if not records:
            return None
        lp = divmod(i, width)
        words = tuple((mw.op, mw.src_a, mw.src_b, mw.dst, mw.flags)
                      for mw in schedule[lp])
        return len(steady.slots[lp]), words, tuple(records)

    partition: List[List[int]] = []
    by_signature: Dict[tuple, List[int]] = {}
    for i in range(geometry.dnodes):
        sig = signature(i)
        group = None if sig is None else by_signature.get(sig)
        if group is None:
            group = [i]
            partition.append(group)
            if sig is not None:
                by_signature[sig] = group
        else:
            group.append(i)
    # Members of a group read no other Dnode, so a group is ready as
    # soon as its earliest member is.
    rank = {i: k for k, i in enumerate(dn_order)}
    partition.sort(key=lambda group: min(rank[i] for i in group))

    # --- code generation ----------------------------------------------
    # Every group is emitted once over a leading member axis: a result
    # is a (members, n) array (by lane), rows of the VO matrix are the
    # members' visible outputs, and a per-member immediate is a constant
    # vector broadcast down the other axes by _E.
    lines = ["    _L = _INIT.shape[1:]"]
    consts: Dict[str, np.ndarray] = {}
    temp_count = [0]
    init_fill: List[tuple] = []
    fin_regs: List[tuple] = []
    fifo_reads: List[tuple] = []      # (keys, prefix, pops/period)
    fifo_gates: List[tuple] = []      # (keys, pops/period, max prefix, reads)

    def emit(text: str) -> None:
        lines.append("    " + text)

    def fresh(prefix: str) -> str:
        temp_count[0] += 1
        return f"{prefix}{temp_count[0]}"

    for members in partition:
        k = len(members)
        rep = members[0]
        table = ops[rep]
        reg_writers, out_writers = writers[rep]
        keys = [divmod(m, width) for m in members]
        step = members[1] - rep if k > 1 else 1
        if members == list(range(rep, members[-1] + 1, step)):
            rows = f"{rep}:{members[-1] + 1}" + (
                f":{step}" if step > 1 else "")
        else:
            rows = f"_G{rep}"
            consts[rows] = np.array(members, np.intp)
        shape = f"({k}, n) + _L"
        init_slot: Dict[tuple, int] = {}
        read_slot: Dict[tuple, int] = {}

        def init_of(key) -> int:
            """First of the k _INIT slots holding the members' *key*."""
            base = init_slot.get(key)
            if base is None:
                base = init_slot[key] = len(init_fill)
                kind, r = key
                init_fill.extend((kind, m, r) for m in members)
            return base

        def const_of(values: List[int]) -> str:
            if len(set(values)) == 1:
                return str(values[0])
            if not any(name.startswith("_K") for name in consts):
                lines.insert(1, "    _E = (slice(None),) + (None,) * "
                                "_INIT.ndim")
            name = fresh("_K")
            consts[name] = np.array(values, np.int64)
            alias = name.lower()
            emit(f"{alias} = {name}[_E]")
            return alias

        def operand_expr(phase: int, field: str) -> Tuple[str, bool]:
            opnds = [ops[m][phase][field] for m in members]
            opnd = opnds[0]
            tag = opnd[0]
            if tag == "const":
                return const_of([x[1] for x in opnds]), False
            if tag == "bus":
                return "bus", False
            if tag == "init":
                base = init_of(opnd[1])
                return f"_INIT[{base}:{base + k}, None]", False
            if tag == "vo":
                up = dn_index(opnd[1], opnd[2])
                start = depth + phase - opnd[3]
                return (f"_VO[{up}:{up + 1}, "
                        f"{start}:{start} + n * {P}:{P}]"), True
            if tag == "res":
                return f"_r_{rep}_{opnd[1]}", True
            if tag == "res1":
                base = init_of(opnd[2])
                t = fresh("_t")
                emit(f"{t} = np.empty({shape}, np.int64)")
                emit(f"{t}[:, 0] = _INIT[{base}:{base + k}]")
                emit(f"{t}[:, 1:] = _r_{rep}_{opnd[1]}[:, :n - 1]")
                return t, True
            if tag == "host":
                return (f"_hv_{opnd[1]}[None, "
                        f"{phase}:{phase} + n * {P}:{P}]"), True
            if tag == "fifo":
                ch, prefix = opnd[1], opnd[2]
                slot = read_slot.get((ch, prefix))
                if slot is None:
                    slot = read_slot[(ch, prefix)] = len(fifo_reads)
                    fifo_reads.append((
                        tuple(key + (ch,) for key in keys), prefix,
                        len(pop_phases.get(keys[0] + (ch,), ()))))
                return f"_fv_{slot}", True
            raise Ineligible(f"unhandled operand {opnd!r}")

        def emit_chain(chain: List[int]) -> None:
            """One closed-form accumulator: the m instances per period
            of ``x = x ± v`` (or a MAC's ``x = x + a*b``) are one
            running sum over the m*n terms in time order."""
            recs = [table[ph] for ph in chain]
            m = len(chain)
            t = fresh("_c")
            emit(f"{t} = np.empty(({k}, n * {m}) + _L, np.int64)")
            for j, (ph, rec) in enumerate(zip(chain, recs)):
                if rec["mw"].op is Opcode.MAC:
                    a, _ = operand_expr(ph, "a")
                    b, _ = operand_expr(ph, "b")
                    term = f"{_signed(a)} * {_signed(b)}"
                else:
                    term, _ = operand_expr(
                        ph, "b" if rec["a_self"] else "a")
                emit(f"{t}[:, {j}::{m}] = {term}")
            # The first instance reads the previous period's last one,
            # whose value at window entry is the ("res1", own, key) slot.
            root = recs[0]
            own = (root["acc"] if root["mw"].op is Opcode.MAC
                   else root["a"] if root["a_self"] else root["b"])
            base = init_of(own[2])
            emit(f"{t} = (_INIT[{base}:{base + k}, None] {root['closed']} "
                 f"np.cumsum({t}, axis=1)) & 65535")
            for j, ph in enumerate(chain):
                emit(f"_r_{rep}_{ph} = {t}[:, {j}::{m}]")

        for chain in op_order[rep]:
            rec = table[chain[0]]
            if rec["closed"]:
                emit_chain(chain)
                continue
            ph = chain[0]
            arrays = []
            exprs = {}
            for field in ("a", "b", "acc", "coeff"):
                if rec[field] is not None:
                    exprs[field], is_array = operand_expr(ph, field)
                    arrays.append(is_array)
            expr = _vector_expr(rec["mw"], exprs["a"], exprs.get("b"),
                                exprs.get("acc"), exprs.get("coeff"))
            if not any(arrays):
                expr = f"np.zeros({shape}, np.int64) + ({expr})"
            emit(f"_r_{rep}_{ph} = {expr}")

        # Final register values: the chronologically last writer's last
        # element.
        for r in range(4):
            if reg_writers[r]:
                base = len(fin_regs)
                fin_regs.extend((m, r, base + j)
                                for j, m in enumerate(members))
                emit(f"_FIN[{base}:{base + k}] = "
                     f"_r_{rep}_{max(reg_writers[r])}[:, n - 1]")

        # Visible-out materialization: strided stores for write phases,
        # forward fill for the rest (sources are always write residues,
        # so fill order is irrelevant).
        vo = f"_VO[{rows}, "
        wset = sorted(set(out_writers))
        if not wset:
            emit(f"{vo}{depth + 1}:] = {vo}{depth}:{depth + 1}]")
        else:
            for psi in wset:
                start = depth + 1 + psi
                emit(f"{vo}{start}:{start} + n * {P}:{P}] = _r_{rep}_{psi}")
            for c in range(P):
                if c in wset:
                    continue
                delta = min((c - psi) % P for psi in wset)
                s = c - delta
                t0 = depth + 1 + c
                if s >= 0:
                    s0 = depth + 1 + s
                    emit(f"{vo}{t0}:{t0} + n * {P}:{P}] "
                         f"= {vo}{s0}:{s0} + n * {P}:{P}]")
                else:
                    s0 = depth + 1 + s + P
                    emit(f"{vo}{t0 + P}:{t0} + n * {P}:{P}] "
                         f"= {vo}{s0}:{s0} + (n - 1) * {P}:{P}]")
                    emit(f"{vo}{t0}] = {vo}{depth}]")

        # FIFO gates: the members share pops and read prefixes, so one
        # closed form settles each channel over the whole group.
        for ch in (1, 2):
            pops = pop_phases.get(keys[0] + (ch,), ())
            reads = tuple(sorted((prefix, count) for (c, prefix), count
                                 in fifo_read_counts[rep].items()
                                 if c == ch))
            if pops or reads:
                fifo_gates.append((
                    tuple(key + (ch,) for key in keys), len(pops),
                    max(prefix for prefix, _ in reads) if reads else None,
                    reads))

    # --- kernel assembly ----------------------------------------------
    params = ["n", "bus", "_INIT", "_FIN", "_VO"]
    params += [f"_hv_{j}" for j in range(len(host_ports))]
    params += [f"_fv_{j}" for j in range(len(fifo_reads))]
    header = f"def _core({', '.join(params)}):"
    source = "\n".join([header] + lines) + "\n"
    groups = tuple(sorted(tuple(group) for group in partition))
    return NativeTemplate(steady, P, tuple(counter_entries), source,
                          groups, consts,
                          tuple(init_fill), tuple(fin_regs),
                          tuple(fifo_reads), tuple(fifo_gates))


__all__ = ["NativeLanePlan", "NativePlan", "NativeTemplate",
           "compile_native", "fifo_tail", "native_template",
           "MAX_WINDOW_CELLS"]
