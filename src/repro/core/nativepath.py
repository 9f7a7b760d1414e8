"""Native tier: time-axis-vectorized macro kernels (NumPy).

The macro rung (:mod:`repro.core.macropath`) removes per-cycle
Python dispatch by unrolling one sequencer period into straight-line
Python — but every cycle of every Dnode is still a handful of Python
bytecode operations.  This module goes one axis further: it vectorizes
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
  Dnode the caller taps.

The generated kernel is one pure-array function ``_core``.  It takes
every piece of state as an argument, so it holds no ring:
:func:`native_template` builds a :class:`NativeTemplate` (the kernel and
the window schedule by Dnode index and FIFO key) once per configuration
and entry phase.  The ring keeps templates in the process-wide kernel
cache (:mod:`repro.core.plancache`), so every fresh ring with a
configuration the process has compiled binds it in microseconds.

The kernel is shape-generic: its temporaries take their shape from
``_INIT`` (``(n,)`` on a ring, ``(n, lanes)`` on lanes) and every
running sum is ``np.cumsum`` down axis 0.  So one template serves both
bindings: :meth:`NativeTemplate.bind` maps it onto a ring's state
containers (:class:`NativePlan`) and :meth:`NativeTemplate.bind_lanes`
onto a :class:`~repro.core.batchpath.BatchRing`'s lane arrays and lane
FIFOs (:class:`NativeLanePlan`), whose arrays carry a trailing lane
axis.  A configuration run on a ring and on lanes compiles once.

Eligibility — :func:`compile_native` returns None (the ring then falls
back native → macro → interpreter, and keeps the reason as
:attr:`~repro.core.ring.Ring.native_refusal`) when:

* the period exceeds :data:`~repro.core.macropath.MAX_PERIOD` or the
  unroll cap (same limits as the macro tier);
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

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro import word
from repro.core.isa import Dest, Flag, Opcode, Source
from repro.core.macropath import (Ineligible, SteadyPlan, SteadySchedule,
                                  _signed, _vector_expr)
from repro.core.switch import PortKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Cap on Dnode-count x window-cycles (x lanes) per kernel call: windows
#: beyond it are split, bounding peak VO-array memory (~8 MB of int64 at
#: the cap).
MAX_WINDOW_CELLS = 1 << 20

def fifo_tail(occupancy, n: int, ppp: int, reads):
    """Pops that land and underflows counted by *n* periods on a
    non-strict FIFO holding *occupancy* words (an int, or an array with
    one per lane).

    Pops are set by the schedule: *ppp* per period, and each read of
    *reads* (``(prefix, reads per period)``) sees the word *prefix* pops
    into its period.  A pop on an empty queue dequeues nothing, and a
    read past the occupancy reads 0; each counts one underflow.
    Returns ``(landed, underflows)``.
    """
    lo, hi = ((np.minimum, np.maximum) if isinstance(occupancy, np.ndarray)
              else (min, max))
    landed = lo(occupancy, n * ppp)
    underflows = n * ppp - landed
    for prefix, count in reads:
        if ppp:
            # Periods whose read still finds a word: ceil((occ - prefix)
            # / ppp), clipped to the window.
            served = lo(hi(-((prefix - occupancy) // ppp), 0), n)
        else:
            served = n * (occupancy > prefix)
        underflows = underflows + count * (n - served)
    return landed, underflows


def _queue_reads(queue, prefix: int, ppp: int, n: int) -> np.ndarray:
    """A read site's words over *n* periods off a scalar
    :class:`~repro.core.wordqueue.WordQueue` (0 past its occupancy): a
    strided slice of the queue's buffer when it holds them all."""
    if not ppp:
        return np.full(n, queue[0] if queue else 0, np.int64)
    needed = prefix + (n - 1) * ppp + 1
    words = queue.view(0, needed)
    if len(words) < needed:
        words = np.concatenate(
            (words, np.zeros(needed - len(words), np.int64)))
    return words[prefix::ppp]


class NativeTemplate:
    """A compiled native kernel with no ring in it.

    ``core`` is the pure-array kernel (``source`` its text), shared by
    every ring and batch engine bound to it.  The rest is the window's
    schedule by Dnode index and FIFO key, which a :class:`NativePlan`
    maps to one ring's state containers, or a :class:`NativeLanePlan` to
    one batch engine's lane arrays.
    """

    __slots__ = ("schedule", "source", "core", "init_fill", "fin_regs",
                 "fifo_reads", "fifo_gates")

    def __init__(self, schedule, source, init_fill, fin_regs, fifo_reads,
                 fifo_gates):
        self.schedule = schedule
        self.source = source
        env: Dict[str, object] = {"np": np}
        exec(compile(source, f"<native period={schedule.period}>", "exec"),
             env)
        self.core = env["_core"]
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

    __slots__ = ("_meta", "_max_periods")

    def __init__(self, template: NativeTemplate, nodes, lanes: int):
        super().__init__(template, nodes)
        self._max_periods = max(1, MAX_WINDOW_CELLS // (
            len(nodes) * self.period * lanes))

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance *cycles* fabric clocks (a period multiple; on a
        strict-FIFO ring, a safe one).

        Returns, for each Dnode index (``layer * width + position``) in
        *taps*, its post-edge output values over the run: element ``t``
        is what an output tap observes after cycle ``t`` (a row of one
        value per lane on a lane plan).
        """
        n = cycles // self.period
        parts: List[List[np.ndarray]] = [[] for _ in taps]
        while n > 0:
            m = min(n, self._max_periods)
            for acc, values in zip(parts, self._window(m, bus, host_in,
                                                       taps)):
                acc.append(values)
            n -= m
        return [np.concatenate(acc) if acc else np.empty(0, np.int64)
                for acc in parts]


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
        self._meta = {
            "ring": ring,
            "depth": geometry.pipeline_depth,
            "host_ports": template.schedule.host_ports,
            "fifo_reads": [(fifo(*key), prefix, ppp)
                           for key, prefix, ppp in template.fifo_reads],
            "fifo_gates": [(fifo(*key), ppp, maxprefix, reads,
                            nodes[key[0] * width + key[1]].stats)
                           for key, ppp, maxprefix, reads
                           in template.fifo_gates],
            "init_fill": [("reg", nodes[i].regs._values, r) if kind == "reg"
                          else ("out", nodes[i], 0)
                          for kind, i, r in template.init_fill],
            "vo_seed": vo_seed,
            "pipes": pipes,
            "fin_count": len(template.fin_regs),
            "fin_regs": [(nodes[i].regs._values, r, k)
                         for i, r, k in template.fin_regs],
            "all_stats": tuple(dn.stats for dn in nodes),
            "stat_entries": template.schedule.bind_stats(nodes),
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
        for queue, ppp, maxprefix, _reads, _stats in self._meta[
                "fifo_gates"]:
            occ = len(queue)
            if ppp == 0:
                # Reads but never a pop: any occupancy serves forever.
                if occ == 0:
                    return 0
                continue
            limit = occ // ppp
            if maxprefix is not None:
                limit = min(limit, (occ - maxprefix - 1) // ppp + 1)
            n = min(n, limit)
            if n <= 0:
                return 0
        return n * per

    # ------------------------------------------------------------------

    def _window(self, n: int, bus: int, host_in,
                taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Run one n-period window: gather, kernel, write back.

        Returns the ``VO[depth + 1 : depth + 1 + T]`` slice of each Dnode
        in *taps*: its post-edge outputs over the window.
        """
        meta = self._meta
        ring = meta["ring"]
        depth = meta["depth"]
        T = n * self.period
        c0 = ring.cycles

        # Host gather; nothing is committed if a read raises.
        hv = _host_windows(meta["host_ports"], host_in, ring, T,
                           _host_word, ())

        # FIFO gather: each read site gets its length-n value vector.
        fv = [_queue_reads(queue, prefix, ppp, n)
              for queue, prefix, ppp in meta["fifo_reads"]]

        init = np.empty(max(1, len(meta["init_fill"])), np.int64)
        for i, (kind, obj, idx) in enumerate(meta["init_fill"]):
            init[i] = obj[idx] if kind == "reg" else obj._out

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
        self.template.core(n, bus, init, fin, *vos, *hv, *fv)

        for values, r, k in meta["fin_regs"]:
            values[r] = int(fin[k])
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
        underflows = 0
        for queue, ppp, _maxprefix, reads, stats in meta["fifo_gates"]:
            landed, under = fifo_tail(len(queue), n, ppp, reads)
            underflows += under
            if landed:
                queue.drop(landed)
                stats.fifo_pops += landed
        ring.fifo_underflows += underflows
        _book_stats(meta, n, T)
        # Entry phase is period-preserving (every LIMIT divides the
        # period), so local counters are already correct; only the
        # global clocks move.
        ring.cycles = c0 + T
        ring.native_cycles += T
        return [vos[i][depth + 1:] for i in taps]


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


def _book_stats(meta, n: int, T: int) -> None:
    """Lane-invariant statistics of an n-period, T-cycle window."""
    for stats in meta["all_stats"]:
        stats.cycles += T
    for stats, (ti, ta, tm), _prefix in meta["stat_entries"]:
        stats.instructions += n * ti
        stats.arithmetic_ops += n * ta
        if tm:
            stats.multiplies += n * tm


class NativeLanePlan(_NativeWindows):
    """A :class:`NativeTemplate` bound to one batch engine.

    The kernel's arrays carry a trailing lane axis: ``(T, lanes)`` host
    windows, ``(n, lanes)`` FIFO read vectors and ``(T + depth + 1,
    lanes)`` visible-out arrays.  A window reads the engine's ``outs`` /
    ``regs`` / ``pipes`` lane arrays and lane FIFOs and writes them back;
    statistics are lane-invariant and go to the ring's Dnodes, FIFO pops
    and underflows per lane (:func:`fifo_tail`).  Only non-strict rings
    run it: a strict underflow must raise at its cycle.
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
            "fifo_reads": [(engine._fifo_for(key), prefix, ppp)
                           for key, prefix, ppp in template.fifo_reads],
            "fifo_gates": [(engine._fifo_for(key), ppp, reads,
                            engine.lane_fifo_pops[key[:2]])
                           for key, ppp, _maxprefix, reads
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
            "stat_entries": template.schedule.bind_stats(nodes),
        }

    def _window(self, n: int, bus: int, host_in,
                taps: Sequence[int]) -> List[np.ndarray]:
        meta = self._meta
        engine = meta["engine"]
        ring = engine.ring
        depth = meta["depth"]
        lanes = engine.batch
        T = n * self.period
        c0 = ring.cycles
        hv = _host_windows(meta["host_ports"], host_in, ring, T,
                           engine._host_word, (lanes,))
        fv = [fifo.gather(prefix, n, ppp)
              for fifo, prefix, ppp in meta["fifo_reads"]]

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
        self.template.core(n, bus, init, fin, *vos, *hv, *fv)

        slots, rows = meta["fin_regs"]
        regs[rows] = fin[slots]
        outs[:] = vos[:, depth + T]
        # Each pipeline lane takes its upstream Dnode's last depth
        # visible outputs, stage 1 first, at the shared head.
        engine.pipes[:, :, stage] = vos[:, T:T + depth][:, ::-1].reshape(
            -1, engine.outs.shape[1], depth, lanes)[meta["up"]]
        for fifo, ppp, reads, pops in meta["fifo_gates"]:
            _landed, under = fifo_tail(fifo.count, n, ppp, reads)
            if ppp:
                pops += fifo.drop(n * ppp)
            engine.lane_underflows += under
        _book_stats(meta, n, T)
        ring.cycles = c0 + T
        ring.native_cycles += T
        return [vos[i, depth + 1:] for i in taps]


def compile_native(ring: "Ring",
                   refusal: Optional[List[str]] = None,
                   engine=None):
    """Compile *ring*'s current configuration into a native plan.

    Returns the :func:`native_template` bound to *ring*, or to the lanes
    of the ring's batch *engine* when one is given, or None when the
    configuration is ineligible; the caller falls back to the macro and
    interpreter rungs.  The reason for a refusal is appended to *refusal*
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
    steady = SteadySchedule(ring)
    schedule = steady.words
    geometry = ring.geometry
    layers, width = geometry.layers, geometry.width
    depth = geometry.pipeline_depth
    P = steady.period

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
    init_index: Dict[tuple, int] = {}
    init_fill: List[tuple] = []

    def init_of(key, accessor) -> int:
        idx = init_index.get(key)
        if idx is None:
            idx = len(init_fill)
            init_index[key] = idx
            init_fill.append(accessor)
        return idx

    fifo_slot: Dict[Tuple[int, int, int, int], int] = {}
    fifo_reads: List[tuple] = []      # ((l, p, ch), prefix, pops/period)
    fifo_read_prefixes: Dict[Tuple[int, int, int], int] = {}
    # Operand reads per period at each (l, p, ch, prefix): each read of
    # an empty queue counts one underflow.
    fifo_read_counts: Dict[Tuple[int, int, int, int], int] = {}
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
    # FIFO read sites that compute nothing (Dest.NONE) still gate safety.

    for l in range(layers):
        lu = ring.upstream_layer(l)
        for p in range(width):
            i = dn_index(l, p)
            sched = schedule[(l, p)]
            L = steady.own_period[(l, p)]
            reg_writers: List[List[int]] = [[] for _ in range(4)]
            out_writers: List[int] = []
            for phase, mw in enumerate(sched):
                if mw.op is Opcode.NOP:
                    continue
                if mw.dst.is_register:
                    reg_writers[int(mw.dst)].append(phase)
                if mw.dst is Dest.OUT or mw.flags & Flag.WRITE_OUT:
                    out_writers.append(phase)

            def resolve_writers(phase, writers, init_key, accessor):
                prev = [w for w in writers if w < phase]
                if prev:
                    return ("res", max(prev))
                if writers:
                    return ("res1", max(writers),
                            init_of(init_key, accessor))
                return ("init", init_of(init_key, accessor))

            def resolve_reg(phase, r):
                return resolve_writers(
                    phase, reg_writers[r], ("reg", l, p, r), ("reg", i, r))

            def fifo_operand(phase, ch):
                pops = pop_phases.get((l, p, ch), ())
                prefix = sum(1 for q in pops if q < phase)
                seen = fifo_read_prefixes.get((l, p, ch))
                if seen is None or prefix > seen:
                    fifo_read_prefixes[(l, p, ch)] = prefix
                key = (l, p, ch, prefix)
                fifo_read_counts[key] = fifo_read_counts.get(key, 0) + 1
                slot = fifo_slot.get(key)
                if slot is None:
                    slot = len(fifo_reads)
                    fifo_slot[key] = slot
                    fifo_reads.append(((l, p, ch), prefix, len(pops)))
                return ("fifo", slot)

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
                    return resolve_writers(
                        phase, out_writers, ("out", l, p), ("out", i, 0))
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
                    "closed": closed, "slot": phase % L,
                    "deps": {dep_of(x) for x in (a, b, acc)} - {None, own},
                    "reg_writers": reg_writers, "out_writers": out_writers,
                }
            # Stash the writer maps even for all-NOP dnodes (needed for
            # VO fill + final writeback bookkeeping).
            ops[i]["_writers"] = (reg_writers, out_writers)  # type: ignore

    # --- within-Dnode op order (Kahn; any residual cycle bails) -------
    # The instances of one closed-form accumulator slot (phases s,
    # s + L, ...) form one cumsum chain: one node, generated as a unit.
    op_order: Dict[int, List[List[int]]] = {}
    for i, table in ops.items():
        members: Dict[int, List[int]] = {}
        node_of: Dict[int, int] = {}
        for ph in sorted(ph for ph in table if isinstance(ph, int)):
            node = table[ph]["slot"] if table[ph]["closed"] else ph
            node_of[ph] = node
            members.setdefault(node, []).append(ph)
        indeg = {k: 0 for k in members}
        users: Dict[int, List[int]] = {k: [] for k in members}
        for k, group in members.items():
            for d in {node_of[d] for ph in group
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
        for ph in (ph for group in op_order[i] for ph in group):
            rec = table[ph]
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

    # --- code generation ----------------------------------------------
    lines: List[str] = []
    temp_count = [0]
    # Shape of one op's result vector: n periods (by lane).
    lines.append("    _S = (n,) + _INIT.shape[1:]")

    def emit(text: str) -> None:
        lines.append("    " + text)

    def operand_expr(i: int, phase: int, opnd) -> Tuple[str, bool]:
        tag = opnd[0]
        if tag == "const":
            return str(opnd[1]), False
        if tag == "bus":
            return "bus", False
        if tag == "init":
            return f"_INIT[{opnd[1]}]", False
        if tag == "vo":
            ul, up, lag = opnd[1], opnd[2], opnd[3]
            start = depth + phase - lag
            return (f"_vo_{dn_index(ul, up)}"
                    f"[{start}:{start} + n * {P}:{P}]"), True
        if tag == "res":
            return f"_r_{i}_{opnd[1]}", True
        if tag == "res1":
            psi, ii = opnd[1], opnd[2]
            temp_count[0] += 1
            t = f"_t{temp_count[0]}"
            emit(f"{t} = np.empty(_S, np.int64)")
            emit(f"{t}[0] = _INIT[{ii}]")
            emit(f"{t}[1:] = _r_{i}_{psi}[:n - 1]")
            return t, True
        if tag == "host":
            return (f"_hv_{opnd[1]}[{phase}:{phase} + n * {P}:{P}]"), True
        if tag == "fifo":
            return f"_fv_{opnd[1]}", True
        raise Ineligible(f"unhandled operand {opnd!r}")

    def emit_chain(i: int, group: List[int]) -> None:
        """One closed-form accumulator: the m instances per period of
        ``x = x ± v`` (or a MAC's ``x = x + a*b``) are one running sum
        over the m*n terms in time order."""
        recs = [ops[i][ph] for ph in group]
        m = len(group)
        temp_count[0] += 1
        t = f"_c{temp_count[0]}"
        emit(f"{t} = np.empty((n * {m},) + _S[1:], np.int64)")
        for j, (ph, rec) in enumerate(zip(group, recs)):
            if rec["mw"].op is Opcode.MAC:
                a, _ = operand_expr(i, ph, rec["a"])
                b, _ = operand_expr(i, ph, rec["b"])
                term = f"{_signed(a)} * {_signed(b)}"
            else:
                term, _ = operand_expr(
                    i, ph, rec["b"] if rec["a_self"] else rec["a"])
            emit(f"{t}[{j}::{m}] = {term}")
        # The first instance reads the previous period's last one, whose
        # value at window entry is the ("res1", own, init) slot.
        root = recs[0]
        own = (root["acc"] if root["mw"].op is Opcode.MAC
               else root["a"] if root["a_self"] else root["b"])
        emit(f"{t} = (_INIT[{own[2]}] {root['closed']} "
             f"np.cumsum({t}, axis=0)) & 65535")
        for j, ph in enumerate(group):
            emit(f"_r_{i}_{ph} = {t}[{j}::{m}]")

    fin_index: Dict[tuple, int] = {}
    fin_regs: List[tuple] = []

    for i in dn_order:
        table = ops[i]
        reg_writers, out_writers = table["_writers"]  # type: ignore
        for group in op_order[i]:
            rec = table[group[0]]
            if rec["closed"]:
                emit_chain(i, group)
                continue
            ph = group[0]
            mw = rec["mw"]
            a, a_arr = operand_expr(i, ph, rec["a"])
            b = b_arr = None
            if rec["b"] is not None:
                b, b_arr = operand_expr(i, ph, rec["b"])
            acc = None
            acc_arr = False
            if rec["acc"] is not None:
                acc, acc_arr = operand_expr(i, ph, rec["acc"])
            expr = _vector_expr(mw, a, b, acc)
            if not (a_arr or b_arr or acc_arr):
                expr = f"np.zeros(_S, np.int64) + ({expr})"
            emit(f"_r_{i}_{ph} = {expr}")

        # Final register values: the chronologically last writer's last
        # element.
        for r in range(4):
            writers = reg_writers[r]
            if writers:
                k = len(fin_regs)
                fin_index[(i, r)] = k
                fin_regs.append((i, r, k))
                emit(f"_FIN[{k}] = _r_{i}_{max(writers)}[n - 1]")

        # Visible-out materialization: strided stores for write phases,
        # forward fill for the rest (sources are always write residues,
        # so fill order is irrelevant).
        wset = sorted(set(out_writers))
        if not wset:
            emit(f"_vo_{i}[{depth + 1}:] = _vo_{i}[{depth}]")
        else:
            for psi in wset:
                start = depth + 1 + psi
                emit(f"_vo_{i}[{start}:{start} + n * {P}:{P}] "
                     f"= _r_{i}_{psi}")
            for c in range(P):
                if c in wset:
                    continue
                delta = min((c - psi) % P for psi in wset)
                s = c - delta
                t0 = depth + 1 + c
                if s >= 0:
                    s0 = depth + 1 + s
                    emit(f"_vo_{i}[{t0}:{t0} + n * {P}:{P}] "
                         f"= _vo_{i}[{s0}:{s0} + n * {P}:{P}]")
                else:
                    s0 = depth + 1 + s + P
                    emit(f"_vo_{i}[{t0 + P}:{t0} + n * {P}:{P}] "
                         f"= _vo_{i}[{s0}:{s0} + (n - 1) * {P}:{P}]")
                    emit(f"_vo_{i}[{t0}] = _vo_{i}[{depth}]")

    # --- kernel assembly ----------------------------------------------
    params = ["n", "bus", "_INIT", "_FIN"]
    params += [f"_vo_{i}" for i in range(geometry.dnodes)]
    params += [f"_hv_{j}" for j in range(len(host_ports))]
    params += [f"_fv_{j}" for j in range(len(fifo_reads))]
    header = f"def _core({', '.join(params)}):"
    source = "\n".join([header] + lines) + "\n"
    fifo_gates = []
    keys = set(pop_phases) | set(fifo_read_prefixes)
    for key in sorted(keys):
        reads = tuple((prefix, count) for (*k, prefix), count
                      in sorted(fifo_read_counts.items())
                      if tuple(k) == key)
        fifo_gates.append((key, len(pop_phases.get(key, ())),
                           fifo_read_prefixes.get(key), reads))
    return NativeTemplate(steady, source, tuple(init_fill),
                          tuple(fin_regs), tuple(fifo_reads),
                          tuple(fifo_gates))


__all__ = ["NativeLanePlan", "NativePlan", "NativeTemplate",
           "compile_native", "fifo_tail", "native_template",
           "MAX_WINDOW_CELLS"]
