"""Native tier: time-axis-vectorized macro kernels (NumPy / optional Numba).

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
* FIFO reads/pops are schedule-determined, so the window is clipped to
  the **safe prefix** the current occupancy can serve with no underflow
  (:meth:`NativePlan.safe_cycles`); host-port reads are pre-gathered
  into per-port arrays — whole stream windows from a resolver with a
  ``gather`` method, otherwise one poll per cycle in interpreter order;
* an output tap is a slice of its Dnode's ``VO`` array:
  :meth:`NativePlan.run` returns the post-edge output history of every
  Dnode the caller taps.

The generated kernel is one pure-array function ``_core``; when Numba
is importable (and not disabled via :func:`set_numba_enabled`) it is
``@njit``-compiled on first use, falling back to the NumPy version on
any compile or first-call failure.  ``_core`` only ever overwrites its
output arrays, so re-running the Python version after a failed jitted
call is safe.

Eligibility — :func:`compile_native` returns None (the ring then falls
back native → macro → per-cycle plan, and keeps the reason as
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

import itertools
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro import word
from repro.core.isa import Dest, Flag, Opcode, Source
from repro.core.macropath import Ineligible, SteadyPlan, SteadySchedule
from repro.core.switch import PortKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Cap on Dnode-count x window-cycles per kernel call: windows beyond it
#: are split, bounding peak VO-array memory (~8 MB of int64 at the cap).
MAX_WINDOW_CELLS = 1 << 20

#: Sentinel: jit resolution finished, native kernel runs as plain NumPy.
_JIT_OFF = object()

_NUMBA = {"enabled": True}


def set_numba_enabled(enabled: bool) -> None:
    """Gate the optional Numba jit globally (tests force the pure-NumPy
    path with False; plans already jitted keep their compiled kernel)."""
    _NUMBA["enabled"] = bool(enabled)


def numba_available() -> bool:
    """True when Numba can be imported and is not disabled."""
    if not _NUMBA["enabled"]:
        return False
    try:
        import numba  # noqa: F401 - availability probe
    except Exception:
        return False
    return hasattr(numba, "njit")


def _sgn(expr: str) -> str:
    """Branchless signed reinterpretation, elementwise on int64 arrays."""
    return f"((({expr}) ^ 32768) - 32768)"


def _clip(expr: str) -> str:
    """Saturate to signed 16-bit range, then re-encode as raw bits."""
    return f"(np.minimum(np.maximum({expr}, -32768), 32767) & 65535)"


def _vector_expr(mw, a: str, b: Optional[str], acc: Optional[str]) -> str:
    """NumPy array expression for one microword (see macropath's scalar
    twin :func:`~repro.core.macropath._compute_expr`)."""
    op = mw.op
    S = _sgn
    if op is Opcode.MOV:
        return a
    if op is Opcode.ADD:
        return f"(({a}) + ({b})) & 65535"
    if op is Opcode.SUB:
        return f"(({a}) - ({b})) & 65535"
    if op is Opcode.MUL:
        return f"({S(a)} * {S(b)}) & 65535"
    if op is Opcode.MULH:
        return f"(({S(a)} * {S(b)}) >> 16) & 65535"
    if op is Opcode.MAC:
        return f"({S(a)} * {S(b)} + {S(acc)}) & 65535"
    if op is Opcode.MACS:
        return _clip(f"{S(a)} * {S(b)} + {S(acc)}")
    if op is Opcode.MADD or op is Opcode.MSUB:
        coeff = word.to_signed(mw.imm)
        sign = "+" if op is Opcode.MADD else "-"
        return f"({S(a)} {sign} {S(b)} * ({coeff})) & 65535"
    if op is Opcode.AND:
        return f"(({a}) & ({b}))"
    if op is Opcode.OR:
        return f"(({a}) | ({b}))"
    if op is Opcode.XOR:
        return f"(({a}) ^ ({b}))"
    if op is Opcode.NOT:
        return f"(~({a})) & 65535"
    if op is Opcode.NEG:
        return f"(-{S(a)}) & 65535"
    if op is Opcode.ABS:
        return f"np.abs({S(a)}) & 65535"
    if op is Opcode.SHL:
        return f"(({a}) << (({b}) & 15)) & 65535"
    if op is Opcode.SHR:
        return f"({a}) >> (({b}) & 15)"
    if op is Opcode.ASR:
        return f"({S(a)} >> (({b}) & 15)) & 65535"
    if op is Opcode.ABSDIFF:
        return f"np.abs({S(a)} - {S(b)}) & 65535"
    if op is Opcode.MIN:
        return f"np.where({S(a)} <= {S(b)}, {a}, {b})"
    if op is Opcode.MAX:
        return f"np.where({S(a)} >= {S(b)}, {a}, {b})"
    if op is Opcode.ADDSAT:
        return _clip(f"{S(a)} + {S(b)}")
    if op is Opcode.SUBSAT:
        return _clip(f"{S(a)} - {S(b)}")
    if op is Opcode.CMPEQ:
        return f"np.where(({a}) == ({b}), 1, 0)"
    if op is Opcode.CMPLT:
        return f"np.where({S(a)} < {S(b)}, 1, 0)"
    if op is Opcode.AVG2:
        return f"(({S(a)} + {S(b)}) >> 1) & 65535"
    raise Ineligible(f"opcode {op!r} has no native template")


class NativePlan(SteadyPlan):
    """One steady-state configuration compiled to a time-vector kernel."""

    rung = "native"

    __slots__ = ("source", "_core", "_jit", "_meta", "_max_periods")

    def __init__(self, schedule, core, source, meta, max_periods):
        super().__init__(schedule)
        self.source = source
        self._core = core
        self._jit = None
        self._meta = meta
        self._max_periods = max_periods

    def safe_cycles(self, cycles: int) -> int:
        """Longest whole-period prefix of *cycles* this plan can run with
        no FIFO underflow, given the live queue occupancies.

        The schedule fixes pops-per-period and the read offsets within a
        period, so safety is a pure occupancy computation; the unsafe
        remainder falls back to the macro/fast-path tiers, which handle
        underflow (and strict-FIFO errors) cycle-exactly.
        """
        per = self.period
        n = cycles // per
        if n <= 0:
            return 0
        for queue, ppp, maxprefix in self._meta["fifo_gates"]:
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

    def jit_active(self) -> bool:
        """True when the kernel currently runs through a jitted build."""
        return self._jit is not None and self._jit is not _JIT_OFF

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance *cycles* fabric clocks (must be a safe period multiple).

        Returns, for each Dnode index (``layer * width + position``) in
        *taps*, its post-edge output values over the run: element ``t``
        is what an output tap observes after cycle ``t``.
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

    # ------------------------------------------------------------------

    def _resolve_kernel(self):
        jit = self._jit
        if jit is None:
            jit = _JIT_OFF
            if numba_available():
                try:
                    import numba
                    jit = numba.njit(cache=False)(self._core)
                except Exception:
                    jit = _JIT_OFF
            self._jit = jit
        return self._core if jit is _JIT_OFF else jit

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

        # Host gather.  A resolver with a ``gather(channel, c0, T)``
        # method (the data controller's stream windows) hands over each
        # routed channel's T words as one array; stream words were
        # range-checked when pushed.  A plain closure is polled per cycle
        # in the interpreter's routed-port order (layer, position, port),
        # with ring.cycles tracking the simulated cycle so cycle-dependent
        # closures observe exactly what they would per-cycle.  Nothing is
        # committed if a read raises.
        host_ports = meta["host_ports"]
        hv: List[np.ndarray] = []
        gather = getattr(host_in, "gather", None)
        if host_ports and gather is not None:
            windows: Dict[int, np.ndarray] = {}
            for *_, ch in host_ports:
                if ch not in windows:
                    windows[ch] = gather(ch, c0, T)
            hv = [windows[ch] for *_, ch in host_ports]
        elif host_ports:
            if host_in is None:
                l, p, port, ch = host_ports[0]
                raise SimulationError(
                    f"switch {l} routes port {port} of position {p} to "
                    f"host channel {ch}, but no host reader was supplied"
                )
            hv = [np.empty(T, np.int64) for _ in host_ports]
            try:
                for j in range(T):
                    ring.cycles = c0 + j
                    for slot, (_l, _p, _port, ch) in enumerate(host_ports):
                        hv[slot][j] = word.check(
                            host_in(ch), f"host channel {ch}")
            finally:
                ring.cycles = c0

        # FIFO gather: each read site gets its length-n value vector.
        fv: List[np.ndarray] = []
        for queue, prefix, ppp in meta["fifo_reads"]:
            if ppp:
                needed = prefix + (n - 1) * ppp + 1
                head = np.fromiter(
                    itertools.islice(queue, needed), np.int64, needed)
                fv.append(head[prefix::ppp][:n])
            else:
                fv.append(np.zeros(n, np.int64) + queue[0])

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
        args = (n, bus, init, fin, *vos, *hv, *fv)
        core = self._resolve_kernel()
        if core is self._core:
            core(*args)
        else:
            try:
                core(*args)
            except Exception:
                # A jitted build that fails at call time (unsupported
                # construct surfacing late) is retired permanently; the
                # kernel only overwrites its outputs, so re-running the
                # NumPy version recomputes the window exactly.
                self._jit = _JIT_OFF
                self._core(*args)

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
        for queue, pops, stats in meta["fifo_pops"]:
            total = n * pops
            if total == len(queue):
                queue.clear()
            else:
                for _ in range(total):
                    queue.popleft()
            stats.fifo_pops += total
        for stats in meta["all_stats"]:
            stats.cycles += T
        for stats, (ti, ta, tm), _prefix in meta["stat_entries"]:
            stats.instructions += n * ti
            stats.arithmetic_ops += n * ta
            if tm:
                stats.multiplies += n * tm
        # Entry phase is period-preserving (every LIMIT divides the
        # period), so local counters are already correct; only the
        # global clocks move.
        ring.cycles = c0 + T
        ring.native_cycles += T
        return [vos[i][depth + 1:] for i in taps]


def compile_native(ring: "Ring",
                   refusal: Optional[List[str]] = None
                   ) -> Optional[NativePlan]:
    """Compile *ring*'s current configuration into a native plan.

    Returns None when the configuration is ineligible; the caller falls
    back to the macro / per-cycle rungs.  The reason for a refusal
    is appended to *refusal* when a list is given.
    """
    try:
        return _compile(ring)
    except Ineligible as exc:
        if refusal is not None:
            refusal.append(str(exc))
        return None


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


def _compile(ring: "Ring") -> NativePlan:
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
    fifo_reads: List[tuple] = []      # (queue, prefix, pops_per_period)
    fifo_read_prefixes: Dict[Tuple[int, int, int], int] = {}
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
            dn = ring._dnodes[l][p]
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
                    phase, reg_writers[r], ("reg", l, p, r),
                    ("reg", dn.regs._values, r))

            def fifo_operand(phase, ch):
                pops = pop_phases.get((l, p, ch), ())
                prefix = sum(1 for q in pops if q < phase)
                seen = fifo_read_prefixes.get((l, p, ch))
                if seen is None or prefix > seen:
                    fifo_read_prefixes[(l, p, ch)] = prefix
                key = (l, p, ch, prefix)
                slot = fifo_slot.get(key)
                if slot is None:
                    slot = len(fifo_reads)
                    fifo_slot[key] = slot
                    fifo_reads.append(
                        (ring.fifo(l, p, ch), prefix, len(pops)))
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
                        phase, out_writers, ("out", l, p),
                        ("out", dn, 0))
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
            emit(f"{t} = np.empty(n, np.int64)")
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
        emit(f"{t} = np.empty(n * {m}, np.int64)")
        for j, (ph, rec) in enumerate(zip(group, recs)):
            if rec["mw"].op is Opcode.MAC:
                a, _ = operand_expr(i, ph, rec["a"])
                b, _ = operand_expr(i, ph, rec["b"])
                term = f"{_sgn(a)} * {_sgn(b)}"
            else:
                term, _ = operand_expr(
                    i, ph, rec["b"] if rec["a_self"] else rec["a"])
            emit(f"{t}[{j}::{m}] = {term}")
        # The first instance reads the previous period's last one, whose
        # value at window entry is the ("res1", own, init) slot.
        root = recs[0]
        own = (root["acc"] if root["mw"].op is Opcode.MAC
               else root["a"] if root["a_self"] else root["b"])
        emit(f"{t} = (_INIT[{own[2]}] {root['closed']} np.cumsum({t})) "
             f"& 65535")
        for j, ph in enumerate(group):
            emit(f"_r_{i}_{ph} = {t}[{j}::{m}]")

    fin_index: Dict[tuple, int] = {}
    fin_regs: List[tuple] = []

    for i in dn_order:
        l, p = divmod(i, width)
        dn = ring._dnodes[l][p]
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
                expr = f"np.zeros(n, np.int64) + ({expr})"
            emit(f"_r_{i}_{ph} = {expr}")

        # Final register values: the chronologically last writer's last
        # element.
        for r in range(4):
            writers = reg_writers[r]
            if writers:
                k = len(fin_regs)
                fin_index[(i, r)] = k
                fin_regs.append((dn.regs._values, r, k))
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
    body = lines if lines else ["    pass"]
    source = "\n".join([header] + body) + "\n"
    env: Dict[str, object] = {"np": np}
    code = compile(source, f"<native period={P} ring={ring!r}>", "exec")
    exec(code, env)

    # --- runtime metadata ---------------------------------------------
    vo_seed = []
    for i in range(geometry.dnodes):
        l, p = divmod(i, width)
        down = ring._switches[(l + 1) % layers]
        vo_seed.append((ring._dnodes[l][p], down._pipes[p], down))
    pipes = []
    for k in range(layers):
        lu = ring.upstream_layer(k)
        sw = ring._switches[k]
        pipes.append((sw, tuple((sw._pipes[j], dn_index(lu, j))
                                for j in range(width))))

    fifo_gates = []
    fifo_pops = []
    keys = set(pop_phases) | set(fifo_read_prefixes)
    for key in sorted(keys):
        l, p, ch = key
        queue = ring.fifo(l, p, ch)
        ppp = len(pop_phases.get(key, ()))
        maxprefix = fifo_read_prefixes.get(key)
        fifo_gates.append((queue, ppp, maxprefix))
        if ppp:
            fifo_pops.append((queue, ppp, ring._dnodes[l][p].stats))

    meta = {
        "ring": ring,
        "depth": depth,
        "host_ports": host_ports,
        "fifo_reads": fifo_reads,
        "fifo_gates": fifo_gates,
        "fifo_pops": fifo_pops,
        "init_fill": init_fill,
        "vo_seed": vo_seed,
        "pipes": pipes,
        "fin_count": len(fin_regs),
        "fin_regs": fin_regs,
        "all_stats": tuple(dn.stats for dn in ring.all_dnodes()),
        "stat_entries": steady.stat_entries,
    }
    max_periods = max(1, MAX_WINDOW_CELLS // max(1, geometry.dnodes * P))
    return NativePlan(steady, env["_core"], source, meta, max_periods)


__all__ = ["NativePlan", "compile_native", "numba_available",
           "set_numba_enabled", "MAX_WINDOW_CELLS"]
