"""The macro rung: one generated kernel per steady period.

The pre-decoded fast path (:mod:`repro.core.fastpath`) already removes
per-cycle *decode*, but it still pays Python dispatch per cycle: one
closure call per operand fetch, per compute, per commit action, plus the
three thunk loops.  For a *steady-state* configuration the entire cycle
schedule is known at compile time — which microword each Dnode executes
at each phase of the local-sequencer period, which FIFOs pop, how the
feedback pipelines rotate — so this module goes one step further and
**generates straight-line Python source** for one full period of the
fabric and compiles it with :func:`exec`:

* operand fetches become inline expressions over the persistent state
  containers (``regs._values[i]``, ``dn._out``, pipeline ring-buffer
  indexing with the head tracked in a local variable);
* the ALU is inlined per opcode (sign reinterpretation is the branchless
  ``(v ^ 0x8000) - 0x8000``, masking is ``& 0xFFFF``), so a MAC is one
  Python expression instead of five closure calls;
* results live in local temporaries between the evaluate and commit
  phases — the master-slave staging registers are bypassed entirely;
* per-Dnode statistics are hoisted out of the loop and applied in closed
  form per run (pops and underflows, which depend on runtime FIFO
  occupancy, stay inline and exact).

The generated kernel advances ``periods x period`` cycles per call, so
Python-level dispatch is paid once per period.  The period is the
LCM of the local-mode LIMIT values (1 for an all-global fabric); local
slot selection is baked per phase against the counters observed at
compile time, and :meth:`MacroPlan.matches_phase` guards re-entry (the
ring recompiles — or fetches a cached kernel — for a new entry phase).

Bit-identity: for every completed cycle the kernel is bit-identical to
the fast path (and therefore the interpreter) on all architectural state
— OUT latches, register files, pipelines, FIFO contents, pop/underflow
accounting, statistics, host-read order, and error messages.  Inside a
cycle aborted by a strict-FIFO error the macro kernel diverges slightly
further than the fast path already does from the interpreter: staged
writes of the aborted cycle are discarded (they lived in locals) and the
aborted cycle contributes no instruction counts.  Committed state up to
the last completed cycle is identical.

Configurations whose period would bloat the generated source (LCM above
:data:`MAX_PERIOD`, or too many statements overall) are ineligible and
simply stay on the per-cycle fast path.

These kernels are the middle rung of the native ladder that every
compiled scalar ring climbs, taking whatever span of at least one period the
native tier (:mod:`repro.core.nativepath`) refuses or leaves over.  Both
tiers compile from one :class:`SteadySchedule`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

from repro import word
from repro.core.dnode import DnodeMode, _MULTIPLY_OPS, _OP_COST
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.switch import PortKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Largest local-sequencer period (LCM of LIMITs) a macro kernel unrolls.
MAX_PERIOD = 64
#: Cap on period * dnodes, bounding generated-source size.
MAX_UNROLL_CELLS = 4096


def _signed(expr: str) -> str:
    """Branchless signed reinterpretation of a canonical 16-bit value."""
    return f"((({expr}) ^ 32768) - 32768)"


def _compute_expr(mw: MicroWord, a: str, b: Optional[str],
                  acc: Optional[str]) -> str:
    """Inline Python expression for one microword's combinational result.

    Operand expressions are pure (temporaries / attribute / index reads),
    so duplicating them inside a template is safe.
    """
    op = mw.op
    S = _signed
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
        return f"_sat({S(a)} * {S(b)} + {S(acc)})"
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
        return f"abs({S(a)}) & 65535"
    if op is Opcode.SHL:
        return f"(({a}) << (({b}) & 15)) & 65535"
    if op is Opcode.SHR:
        return f"({a}) >> (({b}) & 15)"
    if op is Opcode.ASR:
        return f"({S(a)} >> (({b}) & 15)) & 65535"
    if op is Opcode.ABSDIFF:
        return f"abs({S(a)} - {S(b)}) & 65535"
    if op is Opcode.MIN:
        return f"(({a}) if {S(a)} <= {S(b)} else ({b}))"
    if op is Opcode.MAX:
        return f"(({a}) if {S(a)} >= {S(b)} else ({b}))"
    if op is Opcode.ADDSAT:
        return f"_sat({S(a)} + {S(b)})"
    if op is Opcode.SUBSAT:
        return f"_sat({S(a)} - {S(b)})"
    if op is Opcode.CMPEQ:
        return f"(1 if ({a}) == ({b}) else 0)"
    if op is Opcode.CMPLT:
        return f"(1 if {S(a)} < {S(b)} else 0)"
    if op is Opcode.AVG2:
        return f"(({S(a)} + {S(b)}) >> 1) & 65535"
    raise SimulationError(f"opcode {op!r} has no macro template")


class Ineligible(Exception):
    """A configuration a generated tier cannot compile; the message says
    why (see :attr:`repro.core.ring.Ring.native_refusal`)."""


class SteadySchedule:
    """One steady-state period of a ring's configuration, as both
    generated tiers (this module and :mod:`repro.core.nativepath`) see it.

    * ``period`` — the LCM of the local-mode LIMITs (1 for an all-global
      fabric);
    * ``words[(l, p)]`` — the microword the Dnode executes at each phase
      of the period, starting from the live local counters;
    * ``own_period[(l, p)]`` — the Dnode's own period (LIMIT, or 1);
    * ``counter_entries`` — ``(LocalController, entry counter, limit)``
      per local Dnode: the entry phase the schedule is baked against;
    * ``stat_entries`` — ``(stats, totals, prefix)`` per Dnode that
      executes anything: instruction/op/multiply totals over one period
      and their per-phase prefix sums.

    Raises :class:`Ineligible` when the period would bloat the generated
    source (LCM above :data:`MAX_PERIOD`, or too many Dnode-cycles).
    """

    def __init__(self, ring: "Ring"):
        period = macro_period(ring)
        if (period > MAX_PERIOD
                or period * ring.geometry.dnodes > MAX_UNROLL_CELLS):
            raise Ineligible(
                f"period {period} over the unroll cap ({MAX_PERIOD} "
                f"cycles, {MAX_UNROLL_CELLS} Dnode-cycles)")
        self.period = period
        self.words: Dict[tuple, List[MicroWord]] = {}
        self.own_period: Dict[tuple, int] = {}
        counter_entries = []
        stat_entries = []
        for l, layer in enumerate(ring._dnodes):
            for p, dn in enumerate(layer):
                if dn.mode is DnodeMode.LOCAL:
                    lc = dn.local
                    limit, c0 = lc.limit, lc._counter
                    counter_entries.append((lc, c0, limit))
                    slots = lc.slots()
                    words = [slots[(c0 + j) % limit] for j in range(period)]
                else:
                    limit = 1
                    words = [dn.global_word] * period
                self.words[(l, p)] = words
                self.own_period[(l, p)] = limit
                prefix = [(0, 0, 0)]
                for mw in words:
                    pi, pa, pm = prefix[-1]
                    if mw.op is not Opcode.NOP:
                        pi += 1
                        pa += _OP_COST.get(mw.op, 1)
                        if mw.op in _MULTIPLY_OPS:
                            pm += 1
                    prefix.append((pi, pa, pm))
                if prefix[-1] != (0, 0, 0):
                    stat_entries.append((dn.stats, prefix[-1], tuple(prefix)))
        self.counter_entries = tuple(counter_entries)
        self.stat_entries = tuple(stat_entries)


class SteadyPlan:
    """A kernel compiled from a :class:`SteadySchedule`: valid only while
    the local counters sit at the schedule's entry phase."""

    __slots__ = ("period", "_counter_entries")

    def __init__(self, schedule: SteadySchedule):
        self.period = schedule.period
        self._counter_entries = schedule.counter_entries

    def matches_phase(self) -> bool:
        """True when every local counter sits at the baked entry phase."""
        for lc, c0, _limit in self._counter_entries:
            if lc._counter != c0:
                return False
        return True


class MacroPlan(SteadyPlan):
    """One steady-state configuration fused into a generated kernel."""

    __slots__ = ("_kernel",)

    def __init__(self, schedule: SteadySchedule, kernel):
        super().__init__(schedule)
        self._kernel = kernel

    def run(self, cycles: int, bus: int, host_in) -> None:
        """Advance *cycles* fabric clocks (must be a multiple of period)."""
        self._kernel(cycles // self.period, bus, host_in)


class _Emitter:
    """Source assembly helper: lines at explicit indent levels."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def macro_period(ring: "Ring") -> int:
    """The fabric's steady-state schedule period (LCM of local LIMITs)."""
    period = 1
    for dn in ring.all_dnodes():
        if dn.mode is DnodeMode.LOCAL:
            period = math.lcm(period, dn.local.limit)
    return period


def compile_macro(ring: "Ring",
                  refusal: Optional[List[str]] = None
                  ) -> Optional[MacroPlan]:
    """Fuse *ring*'s current configuration into a macro kernel.

    Returns None when the configuration is ineligible (period too large
    to unroll); the caller stays on the per-cycle fast path.  The reason
    is appended to *refusal* when a list is given.
    """
    try:
        steady = SteadySchedule(ring)
    except Ineligible as exc:
        if refusal is not None:
            refusal.append(str(exc))
        return None
    geometry = ring.geometry
    period = steady.period

    env: Dict[str, object] = {
        "_R": ring,
        "_chk": word.check,
        "_sat": word.saturate_signed,
        "_SE": SimulationError,
    }
    layers, width = geometry.layers, geometry.width
    depth = geometry.pipeline_depth

    # --- bindings over the persistent state containers ----------------
    for l in range(layers):
        sw = ring._switches[l]
        env[f"_sw_{l}"] = sw
        for j in range(width):
            env[f"_pp_{l}_{j}"] = sw._pipes[j]
        for p in range(width):
            dn = ring._dnodes[l][p]
            env[f"_d_{l}_{p}"] = dn
            env[f"_rv_{l}_{p}"] = dn.regs._values
            env[f"_st_{l}_{p}"] = dn.stats

    def fifo_name(l: int, p: int, ch: int) -> str:
        name = f"_q_{l}_{p}_{ch}"
        if name not in env:
            env[name] = ring.fifo(l, p, ch)
        return name

    # --- statement generators -----------------------------------------

    out = _Emitter()

    def emit_host_fetch(indent, l, p, port, channel, sw_index):
        temp = f"_hv_{l}_{p}_{port}"
        out.emit(indent, "if host_in is None:")
        out.emit(indent + 1, "raise _SE(")
        out.emit(indent + 2,
                 f"\"switch {sw_index} routes port {port} of position "
                 f"{p} to host channel {channel}, but no host \"")
        out.emit(indent + 2, "\"reader was supplied\"")
        out.emit(indent + 1, ")")
        out.emit(indent,
                 f"{temp} = _chk(host_in({channel}), "
                 f"'host channel {channel}')")
        return temp

    def emit_fifo_peek(indent, l, p, ch, name):
        q = fifo_name(l, p, ch)
        temp = f"_fv_{l}_{p}_{ch}"
        out.emit(indent, f"if {q}:")
        out.emit(indent + 1, f"{temp} = _chk({q}[0], '{name} FIFO{ch}')")
        out.emit(indent, "elif _R.strict_fifos:")
        out.emit(indent + 1, "raise _SE(")
        out.emit(indent + 2,
                 f"f\"D{l}.{p} read empty FIFO{ch} at cycle {{_cy}}\"")
        out.emit(indent + 1, ")")
        out.emit(indent, "else:")
        out.emit(indent + 1, "_R.fifo_underflows += 1")
        out.emit(indent + 1, f"{temp} = 0")
        return temp

    def emit_fifo_pop(indent, l, p, ch):
        q = fifo_name(l, p, ch)
        out.emit(indent, f"if {q}:")
        out.emit(indent + 1, f"{q}.popleft()")
        out.emit(indent + 1, f"_st_{l}_{p}.fifo_pops += 1")
        out.emit(indent, "elif _R.strict_fifos:")
        out.emit(indent + 1, "raise _SE(")
        out.emit(indent + 2,
                 f"f\"D{l}.{p} popped empty FIFO{ch} at cycle {{_cy}}\"")
        out.emit(indent + 1, ")")
        out.emit(indent, "else:")
        out.emit(indent + 1, "_R.fifo_underflows += 1")

    def rp_expr(sw_index, stage, lane):
        sw = ring._switches[sw_index]
        if not (1 <= stage <= sw.pipeline_depth and 1 <= lane <= sw.width):
            # Out-of-range taps reproduce the interpreter's runtime error.
            return f"_sw_{sw_index}.rp_read({stage}, {lane})", False
        return (f"_pp_{sw_index}_{lane - 1}"
                f"[(_hd_{sw_index} + {stage - 1}) % {depth}]"), True

    def emit_cycle(indent: int, phase: int) -> None:
        """One fabric clock: evals, shifts, commits, cycle accounting."""
        commits: List[tuple] = []   # deferred commit emissions
        for l in range(layers):
            sw = ring._switches[l]
            lu = ring.upstream_layer(l)
            for p in range(width):
                dn = ring._dnodes[l][p]
                mw = steady.words[(l, p)][phase]

                # Routed-port resolution, with the fetches the interpreter
                # performs eagerly for every routed port (host reads and
                # out-of-range feedback taps) emitted unconditionally.
                port_exprs = {}
                for port in (1, 2):
                    src = sw.config.source_for(p, port)
                    kind = src.kind
                    if kind is PortKind.ZERO:
                        port_exprs[port] = "0"
                    elif kind is PortKind.UP:
                        port_exprs[port] = f"_d_{lu}_{src.index}._out"
                    elif kind is PortKind.RP:
                        expr, in_range = rp_expr(l, src.index, src.lane)
                        if not in_range:
                            out.emit(indent, expr)
                        port_exprs[port] = expr
                    elif kind is PortKind.BUS:
                        port_exprs[port] = "bus"
                    elif kind is PortKind.HOST:
                        port_exprs[port] = emit_host_fetch(
                            indent, l, p, port, src.index, l)
                    else:  # pragma: no cover - exhaustive over PortKind
                        raise SimulationError(
                            f"unhandled port source {src!r}")

                pops = []
                if mw.flags & Flag.POP_FIFO1:
                    pops.append(1)
                if mw.flags & Flag.POP_FIFO2:
                    pops.append(2)

                if mw.op is not Opcode.NOP:
                    def operand(src):
                        if src <= Source.R3:
                            return f"_rv_{l}_{p}[{int(src)}]"
                        if src is Source.IN1:
                            return port_exprs[1]
                        if src is Source.IN2:
                            return port_exprs[2]
                        if src is Source.FIFO1:
                            return emit_fifo_peek(indent, l, p, 1, dn.name)
                        if src is Source.FIFO2:
                            return emit_fifo_peek(indent, l, p, 2, dn.name)
                        if src is Source.BUS:
                            return "bus"
                        if src is Source.IMM:
                            return str(mw.imm)
                        if src is Source.SELF:
                            return f"_d_{l}_{p}._out"
                        if src is Source.ZERO:
                            return "0"
                        if src.is_feedback:
                            return rp_expr(l, src.feedback_stage,
                                           src.feedback_lane)[0]
                        raise SimulationError(f"unhandled source {src!r}")

                    a = operand(mw.src_a)
                    b = operand(mw.src_b) if mw.is_binary else None
                    acc = (f"_rv_{l}_{p}[{int(mw.dst)}]"
                           if mw.op in (Opcode.MAC, Opcode.MACS) else None)
                    temp = f"_t_{l}_{p}"
                    out.emit(indent,
                             f"{temp} = {_compute_expr(mw, a, b, acc)}")
                    if mw.dst.is_register:
                        commits.append(
                            ("store",
                             f"_rv_{l}_{p}[{int(mw.dst)}] = {temp}"))
                    if (mw.dst is Dest.OUT
                            or mw.flags & Flag.WRITE_OUT):
                        commits.append(
                            ("store", f"_d_{l}_{p}._out = {temp}"))
                for ch in pops:
                    commits.append(("pop", l, p, ch))

        # Shifts: before commits, so pipelines capture this cycle's
        # forward-visible OUT values (same order as the fast path).
        for k in range(layers):
            lu = ring.upstream_layer(k)
            out.emit(indent, f"_hd_{k} = (_hd_{k} - 1) % {depth}")
            for j in range(width):
                out.emit(indent,
                         f"_pp_{k}_{j}[_hd_{k}] = _d_{lu}_{j}._out")

        for entry in commits:
            if entry[0] == "store":
                out.emit(indent, entry[1])
            else:
                _tag, l, p, ch = entry
                emit_fifo_pop(indent, l, p, ch)

        out.emit(indent, "_cy += 1")
        out.emit(indent, "_R.cycles = _cy")

    # --- kernel assembly ----------------------------------------------
    out.emit(0, "def _kernel(periods, bus, host_in):")
    out.emit(1, "_cy = _R.cycles")
    out.emit(1, "_cy0 = _cy")
    for k in range(layers):
        out.emit(1, f"_hd_{k} = _sw_{k}._head")
    out.emit(1, "try:")
    out.emit(2, "for _ in range(periods):")
    for phase in range(period):
        emit_cycle(3, phase)
    out.emit(1, "finally:")
    for k in range(layers):
        out.emit(2, f"_sw_{k}._head = _hd_{k}")
    out.emit(2, "_finish(_cy - _cy0)")

    # --- hoisted statistics (closed-form, exact per completed cycle) --
    def _finish(executed: int, _ring=ring, _period=period,
                _all=tuple(dn.stats for dn in ring.all_dnodes()),
                _entries=steady.stat_entries,
                _counters=steady.counter_entries) -> None:
        if not executed:
            return
        _ring.macro_cycles += executed
        full, extra = divmod(executed, _period)
        for stats in _all:
            stats.cycles += executed
        for stats, totals, prefix in _entries:
            ti, ta, tm = totals
            pi, pa, pm = prefix[extra]
            stats.instructions += full * ti + pi
            stats.arithmetic_ops += full * ta + pa
            if tm or pm:
                stats.multiplies += full * tm + pm
        for lc, c0, limit in _counters:
            lc._counter = (c0 + executed) % limit

    env["_finish"] = _finish

    source = out.source()
    code = compile(source, f"<macro period={period} ring={ring!r}>", "exec")
    exec(code, env)
    return MacroPlan(steady, env["_kernel"])


__all__ = ["Ineligible", "MacroPlan", "SteadyPlan", "SteadySchedule",
           "compile_macro", "macro_period", "MAX_PERIOD",
           "MAX_UNROLL_CELLS"]
