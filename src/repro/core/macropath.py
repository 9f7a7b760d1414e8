"""The macro rung: one generated kernel per steady configuration.

The paper's scalability argument (§4.2) rests on the configuration being
*static between controller writes*: routing, microwords and modes are
latched state, and the clock merely moves data through them.  For such a
configuration the cycle schedule is known at compile time — which
microwords each Dnode's sequencer selects from, which FIFOs pop, how the
feedback pipelines rotate — so this module **generates straight-line
Python source** for one fabric clock, inside a loop over the run's
cycles, and compiles it with :func:`exec`:

* operand fetches become inline expressions over the persistent state
  containers (``regs._values[i]``, ``dn._out``, pipeline ring-buffer
  indexing with the head tracked in a local variable);
* the ALU is inlined per opcode (sign reinterpretation is the branchless
  ``(v ^ 0x8000) - 0x8000``, masking is ``& 0xFFFF``), so a MAC is one
  Python expression;
* results live in local temporaries between the evaluate and commit
  phases — the master-slave staging registers are bypassed entirely;
* per-Dnode statistics are hoisted out of the loop and applied in closed
  form per run (pops and underflows, which depend on runtime FIFO
  occupancy, stay inline and exact).

Each Dnode selects its microword as the paper's local sequencer does: a
global-mode Dnode, or a local one with LIMIT 1, runs straight-line code;
a local Dnode with a longer loop reads its counter when the kernel is
entered, advances it once per cycle, and its evaluate and its commit
each branch on it (slots that generate the same code share one branch).
Source therefore grows with the sum of the LIMITs, never with their LCM,
so every configuration compiles, and one kernel serves every entry
phase: a controller-stepped cycle, a sub-period remainder and a
thousand-cycle window all run the same code.  Statistics and counters
are settled per Dnode from its own LIMIT and its entry counter.

Bit-identity: for every completed cycle the kernel is bit-identical to
the interpreter on all architectural state — OUT latches, register
files, pipelines, FIFO contents, pop/underflow accounting, statistics,
host-read order, and error messages.  A strict-FIFO error aborts a run
cycle-exactly: every cycle before it is committed, the message names the
same Dnode, FIFO and cycle as the interpreter's, and ``ring.cycles``
stays on the aborted cycle, which adds no statistics and does not
advance the local counters.  The aborted cycle's partial state is the
kernel's own: an empty read commits none of its writes (they lived in
locals), and an empty pop comes after the pipelines shifted and after
the stores and pops of the Dnodes before it (and the popping Dnode's own
stores) landed.

These kernels are the second rung of the ladder every compiled scalar
ring climbs (native, then macro), taking every span the native tier
(:mod:`repro.core.nativepath`) refuses or leaves over, and every cycle
:meth:`~repro.core.ring.Ring.step` advances.  Both tiers compile from
one :class:`SteadySchedule` and serve the same window protocol
(:meth:`MacroPlan.run`): a host reader with a ``gather`` method hands
over each routed channel's words for the whole window, and the caller
gets each tapped Dnode's post-edge outputs back as an array.

Compilation is split in two.  :func:`macro_template` generates the
source and compiles it into a :class:`MacroTemplate` that holds no
ring: the code object, the schedule by Dnode index and the FIFOs it
touches.  Binding (:class:`MacroPlan`) executes that code object in
globals naming one ring's state containers, which costs microseconds,
so the ring can keep templates in the process-wide kernel cache and
bind them to every fresh ring (see :mod:`repro.core.plancache`).

The same emitter serves a batch ring's lanes, as the native one does:
``macro_template(ring, lanes=True)`` emits the kernel over a
:class:`~repro.core.batchpath.BatchRing`'s lane arrays, every value a
row of one word per lane and every op the NumPy expression the native
kernels use (:func:`_vector_expr`), and :class:`MacroLanePlan` binds it
(cached under tier ``"macro_lanes"``).  It is the second rung of the
lane ladder, taking every lane cycle native does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro import word
from repro.core.dnode import DnodeMode, _MULTIPLY_OPS, _OP_COST
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.switch import PortKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring


def _signed(expr: str) -> str:
    """Branchless signed reinterpretation of a canonical 16-bit value
    (elementwise on arrays)."""
    return f"((({expr}) ^ 32768) - 32768)"


def _clip(expr: str) -> str:
    """Saturate to signed 16-bit range, then re-encode as raw bits."""
    return f"(np.minimum(np.maximum({expr}, -32768), 32767) & 65535)"


def _compute_expr(mw: MicroWord, a: str, b: Optional[str],
                  acc: Optional[str], vector: bool = False,
                  coeff: Optional[str] = None) -> str:
    """Inline Python expression for one microword's combinational result.

    Operand expressions are pure (temporaries / attribute / index reads),
    so duplicating them inside a template is safe.  With *vector* the
    operands may be NumPy arrays and the expression is elementwise (see
    :func:`_vector_expr`).  *coeff* replaces a ``MADD``/``MSUB``
    coefficient (the signed immediate) with an expression.
    """
    op = mw.op
    S = _signed
    if vector:
        sat, absolute = _clip, "np.abs"

        def pick(cond: str, x: str, y: str) -> str:
            return f"np.where({cond}, {x}, {y})"
    else:
        absolute = "abs"

        def sat(expr: str) -> str:
            return f"_sat({expr})"

        def pick(cond: str, x: str, y: str) -> str:
            return f"(({x}) if {cond} else ({y}))"
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
        return sat(f"{S(a)} * {S(b)} + {S(acc)}")
    if op is Opcode.MADD or op is Opcode.MSUB:
        if coeff is None:
            coeff = str(word.to_signed(mw.imm))
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
        return f"{absolute}({S(a)}) & 65535"
    if op is Opcode.SHL:
        return f"(({a}) << (({b}) & 15)) & 65535"
    if op is Opcode.SHR:
        return f"({a}) >> (({b}) & 15)"
    if op is Opcode.ASR:
        return f"({S(a)} >> (({b}) & 15)) & 65535"
    if op is Opcode.ABSDIFF:
        return f"{absolute}({S(a)} - {S(b)}) & 65535"
    if op is Opcode.MIN:
        return pick(f"{S(a)} <= {S(b)}", a, b)
    if op is Opcode.MAX:
        return pick(f"{S(a)} >= {S(b)}", a, b)
    if op is Opcode.ADDSAT:
        return sat(f"{S(a)} + {S(b)}")
    if op is Opcode.SUBSAT:
        return sat(f"{S(a)} - {S(b)}")
    if op is Opcode.CMPEQ:
        return pick(f"({a}) == ({b})", "1", "0")
    if op is Opcode.CMPLT:
        return pick(f"{S(a)} < {S(b)}", "1", "0")
    if op is Opcode.AVG2:
        return f"(({S(a)} + {S(b)}) >> 1) & 65535"
    raise Ineligible(f"opcode {op!r} has no generated form")


def _vector_expr(mw: MicroWord, a: str, b: Optional[str],
                 acc: Optional[str], coeff: Optional[str] = None) -> str:
    """NumPy array expression for one microword, elementwise over
    operand arrays: the one the native kernels and the macro lane
    kernels share (saturation clips, comparisons select with
    ``np.where``)."""
    return _compute_expr(mw, a, b, acc, vector=True, coeff=coeff)


class Ineligible(Exception):
    """A configuration a generated tier cannot compile; the message says
    why (see :attr:`repro.core.ring.Ring.native_refusal`)."""


def _fifo_error(message: str, host_reads: tuple) -> SimulationError:
    """A strict-FIFO error raised inside a macro kernel.

    ``host_reads`` names the host channels the aborted cycle read before
    the error, in the interpreter's read order.  A window reader serves
    those words from its gathered arrays without touching the channels,
    so the caller replays the reads to count a dry port's underrun.
    """
    exc = SimulationError(message)
    exc.host_reads = host_reads
    return exc


def _tap_rows(outs: List[list], cycles: int) -> np.ndarray:
    """The taps' per-cycle output lists as one ``(taps, cycles)`` array."""
    if not outs:
        return np.empty((0, cycles), np.int64)
    return np.array(outs, np.int64)


class SteadySchedule:
    """A ring's steady configuration as both generated tiers (this module
    and :mod:`repro.core.nativepath`) see it.

    Ring-free: Dnodes are named by their flat index ``layer * width +
    position``, so one schedule serves every ring with the same geometry
    and configuration (see :mod:`repro.core.plancache`).

    * ``slots[(l, p)]`` — the microwords the Dnode's sequencer selects
      from, in counter order: its first LIMIT local slots, or its one
      global word;
    * ``sequenced`` — ``(node, limit)`` per local Dnode with a LIMIT
      above 1, whose counter selects its microword each cycle;
    * ``stat_entries`` — ``(node, limit, totals, prefix)`` per Dnode
      that executes anything: instruction/op/multiply totals over its
      slots and their prefix sums by counter;
    * ``host_ports`` — ``(layer, position, port, channel)`` per routed
      host port, in the interpreter's read order (layer, position,
      port): every routed port is read every cycle; ``host_channels``
      is the set of their channels.
    """

    def __init__(self, ring: "Ring"):
        self.slots: Dict[tuple, tuple] = {}
        sequenced = []
        stat_entries = []
        width = ring.geometry.width
        for l, layer in enumerate(ring._dnodes):
            for p, dn in enumerate(layer):
                node = l * width + p
                if dn.mode is DnodeMode.LOCAL:
                    words = tuple(dn.local.slots()[:dn.local.limit])
                else:
                    words = (dn.global_word,)
                self.slots[(l, p)] = words
                limit = len(words)
                if limit > 1:
                    sequenced.append((node, limit))
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
                    stat_entries.append((node, limit, prefix[-1],
                                         tuple(prefix)))
        self.sequenced = tuple(sequenced)
        self.stat_entries = tuple(stat_entries)
        host_ports = []
        for l, sw in enumerate(ring._switches):
            for p in range(width):
                for port in (1, 2):
                    src = sw.config.source_for(p, port)
                    if src.kind is PortKind.HOST:
                        host_ports.append((l, p, port, src.index))
        self.host_ports = tuple(host_ports)
        self.host_channels = frozenset(ch for *_, ch in host_ports)


class SteadyPlan:
    """A kernel template bound to one ring.

    ``rung`` names the tier (``"native"`` or ``"macro"``);
    ``template`` is the ring-free kernel it was bound from;
    ``host_channels`` are the host channels the configuration routes
    (each read every cycle).  A macro plan reads the sequencer counters
    when it runs, so it serves every phase; a native plan is baked
    against one and overrides :meth:`matches_phase`.
    """

    rung = ""

    __slots__ = ("template", "host_channels")

    def __init__(self, template):
        self.template = template
        self.host_channels = template.schedule.host_channels

    def matches_phase(self) -> bool:
        """True when the plan runs from the live sequencer counters."""
        return True


class MacroPlan(SteadyPlan):
    """A :class:`MacroTemplate` bound to one ring."""

    rung = "macro"

    __slots__ = ("_kernel", "_ring", "_nodes", "_stat_entries",
                 "_counters")

    def __init__(self, template: "MacroTemplate", ring: "Ring",
                 env: Optional[Dict[str, object]] = None):
        super().__init__(template)
        nodes = tuple(ring.all_dnodes())
        schedule = template.schedule
        self._ring = ring
        self._nodes = nodes
        self._stat_entries = tuple(
            (nodes[i].stats, nodes[i].local if limit > 1 else None, limit,
             totals, prefix)
            for i, limit, totals, prefix in schedule.stat_entries)
        self._counters = tuple((nodes[i].local, limit)
                               for i, limit in schedule.sequenced)
        if env is None:
            env = {
                "_R": ring,
                "_chk": word.check,
                "_sat": word.saturate_signed,
                "_SE": SimulationError,
                "_fifo_error": _fifo_error,
            }
            for l, sw in enumerate(ring._switches):
                env[f"_sw_{l}"] = sw
                for j, pipe in enumerate(sw._pipes):
                    env[f"_pp_{l}_{j}"] = pipe
                for p, dn in enumerate(ring._dnodes[l]):
                    env[f"_d_{l}_{p}"] = dn
                    env[f"_lc_{l}_{p}"] = dn.local
                    env[f"_rv_{l}_{p}"] = dn.regs._values
                    env[f"_st_{l}_{p}"] = dn.stats
            for l, p, ch in template.fifos:
                env[f"_q_{l}_{p}_{ch}"] = ring.fifo(l, p, ch)
        exec(template.code, env)
        # Popped, so the kernel's globals do not hold the kernel: a
        # retired engine is then freed by reference counting alone.
        self._kernel = env.pop("_kernel")

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance *cycles* fabric clocks from the live sequencer
        counters.

        A *host_in* with a ``gather(channel, c0, cycles)`` method hands
        over each routed channel's words once for the whole run (stream
        words were range-checked when pushed); a plain closure is called
        per read and its words are checked.  Returns one array with a
        row per Dnode index (``layer * width + position``) in *taps*:
        its post-edge outputs, element ``t`` being what an output tap
        observes after cycle ``t``.

        Every completed cycle is committed.  An error that aborts the
        run (a strict-FIFO error, say) keeps the cycles before it and
        carries ``window_taps``, the tap outputs of those cycles; a
        strict-FIFO error also carries ``host_reads`` (see
        :func:`_fifo_error`).
        """
        ring = self._ring
        c0 = ring.cycles
        windows = None
        gather = getattr(host_in, "gather", None)
        if gather is not None:
            windows = {ch: gather(ch, c0, cycles).tolist()
                       for ch in self.host_channels}
        outs: List[list] = [[] for _ in taps]
        sinks = tuple((self._nodes[i], out.append)
                      for i, out in zip(taps, outs))
        try:
            self._kernel(cycles, bus, host_in, windows, sinks)
        except Exception as exc:
            exc.window_taps = _tap_rows(outs, ring.cycles - c0)
            raise
        finally:
            self._finish(ring.cycles - c0)
        return _tap_rows(outs, cycles)

    def _finish(self, executed: int) -> None:
        """The hoisted statistics and counter advance of *executed*
        kernel cycles, settled per Dnode in closed form from its LIMIT
        and its entry counter (which the kernel leaves in place, so the
        statistics read it before the counters move on)."""
        if not executed:
            return
        self._ring.macro_cycles += executed
        for dn in self._nodes:
            dn.stats.cycles += executed
        for stats, lc, limit, totals, prefix in self._stat_entries:
            c0 = 0 if lc is None else lc._counter
            full, extra = divmod(c0 + executed, limit)
            ti, ta, tm = totals
            pi, pa, pm = prefix[extra]
            si, sa, sm = prefix[c0]
            stats.instructions += full * ti + pi - si
            stats.arithmetic_ops += full * ta + pa - sa
            if tm:
                stats.multiplies += full * tm + pm - sm
        for lc, limit in self._counters:
            lc._counter = (lc._counter + executed) % limit


class MacroLanePlan(MacroPlan):
    """A lane :class:`MacroTemplate` bound to one batch engine.

    The kernel runs the scalar kernel's cycles over the engine's
    ``outs`` / ``regs`` / ``pipes`` lane arrays and lane FIFOs: every
    operand is a row of one word per lane, an op is one NumPy expression
    (:func:`_vector_expr`), and FIFO peeks and pops count underflows and
    pops per lane.  Control is lane-invariant, so the local counters,
    statistics and cycle count stay the ring's, advanced in closed form
    exactly as on a scalar ring.
    """

    __slots__ = ("_outs", "_batch")

    def __init__(self, template: "MacroTemplate", engine):
        ring = engine.ring
        env: Dict[str, object] = {
            "np": np,
            "_R": ring,
            "_E": engine,
            "_hw": engine._host_word,
            "_SE": SimulationError,
            "_fifo_error": _fifo_error,
            "_U": engine.lane_underflows,
            "_O": engine.outs,
            "_PP": engine.pipes,
            "_UP": np.array([ring.upstream_layer(k)
                             for k in range(ring.geometry.layers)]),
        }
        for l, sw in enumerate(ring._switches):
            env[f"_sw_{l}"] = sw
            for j in range(ring.geometry.width):
                env[f"_pp_{l}_{j}"] = engine.pipes[l, j]
                env[f"_o_{l}_{j}"] = engine.outs[l, j]
                env[f"_rv_{l}_{j}"] = engine.regs[l, j]
                env[f"_fp_{l}_{j}"] = engine.lane_fifo_pops[(l, j)]
                env[f"_lc_{l}_{j}"] = ring._dnodes[l][j].local
        for key in template.fifos:
            env["_q_%d_%d_%d" % key] = engine._fifo_for(key)
        super().__init__(template, ring, env)
        self._batch = engine.batch
        self._outs = engine.outs.reshape(-1, engine.batch)

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance every lane *cycles* fabric clocks from the live
        sequencer counters (see :meth:`MacroPlan.run`).

        *host_in* may return a word or a ``(lanes,)`` array per read; a
        window reader's ``gather`` hands over ``(cycles, lanes)`` arrays.
        Returns one ``(taps, cycles, lanes)`` array of post-edge outputs,
        a row per Dnode index in *taps*.
        """
        ring = self._ring
        c0 = ring.cycles
        windows = None
        gather = getattr(host_in, "gather", None)
        if gather is not None:
            windows = {ch: gather(ch, c0, cycles)
                       for ch in self.host_channels}
        outs = np.empty((len(taps), cycles, self._batch), np.int64)
        sinks = tuple((self._outs[i], out) for i, out in zip(taps, outs))
        try:
            self._kernel(cycles, bus, host_in, windows, sinks)
        finally:
            self._finish(ring.cycles - c0)
        return outs


class MacroTemplate:
    """A compiled macro kernel with no ring in it.

    ``code`` defines ``_kernel`` over the names a :class:`MacroPlan`
    puts in its globals: each Dnode, local sequencer, register file,
    statistics record, switch and pipeline lane by position, the FIFOs
    in ``fifos`` and the ring (a lane kernel's, over the lane rows and
    lane FIFOs a :class:`MacroLanePlan` binds).
    """

    __slots__ = ("schedule", "code", "fifos")

    def __init__(self, schedule: SteadySchedule, code, fifos):
        self.schedule = schedule
        self.code = code
        self.fifos = fifos

    def bind(self, ring: "Ring") -> MacroPlan:
        """Exec the shared code over *ring*'s state containers."""
        return MacroPlan(self, ring)

    def bind_lanes(self, engine) -> MacroLanePlan:
        """Exec the shared lane code over a batch *engine*'s lanes."""
        return MacroLanePlan(self, engine)


class _Emitter:
    """Source assembly helper: lines at explicit indent levels."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_dispatch(out: _Emitter, indent: int, counter: str,
                   blocks: List[List[str]]) -> bool:
    """Emit one code block per sequencer slot, selected by *counter*.

    Slots whose blocks are the same text share one branch, and code
    every slot shares is emitted straight.  Returns True when a branch
    reads *counter*.
    """
    groups: Dict[tuple, List[int]] = {}
    for slot, block in enumerate(blocks):
        groups.setdefault(tuple(block), []).append(slot)
    if len(groups) == 1:
        for line in blocks[0]:
            out.emit(indent, line)
        return False
    for n, (block, slots) in enumerate(groups.items()):
        if n == len(groups) - 1:
            out.emit(indent, "else:")
        else:
            test = (f"{counter} == {slots[0]}" if len(slots) == 1
                    else f"{counter} in {tuple(slots)}")
            out.emit(indent, f"{'elif' if n else 'if'} {test}:")
        for line in block or ("pass",):
            out.emit(indent + 1, line)
    return True


def compile_macro(ring: "Ring", engine=None) -> MacroPlan:
    """Fuse *ring*'s current configuration into a macro kernel.

    Returns the :class:`MacroTemplate` bound to *ring* or, given the
    ring's batch *engine*, the lane template bound to its lanes.  Every
    configuration compiles.
    """
    if engine is not None:
        return macro_template(ring, lanes=True).bind_lanes(engine)
    return macro_template(ring).bind(ring)


def macro_template(ring: "Ring", lanes: bool = False) -> MacroTemplate:
    """Generate and compile the macro kernel for *ring*'s configuration.

    With *lanes* the kernel runs a batch engine's lanes
    (:class:`MacroLanePlan`): the same schedule and cycle structure, with
    every value a row of one word per lane.
    """
    steady = SteadySchedule(ring)
    geometry = ring.geometry
    layers, width = geometry.layers, geometry.width
    depth = geometry.pipeline_depth
    fifos: List[tuple] = []

    def fifo_name(l: int, p: int, ch: int) -> str:
        if (l, p, ch) not in fifos:
            fifos.append((l, p, ch))
        return f"_q_{l}_{p}_{ch}"

    # Where the two variants name state differently: a lane kernel's OUT
    # latches are rows of the engine's outs array, stored into in place,
    # and its pipelines share the engine's one rotation head.
    if lanes:
        def out_of(l: int, p: int) -> str:
            return f"_o_{l}_{p}"

        def store_out(l: int, p: int, value: str) -> str:
            return f"_o_{l}_{p}[:] = {value}"

        def head(k: int) -> str:
            return "_hd"
    else:
        def out_of(l: int, p: int) -> str:
            return f"_d_{l}_{p}._out"

        def store_out(l: int, p: int, value: str) -> str:
            return f"_d_{l}_{p}._out = {value}"

        def head(k: int) -> str:
            return f"_hd_{k}"

    # --- statement generators -----------------------------------------

    # Host channels the cycle being emitted has read so far.
    cycle_reads: List[int] = []

    def emit_host_fetch(out, indent, l, p, port, channel, sw_index):
        temp = f"_hv_{l}_{p}_{port}"
        cycle_reads.append(channel)
        out.emit(indent, "if _gw is None:")
        out.emit(indent + 1, "if host_in is None:")
        out.emit(indent + 2, "raise _SE(")
        out.emit(indent + 3,
                 f"\"switch {sw_index} routes port {port} of position "
                 f"{p} to host channel {channel}, but no host \"")
        out.emit(indent + 3, "\"reader was supplied\"")
        out.emit(indent + 2, ")")
        if lanes:
            out.emit(indent + 1,
                     f"{temp} = _hw(host_in({channel}), {channel})")
        else:
            out.emit(indent + 1,
                     f"{temp} = _chk(host_in({channel}), "
                     f"'host channel {channel}')")
        out.emit(indent, "else:")
        out.emit(indent + 1, f"{temp} = _g_{channel}[_cy - _cy0]")
        return temp

    def emit_fifo_error(out, indent, l, p, ch, what):
        out.emit(indent, "raise _fifo_error(")
        out.emit(indent + 1,
                 f"f\"D{l}.{p} {what} empty FIFO{ch} at cycle {{_cy}}\", "
                 f"{tuple(cycle_reads)!r}")
        out.emit(indent, ")")

    def emit_fifo_peek(out, indent, l, p, ch, name):
        q = fifo_name(l, p, ch)
        temp = f"_fv_{l}_{p}_{ch}"
        if lanes:
            # Empty lanes read 0 and each counts one underflow.
            out.emit(indent, f"{temp}, _fe = {q}.peek()")
            out.emit(indent, "if _fe.any():")
            out.emit(indent + 1, "if _R.strict_fifos:")
            emit_fifo_error(out, indent + 2, l, p, ch, "read")
            out.emit(indent + 1, "_U[:] += _fe")
            return temp
        out.emit(indent, f"{temp} = {q}.peek()")
        out.emit(indent, f"if {temp} is not None:")
        out.emit(indent + 1, f"{temp} = _chk({temp}, '{name} FIFO{ch}')")
        out.emit(indent, "elif _R.strict_fifos:")
        emit_fifo_error(out, indent + 1, l, p, ch, "read")
        out.emit(indent, "else:")
        out.emit(indent + 1, "_R.fifo_underflows += 1")
        out.emit(indent + 1, f"{temp} = 0")
        return temp

    def emit_fifo_pop(out, indent, l, p, ch):
        q = fifo_name(l, p, ch)
        if lanes:
            out.emit(indent, f"_fe = {q}.count == 0")
            out.emit(indent, "if _fe.any():")
            out.emit(indent + 1, "if _R.strict_fifos:")
            emit_fifo_error(out, indent + 2, l, p, ch, "popped")
            out.emit(indent + 1, "_U[:] += _fe")
            out.emit(indent, f"_fp_{l}_{p}[:] += {q}.drop(1)")
            return
        out.emit(indent, f"if {q}.drop(1):")
        out.emit(indent + 1, f"_st_{l}_{p}.fifo_pops += 1")
        out.emit(indent, "elif _R.strict_fifos:")
        emit_fifo_error(out, indent + 1, l, p, ch, "popped")
        out.emit(indent, "else:")
        out.emit(indent + 1, "_R.fifo_underflows += 1")

    def rp_expr(sw_index, stage, lane):
        sw = ring._switches[sw_index]
        if not (1 <= stage <= sw.pipeline_depth and 1 <= lane <= sw.width):
            # Out-of-range taps reproduce the interpreter's runtime error.
            return f"_sw_{sw_index}.rp_read({stage}, {lane})", False
        return (f"_pp_{sw_index}_{lane - 1}"
                f"[({head(sw_index)} + {stage - 1}) % {depth}]"), True

    def evaluate(l, p, name, mw, port_exprs) -> List[str]:
        """One slot's evaluate: its FIFO peeks and its result temp."""
        out = _Emitter()
        if mw.op is Opcode.NOP:
            return out.lines

        def operand(src):
            if src <= Source.R3:
                return f"_rv_{l}_{p}[{int(src)}]"
            if src is Source.IN1:
                return port_exprs[1]
            if src is Source.IN2:
                return port_exprs[2]
            if src is Source.FIFO1:
                return emit_fifo_peek(out, 0, l, p, 1, name)
            if src is Source.FIFO2:
                return emit_fifo_peek(out, 0, l, p, 2, name)
            if src is Source.BUS:
                return "bus"
            if src is Source.IMM:
                return str(mw.imm)
            if src is Source.SELF:
                return out_of(l, p)
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
        if not lanes:
            expr = _compute_expr(mw, a, b, acc)
        elif mw.op is Opcode.MOV:
            # A lane operand may be a view of state that a commit below
            # overwrites: copy it.
            expr = f"np.copy({a})"
        else:
            expr = _vector_expr(mw, a, b, acc)
        out.emit(0, f"_t_{l}_{p} = {expr}")
        return out.lines

    def commit(l, p, mw) -> List[str]:
        """One slot's commit: its stores, then its FIFO pops."""
        out = _Emitter()
        temp = f"_t_{l}_{p}"
        if mw.op is not Opcode.NOP:
            if mw.dst.is_register:
                out.emit(0, f"_rv_{l}_{p}[{int(mw.dst)}] = {temp}")
            if mw.dst is Dest.OUT or mw.flags & Flag.WRITE_OUT:
                out.emit(0, store_out(l, p, temp))
        if mw.flags & Flag.POP_FIFO1:
            emit_fifo_pop(out, 0, l, p, 1)
        if mw.flags & Flag.POP_FIFO2:
            emit_fifo_pop(out, 0, l, p, 2)
        return out.lines

    # --- one fabric clock ---------------------------------------------
    # Evaluates, shifts, commits, counter advances, cycle accounting and
    # tap samples, at the loop body's indent.
    body = _Emitter()
    indent = 3
    # Dnodes whose code branches on their counter: (layer, position).
    branching = set()
    for l in range(layers):
        sw = ring._switches[l]
        lu = ring.upstream_layer(l)
        for p in range(width):
            # Routed-port resolution, with the fetches the interpreter
            # performs eagerly for every routed port (host reads and
            # out-of-range feedback taps) emitted unconditionally, before
            # the Dnode's microword is selected.
            port_exprs = {}
            for port in (1, 2):
                src = sw.config.source_for(p, port)
                kind = src.kind
                if kind is PortKind.ZERO:
                    port_exprs[port] = "0"
                elif kind is PortKind.UP:
                    port_exprs[port] = out_of(lu, src.index)
                elif kind is PortKind.RP:
                    expr, in_range = rp_expr(l, src.index, src.lane)
                    if not in_range:
                        body.emit(indent, expr)
                    port_exprs[port] = expr
                elif kind is PortKind.BUS:
                    port_exprs[port] = "bus"
                elif kind is PortKind.HOST:
                    port_exprs[port] = emit_host_fetch(
                        body, indent, l, p, port, src.index, l)
                else:  # pragma: no cover - exhaustive over PortKind
                    raise SimulationError(
                        f"unhandled port source {src!r}")
            name = ring._dnodes[l][p].name
            if _emit_dispatch(body, indent, f"_c_{l}_{p}", [
                    evaluate(l, p, name, mw, port_exprs)
                    for mw in steady.slots[(l, p)]]):
                branching.add((l, p))

    # Shifts: before commits, so pipelines capture this cycle's
    # forward-visible OUT values.
    if lanes:
        body.emit(indent, f"_hd = (_hd - 1) % {depth}")
        body.emit(indent, "_PP[:, :, _hd] = _O[_UP]")
    else:
        for k in range(layers):
            lu = ring.upstream_layer(k)
            body.emit(indent, f"_hd_{k} = (_hd_{k} - 1) % {depth}")
            for j in range(width):
                body.emit(indent,
                          f"_pp_{k}_{j}[_hd_{k}] = _d_{lu}_{j}._out")

    for l in range(layers):
        for p in range(width):
            words = steady.slots[(l, p)]
            counter = f"_c_{l}_{p}"
            if _emit_dispatch(body, indent, counter,
                              [commit(l, p, mw) for mw in words]):
                branching.add((l, p))
            if (l, p) in branching:
                body.emit(indent,
                          f"{counter} = ({counter} + 1) % {len(words)}")

    body.emit(indent, "_cy += 1")
    body.emit(indent, "_R.cycles = _cy")
    body.emit(indent, "for _tn, _ta in _tb:")
    if lanes:
        body.emit(indent + 1, "_ta[_cy - _cy0 - 1] = _tn")
    else:
        body.emit(indent + 1, "_ta(_tn._out)")

    # --- kernel assembly ----------------------------------------------
    # _gw: None (call host_in per read) or {channel: the window's
    # words}; _tb: (dnode, append) per tap, fed each cycle's post-edge
    # output (on lanes, (OUT row, record) per tap, the row stored at the
    # cycle's index); _c_l_p: a branching Dnode's counter, read at entry
    # (the plan settles the live counters after the run).
    out = _Emitter()
    out.emit(0, "def _kernel(cycles, bus, host_in, _gw, _tb):")
    out.emit(1, "_cy = _R.cycles")
    out.emit(1, "_cy0 = _cy")
    out.emit(1, "_end = _cy + cycles")
    if steady.host_ports:
        out.emit(1, "if _gw is not None:")
        for ch in sorted(steady.host_channels):
            out.emit(2, f"_g_{ch} = _gw[{ch}]")
    if lanes:
        out.emit(1, "_hd = _E._head")
    else:
        for k in range(layers):
            out.emit(1, f"_hd_{k} = _sw_{k}._head")
    for l, p in sorted(branching):
        out.emit(1, f"_c_{l}_{p} = _lc_{l}_{p}._counter")
    out.emit(1, "try:")
    out.emit(2, "while _cy != _end:")
    out.lines += body.lines
    out.emit(1, "finally:")
    if lanes:
        out.emit(2, "_E._head = _hd")
    else:
        for k in range(layers):
            out.emit(2, f"_sw_{k}._head = _hd_{k}")

    code = compile(out.source(), "<macro lanes>" if lanes else "<macro>",
                   "exec")
    return MacroTemplate(steady, code, tuple(fifos))


__all__ = ["Ineligible", "MacroLanePlan", "MacroPlan", "MacroTemplate",
           "SteadyPlan", "SteadySchedule", "compile_macro",
           "macro_template"]
