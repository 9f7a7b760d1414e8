"""The macro rung: one generated kernel per steady configuration.

The paper's scalability argument (§4.2) rests on the configuration being
*static between controller writes*: routing, microwords and modes are
latched state, and the clock merely moves data through them.  For such a
configuration the entire cycle schedule is known at compile time — which
microword each Dnode executes at each phase of the local-sequencer
period, which FIFOs pop, how the feedback pipelines rotate — so this
module **generates straight-line Python source** for one full period of
the fabric and compiles it with :func:`exec`:

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

The period is the LCM of the local-mode LIMIT values (1 for an
all-global fabric); local slot selection is baked per phase against the
counters observed at compile time.  Each cycle of the unrolled period is
guarded by its phase and followed by an end-of-run check, so one kernel
enters at any phase of its schedule's orbit (every counter state the
sequencers reach from the baked one) and stops after any number of
cycles: a controller-stepped cycle, a sub-period remainder and a
thousand-cycle window all run the same code, and
:meth:`MacroPlan.matches_phase` accepts every counter state of the
orbit.  Stepping a period-P configuration therefore compiles one kernel,
not one per phase.

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

Configurations whose period would bloat the generated source (LCM above
:data:`MAX_PERIOD`, or more than :data:`MAX_UNROLL_CELLS` Dnode-cycles)
are ineligible and run on the interpreter.

These kernels are the second rung of the ladder every compiled scalar
ring climbs (native, macro, interpreter), taking every span the native
tier (:mod:`repro.core.nativepath`) refuses or leaves over, and every
cycle :meth:`~repro.core.ring.Ring.step` advances.  Both tiers compile
from one :class:`SteadySchedule` and serve the same window protocol
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
lane ladder, taking every lane cycle native does not; over the unroll
cap a lane kernel is baked for one cycle at the live phase instead
(``period=1``) and called once per cycle.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

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


class SteadySchedule:
    """One steady-state period of a ring's configuration, as both
    generated tiers (this module and :mod:`repro.core.nativepath`) see it.

    Ring-free: Dnodes are named by their flat index ``layer * width +
    position``, so one schedule serves every ring with the same geometry,
    configuration and entry phase (see :mod:`repro.core.plancache`).

    * ``period`` — the LCM of the local-mode LIMITs (1 for an all-global
      fabric);
    * ``words[(l, p)]`` — the microword the Dnode executes at each phase
      of the period, starting from the live local counters;
    * ``own_period[(l, p)]`` — the Dnode's own period (LIMIT, or 1);
    * ``counter_entries`` — ``(node, entry counter, limit)`` per local
      Dnode: the entry phase the schedule is baked against;
    * ``stat_entries`` — ``(node, totals, prefix)`` per Dnode that
      executes anything: instruction/op/multiply totals over one period
      and their per-phase prefix sums;
    * ``host_ports`` — ``(layer, position, port, channel)`` per routed
      host port, in the interpreter's read order (layer, position,
      port): every routed port is read every cycle; ``host_channels``
      is the set of their channels.

    Raises :class:`Ineligible` when the period would bloat the generated
    source (LCM above :data:`MAX_PERIOD`, or too many Dnode-cycles).  An
    explicit *period* bakes that many cycles from the live phase instead
    (one, for a lane kernel over the cap), with no cap to check.
    """

    def __init__(self, ring: "Ring", period: Optional[int] = None):
        if period is None:
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
        width = ring.geometry.width
        for l, layer in enumerate(ring._dnodes):
            for p, dn in enumerate(layer):
                node = l * width + p
                if dn.mode is DnodeMode.LOCAL:
                    lc = dn.local
                    limit, c0 = lc.limit, lc._counter
                    counter_entries.append((node, c0, limit))
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
                    stat_entries.append((node, prefix[-1], tuple(prefix)))
        self.counter_entries = tuple(counter_entries)
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

    def bind_stats(self, nodes) -> tuple:
        """``stat_entries`` with each node index replaced by its Dnode's
        statistics record (*nodes* is ``ring.all_dnodes()``)."""
        return tuple((nodes[i].stats, totals, prefix)
                     for i, totals, prefix in self.stat_entries)


class SteadyPlan:
    """A kernel template bound to one ring.

    ``rung`` names the tier (``"native"`` or ``"macro"``);
    ``template`` is the ring-free kernel it was bound from;
    ``host_channels`` are the host channels the configuration routes
    (each read every cycle).  A native plan is valid only while the
    local counters sit at the schedule's entry phase; a macro plan
    overrides :meth:`matches_phase` to accept any phase of the orbit.
    """

    rung = ""

    __slots__ = ("template", "period", "host_channels", "_counter_entries")

    def __init__(self, template, nodes):
        schedule = template.schedule
        self.template = template
        self.period = schedule.period
        self.host_channels = schedule.host_channels
        self._counter_entries = tuple(
            (nodes[i].local, c0, limit)
            for i, c0, limit in schedule.counter_entries)

    def matches_phase(self) -> bool:
        """True when every local counter sits at the baked entry phase."""
        for lc, c0, _limit in self._counter_entries:
            if lc._counter != c0:
                return False
        return True


class MacroPlan(SteadyPlan):
    """A :class:`MacroTemplate` bound to one ring."""

    rung = "macro"

    __slots__ = ("_kernel", "_ring", "_nodes", "_stat_entries", "_locals",
                 "_phases")

    def __init__(self, template: "MacroTemplate", ring: "Ring",
                 env: Optional[Dict[str, object]] = None):
        nodes = tuple(ring.all_dnodes())
        super().__init__(template, nodes)
        self._ring = ring
        self._nodes = nodes
        self._stat_entries = template.schedule.bind_stats(nodes)
        self._locals = tuple(lc for lc, _c0, _limit in self._counter_entries)
        self._phases = template.phases
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
                    env[f"_rv_{l}_{p}"] = dn.regs._values
                    env[f"_st_{l}_{p}"] = dn.stats
            for l, p, ch in template.fifos:
                env[f"_q_{l}_{p}_{ch}"] = ring.fifo(l, p, ch)
        exec(template.code, env)
        # Popped, so the kernel's globals do not hold the kernel: a
        # retired engine is then freed by reference counting alone.
        self._kernel = env.pop("_kernel")

    def phase(self) -> Optional[int]:
        """Where the live local counters sit in the baked period, or
        None when they are outside the schedule's orbit."""
        return self._phases.get(tuple(lc._counter for lc in self._locals))

    def matches_phase(self) -> bool:
        """True when the live counters are anywhere in the orbit."""
        return self.phase() is not None

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance *cycles* fabric clocks from the current phase.

        The live counters must be in the orbit (:meth:`matches_phase`).
        A *host_in* with a ``gather(channel, c0, cycles)`` method hands
        over each routed channel's words once for the whole run (stream
        words were range-checked when pushed); a plain closure is called
        per read and its words are checked.  Returns, for each Dnode
        index (``layer * width + position``) in *taps*, its post-edge
        outputs: element ``t`` is what an output tap observes after
        cycle ``t``.

        Every completed cycle is committed.  An error that aborts the
        run (a strict-FIFO error, say) keeps the cycles before it and
        carries ``window_taps``, the tap outputs of those cycles; a
        strict-FIFO error also carries ``host_reads`` (see
        :func:`_fifo_error`).
        """
        ring = self._ring
        c0 = ring.cycles
        entry = self.phase()
        windows = None
        gather = getattr(host_in, "gather", None)
        if gather is not None:
            windows = {ch: gather(ch, c0, cycles).tolist()
                       for ch in self.host_channels}
        outs: List[list] = [[] for _ in taps]
        sinks = tuple((self._nodes[i], out.append)
                      for i, out in zip(taps, outs))
        try:
            self._kernel(cycles, entry, bus, host_in, windows, sinks)
        except Exception as exc:
            exc.window_taps = [np.array(out, np.int64) for out in outs]
            raise
        finally:
            self._finish(entry, ring.cycles - c0)
        return [np.array(out, np.int64) for out in outs]

    def _finish(self, entry: int, executed: int) -> None:
        """The hoisted statistics and counter advance of *executed*
        kernel cycles entered at phase *entry* (closed-form, exact per
        completed cycle)."""
        if not executed:
            return
        self._ring.macro_cycles += executed
        end = entry + executed
        full, extra = divmod(end, self.period)
        for dn in self._nodes:
            dn.stats.cycles += executed
        for stats, totals, prefix in self._stat_entries:
            ti, ta, tm = totals
            pi, pa, pm = prefix[extra]
            si, sa, sm = prefix[entry]
            stats.instructions += full * ti + pi - si
            stats.arithmetic_ops += full * ta + pa - sa
            if tm:
                stats.multiplies += full * tm + pm - sm
        for lc, c0, limit in self._counter_entries:
            lc._counter = (c0 + end) % limit


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
        for key in template.fifos:
            env["_q_%d_%d_%d" % key] = engine._fifo_for(key)
        super().__init__(template, ring, env)
        self._batch = engine.batch
        self._outs = engine.outs.reshape(-1, engine.batch)

    def run(self, cycles: int, bus: int, host_in,
            taps: Sequence[int] = ()) -> List[np.ndarray]:
        """Advance every lane *cycles* fabric clocks from the current
        phase (see :meth:`MacroPlan.run`).

        *host_in* may return a word or a ``(lanes,)`` array per read; a
        window reader's ``gather`` hands over ``(cycles, lanes)`` arrays.
        Returns one ``(cycles, lanes)`` array of post-edge outputs per
        Dnode index in *taps*.
        """
        ring = self._ring
        c0 = ring.cycles
        entry = self.phase()
        windows = None
        gather = getattr(host_in, "gather", None)
        if gather is not None:
            windows = {ch: gather(ch, c0, cycles)
                       for ch in self.host_channels}
        outs = [np.empty((cycles, self._batch), np.int64) for _ in taps]
        sinks = tuple((self._outs[i], out) for i, out in zip(taps, outs))
        try:
            self._kernel(cycles, entry, bus, host_in, windows, sinks)
        finally:
            self._finish(entry, ring.cycles - c0)
        return outs


class MacroTemplate:
    """A compiled macro kernel with no ring in it.

    ``code`` defines ``_kernel`` over the names a :class:`MacroPlan`
    puts in its globals: each Dnode, register file, statistics record,
    switch and pipeline lane by position, the FIFOs in ``fifos`` and
    the ring (a lane kernel's, over the lane rows and lane FIFOs a
    :class:`MacroLanePlan` binds).  ``phases`` maps each counter state of the schedule's
    orbit (local Dnodes layer-major) to its phase in the baked period.
    """

    __slots__ = ("schedule", "code", "fifos", "phases")

    def __init__(self, schedule: SteadySchedule, code, fifos):
        self.schedule = schedule
        self.code = code
        self.fifos = fifos
        entries = schedule.counter_entries
        self.phases = {
            tuple((c0 + j) % limit for _node, c0, limit in entries): j
            for j in range(schedule.period)}

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


def macro_period(ring: "Ring") -> int:
    """The fabric's steady-state schedule period (LCM of local LIMITs)."""
    period = 1
    for dn in ring.all_dnodes():
        if dn.mode is DnodeMode.LOCAL:
            period = math.lcm(period, dn.local.limit)
    return period


def compile_macro(ring: "Ring",
                  refusal: Optional[List[str]] = None,
                  engine=None) -> Optional[MacroPlan]:
    """Fuse *ring*'s current configuration into a macro kernel.

    Returns the :class:`MacroTemplate` bound to *ring* — or, given the
    ring's batch *engine*, the lane template bound to its lanes — or
    None when the configuration is ineligible (period too large to
    unroll).  The reason is appended to *refusal* when a list is given.
    """
    try:
        if engine is not None:
            return macro_template(ring, lanes=True).bind_lanes(engine)
        return macro_template(ring).bind(ring)
    except Ineligible as exc:
        if refusal is not None:
            refusal.append(str(exc))
        return None


def macro_template(ring: "Ring", lanes: bool = False,
                   period: Optional[int] = None) -> MacroTemplate:
    """Generate and compile the macro kernel for *ring*'s configuration
    and the orbit of its entry phase; raises :class:`Ineligible` when
    it has none.

    With *lanes* the kernel runs a batch engine's lanes
    (:class:`MacroLanePlan`): the same schedule and cycle structure, with
    every value a row of one word per lane.  An explicit *period* bakes
    that many cycles from the live phase (see :class:`SteadySchedule`).
    """
    steady = SteadySchedule(ring, period)
    geometry = ring.geometry
    period = steady.period
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

    out = _Emitter()
    # Host channels the cycle being emitted has read so far.
    cycle_reads: List[int] = []

    def emit_host_fetch(indent, l, p, port, channel, sw_index):
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

    def emit_fifo_error(indent, l, p, ch, what):
        out.emit(indent, "raise _fifo_error(")
        out.emit(indent + 1,
                 f"f\"D{l}.{p} {what} empty FIFO{ch} at cycle {{_cy}}\", "
                 f"{tuple(cycle_reads)!r}")
        out.emit(indent, ")")

    def emit_fifo_peek(indent, l, p, ch, name):
        q = fifo_name(l, p, ch)
        temp = f"_fv_{l}_{p}_{ch}"
        if lanes:
            # Empty lanes read 0 and each counts one underflow.
            out.emit(indent, f"{temp}, _fe = {q}.peek()")
            out.emit(indent, "if _fe.any():")
            out.emit(indent + 1, "if _R.strict_fifos:")
            emit_fifo_error(indent + 2, l, p, ch, "read")
            out.emit(indent + 1, "_U[:] += _fe")
            return temp
        out.emit(indent, f"{temp} = {q}.peek()")
        out.emit(indent, f"if {temp} is not None:")
        out.emit(indent + 1, f"{temp} = _chk({temp}, '{name} FIFO{ch}')")
        out.emit(indent, "elif _R.strict_fifos:")
        emit_fifo_error(indent + 1, l, p, ch, "read")
        out.emit(indent, "else:")
        out.emit(indent + 1, "_R.fifo_underflows += 1")
        out.emit(indent + 1, f"{temp} = 0")
        return temp

    def emit_fifo_pop(indent, l, p, ch):
        q = fifo_name(l, p, ch)
        if lanes:
            out.emit(indent, f"_fe = {q}.count == 0")
            out.emit(indent, "if _fe.any():")
            out.emit(indent + 1, "if _R.strict_fifos:")
            emit_fifo_error(indent + 2, l, p, ch, "popped")
            out.emit(indent + 1, "_U[:] += _fe")
            out.emit(indent, f"_fp_{l}_{p}[:] += {q}.drop(1)")
            return
        out.emit(indent, f"if {q}.drop(1):")
        out.emit(indent + 1, f"_st_{l}_{p}.fifo_pops += 1")
        out.emit(indent, "elif _R.strict_fifos:")
        emit_fifo_error(indent + 1, l, p, ch, "popped")
        out.emit(indent, "else:")
        out.emit(indent + 1, "_R.fifo_underflows += 1")

    def rp_expr(sw_index, stage, lane):
        sw = ring._switches[sw_index]
        if not (1 <= stage <= sw.pipeline_depth and 1 <= lane <= sw.width):
            # Out-of-range taps reproduce the interpreter's runtime error.
            return f"_sw_{sw_index}.rp_read({stage}, {lane})", False
        return (f"_pp_{sw_index}_{lane - 1}"
                f"[({head(sw_index)} + {stage - 1}) % {depth}]"), True

    def emit_cycle(indent: int, phase: int) -> None:
        """One fabric clock: evals, shifts, commits, cycle accounting,
        tap samples."""
        commits: List[tuple] = []   # deferred commit emissions
        cycle_reads.clear()
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
                        port_exprs[port] = out_of(lu, src.index)
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
                    temp = f"_t_{l}_{p}"
                    if not lanes:
                        expr = _compute_expr(mw, a, b, acc)
                    elif mw.op is Opcode.MOV:
                        # A lane operand may be a view of state that a
                        # commit below overwrites: copy it.
                        expr = f"np.copy({a})"
                    else:
                        expr = _vector_expr(mw, a, b, acc)
                    out.emit(indent, f"{temp} = {expr}")
                    if mw.dst.is_register:
                        commits.append(
                            ("store",
                             f"_rv_{l}_{p}[{int(mw.dst)}] = {temp}"))
                    if (mw.dst is Dest.OUT
                            or mw.flags & Flag.WRITE_OUT):
                        commits.append(("store", store_out(l, p, temp)))
                for ch in pops:
                    commits.append(("pop", l, p, ch))

        # Shifts: before commits, so pipelines capture this cycle's
        # forward-visible OUT values.
        if lanes:
            out.emit(indent, f"_hd = (_hd - 1) % {depth}")
            out.emit(indent, "_PP[:, :, _hd] = _O[_UP]")
        else:
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
        out.emit(indent, "for _tn, _ta in _tb:")
        if lanes:
            out.emit(indent + 1, "_ta[_cy - _cy0 - 1] = _tn")
        else:
            out.emit(indent + 1, "_ta(_tn._out)")

    # --- kernel assembly ----------------------------------------------
    # _ph: the entry phase; _gw: None (call host_in per read) or
    # {channel: the window's words}; _tb: (dnode, append) per tap, fed
    # each cycle's post-edge output (on lanes, (OUT row, record) per
    # tap, the row stored at the cycle's index).  The first pass through
    # the period skips the phases before _ph; every cycle but the
    # period's last checks for the end of the run (the loop test covers
    # the last).
    out.emit(0, "def _kernel(cycles, _ph, bus, host_in, _gw, _tb):")
    out.emit(1, "_cy = _R.cycles")
    out.emit(1, "_cy0 = _cy")
    out.emit(1, "_end = _cy + cycles")
    if steady.host_ports:
        out.emit(1, "if _gw is not None:")
        for ch in sorted({ch for *_, ch in steady.host_ports}):
            out.emit(2, f"_g_{ch} = _gw[{ch}]")
    if lanes:
        out.emit(1, "_hd = _E._head")
    else:
        for k in range(layers):
            out.emit(1, f"_hd_{k} = _sw_{k}._head")
    out.emit(1, "try:")
    out.emit(2, "while _cy != _end:")
    for phase in range(period):
        if period == 1:
            emit_cycle(3, phase)
            continue
        out.emit(3, f"if _ph <= {phase}:")
        emit_cycle(4, phase)
        if phase < period - 1:
            out.emit(4, "if _cy == _end:")
            out.emit(5, "break")
    if period > 1:
        out.emit(3, "_ph = 0")
    out.emit(1, "finally:")
    if lanes:
        out.emit(2, "_E._head = _hd")
    else:
        for k in range(layers):
            out.emit(2, f"_sw_{k}._head = _hd_{k}")

    source = out.source()
    name = f"<macro period={period}" + (" lanes>" if lanes else ">")
    code = compile(source, name, "exec")
    return MacroTemplate(steady, code, tuple(fifos))


__all__ = ["Ineligible", "MacroLanePlan", "MacroPlan", "MacroTemplate",
           "SteadyPlan", "SteadySchedule", "compile_macro", "macro_template",
           "macro_period", "MAX_PERIOD", "MAX_UNROLL_CELLS"]
