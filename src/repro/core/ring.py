"""The Systolic Ring fabric: layered Dnodes closed into a ring, plus the
cycle-accurate clock engine.

Paper §4.2: "We use a curled, pipelined systolic structure ... All the
D-nodes form a ring, which length (Dnodes layers number) and width (Dnodes
per-layer number) can easily be scaled.  The Dnodes are organized in
layers; a Dnodes layer is connected to the two adjacent ones by also
dynamically reconfigurable switch components."

Topology conventions used throughout the package:

* ``layers`` x ``width`` Dnodes; ``dnode(layer, position)``.
* ``switch(k)`` feeds layer ``k`` and is fed by layer ``(k - 1) % layers``
  — the ring closure is simply switch 0 reading the last layer.
* Data advances one layer per cycle (systolic); every value read during a
  cycle is the value latched at the previous clock edge, so evaluation
  order never matters.

Each :meth:`Ring.step` models one clock:

1. every Dnode evaluates its active microword (global or local mode) and
   stages its writes;
2. the clock edge commits register/OUT writes, shifts every switch's
   feedback pipelines, applies FIFO pops, and advances local sequencers.

The shared ``bus`` value and host stream channels are supplied per cycle
by the caller (the controller / data controller live in
:mod:`repro.controller` and :mod:`repro.host`).

Two kinds of engine drive the same semantics:

* the **interpreter** (:meth:`Ring._step_interpreted`) re-resolves switch
  routing and microword dispatch every cycle — the reference
  implementation;
* the **generated tiers** compile the current configuration, which is
  static between controller writes.  A ``"native"`` ring (the default)
  runs each steady-state span down a fall-back ladder: time-vectorized
  NumPy kernels (:mod:`repro.core.nativepath`), then — for whatever
  native refuses or leaves over, and for every cycle :meth:`Ring.step`
  advances — generated macro kernels (:mod:`repro.core.macropath`),
  which read each Dnode's sequencer counter when entered, stop after
  any cycle and compile for every configuration.  Every configuration
  mutation invalidates the active kernels, so reconfiguration takes
  effect on the very next cycle.

A configuration seen for the first time is interpreted for one cycle
before anything is compiled for it, so a controller that rewrites the
fabric every cycle (hardware multiplexing) never pays code generation.
Compiled kernels are kept, ring-free, in the process-wide
:data:`~repro.core.plancache.KERNELS` cache keyed by
:meth:`Ring.config_fingerprint`, so a fresh ring or a batch engine
binds a kernel another ring compiled instead of generating it again.
Each ring also keeps its bound plans in a small LRU
:class:`~repro.core.plancache.PlanCache`, so multiplexing between known
configurations re-adopts each kernel in one lookup instead of binding
it again (see ``docs/architecture.md``, "The plan cache").

``backend`` is the one engine selector: ``"interpreter"``, ``"native"``
or ``"batch"``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import word
from repro.core.config_memory import ConfigMemory, _Fingerprint
from repro.core.dnode import Dnode, DnodeInputs, DnodeMode
from repro.core.isa import FEEDBACK_DEPTH
from repro.core.macropath import compile_macro
from repro.core.nativepath import compile_native
from repro.core.plancache import KERNELS, RING_CAPACITY, PlanCache
from repro.core.switch import PortKind, PortSource, Switch
from repro.core.wordqueue import WordQueue
from repro.errors import ConfigurationError, SimulationError


class _Refusal(str):
    """Negative plan entry (on ``Ring._steady``, ``BatchRing._plans``
    and in both plan caches): why the tier cannot compile the
    configuration."""


def _template_of(plan):
    """What the process-wide cache keeps of a plan: its ring-free
    template, or the refusal itself."""
    return plan if isinstance(plan, _Refusal) else plan.template


#: Kept for the benchmark suite's tracer, which wraps it by name; unused.
compile_plan = compile_macro

#: System windows (:meth:`Ring.window_span`) shorter than this run on
#: the macro rung even where native accepts them: a native window has a
#: fixed cost (gather, seed, write back), a macro window a per-cycle
#: one.  Measured with 16 taps on me_search's 16-Dnode planes (2-core
#: host, NumPy 2.4, no Numba): a native window costs ~68 us on the
#: global flush and reset planes and ~235 us on the FIFO-reading compute
#: plane, whatever its length; macro costs ~24 + 3.2 us and ~40 + 20 us
#: per cycle there, so the two cross at ~14 and ~10 cycles.  At 32
#: cycles (plane_churn's windows) native is ~1.8x faster.
NATIVE_MIN_SPAN = 12

HostReader = Callable[[int], int]

RingObserver = Callable[["Ring"], None]


class _CycleObserver:
    """One registered per-cycle callback with its capture schedule.

    ``interval`` samples the observer every N-th cycle (measured on the
    post-commit :attr:`Ring.cycles` value, so interval 4 fires after
    cycles 4, 8, 12, ...); ``start``/``stop`` bound an inclusive capture
    window on the same cycle index.  The schedule is what lets
    :meth:`Ring.run` keep batches on the compiled tiers between
    captures instead of dropping to per-cycle dispatch.
    """

    __slots__ = ("callback", "interval", "start", "stop")

    def __init__(self, callback: RingObserver, interval: int = 1,
                 start: Optional[int] = None, stop: Optional[int] = None):
        if interval < 1:
            raise ConfigurationError(
                f"observer interval must be >= 1, got {interval}"
            )
        if start is not None and start < 0:
            raise ConfigurationError(
                f"observer window start must be >= 0, got {start}"
            )
        if (start is not None and stop is not None and stop < start):
            raise ConfigurationError(
                f"observer window stop {stop} precedes start {start}"
            )
        self.callback = callback
        self.interval = interval
        self.start = start
        self.stop = stop

    @property
    def every_cycle(self) -> bool:
        return (self.interval == 1 and self.start is None
                and self.stop is None)

    def due(self, cycle: int) -> bool:
        """Does this observer capture after the cycle numbered *cycle*?"""
        if self.start is not None and cycle < self.start:
            return False
        if self.stop is not None and cycle > self.stop:
            return False
        return cycle % self.interval == 0

    def next_due(self, cycle: int) -> Optional[int]:
        """First cycle index > *cycle* that captures (None = never again)."""
        nxt = cycle + 1
        if self.start is not None and nxt < self.start:
            nxt = self.start
        remainder = nxt % self.interval
        if remainder:
            nxt += self.interval - remainder
        if self.stop is not None and nxt > self.stop:
            return None
        return nxt


@dataclass
class RingProfile:
    """Wall-clock accounting of one :meth:`Ring.profile` session.

    Separates interpreted cycles from compiled ones and both from code
    generation, so a workload's compiled coverage (and the compile
    overhead paid for it) is directly measurable.

    ``fastpath_cycles`` / ``fastpath_seconds`` count every compiled
    rung: the native and macro kernels of the scalar ladder and the
    batch engine (a lane window books lockstep cycles, not lane-cycles).
    ``compile_seconds`` covers native and macro code generation on cache
    misses; binding a cached template to the ring is not code generation
    and is not booked.  ``plan_compiles`` counts the macro kernels
    generated.  The field names predate the ladder and stay because the
    benchmark suite (``benchmarks/suite``) reads them.
    """

    interpreted_cycles: int = 0
    interpreted_seconds: float = 0.0
    fastpath_cycles: int = 0
    fastpath_seconds: float = 0.0
    plan_compiles: int = 0
    compile_seconds: float = 0.0

    @property
    def total_cycles(self) -> int:
        return self.interpreted_cycles + self.fastpath_cycles

    @property
    def fastpath_fraction(self) -> float:
        """Fraction of profiled cycles executed by the compiled engine."""
        total = self.total_cycles
        return self.fastpath_cycles / total if total else 0.0

    def cycles_per_second(self) -> float:
        """Aggregate throughput over everything profiled (0 if untimed)."""
        elapsed = (self.interpreted_seconds + self.fastpath_seconds
                   + self.compile_seconds)
        return self.total_cycles / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of every counter plus the derived rates."""
        return {
            "interpreted_cycles": self.interpreted_cycles,
            "interpreted_seconds": self.interpreted_seconds,
            "fastpath_cycles": self.fastpath_cycles,
            "fastpath_seconds": self.fastpath_seconds,
            "plan_compiles": self.plan_compiles,
            "compile_seconds": self.compile_seconds,
            "fastpath_fraction": self.fastpath_fraction,
            "cycles_per_second": self.cycles_per_second(),
        }


@dataclass(frozen=True)
class RingGeometry:
    """Shape of a ring: number of layers and Dnodes per layer.

    The paper's named configurations map to:

    * Ring-8  = 4 layers x 2 wide (the prototyped version),
    * Ring-16 = 8 layers x 2 wide (the application benchmarks),
    * Ring-64 = 32 layers x 2 wide (the Fig. 7 SoC).
    """

    layers: int
    width: int = 2
    pipeline_depth: int = FEEDBACK_DEPTH

    def __post_init__(self) -> None:
        if self.layers < 2:
            raise ConfigurationError(
                f"a ring needs at least 2 layers, got {self.layers}"
            )
        if self.width < 1:
            raise ConfigurationError(
                f"layer width must be >= 1, got {self.width}"
            )
        if self.pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline depth must be >= 1, got {self.pipeline_depth}"
            )

    @property
    def dnodes(self) -> int:
        """Total Dnode count (the paper's Ring-N number)."""
        return self.layers * self.width

    @classmethod
    def ring(cls, dnodes: int, width: int = 2,
             pipeline_depth: int = FEEDBACK_DEPTH) -> "RingGeometry":
        """Build the canonical geometry for a Ring-*dnodes* fabric."""
        if dnodes % width != 0:
            raise ConfigurationError(
                f"Ring-{dnodes} is not divisible into width-{width} layers"
            )
        return cls(layers=dnodes // width, width=width,
                   pipeline_depth=pipeline_depth)


class Ring:
    """A complete operative layer: Dnodes, switches, FIFOs, clock engine."""

    #: The single source of truth for execution engines: every selector
    #: (``Ring(backend=)``, :meth:`set_backend`, the CLI ``--backend``
    #: choices, the docs engine table) derives from this registry, so
    #: adding an engine is one entry here.
    BACKEND_REGISTRY = {
        "interpreter": "reference cycle-by-cycle interpreter",
        "native": "time-vectorized NumPy kernels, falling back to "
                  "generated macro kernels",
        "batch": "lane-vectorized NumPy engine over batch_size streams",
    }

    #: Valid values of the ``backend`` selector.
    BACKENDS = tuple(BACKEND_REGISTRY)

    @classmethod
    def _check_backend(cls, backend: str, batch_size: int) -> None:
        if backend not in cls.BACKEND_REGISTRY:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of "
                f"{cls.BACKENDS}"
            )
        if batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        if batch_size > 1 and backend != "batch":
            raise ConfigurationError(
                f"batch_size {batch_size} requires backend='batch', "
                f"got {backend!r}"
            )

    def __init__(self, geometry: RingGeometry,
                 strict_fifos: bool = False,
                 backend: str = "native",
                 batch_size: int = 1):
        self.geometry = geometry
        self.strict_fifos = strict_fifos
        self._check_backend(backend, batch_size)
        self.backend = backend
        self.batch_size = batch_size
        #: Configuration-fingerprinted LRU of the native and macro plans
        #: bound to this ring, and their refusals.
        self.plan_cache = PlanCache(RING_CAPACITY)
        #: Cycles executed by fused macro kernels (coverage metric).
        self.macro_cycles = 0
        #: Native-tier lifetime counters: cycles executed by
        #: time-vectorized kernels (native lane windows included), plans
        #: compiled, and cycles handed to the fall-back ladder
        #: (ineligible configuration, sub-period remainders, strict-FIFO
        #: windows; on lanes, the macro lane kernels).  Host-side
        #: accounting like ``macro_cycles`` — preserved across
        #: :meth:`reset` and snapshot restore.
        self.native_cycles = 0
        self.native_compiles = 0
        self.native_fallback_cycles = 0
        # Active "macro" / "native" plan per tier for the current
        # configuration, a native one for its entry phase (absent = not
        # compiled, a _Refusal = native cannot compile it).
        self._steady: Dict[str, object] = {}
        # Cached config_fingerprint() (None = recompute).
        self._fingerprint = None
        # The configuration memory's interned state, kept from one plane
        # to the next configuration write (None = capture it again; see
        # repro.core.config_memory).
        self._state = None
        # Local controllers of the local-mode Dnodes, whose counters are
        # the entry phase (None = recompute after a configuration write).
        self._locals = None
        self._dnodes: List[List[Dnode]] = [
            [Dnode(layer, pos) for pos in range(geometry.width)]
            for layer in range(geometry.layers)
        ]
        self._switches: List[Switch] = [
            Switch(k, geometry.width, geometry.pipeline_depth)
            for k in range(geometry.layers)
        ]
        self._fifos: Dict[Tuple[int, int, int], WordQueue] = {}
        self.config = ConfigMemory(self)
        self.cycles = 0
        self.fifo_underflows = 0
        #: Last value driven on the shared bus (updated by step()/run(),
        #: so bus probes observe the controller-driven value instead of a
        #: stale default).
        self.last_bus = 0
        #: FIFO depth high-water marks, keyed like :attr:`_fifos`
        #: ((layer, position, channel)); updated on every push.
        self.fifo_high_water: Dict[Tuple[int, int, int], int] = {}
        #: Kernel lifecycle counters (always-on, config-path cost only):
        #: macro kernels this ring generated, and configuration writes
        #: that dropped an active compiled kernel.
        self.plan_compiles = 0
        self.plan_invalidations = 0
        #: Robustness-layer counters (:mod:`repro.robustness`): faults
        #: applied to this fabric, checkpoints taken, rollbacks performed
        #: and cycles re-executed recovering.  Host-side lifetime
        #: accounting like the plan counters — preserved across
        #: :meth:`reset` and snapshot restore (a rollback must still
        #: count as a rollback afterwards).
        self.faults_injected = 0
        self.checkpoints = 0
        self.rollbacks = 0
        self.recovery_cycles = 0
        self._observers: List[_CycleObserver] = []
        self._profile: Optional[RingProfile] = None
        #: Composed post-commit hook: None when nothing observes, a bare
        #: callback for the single always-on observer, otherwise a
        #: dispatcher that applies each observer's capture schedule.
        self._trace: Optional[Callable[["Ring"], None]] = None
        # A first-time configuration: it has not yet been stepped for a
        # cycle and no kernel for it was found in a cache, so nothing is
        # compiled for it yet (controller-driven hardware multiplexing
        # never pays compile overhead).
        self._config_dirty = True
        #: Extra callbacks fired on every configuration mutation (the
        #: batch engine hooks in here, reusing the kernel wiring).
        self._invalidation_listeners: List[Callable[[], None]] = []
        #: Lazily created batch engine (backend == "batch" only).
        self._batch_engine = None
        for layer_dnodes in self._dnodes:
            for dn in layer_dnodes:
                dn.on_config_change = self._invalidate_fastpath
        for sw in self._switches:
            sw.config.on_change = self._invalidate_fastpath

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------

    @property
    def batch(self):
        """The attached :class:`~repro.core.batchpath.BatchRing` engine.

        Only meaningful with ``backend="batch"``; created lazily (the
        first access broadcasts the ring's current scalar state across
        the lanes, and so does the first access after a :meth:`reset`,
        in place, into the same engine).
        """
        if self.backend != "batch":
            raise ConfigurationError(
                f"ring backend is {self.backend!r}, not 'batch'"
            )
        return self._ensure_batch()

    @property
    def fastpath_enabled(self) -> bool:
        """Does this ring run compiled scalar kernels (the native ladder)?

        Every backend but the interpreter does.  The ladder also backs
        batch mode at B=1: one lane of NumPy-array indexing is strictly
        slower than the scalar kernels, and the
        lane-0 writeback contract is trivially the scalar state itself.
        The vector engine is only engaged at B>1 or once `ring.batch`
        has been handed out.
        """
        return self.backend != "interpreter" and self.batch_size == 1

    @property
    def runs_lanes(self) -> bool:
        """Do the batch engine's lanes run this ring's cycles?

        True on a batch ring with more than one lane, or while its lane
        engine holds the datapath (``ring.batch`` was handed out and no
        reset or restore has handed the datapath back to the scalar
        state since); a one-lane batch ring otherwise runs the scalar
        ladder.
        """
        return self.backend == "batch" and (
            self.batch_size > 1 or self._live_batch() is not None)

    def _live_batch(self):
        """The batch engine while its lanes hold the datapath, else None.

        A :meth:`reset` (or a snapshot restore that carries no lanes)
        keeps the engine but makes the scalar state the datapath again,
        so whatever is written there before the engine's next use
        reaches every lane; until then the engine counts as absent.
        """
        engine = self._batch_engine
        return None if engine is None or engine._stale else engine

    def _ensure_batch(self):
        """The batch engine, built on first use and resynced after a
        reset by broadcasting the scalar state in place."""
        engine = self._batch_engine
        if engine is None:
            from repro.core.batchpath import BatchRing
            engine = self._batch_engine = BatchRing(self, self.batch_size)
        elif engine._stale:
            engine.resync()
        return engine

    def set_backend(self, backend: str,
                    batch_size: Optional[int] = None) -> None:
        """Switch execution engine (any :attr:`BACKEND_REGISTRY` key).

        Safe at any point between cycles: the scalar state always
        reflects the last committed cycle (the batch engine writes lane
        0 back after every run), so the new engine picks up exactly
        where the old one stopped.  Entering batch mode broadcasts that
        state across *batch_size* lanes; ``"native"`` keeps the scalar
        state and compiles time-vectorized kernels for eligible
        steady-state spans.
        """
        if batch_size is None:
            batch_size = self.batch_size if backend == "batch" else 1
        self._check_backend(backend, batch_size)
        if self._batch_engine is not None and (
                backend != "batch"
                or self._batch_engine.batch != batch_size):
            self._batch_engine.detach()
            self._batch_engine = None
        self.backend = backend
        self.batch_size = batch_size
        self._steady.clear()
        self._config_dirty = True

    def add_invalidation_listener(
            self, listener: Callable[[], None]) -> None:
        """Hook *listener* into every configuration-mutation event."""
        self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(
            self, listener: Callable[[], None]) -> None:
        """Unhook *listener* (compared by equality, like observers)."""
        # Equality, not identity: a bound method is a new object on
        # every attribute access, so `is` would never match one.
        self._invalidation_listeners = [
            l for l in self._invalidation_listeners if l != listener
        ]

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    def dnode(self, layer: int, position: int) -> Dnode:
        """The Dnode at (*layer*, *position*)."""
        if not 0 <= layer < self.geometry.layers:
            raise ConfigurationError(
                f"layer must be 0..{self.geometry.layers - 1}, got {layer}"
            )
        if not 0 <= position < self.geometry.width:
            raise ConfigurationError(
                f"position must be 0..{self.geometry.width - 1}, "
                f"got {position}"
            )
        return self._dnodes[layer][position]

    def switch(self, index: int) -> Switch:
        """The switch feeding layer *index* (fed by the previous layer)."""
        if not 0 <= index < self.geometry.layers:
            raise ConfigurationError(
                f"switch index must be 0..{self.geometry.layers - 1}, "
                f"got {index}"
            )
        return self._switches[index]

    def all_dnodes(self) -> List[Dnode]:
        """Every Dnode, layer-major order."""
        return [dn for layer in self._dnodes for dn in layer]

    def upstream_layer(self, switch_index: int) -> int:
        """The layer whose outputs feed switch *switch_index*."""
        return (switch_index - 1) % self.geometry.layers

    # ------------------------------------------------------------------
    # FIFO interface (Dnode sources FIFO1 / FIFO2)
    # ------------------------------------------------------------------

    def fifo(self, layer: int, position: int, channel: int) -> WordQueue:
        """The input FIFO *channel* (1 or 2) of a Dnode; created on demand.

        A :class:`~repro.core.wordqueue.WordQueue`: the deque subset
        (``len``, ``q[i]``, iteration, ``append``/``extend``/``popleft``/
        ``clear``) plus block pushes, gathers and pops.  The same object
        serves the Dnode for the ring's life — :meth:`reset` and a
        snapshot restore empty it in place — so a held handle stays live.
        """
        if channel not in (1, 2):
            raise ConfigurationError(f"FIFO channel must be 1 or 2, got {channel}")
        self.dnode(layer, position)  # validates the address
        key = (layer, position, channel)
        if key not in self._fifos:
            self._fifos[key] = WordQueue()
        return self._fifos[key]

    def push_fifo(self, layer: int, position: int, channel: int,
                  values) -> None:
        """Append one or more raw words to a Dnode input FIFO.

        An integer array or a list of ints takes one range check; a bad
        word raises :func:`repro.word.check`'s message after the words in
        front of it were queued (:meth:`WordQueue.push`).
        """
        queue = self.fifo(layer, position, channel)
        values = queue.push(values, "FIFO push")
        key = (layer, position, channel)
        depth = len(queue)
        if depth > self.fifo_high_water.get(key, 0):
            self.fifo_high_water[key] = depth
        engine = self._live_batch()
        if engine is not None:
            # Keep the lane FIFOs coherent: a scalar push reaches every
            # lane (lane-specific loads go through BatchRing.push_fifo).
            engine.push_fifo(layer, position, channel, values)

    def _fifo_peek(self, layer: int, position: int, channel: int) -> int:
        queue = self._fifos.get((layer, position, channel))
        value = queue.peek() if queue is not None else None
        if value is None:
            if self.strict_fifos:
                raise SimulationError(
                    f"D{layer}.{position} read empty FIFO{channel} at cycle "
                    f"{self.cycles}"
                )
            self.fifo_underflows += 1
            return 0
        return value

    def _fifo_pop(self, layer: int, position: int, channel: int) -> bool:
        """Apply one requested pop; report whether a word actually left.

        An underflowed pop (empty queue) dequeues nothing: it raises in
        strict mode and counts toward :attr:`fifo_underflows` otherwise,
        so pop statistics never drift from real dequeues.
        """
        queue = self._fifos.get((layer, position, channel))
        if queue is not None and queue.drop(1):
            return True
        if self.strict_fifos:
            raise SimulationError(
                f"D{layer}.{position} popped empty FIFO{channel} at cycle "
                f"{self.cycles}"
            )
        self.fifo_underflows += 1
        return False

    # ------------------------------------------------------------------
    # Clock engine
    # ------------------------------------------------------------------

    def add_observer(self, callback: RingObserver, interval: int = 1,
                     start: Optional[int] = None,
                     stop: Optional[int] = None) -> RingObserver:
        """Register a post-commit observer; multiple observers chain.

        ``interval`` fires the callback only after cycles whose post-commit
        index is a multiple of it; ``start``/``stop`` bound an inclusive
        cycle window.  A sampled observer (interval > 1 or a window) keeps
        :meth:`run` on the compiled tiers between captures: the batch
        is chunk-run up to each capture point instead of dropping to
        per-cycle dispatch.  Re-adding an already-registered callback
        replaces its schedule.  Returns *callback* (the removal handle).
        """
        # Equality, not identity: bound methods (the usual observer form)
        # are re-created on each attribute access.
        self._observers = [o for o in self._observers
                           if o.callback != callback]
        self._observers.append(
            _CycleObserver(callback, interval, start, stop))
        self._rebuild_trace()
        return callback

    def remove_observer(self, callback: RingObserver) -> None:
        """Unregister one observer; other observers are untouched."""
        self._observers = [o for o in self._observers
                           if o.callback != callback]
        self._rebuild_trace()

    def _rebuild_trace(self) -> None:
        observers = self._observers
        if not observers:
            self._trace = None
        elif len(observers) == 1 and observers[0].every_cycle:
            self._trace = observers[0].callback
        else:
            chain = tuple(observers)

            def dispatch(ring: "Ring", _chain=chain) -> None:
                cycle = ring.cycles
                for observer in _chain:
                    if observer.due(cycle):
                        observer.callback(ring)

            self._trace = dispatch

    def _trace_stride(self) -> Optional[int]:
        """Cycles from now until the next observer capture (None = never)."""
        cycle = self.cycles
        best: Optional[int] = None
        for observer in self._observers:
            nxt = observer.next_due(cycle)
            if nxt is not None and (best is None or nxt < best):
                best = nxt
        return None if best is None else best - cycle

    @contextmanager
    def profile(self):
        """Context manager timing the engines while the block runs.

        Yields a :class:`RingProfile` that accumulates wall-clock seconds
        and cycle counts separately for the interpreter, the compiled
        tiers, and code generation.  Profiling adds one predicate per
        dispatch decision — nothing inside a compiled kernel.
        """
        if self._profile is not None:
            raise SimulationError("ring is already being profiled")
        profile = RingProfile()
        self._profile = profile
        try:
            yield profile
        finally:
            self._profile = None

    def step(self, bus: int = 0,
             host_in: Optional[HostReader] = None) -> None:
        """Advance the fabric by one clock cycle.

        On a compiled ring the cycle runs on the configuration's macro
        kernel, entered at the live sequencer counters and stopped after
        one cycle.  It is interpreted instead on the interpreter
        backend and for the first cycle of a first-time configuration
        (see :meth:`_step_plan`).

        Args:
            bus: value currently driven on the shared bus by the
                configuration controller.
            host_in: resolver for ``HOST`` switch port sources — called as
                ``host_in(channel)`` and expected to return the stream word
                presented on that direct port this cycle.  Unrouted fabrics
                may leave it None.
        """
        word.check(bus, "bus value")
        self.last_bus = bus
        if self.runs_lanes:
            engine = self._ensure_batch()
            self._run_plan(engine, 1, bus, host_in)
            engine.store_lane(0)
        else:
            macro = self._step_plan()
            if macro is not None:
                self._run_plan(macro, 1, bus, host_in)
            else:
                self._interpret(bus, host_in)
        if self._trace is not None:
            self._trace(self)

    def _step_plan(self):
        """The macro plan :meth:`step` runs the next cycle on, or None.

        A first-time configuration (no kernel for it in either cache)
        compiles nothing for its first stepped cycle, so a
        reconfiguration stream that never repeats never pays code
        generation; a fingerprint that missed before is evidently part
        of a multiplexing working set and compiles at once.
        """
        if not self.fastpath_enabled:
            return None
        if self._config_dirty and not self._adopt_cached_hit():
            if not self.plan_cache.note_miss(self._steady_key("macro")):
                return None
            self._config_dirty = False
        return self._steady_plan("macro")

    def _interpret(self, bus: int, host_in: Optional[HostReader]) -> None:
        """One interpreted cycle, booked if profiled.  The configuration
        has been stepped now, so it may compile from the next cycle on."""
        profile = self._profile
        if profile is None:
            self._step_interpreted(bus, host_in)
        else:
            began = perf_counter()
            try:
                self._step_interpreted(bus, host_in)
            finally:
                profile.interpreted_seconds += perf_counter() - began
            profile.interpreted_cycles += 1
        self._config_dirty = False

    def _run_plan(self, plan, cycles: int, bus: int,
                  host_in: Optional[HostReader], *taps):
        """Execute *cycles* on a compiled rung, booked if profiled.

        *plan* is a macro or native plan or the batch engine; *taps* is
        passed through to its ``run`` and its result returned.  The
        profile books cycles off :attr:`cycles`, so a batch window
        counts lockstep cycles, not lane-cycles.
        """
        profile = self._profile
        if profile is None:
            return plan.run(cycles, bus, host_in, *taps)
        before = self.cycles
        began = perf_counter()
        try:
            return plan.run(cycles, bus, host_in, *taps)
        finally:
            profile.fastpath_seconds += perf_counter() - began
            profile.fastpath_cycles += self.cycles - before

    def _step_interpreted(self, bus: int,
                          host_in: Optional[HostReader]) -> None:
        """One clock cycle through the reference interpreter.

        A cycle that raises (a strict-FIFO underflow, a bad host word)
        commits nothing more: every Dnode's staged writes are discarded,
        so a later cycle cannot commit them.
        """
        try:
            self._interpret_cycle(bus, host_in)
        except BaseException:
            for dn in self.all_dnodes():
                dn.discard()
            raise

    def _interpret_cycle(self, bus: int,
                         host_in: Optional[HostReader]) -> None:
        geometry = self.geometry

        # Phase 1: resolve inputs and evaluate every Dnode combinationally.
        for layer in range(geometry.layers):
            sw = self._switches[layer]
            upstream = self._dnodes[self.upstream_layer(layer)]
            for pos in range(geometry.width):
                dn = self._dnodes[layer][pos]
                inputs = DnodeInputs(
                    in1=self._resolve_port(sw, upstream, pos, 1, bus, host_in),
                    in2=self._resolve_port(sw, upstream, pos, 2, bus, host_in),
                    bus=bus,
                    fifo_peek=(lambda ch, _l=layer, _p=pos:
                               self._fifo_peek(_l, _p, ch)),
                    rp_read=sw.rp_read,
                )
                dn.evaluate(inputs)

        # Phase 2: clock edge.  Capture the OUT values that were visible
        # this cycle *before* committing, so pipeline shifts use them.
        visible_outs = [
            [dn.out for dn in layer_dnodes] for layer_dnodes in self._dnodes
        ]
        for layer in range(geometry.layers):
            for pos in range(geometry.width):
                dn = self._dnodes[layer][pos]
                pops = dn.commit()
                for channel in pops:
                    if self._fifo_pop(layer, pos, channel):
                        dn.count_fifo_pop()
        for k in range(geometry.layers):
            self._switches[k].shift(visible_outs[self.upstream_layer(k)])
        self.cycles += 1

    def _invalidate_fastpath(self) -> None:
        """Configuration mutated: drop the active kernels.

        Wired into every configuration write path — Dnode microwords and
        modes, local-sequencer slots and LIMIT, switch routing, and thereby
        every :class:`~repro.core.config_memory.ConfigMemory` write.

        The dropped kernels stay in :attr:`plan_cache`: the next cycle
        looks the new configuration up by fingerprint and re-adopts a
        cached kernel with zero interpreted cycles when it was seen
        before.  The ring also forgets its configuration memory's state.
        """
        steady = self._steady
        if any(not isinstance(plan, _Refusal) for plan in steady.values()):
            self.plan_invalidations += 1
        steady.clear()
        self._fingerprint = None
        self._state = None
        self._locals = None
        self._config_dirty = True
        for listener in self._invalidation_listeners:
            listener()

    def config_fingerprint(self) -> tuple:
        """Stable, hashable digest of the full fabric configuration.

        Concatenates every Dnode's fingerprint (mode + executable
        microwords, layer-major order) with every switch's routing
        fingerprint.  Cached until the next configuration mutation (each
        component also caches its own part), and the digest hashes only
        once, so the macro and native cache lookups after a
        reconfiguration share one computation.
        """
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = _Fingerprint((
                tuple(dn.config_fingerprint()
                      for layer in self._dnodes for dn in layer),
                tuple(sw.config.fingerprint() for sw in self._switches),
            ))
        return fp

    def _adopt_cached_hit(self) -> bool:
        """Adopt cached kernels for the current configuration on a hit.

        A native or macro plan from either cache level (a process-wide
        template is bound to this ring) makes the configuration ready
        for the compiled tiers with no stepped cycle; the other tier is
        resolved when a span first needs it.  A miss is neither counted
        nor noted and compiles nothing, so a first-time fingerprint
        keeps the deferred compile policy of the cycle that steps it.
        Returns True on a hit.
        """
        for tier in ("native", "macro"):
            steady = self._steady.get(tier)
            if steady is None or not (isinstance(steady, _Refusal)
                                      or steady.matches_phase()):
                steady = self._lookup_plan(tier, hit_only=True)
                if steady is None:
                    continue
                self._steady[tier] = steady
            if not isinstance(steady, _Refusal):
                self._config_dirty = False
                return True
        return False

    def adopt_cached_plan(self) -> bool:
        """Re-adopt a compiled kernel for the current configuration now.

        Public hook for restore paths (checkpoint rollback and
        migration): after the configuration settles, one fingerprint
        lookup re-activates a cached kernel immediately instead of
        waiting for the first ``step()`` to do it lazily.  Returns
        ``True`` when the compiled tiers may run the configuration
        afterwards.  The interpreter and a vector batch ring never adopt
        scalar kernels, so this is a no-op there.
        """
        if not self.fastpath_enabled:
            return False
        return not self._config_dirty or self._adopt_cached_hit()

    def _local_controllers(self) -> tuple:
        """The local-mode Dnodes' sequencers, layer-major."""
        controllers = self._locals
        if controllers is None:
            controllers = self._locals = tuple(
                dn.local for layer in self._dnodes for dn in layer
                if dn.mode is DnodeMode.LOCAL)
        return controllers

    def _steady_key(self, tier: str) -> tuple:
        """Cache key of the *tier* plan for the current configuration;
        the same at both cache levels.

        A native kernel is baked against the exact sequencer counters,
        which its key names.  A macro kernel (``"macro"``,
        ``"macro_lanes"``) reads them when it runs, so its key carries
        no phase.
        """
        phase = None
        if tier == "native":
            phase = tuple(lc._counter for lc in self._local_controllers())
        return (tier, self.geometry, phase, self.config_fingerprint())

    def _lookup_plan(self, tier: str, engine=None, hit_only: bool = False):
        """The *tier* plan for the current configuration (and, for
        native, entry phase), bound to this ring or, given a batch
        *engine*, to its lanes; or a :class:`_Refusal` carrying the
        reason (:attr:`native_refusal`).

        A ring looks in its :attr:`plan_cache` first; lane plans hold
        the engine's lane arrays, so an engine keeps only its active
        ones (``BatchRing._plans``).  Both then bind the process-wide
        template (:data:`~repro.core.plancache.KERNELS`), and compile
        only when that misses too: the compiled template or refusal
        enters the process cache, so each configuration is tried at
        most once per tier and process, and a native template serves a
        ring and lanes alike.  With *hit_only* a miss is neither
        counted nor compiled: None.
        """
        key = self._steady_key(tier)
        cache = self.plan_cache if engine is None else None
        plan = cache.get(key, not hit_only) if cache is not None else None
        if plan is not None:
            return plan
        template = KERNELS.get(key, not hit_only)
        if isinstance(template, _Refusal):
            plan = template
        elif template is not None:
            plan = (template.bind(self) if engine is None
                    else template.bind_lanes(engine))
        elif hit_only:
            return None
        else:
            plan = self._compile(tier, engine)
            KERNELS.put(key, _template_of(plan))
        if cache is not None:
            cache.put(key, plan)
        return plan

    def _steady_plan(self, tier: str):
        """The active *tier* ("macro" or "native") plan for the current
        configuration (a native one looked up again when the phase left
        it), or None when native refuses it."""
        plan = self._steady.get(tier)
        if isinstance(plan, _Refusal):
            return None
        if plan is not None and plan.matches_phase():
            return plan
        plan = self._steady[tier] = self._lookup_plan(tier)
        return None if isinstance(plan, _Refusal) else plan

    def _compile(self, tier: str, engine=None):
        """Generate the *tier* kernel for the current configuration,
        bound to this ring or to the batch *engine*'s lanes, or a native
        :class:`_Refusal`.  Books the generation time, and the kernel in
        :attr:`native_compiles` or, for a macro kernel,
        :attr:`plan_compiles`."""
        refusal: List[str] = []
        profile = self._profile
        began = perf_counter()
        if tier == "native":
            plan = compile_native(self, refusal, engine)
        else:
            plan = compile_macro(self, engine)
        if profile is not None:
            profile.compile_seconds += perf_counter() - began
        if plan is None:
            return _Refusal(refusal[0])
        if tier == "native":
            self.native_compiles += 1
        else:
            self.plan_compiles += 1
            if profile is not None:
                profile.plan_compiles += 1
        return plan

    @property
    def native_refusal(self) -> Optional[str]:
        """Why the native tier refuses the current configuration.

        None when the configuration (at the current entry phase) compiles
        to a native plan — the lane plan on a ring running batch lanes.
        Otherwise a reason naming what blocks time-vectorization — the
        offending Dnode and phase for a recurrence with no closed form,
        the Dnodes on a cross-Dnode dependence cycle, an out-of-range
        feedback tap, or the period cap.  Resolves (and caches) the plan
        like a run would.
        """
        if self.runs_lanes:
            engine = self._ensure_batch()
            native = engine._plan("native")
            return None if native is not None else str(engine._plans["native"])
        native = self._steady_plan("native")
        return None if native is not None else str(self._steady["native"])

    def _run_steady(self, cycles: int, bus: int,
                    host_in: Optional[HostReader]) -> None:
        """Run *cycles* down the ladder, native then macro, each span
        chosen by :meth:`_bulk_span`."""
        while cycles:
            plan, span = self._bulk_span(cycles)
            if plan.rung == "macro":
                self.native_fallback_cycles += span
            self._run_plan(plan, span, bus, host_in)
            cycles -= span

    def _bulk_span(self, cycles: int, shortest: int = 1):
        """The ladder's choice for the next *cycles* of a configuration
        ready for the compiled tiers: ``(plan, span)``.

        The longest period multiple of *cycles* the native plan accepts
        (FIFO-safe, with strict FIFOs), else all of *cycles* on the
        macro kernel (which raises a strict underflow cycle-exactly).
        Fewer than *shortest* cycles go to macro without looking native
        up.
        """
        if cycles >= shortest:
            native = self._steady_plan("native")
            if native is not None:
                span = native.safe_cycles(cycles)
                if span:
                    return native, span
        return self._steady_plan("macro"), cycles

    def window_span(self, cycles: int):
        """How much of the next *cycles* one bulk window takes right now.

        Returns ``(plan, span, reason)``: the ladder's choice of
        :meth:`_bulk_span`, which :meth:`run` takes too, except that a
        window shorter than :data:`NATIVE_MIN_SPAN` goes to macro (the
        host side adds to every window's fixed cost).  Run it with
        :meth:`run_window`.  A kernel cached for the configuration, on
        this ring or as a process-wide template, is adopted here on a
        hit, so a switch back to a known configuration, or a fresh ring
        with one, needs no stepped cycle.  *reason* is set only when
        *span* is 0: ``"trace"`` (an observer is attached),
        ``"backend"`` (the ring runs no compiled scalar kernels: an
        interpreter or a vector batch ring) or ``"no_plan"`` (a
        first-time configuration, before it has been stepped for a
        cycle).
        """
        if self._trace is not None:
            return None, 0, "trace"
        if not self.fastpath_enabled:
            return None, 0, "backend"
        if self._config_dirty and not self._adopt_cached_hit():
            return None, 0, "no_plan"
        plan, span = self._bulk_span(cycles, NATIVE_MIN_SPAN)
        return plan, span, None

    def run_window(self, plan, cycles: int, bus: int = 0,
                   host_in: Optional[HostReader] = None,
                   taps: Sequence[int] = ()):
        """Run a span granted by :meth:`window_span` on its plan.

        *taps* are Dnode indices (``layer * width + position``, e.g.
        :meth:`~repro.host.streams.DataController.tap_nodes`).  Returns
        one int64 array with a row of *cycles* post-edge output values
        per tapped Dnode — what an output tap on that Dnode observes
        over the span.  A macro window's cycles count as native
        fall-back cycles, as in :meth:`run`.
        """
        word.check(bus, "bus value")
        self.last_bus = bus
        before = self.cycles
        try:
            return self._run_plan(plan, cycles, bus, host_in, taps)
        finally:
            if plan.rung == "macro":
                self.native_fallback_cycles += self.cycles - before

    def run(self, cycles: int, bus: int = 0,
            host_in: Optional[HostReader] = None) -> None:
        """Step the fabric *cycles* times with constant bus/host context.

        In steady state (no observer, a configuration ready for the
        compiled tiers) the whole batch runs down the ladder of
        :meth:`_run_steady` with no per-cycle dispatch.  With only
        *sampled* observers installed (a capture interval or cycle
        window), the batch is chunk-run the same way between capture
        points, so tracing does not force per-cycle dispatch; only an
        every-cycle observer does.
        """
        if cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {cycles}")
        word.check(bus, "bus value")
        if self.runs_lanes:
            self._run_batch(cycles, bus, host_in)
            return
        remaining = cycles
        while remaining > 0:
            if self.fastpath_enabled and (not self._config_dirty
                                          or self._adopt_cached_hit()):
                trace = self._trace
                if trace is None:
                    self.last_bus = bus
                    self._run_steady(remaining, bus, host_in)
                    return
                stride = self._trace_stride()
                if stride is None:
                    # Every observer's window is exhausted: free-run.
                    self.last_bus = bus
                    self._run_steady(remaining, bus, host_in)
                    return
                if stride > 1:
                    chunk = min(stride, remaining)
                    self.last_bus = bus
                    self._run_steady(chunk, bus, host_in)
                    remaining -= chunk
                    if chunk == stride:
                        trace(self)
                    continue
            self.step(bus=bus, host_in=host_in)
            remaining -= 1

    def _run_batch(self, cycles: int, bus: int,
                   host_in: Optional[HostReader]) -> None:
        """Batch-backend run loop: chunk between observer capture points.

        Lane 0 is written back to the scalar structures before every
        observer dispatch (and at the end of the run), so traces, metrics
        and taps see exactly what they would on a scalar engine.
        """
        engine = self._ensure_batch()
        remaining = cycles
        while remaining > 0:
            trace = self._trace
            chunk = remaining
            fire = False
            if trace is not None:
                stride = self._trace_stride()
                if stride is not None:
                    chunk = min(stride, remaining)
                    fire = chunk == stride
            self._run_plan(engine, chunk, bus, host_in)
            remaining -= chunk
            engine.store_lane(0)
            if fire:
                trace(self)

    def reset(self) -> None:
        """Datapath reset: registers, pipelines, FIFOs, counters.

        Configuration (microwords, modes, routing) is preserved, matching
        a hardware reset that does not clear configuration SRAM.  FIFO
        queues are cleared *in place*: any queue handle previously handed
        out by :meth:`fifo` (host/DMA producers hold these) stays live and
        keeps feeding the same Dnode after the reset.

        Counter semantics (asserted by ``tests/core/test_reset_semantics``
        — the regression net for future backend work):

        * **Cleared** — everything that describes the *run*: ``cycles``,
          per-Dnode :class:`~repro.core.dnode.DnodeStats`, local-sequencer
          counters, ``fifo_underflows``, ``fifo_high_water``,
          ``last_bus``, and the batch engine's per-lane state.  The
          engine itself is kept: the cleared scalar state is the
          datapath until the engine's next use, which broadcasts it
          across the lanes in place (so a snapshot restore, a fault or a
          FIFO push made in between reaches every lane), and until then
          the engine counts as absent (:meth:`_live_batch`).
        * **Preserved** — everything that describes the *machine and its
          host*: the configuration and its write counters
          (``config.writes``, per-switch ``config.writes``),
          ``plan_compiles`` / ``plan_invalidations`` / ``macro_cycles``
          / ``native_cycles`` / ``native_compiles`` /
          ``native_fallback_cycles``,
          the ring's plan cache (contents *and* hit/miss/eviction
          statistics),
          the robustness counters (``faults_injected``, ``checkpoints``,
          ``rollbacks``, ``recovery_cycles``) — and the active compiled
          kernels, scalar and lane alike: they close over the stable
          state containers (the Dnodes' and switches' state, the lane
          arrays and lane queues) that are cleared in place, and the
          configuration is untouched, so the next run resumes on them
          without a lookup or a recompile (a kernel whose phase does not
          hold the cleared counters is looked up again by its key).
        """
        for layer in self._dnodes:
            for dn in layer:
                dn.reset()
        for sw in self._switches:
            sw.reset()
        for queue in self._fifos.values():
            queue.clear()
        self.cycles = 0
        self.fifo_underflows = 0
        self.fifo_high_water.clear()
        self.last_bus = 0
        if self._batch_engine is not None:
            self._batch_engine._stale = True

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def instructions_executed(self) -> int:
        """Total non-NOP microinstructions executed fabric-wide."""
        return sum(dn.stats.instructions for dn in self.all_dnodes())

    @property
    def arithmetic_ops_executed(self) -> int:
        """Total elementary operator activations (MAC counts as 2)."""
        return sum(dn.stats.arithmetic_ops for dn in self.all_dnodes())

    def utilization(self) -> float:
        """Fraction of Dnode-cycles that executed a real instruction."""
        total = sum(dn.stats.cycles for dn in self.all_dnodes())
        if total == 0:
            return 0.0
        return self.instructions_executed / total

    # ------------------------------------------------------------------

    def _resolve_port(self, sw: Switch, upstream: List[Dnode], pos: int,
                      port: int, bus: int,
                      host_in: Optional[HostReader]) -> int:
        src = sw.config.source_for(pos, port)
        if src.kind is PortKind.ZERO:
            return 0
        if src.kind is PortKind.UP:
            return upstream[src.index].out
        if src.kind is PortKind.RP:
            return sw.rp_read(src.index, src.lane)
        if src.kind is PortKind.BUS:
            return bus
        if src.kind is PortKind.HOST:
            if host_in is None:
                raise SimulationError(
                    f"switch {sw.index} routes port {port} of position "
                    f"{pos} to host channel {src.index}, but no host "
                    f"reader was supplied"
                )
            return word.check(host_in(src.index),
                              f"host channel {src.index}")
        raise SimulationError(f"unhandled port source {src!r}")

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"Ring(Ring-{g.dnodes}: {g.layers}x{g.width}, "
            f"cycle={self.cycles})"
        )


def make_ring(dnodes: int, width: int = 2, **kwargs) -> Ring:
    """Convenience constructor: ``make_ring(8)`` builds the paper's Ring-8."""
    return Ring(RingGeometry.ring(dnodes, width=width), **kwargs)


__all__ = ["Ring", "RingGeometry", "RingProfile", "make_ring", "PortSource"]
