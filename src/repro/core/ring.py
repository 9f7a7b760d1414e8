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

Two execution engines drive the same semantics:

* the **interpreter** (:meth:`Ring._step_interpreted`) re-resolves switch
  routing and microword dispatch every cycle — the reference
  implementation;
* the **fast path** (:mod:`repro.core.fastpath`) pre-decodes the current
  configuration into direct per-Dnode closures and is used automatically
  whenever the configuration has been stable for a full cycle.  Every
  configuration mutation invalidates it, so reconfiguration always takes
  effect on the very next cycle, exactly as before.

Compiled plans are retained in an LRU
:class:`~repro.core.plancache.PlanCache` keyed by
:meth:`Ring.config_fingerprint`, so multiplexing between known
configurations re-adopts each plan in one lookup instead of recompiling
(see ``docs/architecture.md``, "Plan cache & the native ladder").

``backend`` is the one engine selector.  A ``"native"`` ring (the
default) runs each steady-state span down a fall-back ladder:
time-vectorized NumPy kernels (:mod:`repro.core.nativepath`), then — for
whatever native refuses or leaves over — generated macro kernels
(:mod:`repro.core.macropath`) that pay Python dispatch once per sequencer
period, then the per-cycle plan.  The per-cycle plan is a rung, not a
backend: nothing selects it alone.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import word
from repro.core.config_memory import ConfigMemory, _Fingerprint
from repro.core.dnode import Dnode, DnodeInputs, DnodeMode
from repro.core.fastpath import compile_plan
from repro.core.isa import FEEDBACK_DEPTH
from repro.core.macropath import compile_macro
from repro.core.nativepath import compile_native
from repro.core.plancache import DEFAULT_CAPACITY, PlanCache
from repro.core.switch import PortKind, PortSource, Switch
from repro.errors import ConfigurationError, SimulationError


class _Refusal(str):
    """Negative macro/native plan entry (on ``Ring._steady`` and in the
    plan cache): why the tier cannot compile the configuration."""


HostReader = Callable[[int], int]

RingObserver = Callable[["Ring"], None]


class _CycleObserver:
    """One registered per-cycle callback with its capture schedule.

    ``interval`` samples the observer every N-th cycle (measured on the
    post-commit :attr:`Ring.cycles` value, so interval 4 fires after
    cycles 4, 8, 12, ...); ``start``/``stop`` bound an inclusive capture
    window on the same cycle index.  The schedule is what lets
    :meth:`Ring.run` keep batches on the compiled fast path between
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
    rung: the native, macro and per-cycle plans of the scalar ladder and
    the batch engine (a lane window books lockstep cycles, not
    lane-cycles).  ``compile_seconds`` covers per-cycle plan compiles
    and native and macro code generation; ``plan_compiles`` counts the
    per-cycle plans only.  The field names predate the ladder and stay
    because the benchmark suite (``benchmarks/suite``) reads them.
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
        "native": "time-vectorized NumPy kernels (optional Numba "
                  "jit), falling back to generated macro kernels, "
                  "then the per-cycle plan",
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
                 batch_size: int = 1,
                 plan_cache: int = DEFAULT_CAPACITY):
        self.geometry = geometry
        self.strict_fifos = strict_fifos
        self._check_backend(backend, batch_size)
        self.backend = backend
        self.batch_size = batch_size
        #: Configuration-fingerprinted LRU cache of compiled plans (and
        #: macro/native kernels).  Capacity 0 disables caching entirely.
        self.plan_cache = PlanCache(plan_cache)
        #: Cycles executed by fused macro kernels (coverage metric).
        self.macro_cycles = 0
        #: Native-tier lifetime counters: cycles executed by
        #: time-vectorized kernels, plans compiled, and cycles a
        #: ``backend="native"`` ring had to hand to the fall-back ladder
        #: (ineligible configuration, sub-period remainders, unsafe FIFO
        #: windows).  Host-side accounting like ``macro_cycles`` —
        #: preserved across :meth:`reset` and snapshot restore.
        self.native_cycles = 0
        self.native_compiles = 0
        self.native_fallback_cycles = 0
        # Active "macro" / "native" plan per tier for the current
        # configuration + entry phase (absent = not compiled, a _Refusal
        # = the tier cannot compile it).
        self._steady: Dict[str, object] = {}
        # Cached config_fingerprint() (None = recompute).
        self._fingerprint = None
        # The last ConfigPlane applied, until any other configuration
        # write (see repro.core.config_memory).
        self._resident_plane = None
        self._dnodes: List[List[Dnode]] = [
            [Dnode(layer, pos) for pos in range(geometry.width)]
            for layer in range(geometry.layers)
        ]
        self._switches: List[Switch] = [
            Switch(k, geometry.width, geometry.pipeline_depth)
            for k in range(geometry.layers)
        ]
        self._fifos: Dict[Tuple[int, int, int], Deque[int]] = {}
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
        #: Fast-path lifecycle counters (always-on, config-path cost only).
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
        self._legacy_trace: Optional[RingObserver] = None
        self._profile: Optional[RingProfile] = None
        #: Composed post-commit hook: None when nothing observes, a bare
        #: callback for the single always-on observer, otherwise a
        #: dispatcher that applies each observer's capture schedule.
        self._trace: Optional[Callable[["Ring"], None]] = None
        # Steady-state fast path: compiled plan + invalidation wiring.
        # `_plan` is the active pre-decoded engine (None = interpret);
        # `_config_dirty` means a mutation happened during/after the last
        # interpreted cycle, deferring compilation until the configuration
        # has been stable for one full cycle (so controller-driven
        # hardware multiplexing never pays compile overhead).
        self._plan = None
        self._config_dirty = True
        #: Extra callbacks fired on every configuration mutation (the
        #: batch engine hooks in here, reusing the fast-path wiring).
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
        the lanes).
        """
        if self.backend != "batch":
            raise ConfigurationError(
                f"ring backend is {self.backend!r}, not 'batch'"
            )
        return self._ensure_batch()

    @property
    def fastpath_enabled(self) -> bool:
        """Does this ring run compiled scalar plans (the native ladder)?

        Every backend but the interpreter does.  The ladder also backs
        batch mode at B=1: one lane of NumPy-array indexing is strictly
        slower than the scalar plan (~6x in BENCH_batch.json), and the
        lane-0 writeback contract is trivially the scalar state itself.
        The vector engine is only engaged at B>1 or once `ring.batch`
        has been handed out.
        """
        return self.backend != "interpreter" and self.batch_size == 1

    def _ensure_batch(self):
        if self._batch_engine is None:
            from repro.core.batchpath import BatchRing
            self._batch_engine = BatchRing(self, self.batch_size)
        return self._batch_engine

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
        self._plan = None
        self._steady.clear()
        self._config_dirty = True

    def set_plan_cache(self, capacity: int) -> None:
        """Resize (or with 0, disable) the compiled-plan cache.

        Replaces the cache, so existing entries and lifetime counters are
        dropped; the active plan (if any) is unaffected.  The batch
        engine's kernel cache is resized to match.
        """
        self.plan_cache = PlanCache(capacity)
        if self._batch_engine is not None:
            self._batch_engine.set_plan_cache(capacity)

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

    def fifo(self, layer: int, position: int, channel: int) -> Deque[int]:
        """The input FIFO *channel* (1 or 2) of a Dnode; created on demand."""
        if channel not in (1, 2):
            raise ConfigurationError(f"FIFO channel must be 1 or 2, got {channel}")
        self.dnode(layer, position)  # validates the address
        key = (layer, position, channel)
        if key not in self._fifos:
            self._fifos[key] = deque()
        return self._fifos[key]

    def push_fifo(self, layer: int, position: int, channel: int,
                  values) -> None:
        """Append one or more raw words to a Dnode input FIFO."""
        queue = self.fifo(layer, position, channel)
        if isinstance(values, int):
            values = [values]
        else:
            values = list(values)
        if (values and set(map(type, values)) == {int}
                and 0 <= min(values) and max(values) <= word.MASK):
            # Plain ints in range: one validation pass for the block.
            queue.extend(values)
        else:
            # Anything else is checked word by word, so a bad word
            # raises the same error after the same partial push.
            for v in values:
                queue.append(word.check(v, "FIFO push"))
        key = (layer, position, channel)
        depth = len(queue)
        if depth > self.fifo_high_water.get(key, 0):
            self.fifo_high_water[key] = depth
        if self._batch_engine is not None:
            # Keep the lane FIFOs coherent: a scalar push reaches every
            # lane (lane-specific loads go through BatchRing.push_fifo).
            self._batch_engine.push_fifo(layer, position, channel, values)

    def _fifo_peek(self, layer: int, position: int, channel: int) -> int:
        queue = self._fifos.get((layer, position, channel))
        if not queue:
            if self.strict_fifos:
                raise SimulationError(
                    f"D{layer}.{position} read empty FIFO{channel} at cycle "
                    f"{self.cycles}"
                )
            self.fifo_underflows += 1
            return 0
        return queue[0]

    def _fifo_pop(self, layer: int, position: int, channel: int) -> bool:
        """Apply one requested pop; report whether a word actually left.

        An underflowed pop (empty queue) dequeues nothing: it raises in
        strict mode and counts toward :attr:`fifo_underflows` otherwise,
        so pop statistics never drift from real dequeues.
        """
        queue = self._fifos.get((layer, position, channel))
        if queue:
            queue.popleft()
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
        :meth:`run` on the compiled fast path between captures: the batch
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
        if self._legacy_trace == callback:
            self._legacy_trace = None
        self._rebuild_trace()

    def set_trace(self, callback: Optional[Callable[["Ring"], None]]) -> None:
        """Install a per-cycle observer, called after each commit.

        Legacy single-hook interface: each call replaces only the hook
        previously installed *through this method* — observers registered
        with :meth:`add_observer` are never touched, so a waveform trace
        and a metrics observer can coexist.
        """
        if self._legacy_trace is not None:
            self.remove_observer(self._legacy_trace)
        if callback is not None:
            self.add_observer(callback)
            self._legacy_trace = callback

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
    def profile(self, warmup: int = 0, bus: int = 0,
                host_in: Optional[HostReader] = None):
        """Context manager timing the engines while the block runs.

        Yields a :class:`RingProfile` that accumulates wall-clock seconds
        and cycle counts separately for the interpreter, the compiled fast
        path, and plan compilation.  Profiling adds one predicate per
        dispatch decision — nothing on the per-cycle fast path itself.

        Args:
            warmup: cycles to run *untimed* before the profile attaches.
                First-touch costs (plan compilation, macro/native codegen,
                any Numba jit) land in the warm-up chunk instead of the
                measured region, so the profile reports steady-state
                throughput — the number the compiler autopilot scores
                candidate mappings by.
            bus: bus value driven during the warm-up cycles.
            host_in: host resolver used during the warm-up cycles (the
                profiled block supplies its own).
        """
        if self._profile is not None:
            raise SimulationError("ring is already being profiled")
        if warmup < 0:
            raise SimulationError(
                f"profile warmup must be >= 0, got {warmup}")
        if warmup:
            self.run(warmup, bus=bus, host_in=host_in)
        profile = RingProfile()
        self._profile = profile
        try:
            yield profile
        finally:
            self._profile = None

    def step(self, bus: int = 0,
             host_in: Optional[HostReader] = None) -> None:
        """Advance the fabric by one clock cycle.

        Dispatches to the pre-decoded fast path when the current
        configuration has a valid compiled plan; otherwise interprets the
        cycle and (once the configuration has been stable for a full
        cycle) compiles a fresh plan for subsequent cycles.

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
        if self.backend == "batch" and (
                self.batch_size > 1 or self._batch_engine is not None):
            engine = self._ensure_batch()
            self._run_plan(engine, 1, bus, host_in)
            engine.store_lane(0)
            if self._trace is not None:
                self._trace(self)
            return
        plan = self._plan
        if plan is None and self.fastpath_enabled and self._config_dirty:
            # A configuration that already stepped one cycle without a
            # plan missed the cache then; it compiles after this cycle.
            plan = self._adopt_cached_plan()
        if plan is not None:
            self._run_plan(plan, 1, bus, host_in)
            if self._trace is not None:
                self._trace(self)
            return
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
        self._maybe_compile()

    def _run_plan(self, plan, cycles: int, bus: int,
                  host_in: Optional[HostReader], *taps):
        """Execute *cycles* on a compiled rung, booked if profiled.

        *plan* is a per-cycle, macro or native plan or the batch engine;
        *taps* is passed through to its ``run`` and its result returned.
        The profile books cycles off :attr:`cycles`, so a batch window
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
        """One clock cycle through the reference interpreter."""
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
        if self._trace is not None:
            self._trace(self)

    def _invalidate_fastpath(self) -> None:
        """Configuration mutated: drop the compiled plan, defer recompile.

        Wired into every configuration write path — Dnode microwords and
        modes, local-sequencer slots and LIMIT, switch routing, and thereby
        every :class:`~repro.core.config_memory.ConfigMemory` write.

        The dropped plan stays in :attr:`plan_cache`: the next cycle
        looks the new configuration up by fingerprint and re-adopts a
        cached plan with zero interpreted cycles when it was seen before.
        Any configuration write also ends the resident plane's tenure.
        """
        if self._plan is not None:
            self._plan = None
            self.plan_invalidations += 1
        self._steady.clear()
        self._fingerprint = None
        self._resident_plane = None
        self._config_dirty = True
        for listener in self._invalidation_listeners:
            listener()

    def config_fingerprint(self) -> tuple:
        """Stable, hashable digest of the full fabric configuration.

        Concatenates every Dnode's fingerprint (mode + executable
        microwords, layer-major order) with every switch's routing
        fingerprint.  Cached until the next configuration mutation (each
        component also caches its own part), and the digest hashes only
        once, so the plan, macro and native cache lookups after a
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

    def _adopt_cached_plan(self):
        """Plan-cache lookup for the current configuration.

        On a hit the cached plan is adopted immediately — including on
        the first cycle after a reconfiguration, which previously always
        interpreted.  On a miss while the configuration is freshly
        mutated, a fingerprint that has missed before is evidently part
        of a multiplexing working set and is compiled eagerly; a
        first-time fingerprint keeps the legacy deferred policy (so a
        never-repeating per-cycle reconfiguration stream still compiles
        nothing).
        """
        cache = self.plan_cache
        if not cache.capacity:
            return None
        key = ("plan", self.config_fingerprint())
        plan = cache.get(key)
        if plan is None and self._config_dirty and cache.note_miss(key):
            plan = self._compile_plan_timed()
            cache.put(key, plan)
        if plan is not None:
            self._plan = plan
            self._config_dirty = False
        return plan

    def _adopt_cached_hit(self):
        """Adopt the cached plan for the current configuration on a hit.

        The hit-only twin of :meth:`_adopt_cached_plan` for the window
        boundary: a miss is neither counted nor noted, so a first-time
        fingerprint keeps the deferred compile policy of the cycle that
        steps it (a never-repeating reconfiguration stream still
        compiles nothing).
        """
        plan = self.plan_cache.get(("plan", self.config_fingerprint()),
                                   count_miss=False)
        if plan is not None:
            self._plan = plan
            self._config_dirty = False
        return plan

    def adopt_cached_plan(self) -> bool:
        """Re-adopt a compiled plan for the current configuration now.

        Public hook for restore paths (checkpoint rollback and
        migration): after the configuration settles, one fingerprint
        lookup re-activates a cached plan immediately instead of waiting
        for the first ``step()`` to do it lazily.  Returns ``True`` when
        a compiled plan is active afterwards.  The interpreter and a
        vector batch ring never adopt scalar plans, so this is a no-op
        there.
        """
        if not self.fastpath_enabled:
            return False
        if self._plan is not None:
            return True
        return self._adopt_cached_plan() is not None

    def _compile_plan_timed(self):
        """Compile a fast-path plan for the current configuration."""
        profile = self._profile
        if profile is None:
            plan = compile_plan(self)
        else:
            began = perf_counter()
            plan = compile_plan(self)
            profile.compile_seconds += perf_counter() - began
            profile.plan_compiles += 1
        self.plan_compiles += 1
        return plan

    def _maybe_compile(self) -> None:
        """Compile a plan once the configuration survived a stable cycle."""
        if self._config_dirty:
            self._config_dirty = False
        elif self.fastpath_enabled and self._plan is None:
            plan = self._compile_plan_timed()
            self._plan = plan
            cache = self.plan_cache
            if cache.capacity:
                cache.put(("plan", self.config_fingerprint()), plan)

    def _steady_plan(self, tier: str):
        """The *tier* ("macro" or "native") plan for the current
        configuration + entry phase, or None when the tier refuses it.

        Plans are cached in :attr:`plan_cache` keyed by tier, entry phase
        and fingerprint, so a restore or reconfiguration back to a known
        state re-adopts the compiled kernel with zero codegen.  Refusals
        are cached under the same key as a :class:`_Refusal` carrying the
        reason (:attr:`native_refusal`), so each configuration is tried
        at most once per tier.
        """
        plan = self._steady.get(tier)
        if isinstance(plan, _Refusal):
            return None
        if plan is not None and plan.matches_phase():
            return plan
        cache = self.plan_cache
        key = plan = None
        if cache.capacity:
            phase = tuple(
                dn.local._counter for layer in self._dnodes
                for dn in layer if dn.mode is DnodeMode.LOCAL
            )
            key = (tier, phase, self.config_fingerprint())
            plan = cache.get(key)
        if plan is None:
            refusal: List[str] = []
            compiler = compile_native if tier == "native" else compile_macro
            profile = self._profile
            began = perf_counter()
            plan = compiler(self, refusal)
            if profile is not None:
                profile.compile_seconds += perf_counter() - began
            if plan is None:
                plan = _Refusal(refusal[0])
            elif tier == "native":
                self.native_compiles += 1
            if key is not None:
                cache.put(key, plan)
        self._steady[tier] = plan
        return None if isinstance(plan, _Refusal) else plan

    @property
    def native_refusal(self) -> Optional[str]:
        """Why the native tier refuses the current configuration.

        None when the configuration (at the current entry phase) compiles
        to a native plan.  Otherwise a reason naming what blocks
        time-vectorization — the offending Dnode and phase for a
        recurrence with no closed form, the Dnodes on a cross-Dnode
        dependence cycle, an out-of-range feedback tap, or the period
        cap.  Resolves (and caches) the plan like a run would.
        """
        native = self._steady_plan("native")
        return None if native is not None else str(self._steady["native"])

    def _run_steady(self, plan, cycles: int, bus: int,
                    host_in: Optional[HostReader]) -> None:
        """Run *cycles* on the compiled engines: native, macro, per-cycle.

        The longest FIFO-safe period-multiple prefix executes through the
        time-vectorized kernel; whatever it cannot take (ineligible
        configuration, sub-period remainder, unsafe FIFO window) runs in
        period-multiples through the fused macro kernel when that leftover
        spans at least one period (and more than one cycle); the rest goes
        through the per-cycle plan.
        """
        native = self._steady_plan("native")
        safe = native.safe_cycles(cycles) if native is not None else 0
        if safe:
            self._run_plan(native, safe, bus, host_in)
            cycles -= safe
        if cycles:
            self.native_fallback_cycles += cycles
        if cycles > 1:
            macro = self._steady_plan("macro")
            if macro is not None and cycles >= macro.period:
                fused = cycles - cycles % macro.period
                self._run_plan(macro, fused, bus, host_in)
                cycles -= fused
        if cycles:
            self._run_plan(plan, cycles, bus, host_in)

    def window_span(self, cycles: int):
        """How much of the next *cycles* one bulk window takes right now.

        Returns ``(plan, span, reason)``.  The span climbs the ladder:
        the longest FIFO-safe period multiple of *cycles* the native
        plan for the current configuration and entry phase accepts,
        else the longest period multiple for the macro kernel (which
        handles FIFO underflow cycle-exactly).  Run it with
        :meth:`run_window`.  A plan cached for the configuration is
        adopted here on a hit, so a switch back to a known configuration
        needs no stepped cycle.  *reason* is set only when *span* is 0:
        ``"trace"`` (an observer is attached), ``"backend"`` (the ring
        runs no compiled scalar plans: an interpreter or a vector batch
        ring), ``"no_plan"`` (a first-time configuration, before its
        plan is compiled), or, when neither native nor macro takes the
        span, ``"native_refused"`` (ineligible configuration),
        ``"remainder"`` (less than one period left) or ``"fifo_gated"``
        (the FIFO occupancies cannot feed a whole native period).
        """
        if self._trace is not None:
            return None, 0, "trace"
        if not self.fastpath_enabled:
            return None, 0, "backend"
        if self._plan is None and self._adopt_cached_hit() is None:
            return None, 0, "no_plan"
        native = self._steady_plan("native")
        if native is not None:
            if cycles < native.period:
                return None, 0, "remainder"
            span = native.safe_cycles(cycles)
            if span:
                return native, span, None
        macro = self._steady_plan("macro")
        if macro is None:
            return (None, 0,
                    "native_refused" if native is None else "fifo_gated")
        span = cycles - cycles % macro.period
        if not span:
            return None, 0, "remainder"
        return macro, span, None

    def run_window(self, plan, cycles: int, bus: int = 0,
                   host_in: Optional[HostReader] = None,
                   taps: Sequence[Tuple[int, int]] = ()) -> list:
        """Run a span granted by :meth:`window_span` on its plan.

        Returns one int64 array of *cycles* post-edge output values per
        ``(layer, position)`` in *taps* — what an output tap on that
        Dnode observes over the span.  A macro window's cycles count as
        native fall-back cycles, as in :meth:`run`.
        """
        width = self.geometry.width
        nodes = []
        for layer, position in taps:
            self.dnode(layer, position)  # validates the address
            nodes.append(layer * width + position)
        word.check(bus, "bus value")
        self.last_bus = bus
        before = self.cycles
        try:
            return self._run_plan(plan, cycles, bus, host_in, nodes)
        finally:
            if plan.rung == "macro":
                self.native_fallback_cycles += self.cycles - before

    def run(self, cycles: int, bus: int = 0,
            host_in: Optional[HostReader] = None) -> None:
        """Step the fabric *cycles* times with constant bus/host context.

        In steady state (no observer, valid plan) the whole batch executes
        inside the compiled fast path with no per-cycle dispatch.  With
        only *sampled* observers installed (a capture interval or cycle
        window), the batch is chunk-run on the same compiled plan between
        capture points, so tracing no longer forces per-cycle interpreted
        dispatch; only an every-cycle observer does.
        """
        if cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {cycles}")
        word.check(bus, "bus value")
        if self.backend == "batch" and (
                self.batch_size > 1 or self._batch_engine is not None):
            self._run_batch(cycles, bus, host_in)
            return
        remaining = cycles
        while remaining > 0:
            plan = self._plan
            if plan is not None:
                trace = self._trace
                if trace is None:
                    self.last_bus = bus
                    self._run_steady(plan, remaining, bus, host_in)
                    return
                stride = self._trace_stride()
                if stride is None:
                    # Every observer's window is exhausted: free-run.
                    self.last_bus = bus
                    self._run_steady(plan, remaining, bus, host_in)
                    return
                if stride > 1:
                    chunk = min(stride, remaining)
                    self.last_bus = bus
                    self._run_steady(plan, chunk, bus, host_in)
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
          ``last_bus``, and the batch engine's per-lane state (the engine
          is detached and lazily rebuilt from the cleared scalar state).
        * **Preserved** — everything that describes the *machine and its
          host*: the configuration and its write counters
          (``config.writes``, per-switch ``config.writes``),
          ``plan_compiles`` / ``plan_invalidations`` / ``macro_cycles``
          / ``native_cycles`` / ``native_compiles`` /
          ``native_fallback_cycles``,
          the plan cache (contents *and* hit/miss/eviction statistics),
          the robustness counters (``faults_injected``, ``checkpoints``,
          ``rollbacks``, ``recovery_cycles``) — and the active compiled
          plan: it closes over the stable state containers just cleared
          in place and the configuration is untouched, so the next step
          resumes on the fast path without recompiling.
        """
        for dn in self.all_dnodes():
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
            # Drop the lane state entirely: the next batch run rebuilds
            # it by broadcasting the (now cleared) scalar datapath.
            self._batch_engine.detach()
            self._batch_engine = None

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
