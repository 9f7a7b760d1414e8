"""Vectorized multi-stream execution backend for the ring fabric.

The fast path (:mod:`repro.core.fastpath`) exploits the configuration
being *static between controller writes*; this module exploits a second
invariant: the configuration is also *lane-invariant*.  Control flow —
which microword executes, which writes are staged, how local sequencers
advance, which FIFO pops are requested — is decided entirely by the
configuration, never by data.  So B independent sample streams pushed
through one configuration take exactly the same control path and differ
only in their data words, which makes the whole fabric vectorizable:
every state element grows a trailing *lane* axis of length B and each
per-cycle action becomes one NumPy array operation over all lanes.

:class:`BatchRing` compiles the attached ring's configuration into flat
per-Dnode array kernels (the same eval / shift / commit phase structure
as the fast path) over ``int32`` state arrays:

* ``outs[layer, position, lane]`` — OUT registers,
* ``regs[layer, position, r, lane]`` — register files,
* ``pipes[layer, lane_idx, stage, lane]`` — feedback pipelines, which
  all rotate in lockstep so one shared head index serves every switch,
* per-lane circular-buffer FIFOs (:class:`_BatchFifo`) with per-lane
  underflow and pop accounting.

``int32`` is sufficient headroom: the widest intermediate any opcode
produces is a signed 16x16 product (|x| <= 2^30) plus a 16-bit addend,
or ``SHL``'s ``0xFFFF << 15`` — both comfortably inside 31 bits.

All values are raw 16-bit words exactly as in :mod:`repro.word`; the
vectorized sign reinterpretation is ``(v ^ 0x8000) - 0x8000`` and every
arithmetic result is masked back with ``& 0xFFFF``, so wrap-around
semantics are bit-identical to the scalar ALU (the differential suite in
``tests/core/test_differential.py`` and the signed-overflow audit prove
it).  Per-Dnode statistics stay exact: cycles/instructions/arithmetic
ops/multiplies are lane-invariant and applied in closed form per run,
while FIFO pops and underflows — which depend on per-lane occupancy —
are tracked as per-lane arrays.

Plan lifetime mirrors the fast path: the ring fires its invalidation
hook on every configuration write (Dnode microwords and modes, local
slots/LIMIT, switch routes), the batch kernels are dropped, and the next
``run()`` recompiles them over the *preserved* lane state — mid-run
reconfiguration behaves identically to the scalar engines.

Known divergence (shared with the fast path): inside a cycle aborted by
a strict-FIFO error the partial state differs from the interpreter, and
closed-form instruction counts cover completed cycles only.  Error
messages themselves are identical.
"""

from __future__ import annotations

from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

import numpy as np

from repro import word
from repro.core.dnode import Dnode, DnodeMode, _MULTIPLY_OPS, _OP_COST
from repro.core.isa import (
    ACCUMULATING_OPS,
    Dest,
    Flag,
    MicroWord,
    Opcode,
)
from repro.core.plancache import PlanCache
from repro.core.regfile import NUM_REGISTERS
from repro.core.switch import PortKind, Switch
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: Storage dtype of every lane-indexed state array (see module docstring
#: for the 31-bit headroom argument).
LANE_DTYPE = np.int32

_MASK = word.MASK
_SIGN = word.SIGN_BIT
_MIN_S = word.MIN_SIGNED
_MAX_S = word.MAX_SIGNED
_SHIFT_MASK = word.WIDTH - 1


# ----------------------------------------------------------------------
# Vectorized 16-bit word semantics (shared with the audit test)
# ----------------------------------------------------------------------


def batch_to_signed(v):
    """Reinterpret raw 16-bit words as signed (scalar or ndarray)."""
    return (v ^ _SIGN) - _SIGN


def batch_wrap(v):
    """Wrap any integer value (scalar or ndarray) to a raw 16-bit word."""
    return v & _MASK


def batch_saturate_signed(v):
    """Clamp to INT16 then return the raw two's-complement word."""
    return np.clip(v, _MIN_S, _MAX_S) & _MASK


_BATCH_UNARY = {
    Opcode.MOV: lambda a: a,
    Opcode.NOT: lambda a: (~a) & _MASK,
    Opcode.NEG: lambda a: (-batch_to_signed(a)) & _MASK,
    Opcode.ABS: lambda a: abs(batch_to_signed(a)) & _MASK,
}

_BATCH_BINARY = {
    Opcode.ADD: lambda a, b: (a + b) & _MASK,
    Opcode.SUB: lambda a, b: (a - b) & _MASK,
    Opcode.MUL: lambda a, b:
        (batch_to_signed(a) * batch_to_signed(b)) & _MASK,
    Opcode.MULH: lambda a, b:
        ((batch_to_signed(a) * batch_to_signed(b)) >> word.WIDTH) & _MASK,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: (a << (b & _SHIFT_MASK)) & _MASK,
    Opcode.SHR: lambda a, b: (a & _MASK) >> (b & _SHIFT_MASK),
    Opcode.ASR: lambda a, b:
        (batch_to_signed(a) >> (b & _SHIFT_MASK)) & _MASK,
    Opcode.ABSDIFF: lambda a, b:
        abs(batch_to_signed(a) - batch_to_signed(b)) & _MASK,
    Opcode.MIN: lambda a, b:
        np.where(batch_to_signed(a) <= batch_to_signed(b), a, b),
    Opcode.MAX: lambda a, b:
        np.where(batch_to_signed(a) >= batch_to_signed(b), a, b),
    Opcode.ADDSAT: lambda a, b:
        batch_saturate_signed(batch_to_signed(a) + batch_to_signed(b)),
    Opcode.SUBSAT: lambda a, b:
        batch_saturate_signed(batch_to_signed(a) - batch_to_signed(b)),
    Opcode.CMPEQ: lambda a, b: np.where(a == b, 1, 0),
    Opcode.CMPLT: lambda a, b:
        np.where(batch_to_signed(a) < batch_to_signed(b), 1, 0),
    Opcode.AVG2: lambda a, b:
        ((batch_to_signed(a) + batch_to_signed(b)) >> 1) & _MASK,
}


def batch_execute_op(op: Opcode, a, b=0, acc=0, imm=0):
    """Vectorized mirror of :func:`repro.core.alu.execute_op`.

    Operands are raw 16-bit words, scalar or NumPy integer arrays
    (broadcasting applies); the result is raw words of the broadcast
    shape.  Bit-identity with the scalar ALU over the whole INT16 range
    is asserted by the signed-overflow audit test.
    """
    if op is Opcode.NOP:
        return a & 0
    if op is Opcode.MAC:
        return (batch_to_signed(a) * batch_to_signed(b)
                + batch_to_signed(acc)) & _MASK
    if op is Opcode.MACS:
        return batch_saturate_signed(
            batch_to_signed(a) * batch_to_signed(b) + batch_to_signed(acc))
    if op is Opcode.MADD:
        return (batch_to_signed(a)
                + batch_to_signed(b) * batch_to_signed(imm)) & _MASK
    if op is Opcode.MSUB:
        return (batch_to_signed(a)
                - batch_to_signed(b) * batch_to_signed(imm)) & _MASK
    handler = _BATCH_UNARY.get(op)
    if handler is not None:
        return handler(a)
    handler_b = _BATCH_BINARY.get(op)
    if handler_b is not None:
        return handler_b(a, b)
    raise SimulationError(f"opcode {op!r} has no batch kernel")


# ----------------------------------------------------------------------
# Per-lane FIFOs
# ----------------------------------------------------------------------


class _BatchFifo:
    """One Dnode input FIFO across B lanes (circular buffer per lane)."""

    __slots__ = ("batch", "data", "head", "count", "_lanes")

    def __init__(self, batch: int, capacity: int = 8):
        self.batch = batch
        self.data = np.zeros((capacity, batch), dtype=LANE_DTYPE)
        self.head = np.zeros(batch, dtype=np.int64)
        self.count = np.zeros(batch, dtype=np.int64)
        self._lanes = np.arange(batch)

    @property
    def capacity(self) -> int:
        return self.data.shape[0]

    def _grow(self, needed: int) -> None:
        cap = self.capacity
        new_cap = max(needed, cap * 2)
        new = np.zeros((new_cap, self.batch), dtype=LANE_DTYPE)
        for lane in range(self.batch):
            c = int(self.count[lane])
            if c:
                idx = (int(self.head[lane]) + np.arange(c)) % cap
                new[:c, lane] = self.data[idx, lane]
        self.data = new
        self.head[:] = 0

    def push_lane(self, lane: int, values: List[int]) -> None:
        n = len(values)
        if not n:
            return
        if int(self.count[lane]) + n > self.capacity:
            self._grow(int(self.count.max()) + n)
        idx = (int(self.head[lane]) + int(self.count[lane])
               + np.arange(n)) % self.capacity
        self.data[idx, lane] = values
        self.count[lane] += n

    def push_all(self, values: List[int]) -> None:
        """Append the same words to every lane."""
        n = len(values)
        if not n:
            return
        if int(self.count.max()) + n > self.capacity:
            self._grow(int(self.count.max()) + n)
        arr = np.asarray(values, dtype=LANE_DTYPE)
        idx = (self.head[None, :] + self.count[None, :]
               + np.arange(n)[:, None]) % self.capacity
        self.data[idx, self._lanes[None, :]] = arr[:, None]
        self.count += n

    def peek(self):
        """Head word per lane (0 where empty) plus the empty-lane mask."""
        vals = self.data[self.head, self._lanes]
        empty = self.count == 0
        if empty.any():
            vals = np.where(empty, 0, vals)
        return vals, empty

    def pop(self):
        """Dequeue where non-empty; returns the landed (success) mask."""
        ok = self.count > 0
        self.head += ok
        self.head %= self.capacity
        self.count -= ok
        return ok

    def contents(self, lane: int) -> List[int]:
        c = int(self.count[lane])
        if not c:
            return []
        idx = (int(self.head[lane]) + np.arange(c)) % self.capacity
        return [int(v) for v in self.data[idx, lane]]


# ----------------------------------------------------------------------
# The batch engine
# ----------------------------------------------------------------------


def _pops_of(mw: MicroWord) -> Tuple[int, ...]:
    pops = []
    if mw.flags & Flag.POP_FIFO1:
        pops.append(1)
    if mw.flags & Flag.POP_FIFO2:
        pops.append(2)
    return tuple(pops)


def _copy_into(dst: np.ndarray, src: np.ndarray) -> Callable[[], None]:
    def act(_d=dst, _s=src):
        _d[:] = _s
    return act


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
        self.lane_fifo_pops: Dict[Tuple[int, int], np.ndarray] = {
            (l, p): np.zeros(batch, dtype=np.int64)
            for l in range(layers) for p in range(width)
        }
        self._pending = np.zeros((layers, width, batch), dtype=LANE_DTYPE)
        self._head = 0
        self._counters: Dict[Tuple[int, int], List[int]] = {
            (l, p): [0] for l in range(layers) for p in range(width)
        }
        self._fifos: Dict[Tuple[int, int, int], _BatchFifo] = {}
        #: Kernel lifecycle counters (mirror the ring's plan counters).
        self.compiles = 0
        self.invalidations = 0
        self._kernels = None
        self._stat_plan: Tuple = ()
        #: Host channels the compiled kernels read every cycle (valid
        #: once a run has compiled or adopted them).
        self.host_channels: frozenset = frozenset()
        self._all_stats: Tuple = tuple(dn.stats for dn in ring.all_dnodes())
        #: Engine-owned kernel cache, keyed by the ring's configuration
        #: fingerprint.  Owned (not the ring's cache) because kernels
        #: close over *this* engine's lane arrays and FIFO objects — an
        #: entry must never outlive the engine or survive a resync.
        self.plan_cache = PlanCache(ring.plan_cache.capacity)
        self._detached = False
        ring.add_invalidation_listener(self._on_config_change)
        self.resync()

    # -- lifecycle -----------------------------------------------------

    def detach(self) -> None:
        """Unhook from the ring's invalidation chain (engine retired).

        Also drops the compiled kernels and the kernel cache: their
        closures bind this engine, and that cycle would keep a retired
        engine's lane arrays alive until the cyclic collector ran.
        """
        self.ring.remove_invalidation_listener(self._on_config_change)
        self._kernels = None
        self.plan_cache.clear()
        self._detached = True

    def _on_config_change(self) -> None:
        if self._kernels is not None:
            self._kernels = None
            self.invalidations += 1
            self.ring.plan_invalidations += 1

    def resync(self) -> None:
        """(Re)load lane state by broadcasting the ring's scalar state."""
        ring = self.ring
        g = ring.geometry
        for l in range(g.layers):
            for p in range(g.width):
                dn = ring._dnodes[l][p]
                self.outs[l, p, :] = dn._out
                for r in range(NUM_REGISTERS):
                    self.regs[l, p, r, :] = dn.regs._values[r]
                self._counters[(l, p)][0] = dn.local._counter
                self.lane_fifo_pops[(l, p)][:] = dn.stats.fifo_pops
        heads = {sw._head for sw in ring._switches}
        if len(heads) != 1:  # pragma: no cover - heads rotate in lockstep
            raise SimulationError(
                "switch pipeline heads diverged; cannot batch"
            )
        self._head = ring._switches[0]._head
        for l, sw in enumerate(ring._switches):
            for j, pipe in enumerate(sw._pipes):
                self.pipes[l, j, :, :] = np.asarray(
                    pipe, dtype=LANE_DTYPE)[:, None]
        self._fifos = {}
        for key, queue in ring._fifos.items():
            fifo = _BatchFifo(self.batch)
            if queue:
                fifo.push_all(list(queue))
            self._fifos[key] = fifo
        self.lane_underflows[:] = ring.fifo_underflows
        self._kernels = None
        # Compiled kernels close over the _BatchFifo objects just
        # replaced above, so every cached entry is stale.
        self.plan_cache.clear()

    def set_plan_cache(self, capacity: int) -> None:
        """Resize (or with 0, disable) the engine's kernel cache."""
        self.plan_cache = PlanCache(capacity)

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
            "counters": {key: cell[0]
                         for key, cell in self._counters.items()},
            # All-empty queues are omitted: they exist only because a
            # queue object was materialized at some point, which is not
            # architectural state and must not affect digests.
            "fifos": {
                key: [fifo.contents(lane) for lane in range(self.batch)]
                for key, fifo in self._fifos.items()
                if int(fifo.count.max()) > 0
            },
            "lane_underflows": self.lane_underflows.tolist(),
            "lane_fifo_pops": {key: counts.tolist()
                               for key, counts in
                               self.lane_fifo_pops.items()},
        }

    def restore_lanes(self, state: dict) -> None:
        """Load a :meth:`capture_lanes` snapshot back into the lanes.

        Replaces every FIFO object (compiled kernels close over them),
        so the kernel table and the engine cache are dropped exactly as
        in :meth:`resync`.
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
        for key, value in state["counters"].items():
            self._counters[key][0] = value
        self._fifos = {}
        for key, lanes in state["fifos"].items():
            fifo = _BatchFifo(self.batch)
            for lane, values in enumerate(lanes):
                fifo.push_lane(lane, values)
            self._fifos[key] = fifo
        self.lane_underflows[:] = np.asarray(state["lane_underflows"],
                                             dtype=np.int64)
        for key, counts in state["lane_fifo_pops"].items():
            self.lane_fifo_pops[key][:] = np.asarray(counts,
                                                     dtype=np.int64)
        self._kernels = None
        self.plan_cache.clear()
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
        return fifo.contents(lane) if fifo is not None else []

    def push_fifo(self, layer: int, position: int, channel: int,
                  values, lane: Optional[int] = None) -> None:
        """Queue words on one lane's FIFO (``lane=None`` = every lane)."""
        self.ring.dnode(layer, position)
        if channel not in (1, 2):
            raise ConfigurationError(
                f"FIFO channel must be 1 or 2, got {channel}"
            )
        if isinstance(values, (int, np.integer)):
            values = [int(values)]
        checked = word.check_block(values, "FIFO push")
        fifo = self._fifo_for((layer, position, channel))
        if lane is None:
            fifo.push_all(checked)
        else:
            self._check_lane(lane)
            fifo.push_lane(lane, checked)

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.batch:
            raise ConfigurationError(
                f"lane must be 0..{self.batch - 1}, got {lane}"
            )

    def _fifo_for(self, key: Tuple[int, int, int]) -> _BatchFifo:
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = _BatchFifo(self.batch)
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

        Returns the number of cycles fully executed — or, given *taps*
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
        records = []
        for layer, position in taps or ():
            ring.dnode(layer, position)  # validates the address
            records.append((self.outs[layer, position],
                            np.empty((cycles, self.batch), np.int64)))
        gather = getattr(host_in, "gather", None)
        if gather is not None:
            host_in = self._window_host(gather, cycles)
        if self._kernels is None:
            self._adopt_kernels()
        evals, shift, commits = self._kernels
        ring.last_bus = bus
        local_starts = [
            entry[2][0] if entry[0] == "l" else 0
            for entry in self._stat_plan
        ]
        executed = 0
        try:
            for t in range(cycles):
                for ev in evals:
                    ev(bus, host_in)
                shift()
                for cm in commits:
                    cm()
                for view, out in records:
                    out[t] = view
                ring.cycles += 1
                executed += 1
        finally:
            if executed:
                self._apply_stats(executed, local_starts)
                # Keep the ring's local-slot counters current: a
                # configuration write between runs may reset or clamp
                # them (load_program / set_limit), and the next compile
                # adopts the ring's value as the truth.
                for (l, p), cell in self._counters.items():
                    ring._dnodes[l][p].local._counter = cell[0]
        if taps is None:
            return executed
        return [out for _, out in records]

    def _window_host(self, gather, cycles: int):
        """A per-cycle host reader over windows gathered on first use."""
        ring = self.ring
        c0 = ring.cycles
        windows: Dict[int, np.ndarray] = {}

        def host_in(channel: int):
            window = windows.get(channel)
            if window is None:
                window = windows[channel] = gather(channel, c0, cycles)
            return window[ring.cycles - c0]

        return host_in

    def step(self, bus: int = 0, host_in=None) -> None:
        """Advance every lane by one clock cycle."""
        self.run(1, bus=bus, host_in=host_in)

    def _apply_stats(self, executed: int, local_starts: List[int]) -> None:
        for stats in self._all_stats:
            stats.cycles += executed
        for entry, c0 in zip(self._stat_plan, local_starts):
            if entry[0] == "g":
                _, stats, cost, mul = entry
                stats.instructions += executed
                stats.arithmetic_ops += cost * executed
                if mul:
                    stats.multiplies += executed
            else:
                _, stats, _cell, limit, slot_info = entry
                full, extra = divmod(executed, limit)
                for s, (is_instr, cost, mul) in enumerate(slot_info):
                    if not is_instr:
                        continue
                    count = full + (1 if (s - c0) % limit < extra else 0)
                    if not count:
                        continue
                    stats.instructions += count
                    stats.arithmetic_ops += cost * count
                    if mul:
                        stats.multiplies += count

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
        for l in range(g.layers):
            for p in range(g.width):
                src = ring._dnodes[l][p]
                dn = target._dnodes[l][p]
                dn._out = int(self.outs[l, p, lane])
                dn._out_pending = None
                vals = dn.regs._values
                for r in range(NUM_REGISTERS):
                    vals[r] = int(self.regs[l, p, r, lane])
                dn.local._counter = self._counters[(l, p)][0]
                stats, sstats = dn.stats, src.stats
                stats.cycles = sstats.cycles
                stats.instructions = sstats.instructions
                stats.arithmetic_ops = sstats.arithmetic_ops
                stats.multiplies = sstats.multiplies
                stats.fifo_pops = int(self.lane_fifo_pops[(l, p)][lane])
        for l in range(g.layers):
            sw = target._switches[l]
            sw._head = self._head
            for j in range(g.width):
                pipe = sw._pipes[j]
                col = self.pipes[l, j, :, lane]
                for d in range(g.pipeline_depth):
                    pipe[d] = int(col[d])
        for key, fifo in self._fifos.items():
            queue = target.fifo(*key)
            queue.clear()
            queue.extend(fifo.contents(lane))
        target.cycles = ring.cycles
        target.fifo_underflows = int(self.lane_underflows[lane])
        if target is not ring:
            target.last_bus = ring.last_bus

    # -- host reads ----------------------------------------------------

    def _host_word(self, value, channel: int):
        if isinstance(value, (int, np.integer)):
            return word.check(int(value), f"host channel {channel}")
        arr = np.asarray(value)
        if arr.shape != (self.batch,):
            raise SimulationError(
                f"host channel {channel} batch read must have shape "
                f"({self.batch},), got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(
                f"host channel {channel} must be 16-bit raw words, "
                f"got dtype {arr.dtype}"
            )
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) > _MASK):
            raise ValueError(
                f"host channel {channel} must be 16-bit raw words"
            )
        return arr.astype(LANE_DTYPE, copy=False)

    # -- compilation ---------------------------------------------------

    def _adopt_counters(self) -> None:
        """Adopt the ring's local-slot counters into the lane cells.

        Configuration writes since the last compile may have reset them
        (load_program) or clamped them under a shrunken LIMIT
        (set_limit), and those side effects happen ring-side only.  Must
        run on every kernel (re)adoption, cached or freshly compiled.
        """
        ring = self.ring
        for (l, p), cell in self._counters.items():
            cell[0] = ring._dnodes[l][p].local._counter

    def _adopt_kernels(self) -> None:
        """Install kernels for the current configuration: cache, else
        compile (and cache the result)."""
        cache = self.plan_cache
        if not cache.capacity:
            self._compile()
            return
        key = ("batch", self.ring.config_fingerprint())
        entry = cache.get(key)
        if entry is not None:
            self._kernels, self._stat_plan, self.host_channels = entry
            self._adopt_counters()
            return
        self._compile()
        cache.put(key, (self._kernels, self._stat_plan, self.host_channels))

    def _compile(self) -> None:
        ring = self.ring
        g = ring.geometry
        self._adopt_counters()
        evals = []
        commits = []
        stat_plan = []
        routed = set()
        for l in range(g.layers):
            sw = ring._switches[l]
            lu = ring.upstream_layer(l)
            for p in range(g.width):
                dn = ring._dnodes[l][p]
                for port in (1, 2):
                    src = sw.config.source_for(p, port)
                    if src.kind is PortKind.HOST:
                        routed.add(src.index)
                ev, cm, stat = self._compile_dnode(dn, sw, l, p, lu)
                if ev is not None:
                    evals.append(ev)
                if cm is not None:
                    commits.append(cm)
                if stat is not None:
                    stat_plan.append(stat)
        up_perm = np.array([ring.upstream_layer(k)
                            for k in range(g.layers)])
        depth = g.pipeline_depth
        pipes, outs = self.pipes, self.outs

        def shift(_self=self, _pipes=pipes, _outs=outs, _perm=up_perm,
                  _d=depth):
            h = (_self._head - 1) % _d
            _self._head = h
            _pipes[:, :, h, :] = _outs[_perm]

        self._kernels = (tuple(evals), shift, tuple(commits))
        self._stat_plan = tuple(stat_plan)
        self.host_channels = frozenset(routed)
        self.compiles += 1
        ring.plan_compiles += 1

    def _rp_getter(self, sw: Switch, layer: int, stage: int, lane: int):
        if not (1 <= stage <= sw.pipeline_depth and 1 <= lane <= sw.width):
            # Out-of-range taps raise the interpreter's exact error.
            return (lambda bus, host_in, _s=sw, _st=stage, _ln=lane:
                    _s.rp_read(_st, _ln)), True
        pipe = self.pipes[layer, lane - 1]
        offset = stage - 1
        depth = sw.pipeline_depth
        return (lambda bus, host_in, _p=pipe, _self=self, _o=offset,
                _d=depth: _p[(_self._head + _o) % _d]), False

    def _fifo_peek_getter(self, layer: int, pos: int, channel: int):
        fifo = self._fifo_for((layer, pos, channel))
        ring = self.ring
        underflows = self.lane_underflows

        def peek(bus, host_in, _f=fifo, _r=ring, _u=underflows, _l=layer,
                 _p=pos, _c=channel):
            vals, empty = _f.peek()
            if empty.any():
                if _r.strict_fifos:
                    raise SimulationError(
                        f"D{_l}.{_p} read empty FIFO{_c} at cycle "
                        f"{_r.cycles}"
                    )
                _u += empty
            return vals

        return peek

    def _compile_ports(self, sw: Switch, layer: int, pos: int,
                       up_layer: int):
        """Mirror of the fast path's port resolution, over lane arrays."""
        getters = {}
        eagers = []
        cell = [0, 0]
        for port in (1, 2):
            src = sw.config.source_for(pos, port)
            kind = src.kind
            if kind is PortKind.ZERO:
                getters[port] = lambda bus, host_in: 0
            elif kind is PortKind.UP:
                view = self.outs[up_layer, src.index]
                getters[port] = lambda bus, host_in, _v=view: _v
            elif kind is PortKind.RP:
                getter, eager = self._rp_getter(sw, layer, src.index,
                                                src.lane)
                getters[port] = getter
                if eager:
                    eagers.append(getter)
            elif kind is PortKind.BUS:
                getters[port] = lambda bus, host_in: bus
            elif kind is PortKind.HOST:
                slot = port - 1
                channel = src.index

                def fetch(bus, host_in, _sw=sw, _pos=pos, _port=port,
                          _ch=channel, _cell=cell, _slot=slot, _self=self):
                    if host_in is None:
                        raise SimulationError(
                            f"switch {_sw.index} routes port {_port} of "
                            f"position {_pos} to host channel {_ch}, but "
                            f"no host reader was supplied"
                        )
                    _cell[_slot] = _self._host_word(host_in(_ch), _ch)

                eagers.append(fetch)
                getters[port] = (
                    lambda bus, host_in, _cell=cell, _slot=slot:
                    _cell[_slot])
            else:  # pragma: no cover - exhaustive over PortKind
                raise SimulationError(f"unhandled port source {src!r}")
        return getters, eagers

    def _operand_getter(self, layer: int, pos: int, sw: Switch,
                        mw: MicroWord, src, port_getters):
        from repro.core.isa import Source
        if src <= Source.R3:
            view = self.regs[layer, pos, int(src)]
            return lambda bus, host_in, _v=view: _v
        if src is Source.IN1:
            return port_getters[1]
        if src is Source.IN2:
            return port_getters[2]
        if src is Source.FIFO1:
            return self._fifo_peek_getter(layer, pos, 1)
        if src is Source.FIFO2:
            return self._fifo_peek_getter(layer, pos, 2)
        if src is Source.BUS:
            return lambda bus, host_in: bus
        if src is Source.IMM:
            return lambda bus, host_in, _v=mw.imm: _v
        if src is Source.SELF:
            view = self.outs[layer, pos]
            return lambda bus, host_in, _v=view: _v
        if src is Source.ZERO:
            return lambda bus, host_in: 0
        if src.is_feedback:
            getter, _ = self._rp_getter(sw, layer, src.feedback_stage,
                                        src.feedback_lane)
            return getter
        raise SimulationError(f"unhandled source {src!r}")

    def _compile_compute(self, layer: int, pos: int, mw: MicroWord,
                         get_a, get_b):
        op = mw.op
        if op in ACCUMULATING_OPS:
            acc = self.regs[layer, pos, int(mw.dst)]
            if op is Opcode.MAC:
                return lambda bus, host_in, _ga=get_a, _gb=get_b, _acc=acc: \
                    (batch_to_signed(_ga(bus, host_in))
                     * batch_to_signed(_gb(bus, host_in))
                     + batch_to_signed(_acc)) & _MASK
            return lambda bus, host_in, _ga=get_a, _gb=get_b, _acc=acc: \
                batch_saturate_signed(
                    batch_to_signed(_ga(bus, host_in))
                    * batch_to_signed(_gb(bus, host_in))
                    + batch_to_signed(_acc))
        if op is Opcode.MADD or op is Opcode.MSUB:
            coeff = word.to_signed(mw.imm)
            if op is Opcode.MADD:
                return lambda bus, host_in, _ga=get_a, _gb=get_b, _c=coeff: \
                    (batch_to_signed(_ga(bus, host_in))
                     + batch_to_signed(_gb(bus, host_in)) * _c) & _MASK
            return lambda bus, host_in, _ga=get_a, _gb=get_b, _c=coeff: \
                (batch_to_signed(_ga(bus, host_in))
                 - batch_to_signed(_gb(bus, host_in)) * _c) & _MASK
        if mw.is_binary:
            fn = _BATCH_BINARY.get(op)
            if fn is None:
                raise SimulationError(f"opcode {op!r} has no batch kernel")
            return lambda bus, host_in, _f=fn, _ga=get_a, _gb=get_b: \
                _f(_ga(bus, host_in), _gb(bus, host_in))
        fn = _BATCH_UNARY.get(op)
        if fn is None:
            raise SimulationError(f"opcode {op!r} has no batch kernel")
        return lambda bus, host_in, _f=fn, _ga=get_a: _f(_ga(bus, host_in))

    def _compile_body(self, layer: int, pos: int, sw: Switch,
                      mw: MicroWord, port_getters):
        """Evaluate-phase kernel of one microword (None for NOP).

        The result is materialized into the Dnode's pending buffer at
        eval time, so commits can run in any order (exactly the
        master-slave two-phase semantics of the scalar engines).
        """
        if mw.op is Opcode.NOP:
            return None
        get_a = self._operand_getter(layer, pos, sw, mw, mw.src_a,
                                     port_getters)
        get_b = None
        if mw.is_binary:
            get_b = self._operand_getter(layer, pos, sw, mw, mw.src_b,
                                         port_getters)
        compute = self._compile_compute(layer, pos, mw, get_a, get_b)
        pend = self._pending[layer, pos]

        def body(bus, host_in, _c=compute, _pend=pend):
            _pend[:] = _c(bus, host_in)

        return body

    def _pop_thunk(self, layer: int, pos: int, channel: int):
        fifo = self._fifo_for((layer, pos, channel))
        pops = self.lane_fifo_pops[(layer, pos)]
        ring = self.ring
        underflows = self.lane_underflows

        def pop(_f=fifo, _pops=pops, _r=ring, _u=underflows, _l=layer,
                _p=pos, _c=channel):
            empty = _f.count == 0
            if empty.any():
                if _r.strict_fifos:
                    raise SimulationError(
                        f"D{_l}.{_p} popped empty FIFO{_c} at cycle "
                        f"{_r.cycles}"
                    )
                _u += empty
            _pops += _f.pop()

        return pop

    def _word_commit_actions(self, layer: int, pos: int, mw: MicroWord):
        acts = []
        if mw.op is not Opcode.NOP:
            pend = self._pending[layer, pos]
            if mw.dst.is_register:
                acts.append(_copy_into(self.regs[layer, pos, int(mw.dst)],
                                       pend))
            if mw.dst is Dest.OUT or mw.flags & Flag.WRITE_OUT:
                acts.append(_copy_into(self.outs[layer, pos], pend))
        for channel in _pops_of(mw):
            acts.append(self._pop_thunk(layer, pos, channel))
        return acts

    def _compile_dnode(self, dn: Dnode, sw: Switch, layer: int, pos: int,
                       up_layer: int):
        port_getters, eagers = self._compile_ports(sw, layer, pos,
                                                   up_layer)
        if dn.mode is DnodeMode.LOCAL:
            limit = dn.local.limit
            words = dn.local.slots()[:limit]
            cell = self._counters[(layer, pos)]
            bodies = [self._compile_body(layer, pos, sw, mw, port_getters)
                      for mw in words]
            core = None
            if any(body is not None for body in bodies):
                slot_bodies = tuple(bodies)

                def core(bus, host_in, _cell=cell, _b=slot_bodies):
                    body = _b[_cell[0]]
                    if body is not None:
                        body(bus, host_in)

            per_slot = [tuple(self._word_commit_actions(layer, pos, mw))
                        for mw in words]
            if any(per_slot):
                table = tuple(per_slot)

                def commit(_cell=cell, _t=table, _m=limit):
                    c = _cell[0]
                    _cell[0] = (c + 1) % _m
                    for act in _t[c]:
                        act()
            else:
                def commit(_cell=cell, _m=limit):
                    _cell[0] = (_cell[0] + 1) % _m
            slot_info = tuple(
                (mw.op is not Opcode.NOP, _OP_COST.get(mw.op, 1),
                 mw.op in _MULTIPLY_OPS)
                for mw in words
            )
            stat = ("l", dn.stats, cell, limit, slot_info)
        else:
            mw = dn.global_word
            core = self._compile_body(layer, pos, sw, mw, port_getters)
            acts = self._word_commit_actions(layer, pos, mw)
            if not acts:
                commit = None
            elif len(acts) == 1:
                commit = acts[0]
            else:
                acts = tuple(acts)

                def commit(_a=acts):
                    for act in _a:
                        act()
            if mw.op is Opcode.NOP:
                stat = None
            else:
                stat = ("g", dn.stats, _OP_COST.get(mw.op, 1),
                        mw.op in _MULTIPLY_OPS)
        ev = self._wrap_eagers(eagers, core)
        return ev, commit, stat

    @staticmethod
    def _wrap_eagers(eagers, core):
        if not eagers:
            return core
        if core is None and len(eagers) == 1:
            return eagers[0]
        fetches = tuple(eagers)
        if core is None:
            def ev(bus, host_in, _f=fetches):
                for fetch in _f:
                    fetch(bus, host_in)
            return ev

        def ev(bus, host_in, _f=fetches, _core=core):
            for fetch in _f:
                fetch(bus, host_in)
            _core(bus, host_in)
        return ev

    def __repr__(self) -> str:
        g = self.ring.geometry
        return (
            f"BatchRing(Ring-{g.dnodes} x {self.batch} lanes, "
            f"cycle={self.ring.cycles})"
        )


__all__ = [
    "BatchRing",
    "LANE_DTYPE",
    "batch_execute_op",
    "batch_to_signed",
    "batch_wrap",
    "batch_saturate_signed",
]
