"""Seeded, deterministic fault models for the ring fabric.

Two families of fault, mirroring where state lives in the architecture:

* **Runtime faults** corrupt datapath state directly — a single-event
  upset (SEU) flips one bit of a register-file word, an OUT register, a
  switch feedback-pipeline word or a queued FIFO word; a dropped stream
  word removes one element from a host input queue.  On a ring with a
  live batch engine the same flip is applied to *every* lane (and the
  scalar lane-0 mirror), so the lanes stay in lockstep with a scalar
  golden run and recovery can be verified per lane.  After a reset the
  engine is not live until its next use, which broadcasts the flipped
  scalar state to every lane.
* **Configuration faults** corrupt the configuration plane — one bit of
  an encoded microword or switch-route word, or a whole Dnode stuck
  disabled (NOP local program).  These are applied through
  :class:`~repro.core.config_memory.ConfigMemory` write paths, so the
  ring's invalidation-listener hooks fire exactly as for a legitimate
  reconfiguration and every compiled plan/kernel for the old
  configuration is dropped.  A flipped bit that does not decode to a
  valid word scans deterministically to the next bit that does.

Everything is driven by :class:`FaultInjector`, which owns a
``random.Random(seed)``: the same seed over the same configuration
enumerates the same sites and plans the same :class:`FaultEvent` list,
making whole campaigns reproducible.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import word
from repro.core.dnode import DnodeMode
from repro.core.isa import MICROWORD_BITS, NOP_WORD
from repro.core.isa import decode as decode_microword
from repro.core.isa import encode as encode_microword
from repro.core.regfile import NUM_REGISTERS
from repro.core.ring import Ring
from repro.core.switch import PortKind, PortSource, decode_route, encode_route
from repro.errors import ConfigurationError, SimulationError


class FaultKind(enum.Enum):
    """Where a fault lands."""

    REGISTER = "register"          # SEU in a register-file word
    OUT = "out"                    # SEU in an OUT register
    PIPELINE = "pipeline"          # SEU in a feedback-pipeline word
    FIFO = "fifo"                  # SEU in a queued FIFO word
    CONFIG_WORD = "config-word"    # SEU in a configuration microword
    CONFIG_ROUTE = "config-route"  # SEU in a switch-route word
    STUCK_DNODE = "stuck-dnode"    # Dnode disabled (NOP local program)
    STREAM_DROP = "stream-drop"    # dropped host stream word


#: Runtime-state kinds: recoverable by rollback alone (no reconfiguration).
RUNTIME_KINDS = (FaultKind.REGISTER, FaultKind.OUT, FaultKind.PIPELINE,
                 FaultKind.FIFO, FaultKind.STREAM_DROP)
#: Configuration-plane kinds: applied through ConfigMemory write paths.
CONFIG_KINDS = (FaultKind.CONFIG_WORD, FaultKind.CONFIG_ROUTE,
                FaultKind.STUCK_DNODE)


@dataclass(frozen=True)
class FaultSite:
    """One injectable location; ``address`` is kind-specific:

    REGISTER ``(layer, pos, reg)`` · OUT ``(layer, pos)`` ·
    PIPELINE ``(switch, stage, lane)`` (1-based stage/lane) ·
    FIFO ``(layer, pos, channel)`` · CONFIG_WORD ``(layer, pos)`` ·
    CONFIG_ROUTE ``(switch, pos, port)`` · STUCK_DNODE ``(layer, pos)`` ·
    STREAM_DROP ``(channel,)``.
    """

    kind: FaultKind
    address: Tuple[int, ...]

    def describe(self) -> str:
        return f"{self.kind.value}@{'.'.join(map(str, self.address))}"


@dataclass(frozen=True)
class FaultEvent:
    """A planned injection: *site* at fabric cycle *cycle*.

    ``bit`` selects the flipped bit for SEU kinds (0..15); ``index``
    selects the FIFO word / local-program slot where one applies.
    """

    cycle: int
    site: FaultSite
    bit: int = 0
    index: int = 0

    def describe(self) -> str:
        return f"{self.site.describe()} bit={self.bit} @cycle {self.cycle}"


def enumerate_sites(ring: Ring,
                    kinds: Optional[Sequence[FaultKind]] = None,
                    stream_channels: Sequence[int] = ()) -> List[FaultSite]:
    """Every injectable site of *ring*, in deterministic order.

    FIFO sites cover the queues that exist at enumeration time;
    CONFIG_ROUTE sites cover the ports that are actually routed (an
    unrouted port holds no configuration word to upset).
    """
    wanted = tuple(kinds) if kinds is not None else tuple(FaultKind)
    g = ring.geometry
    sites: List[FaultSite] = []
    for layer in range(g.layers):
        for pos in range(g.width):
            if FaultKind.REGISTER in wanted:
                sites.extend(
                    FaultSite(FaultKind.REGISTER, (layer, pos, r))
                    for r in range(NUM_REGISTERS))
            if FaultKind.OUT in wanted:
                sites.append(FaultSite(FaultKind.OUT, (layer, pos)))
            if FaultKind.CONFIG_WORD in wanted:
                sites.append(FaultSite(FaultKind.CONFIG_WORD, (layer, pos)))
            if FaultKind.STUCK_DNODE in wanted:
                sites.append(FaultSite(FaultKind.STUCK_DNODE, (layer, pos)))
    if FaultKind.PIPELINE in wanted:
        for k in range(g.layers):
            for stage in range(1, g.pipeline_depth + 1):
                for lane in range(1, g.width + 1):
                    sites.append(
                        FaultSite(FaultKind.PIPELINE, (k, stage, lane)))
    if FaultKind.FIFO in wanted:
        sites.extend(FaultSite(FaultKind.FIFO, key)
                     for key in sorted(ring._fifos))
    if FaultKind.CONFIG_ROUTE in wanted:
        for k in range(g.layers):
            cfg = ring.switch(k).config
            for pos in range(g.width):
                for port in (1, 2):
                    if cfg.source_for(pos, port).kind is not PortKind.ZERO:
                        sites.append(
                            FaultSite(FaultKind.CONFIG_ROUTE,
                                      (k, pos, port)))
    if FaultKind.STREAM_DROP in wanted:
        sites.extend(FaultSite(FaultKind.STREAM_DROP, (ch,))
                     for ch in stream_channels)
    return sites


@dataclass
class InjectionRecord:
    """What one :meth:`FaultInjector.inject` actually did."""

    event: FaultEvent
    applied: bool
    detail: str = ""

    def describe(self) -> str:
        status = "applied" if self.applied else "masked"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.event.describe()}: {status}{tail}"


class FaultInjector:
    """Deterministic fault source for one ring.

    Args:
        ring: the target fabric.
        seed: drives site/bit/cycle selection — same seed, same
            configuration and same call sequence give the same faults.
        kinds: restrict to a subset of :class:`FaultKind`.
        data: a :class:`~repro.host.streams.DataController` for
            STREAM_DROP faults (its channels become injectable sites).
    """

    def __init__(self, ring: Ring, seed: int,
                 kinds: Optional[Sequence[FaultKind]] = None,
                 data=None):
        self.ring = ring
        self.seed = seed
        self.rng = random.Random(seed)
        self.data = data
        channels = ()
        if data is not None:
            channels = tuple(sorted(data._channels))
        self.sites = enumerate_sites(ring, kinds=kinds,
                                     stream_channels=channels)
        if not self.sites:
            raise ConfigurationError(
                "no injectable fault sites for the requested kinds")
        self.log: List[InjectionRecord] = []

    # -- planning ------------------------------------------------------

    def plan(self, count: int, first_cycle: int,
             last_cycle: int) -> List[FaultEvent]:
        """Draw *count* events over ``[first_cycle, last_cycle]``.

        Sorted by cycle (stable), so a campaign replays them in
        injection order.
        """
        if count < 0:
            raise ConfigurationError(f"fault count must be >= 0, got {count}")
        if last_cycle < first_cycle:
            raise ConfigurationError(
                f"empty injection window [{first_cycle}, {last_cycle}]")
        events = [self.random_event(
            self.rng.randint(first_cycle, last_cycle))
            for _ in range(count)]
        return sorted(events, key=lambda e: e.cycle)

    def random_event(self, cycle: int) -> FaultEvent:
        """One event at *cycle*: random site, bit and index."""
        site = self.rng.choice(self.sites)
        return FaultEvent(cycle=cycle, site=site,
                          bit=self.rng.randrange(word.WIDTH),
                          index=self.rng.randrange(256))

    # -- injection -----------------------------------------------------

    def inject(self, event: FaultEvent) -> InjectionRecord:
        """Apply *event* to the ring now; returns what happened.

        Counts toward :attr:`~repro.core.ring.Ring.faults_injected` and
        appends to :attr:`log` (the campaign's recovery trace) whether or
        not the fault landed (an SEU aimed at an empty FIFO is masked).
        """
        handler = _HANDLERS[event.site.kind]
        applied, detail = handler(self, event)
        self.ring.faults_injected += 1
        record = InjectionRecord(event=event, applied=applied, detail=detail)
        self.log.append(record)
        return record

    # -- per-kind handlers --------------------------------------------

    def _flip_register(self, event: FaultEvent):
        layer, pos, reg = event.site.address
        mask = 1 << event.bit
        dn = self.ring.dnode(layer, pos)
        dn.regs._values[reg] ^= mask
        engine = self.ring._live_batch()
        if engine is not None:
            engine.regs[layer, pos, reg, :] ^= mask
        return True, f"R{reg} -> {dn.regs._values[reg]:#06x}"

    def _flip_out(self, event: FaultEvent):
        layer, pos = event.site.address
        mask = 1 << event.bit
        dn = self.ring.dnode(layer, pos)
        dn._out ^= mask
        engine = self.ring._live_batch()
        if engine is not None:
            engine.outs[layer, pos, :] ^= mask
        return True, f"OUT -> {dn._out:#06x}"

    def _flip_pipeline(self, event: FaultEvent):
        k, stage, lane = event.site.address
        mask = 1 << event.bit
        sw = self.ring.switch(k)
        sw.rp_write(stage, lane, sw.rp_read(stage, lane) ^ mask)
        engine = self.ring._live_batch()
        if engine is not None:
            depth = self.ring.geometry.pipeline_depth
            slot = (engine._head + stage - 1) % depth
            engine.pipes[k, lane - 1, slot, :] ^= mask
        return True, f"Rp({stage},{lane}) of switch {k}"

    def _flip_fifo(self, event: FaultEvent):
        key = event.site.address
        mask = 1 << event.bit
        queue = self.ring._fifos.get(key)
        applied = False
        if queue:
            idx = event.index % len(queue)
            queue[idx] ^= mask
            applied = True
        engine = self.ring._live_batch()
        if engine is not None:
            fifo = engine._fifos.get(key)
            if fifo is not None:
                for lane in range(engine.batch):
                    words = fifo.lane_view(lane)
                    if len(words):
                        words[event.index % len(words)] ^= mask
                        applied = True
        detail = "" if applied else "FIFO empty"
        return applied, detail

    def _flip_config_word(self, event: FaultEvent):
        layer, pos = event.site.address
        dn = self.ring.dnode(layer, pos)
        cfg = self.ring.config
        if dn.mode is DnodeMode.LOCAL:
            slot = event.index % dn.local.limit
            current = dn.local.slots()[slot]
        else:
            slot = None
            current = dn.global_word
        flipped = _flip_valid_microword(current, event.bit)
        if flipped is None:
            return False, "no valid single-bit corruption"
        bit, new_word = flipped
        if slot is None:
            cfg.write_microword(layer, pos, new_word)
            return True, f"global word bit {bit}"
        cfg.write_local_slot(layer, pos, slot, new_word)
        return True, f"local slot {slot} bit {bit}"

    def _flip_config_route(self, event: FaultEvent):
        k, pos, port = event.site.address
        sw = self.ring.switch(k)
        current = sw.config.source_for(pos, port)
        raw = encode_route(current)
        g = self.ring.geometry
        for offset in range(16):
            bit = (event.bit + offset) % 16
            try:
                src = decode_route(raw ^ (1 << bit))
            except ConfigurationError:
                continue
            if src == current or not _route_is_runnable(src, g):
                continue
            try:
                self.ring.config.write_switch_route(k, pos, port, src)
            except ConfigurationError:
                continue
            return True, f"route {pos}.{port} bit {bit} -> {src}"
        return False, "no valid single-bit corruption"

    def _stick_dnode(self, event: FaultEvent):
        layer, pos = event.site.address
        cfg = self.ring.config
        cfg.write_local_program(layer, pos, [NOP_WORD])
        cfg.write_mode(layer, pos, DnodeMode.LOCAL)
        return True, "forced NOP local program"

    def _drop_stream(self, event: FaultEvent):
        if self.data is None:
            return False, "no data controller attached"
        (channel,) = event.site.address
        ch = self.data.channel(channel)
        dropped = ch.drop_next()
        return dropped > 0, f"dropped {dropped} word(s)"


def _flip_valid_microword(current, start_bit: int):
    """First single-bit corruption of *current* that decodes validly.

    Scans bits deterministically from *start_bit* upward (mod the
    encoded width) and skips flips that decode back to an equivalent
    word.  Returns ``(bit, MicroWord)`` or None.
    """
    raw = encode_microword(current)
    for offset in range(MICROWORD_BITS):
        bit = (start_bit + offset) % MICROWORD_BITS
        try:
            candidate = decode_microword(raw ^ (1 << bit))
        except (ConfigurationError, SimulationError, ValueError):
            continue
        if candidate != current:
            return bit, candidate
    return None


def _route_is_runnable(src: PortSource, geometry) -> bool:
    """Would the fabric execute with this route (vs crash on resolve)?

    ``decode_route`` accepts any in-range field encoding, but the
    interpreter raises on out-of-range UP positions and Rp taps; a
    *runnable* corruption keeps the simulation going so detection
    happens through state divergence, as on real hardware.
    """
    if src.kind is PortKind.UP:
        return src.index < geometry.width
    if src.kind is PortKind.RP:
        return (1 <= src.index <= geometry.pipeline_depth
                and 1 <= src.lane <= geometry.width)
    return True


_HANDLERS = {
    FaultKind.REGISTER: FaultInjector._flip_register,
    FaultKind.OUT: FaultInjector._flip_out,
    FaultKind.PIPELINE: FaultInjector._flip_pipeline,
    FaultKind.FIFO: FaultInjector._flip_fifo,
    FaultKind.CONFIG_WORD: FaultInjector._flip_config_word,
    FaultKind.CONFIG_ROUTE: FaultInjector._flip_config_route,
    FaultKind.STUCK_DNODE: FaultInjector._stick_dnode,
    FaultKind.STREAM_DROP: FaultInjector._drop_stream,
}


__all__ = [
    "CONFIG_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSite",
    "InjectionRecord",
    "RUNTIME_KINDS",
    "enumerate_sites",
]
