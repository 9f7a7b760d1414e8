"""Dynamically reconfigurable inter-layer switch with feedback pipelines.

Paper §4.2.  Adjacent Dnode layers are connected by switch components
"able to make any interconnection between two stages".  Each switch also:

* "manages data communications with the host processor by direct dedicated
  ports" — modelled as ``HOST`` port sources resolved by the data
  controller;
* writes "unconditionally (no control needed) the result computed by the
  previous Dnodes layer in a dedicated pipeline (each switch owns its
  pipeline), which allows the feedback of each data to the previous
  stages" — modelled as one shift pipeline per upstream lane, tapped by
  the ``Rp(i, j)`` operand codes and by switch routing.

The pipelines are what remove long-distance routing: a recursive branch
needing a delay of *i* cycles reads tap ``Rp(i, j)`` instead of a wire
crossing the die ("the required delays on recursive branch are
automatically achieved in them").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import word
from repro.core.isa import FEEDBACK_DEPTH
from repro.errors import ConfigurationError, SimulationError


class PortKind(enum.Enum):
    """What a downstream input port is wired to."""

    ZERO = "zero"    # constant 0 (unconnected)
    UP = "up"        # output register of an upstream Dnode
    RP = "rp"        # feedback-pipeline tap of this switch
    HOST = "host"    # direct host data port (stream channel)
    BUS = "bus"      # the shared controller bus


@dataclass(frozen=True)
class PortSource:
    """Routing selection for one downstream Dnode input port."""

    kind: PortKind = PortKind.ZERO
    index: int = 0   # UP: upstream position; RP: stage; HOST: channel
    lane: int = 0    # RP only: pipeline lane (1-based)

    @classmethod
    def zero(cls) -> "PortSource":
        return cls(PortKind.ZERO)

    @classmethod
    def up(cls, position: int) -> "PortSource":
        """Forward connection to upstream Dnode at *position* (0-based)."""
        if position < 0:
            raise ConfigurationError(f"upstream position must be >= 0, got {position}")
        return cls(PortKind.UP, position)

    @classmethod
    def rp(cls, stage: int, lane: int) -> "PortSource":
        """Feedback tap: upstream lane output delayed by *stage* cycles."""
        if not 1 <= stage <= FEEDBACK_DEPTH:
            raise ConfigurationError(
                f"feedback stage must be 1..{FEEDBACK_DEPTH}, got {stage}"
            )
        if lane < 1:
            raise ConfigurationError(f"feedback lane must be >= 1, got {lane}")
        return cls(PortKind.RP, stage, lane)

    @classmethod
    def host(cls, channel: int) -> "PortSource":
        """Direct host data port (data-controller stream channel)."""
        if channel < 0:
            raise ConfigurationError(f"host channel must be >= 0, got {channel}")
        return cls(PortKind.HOST, channel)

    @classmethod
    def bus(cls) -> "PortSource":
        return cls(PortKind.BUS)

    def __str__(self) -> str:
        if self.kind is PortKind.UP:
            return f"up{self.index}"
        if self.kind is PortKind.RP:
            return f"rp({self.index},{self.lane})"
        if self.kind is PortKind.HOST:
            return f"host{self.index}"
        return self.kind.value


ROUTE_BITS = 16
_ROUTE_KIND_SHIFT = 13
_ROUTE_INDEX_SHIFT = 5
_ROUTE_KIND_CODES = {
    PortKind.ZERO: 0,
    PortKind.UP: 1,
    PortKind.RP: 2,
    PortKind.HOST: 3,
    PortKind.BUS: 4,
}
_ROUTE_KIND_FROM_CODE = {v: k for k, v in _ROUTE_KIND_CODES.items()}


def encode_route(source: PortSource) -> int:
    """Pack a :class:`PortSource` into its 16-bit configuration form.

    Layout: ``[15:13] kind, [12:5] index, [4:0] lane``.  This is the word
    stored in the configuration ROM for switch-routing entries.
    """
    if source.index >= (1 << 8):
        raise ConfigurationError(
            f"route index {source.index} does not fit in 8 bits"
        )
    if source.lane >= (1 << 5):
        raise ConfigurationError(
            f"route lane {source.lane} does not fit in 5 bits"
        )
    return (
        (_ROUTE_KIND_CODES[source.kind] << _ROUTE_KIND_SHIFT)
        | (source.index << _ROUTE_INDEX_SHIFT)
        | source.lane
    )


def decode_route(raw: int) -> PortSource:
    """Unpack a 16-bit configuration word into a :class:`PortSource`."""
    if not isinstance(raw, int) or raw < 0 or raw >= (1 << ROUTE_BITS):
        raise ConfigurationError(f"route word must fit in 16 bits, got {raw!r}")
    code = raw >> _ROUTE_KIND_SHIFT
    kind = _ROUTE_KIND_FROM_CODE.get(code)
    if kind is None:
        raise ConfigurationError(f"illegal route kind code {code}")
    index = (raw >> _ROUTE_INDEX_SHIFT) & 0xFF
    lane = raw & 0x1F
    return PortSource(kind, index, lane)


def routes_fingerprint(routes: Dict[Tuple[int, int], PortSource]) -> tuple:
    """The digest of a ``(position, port) -> source`` routing table.

    Explicit ZERO routes and absent entries read the same, so both are
    excluded — restoring a configuration by either path yields the same
    fingerprint.
    """
    return tuple(sorted(
        (pos, port, _ROUTE_KIND_CODES[src.kind], src.index, src.lane)
        for (pos, port), src in routes.items()
        if src.kind is not PortKind.ZERO
    ))


class SwitchConfig:
    """Routing table of one switch: (downstream position, port) -> source.

    Ports are numbered 1 and 2, matching the Dnode's ``IN1``/``IN2``.
    Unrouted ports read zero.
    """

    def __init__(self, width: int):
        if width < 1:
            raise ConfigurationError(f"switch width must be >= 1, got {width}")
        self.width = width
        self._routes: Dict[Tuple[int, int], PortSource] = {}
        #: Routing mutations applied to this switch (route/clear calls);
        #: aggregated per switch by the metrics registry.
        self.writes = 0
        #: Invalidation hook: called after every routing mutation.  The
        #: owning :class:`~repro.core.ring.Ring` points this at its
        #: fast-path invalidator so steady-state plans are recompiled.
        self.on_change: Optional[Callable[[], None]] = None
        #: Cached routing fingerprint (see fingerprint()).
        self._fp: Optional[tuple] = None

    def fingerprint(self) -> tuple:
        """A stable, hashable digest of the routing table (see
        :func:`routes_fingerprint`).  Cached until the next routing
        mutation.
        """
        fp = self._fp
        if fp is None:
            fp = self._fp = routes_fingerprint(self._routes)
        return fp

    def route(self, position: int, port: int, source: PortSource) -> None:
        """Connect input *port* (1 or 2) of downstream Dnode *position*."""
        self.check_route(position, port, source)
        self._routes[(position, port)] = source
        self.writes += 1
        self._fp = None
        if self.on_change is not None:
            self.on_change()

    def rewrite(self, route_writes: tuple,
                fingerprint: Optional[tuple]) -> None:
        """Quietly apply pre-validated ``((position, port), source)``
        writes: the plane-apply path of
        :class:`~repro.core.config_memory.ConfigMemory`.  No change hook
        fires and :attr:`writes` is left to the caller; *fingerprint*
        (None = recompute) replaces the cached one.
        """
        self._routes.update(route_writes)
        self._fp = fingerprint

    def check_route(self, position: int, port: int,
                    source: PortSource) -> None:
        """Validate a :meth:`route` call without applying it."""
        self._check_position(position)
        self._check_port(port)
        if not isinstance(source, PortSource):
            raise ConfigurationError(
                f"expected PortSource, got {type(source).__name__}"
            )
        if source.kind is PortKind.UP and source.index >= self.width:
            raise ConfigurationError(
                f"upstream position {source.index} out of range "
                f"(width {self.width})"
            )
        if source.kind is PortKind.RP and source.lane > self.width:
            raise ConfigurationError(
                f"feedback lane {source.lane} out of range (width {self.width})"
            )

    def source_for(self, position: int, port: int) -> PortSource:
        """Current routing of input *port* of downstream Dnode *position*."""
        self._check_position(position)
        self._check_port(port)
        return self._routes.get((position, port), PortSource.zero())

    def clear(self) -> None:
        """Disconnect every port (all read zero)."""
        self._routes.clear()
        self.writes += 1
        self._fp = None
        if self.on_change is not None:
            self.on_change()

    def copy(self) -> "SwitchConfig":
        clone = SwitchConfig(self.width)
        clone._routes = dict(self._routes)
        return clone

    @classmethod
    def straight(cls, width: int) -> "SwitchConfig":
        """Identity routing: IN1 of position p <- upstream Dnode p."""
        cfg = cls(width)
        for p in range(width):
            cfg.route(p, 1, PortSource.up(p))
        return cfg

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.width:
            raise ConfigurationError(
                f"downstream position must be 0..{self.width - 1}, "
                f"got {position}"
            )

    @staticmethod
    def _check_port(port: int) -> None:
        if port not in (1, 2):
            raise ConfigurationError(f"input port must be 1 or 2, got {port}")


class Switch:
    """One inter-layer switch: routing crossbar + feedback pipelines."""

    def __init__(self, index: int, width: int,
                 pipeline_depth: int = FEEDBACK_DEPTH):
        if pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline depth must be >= 1, got {pipeline_depth}"
            )
        self.index = index
        self.width = width
        self.pipeline_depth = pipeline_depth
        self.config = SwitchConfig(width)
        # Each lane's pipeline is a fixed-size ring buffer: ``_head`` is the
        # slot holding the most recent (stage-1) value, older stages follow
        # at increasing offsets modulo the depth.  A shift is therefore one
        # write per lane instead of an O(depth) list rotation.  The list
        # objects are never replaced (reset clears them in place), so the
        # fast-path engine may close over them directly.
        self._pipes: List[List[int]] = [
            [0] * pipeline_depth for _ in range(width)
        ]
        self._head = 0

    def rp_read(self, stage: int, lane: int) -> int:
        """Read feedback tap ``Rp(stage, lane)`` (both 1-based)."""
        if not 1 <= stage <= self.pipeline_depth:
            raise SimulationError(
                f"switch {self.index}: feedback stage {stage} out of range "
                f"1..{self.pipeline_depth}"
            )
        if not 1 <= lane <= self.width:
            raise SimulationError(
                f"switch {self.index}: feedback lane {lane} out of range "
                f"1..{self.width}"
            )
        return self._pipes[lane - 1][
            (self._head + stage - 1) % self.pipeline_depth]

    def rp_write(self, stage: int, lane: int, value: int) -> None:
        """Overwrite feedback tap ``Rp(stage, lane)`` (both 1-based).

        The state-injection dual of :meth:`rp_read`: used by checkpoint
        restore and by fault injectors to place a word at an exact
        pipeline depth without disturbing the rotation head.
        """
        if not 1 <= stage <= self.pipeline_depth:
            raise SimulationError(
                f"switch {self.index}: feedback stage {stage} out of range "
                f"1..{self.pipeline_depth}"
            )
        if not 1 <= lane <= self.width:
            raise SimulationError(
                f"switch {self.index}: feedback lane {lane} out of range "
                f"1..{self.width}"
            )
        word.check(value, f"switch {self.index} lane {lane - 1}")
        self._pipes[lane - 1][
            (self._head + stage - 1) % self.pipeline_depth] = value

    def shift(self, upstream_outputs: List[int]) -> None:
        """Clock edge: push the upstream layer's outputs into the pipelines.

        Called with the OUT values that were forward-visible this cycle, so
        during the next cycle ``Rp(1, j)`` equals the value lane *j*
        presented forward one cycle earlier.
        """
        if len(upstream_outputs) != self.width:
            raise SimulationError(
                f"switch {self.index}: expected {self.width} upstream "
                f"outputs, got {len(upstream_outputs)}"
            )
        head = (self._head - 1) % self.pipeline_depth
        self._head = head
        for lane, value in enumerate(upstream_outputs):
            word.check(value, f"switch {self.index} lane {lane}")
            self._pipes[lane][head] = value

    def reset(self) -> None:
        """Flush the feedback pipelines (routing config preserved)."""
        zeros = (0,) * self.pipeline_depth
        for pipe in self._pipes:
            pipe[:] = zeros
        self._head = 0

    def __repr__(self) -> str:
        return f"Switch(index={self.index}, width={self.width})"
