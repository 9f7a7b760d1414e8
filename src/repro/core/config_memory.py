"""Configuration layer: the rewritable configuration of the operative layer.

Paper §3: "The configuration layer follows the same principle as FPGAs, it's
a [memory] which contains the configuration of all the components (Dnodes
and interconnect) of the operative layer", and the controller "is able to
change up to the entire content ... each clock cycle thanks to its dedicated
instruction set".

:class:`ConfigMemory` is the single write path into the fabric's
configuration state: Dnode global microwords, execution modes, local
sequencer contents and switch routing.  :class:`ConfigPlane` is a frozen
snapshot that can be re-applied in one shot — that is how the controller's
``CFGPLANE`` instruction changes the entire fabric configuration in a
single cycle.

A whole-plane switch costs what actually changes, and one path serves
every plane.  A ring's configuration memory is a ring-free *state*: each
Dnode's mode, global microword, local slots and LIMIT, and each switch's
routes, with the Dnode, switch and ring fingerprints of that content.
States are interned process-wide by geometry and content, and one bounded
memo maps ``(state, plane)`` to the next state and the writes that reach
it.  The ring remembers its state from one plane to the next; after any
other configuration write (a word-level write, a fault, a restore) it
captures it again from the live fabric.  A plane is validated once per
ring geometry; its first application over a state overlays its fields,
diffs the result by equality and interns it.  Applying it writes only the
changed Dnodes and switches, bypassing the per-field change hooks with
each one's fingerprint from the next state, invalidates the ring once and
installs the ring fingerprint, so re-adopting a cached plan is one dict
lookup.  A plane that leaves the state as it was (re-applied, or equal to
what the ring holds) writes and invalidates nothing.  A fresh ring that
meets a known state and plane computes nothing either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple, TYPE_CHECKING

from repro.core.dnode import (
    DnodeMode,
    check_microword,
    check_mode,
    dnode_fingerprint,
)
from repro.core.isa import MicroWord
from repro.core.local_controller import check_limit, check_slot
from repro.core.switch import PortSource, routes_fingerprint
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

DnodeAddr = Tuple[int, int]          # (layer, position)
SwitchRouteAddr = Tuple[int, int, int]  # (switch index, position, port)

_FIELDS = ("microwords", "modes", "local_programs", "switch_routes")

#: Plane transitions the process memoizes (the memo and its interned
#: states restart when it holds more).
PLANE_MEMO = 256


class _Fingerprint(tuple):
    """A configuration fingerprint that computes its hash once.

    Equal to (and hashing like) the plain tuple, so it mixes freely with
    plain-tuple keys; the deep hash over every microword is paid on the
    first lookup only.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        # String hashes differ between processes: pickle a plain tuple,
        # never the cached hash.
        return tuple, (tuple(self),)


@dataclass(frozen=True, eq=False)
class ConfigPlane:
    """Immutable configuration snapshot: the whole fabric or part of it.

    The four mappings are copied into read-only mappings at construction,
    so a plane cannot change after it was validated or applied.  Planes
    compare by content and are not hashable.
    """

    microwords: Mapping[DnodeAddr, MicroWord] = field(default_factory=dict)
    modes: Mapping[DnodeAddr, DnodeMode] = field(default_factory=dict)
    local_programs: Mapping[
        DnodeAddr, Tuple[Tuple[MicroWord, ...], int]] = field(
        default_factory=dict
    )
    switch_routes: Mapping[SwitchRouteAddr, PortSource] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for name in _FIELDS:
            object.__setattr__(self, name, MappingProxyType(
                dict(getattr(self, name))))
        # (layers, width) -> _PlaneLayout, built on first apply.
        object.__setattr__(self, "_layouts", {})

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ConfigPlane):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _FIELDS)

    __hash__ = None

    def __reduce__(self):
        return ConfigPlane, tuple(dict(getattr(self, name))
                                  for name in _FIELDS)

    def _layout(self, ring: "Ring") -> "_PlaneLayout":
        """This plane validated for *ring*'s geometry (built once)."""
        key = (ring.geometry.layers, ring.geometry.width)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = _PlaneLayout(self, ring)
        return layout


class _PlaneLayout:
    """A plane validated for one ring geometry.

    ``shape`` is the geometry's ``(layers, width)``; ``cells`` holds
    ``(layer, pos, microword, mode, program)`` for each Dnode the plane
    lists, layer-major, with None for a field it leaves alone;
    ``routes`` holds ``(switch, (((pos, port), source), ...))`` for each
    switch it routes.
    """

    __slots__ = ("shape", "cells", "routes")

    def __init__(self, plane: ConfigPlane, ring: "Ring"):
        # The setters' own checks in apply order, so a bad plane fails
        # with the message a field-by-field write raises, before any
        # field is written.
        for (layer, pos), mw in plane.microwords.items():
            ring.dnode(layer, pos)
            check_microword(mw)
        for (layer, pos), mode in plane.modes.items():
            ring.dnode(layer, pos)
            check_mode(mode)
        for (layer, pos), (slots, limit) in plane.local_programs.items():
            ring.dnode(layer, pos)
            for index, mw in enumerate(slots):
                check_slot(index, mw)
            check_limit(limit)
        geometry = ring.geometry
        tables: List[Dict[Tuple[int, int], PortSource]] = [
            {} for _ in range(geometry.layers)]
        for (si, pos, port), src in plane.switch_routes.items():
            ring.switch(si).config.check_route(pos, port, src)
            tables[si][(pos, port)] = src
        cells = []
        for layer in range(geometry.layers):
            for pos in range(geometry.width):
                fields = tuple(getattr(plane, name).get((layer, pos))
                               for name in _FIELDS[:3])
                if fields != (None, None, None):
                    cells.append((layer, pos) + fields)
        self.shape = (geometry.layers, geometry.width)
        self.cells = tuple(cells)
        self.routes = tuple((si, tuple(sorted(table.items())))
                            for si, table in enumerate(tables) if table)


class _State:
    """A ring-free configuration memory.

    ``cells`` holds ``(mode, microword, slots, limit)`` for each Dnode,
    layer-major, with every slot; ``routes`` holds each switch's sorted
    ``((pos, port), source)`` items, explicit ZERO routes included.  A
    state also carries each Dnode's fingerprint, each switch's and the
    ring's.  One object exists per geometry and content
    (:func:`_interned`), so states compare by identity.
    """

    __slots__ = ("cells", "routes", "dnode_fps", "switch_fps",
                 "fingerprint")

    def __init__(self, cells: tuple, routes: tuple):
        self.cells = cells
        self.routes = routes
        self.dnode_fps = tuple(dnode_fingerprint(*cell) for cell in cells)
        self.switch_fps = tuple(routes_fingerprint(dict(items))
                                for items in routes)
        self.fingerprint = _Fingerprint((self.dnode_fps, self.switch_fps))


# ((layers, width), cells, routes) -> the one state with that content;
# and (state, layout) -> (next state, dnode writes, switch writes).
_STATES: Dict[tuple, _State] = {}
_TRANSITIONS: Dict[tuple, tuple] = {}


def forget_states() -> None:
    """Empty the state and transition memo: the next plane applied to
    any ring captures its memory and computes its transition afresh."""
    _STATES.clear()
    _TRANSITIONS.clear()


def _interned(shape: Tuple[int, int], cells: tuple, routes: tuple) -> _State:
    """The one state of geometry *shape* with this content."""
    key = (shape, cells, routes)
    state = _STATES.get(key)
    if state is None:
        state = _STATES[key] = _State(cells, routes)
    return state


def _capture(ring: "Ring") -> _State:
    """The state *ring*'s live configuration memory holds."""
    return _interned(
        (ring.geometry.layers, ring.geometry.width),
        tuple((dn._mode, dn._global_word, tuple(dn.local._slots),
               dn.local._limit) for layer in ring._dnodes for dn in layer),
        tuple(tuple(sorted(sw.config._routes.items()))
              for sw in ring._switches))


def _transition(state: _State, layout: _PlaneLayout) -> tuple:
    """``(next state, dnode_writes, switch_writes)`` of applying
    *layout* over *state*, memoized.  The writes are ``(layer, pos,
    microword, mode, slot_writes, limit, fingerprint)`` and ``(switch,
    route_writes, fingerprint)``, with None / empty for a field the
    plane leaves as it was."""
    step = _TRANSITIONS.get((state, layout))
    if step is not None:
        return step
    if len(_TRANSITIONS) >= PLANE_MEMO:
        forget_states()
    width = layout.shape[1]
    cells = list(state.cells)
    for layer, pos, word, mode, program in layout.cells:
        index = layer * width + pos
        was_mode, was_word, slots, limit = cells[index]
        if program is not None:
            listed, limit = program
            slots = tuple(listed) + slots[len(listed):]
        cells[index] = (was_mode if mode is None else mode,
                        was_word if word is None else word, slots, limit)
    routes = list(state.routes)
    for si, listed in layout.routes:
        table = dict(routes[si])
        table.update(listed)
        routes[si] = tuple(sorted(table.items()))
    after = _interned(layout.shape, tuple(cells), tuple(routes))
    dnode_writes = []
    for layer, pos, *_ in layout.cells:
        index = layer * width + pos
        mode, word, slots, limit = after.cells[index]
        was_mode, was_word, was_slots, was_limit = state.cells[index]
        write = (None if word == was_word else word,
                 None if mode is was_mode else mode,
                 tuple((slot, mw) for slot, (mw, old)
                       in enumerate(zip(slots, was_slots)) if mw != old),
                 None if limit == was_limit else limit)
        if write != (None, None, (), None):
            dnode_writes.append((layer, pos) + write
                                + (after.dnode_fps[index],))
    switch_writes = []
    for si, listed in layout.routes:
        was = dict(state.routes[si])
        changed = tuple(route for route in listed
                        if was.get(route[0]) != route[1])
        if changed:
            switch_writes.append((si, changed, after.switch_fps[si]))
    step = _TRANSITIONS[(state, layout)] = (
        after, tuple(dnode_writes), tuple(switch_writes))
    return step


class ConfigMemory:
    """Write interface from the configuration controller into the fabric.

    Every mutating method validates its address against the ring geometry,
    so a buggy controller program fails loudly instead of silently
    configuring a non-existent Dnode.
    """

    def __init__(self, ring: "Ring"):
        self._ring = ring
        self.writes = 0  # total configuration words written (A1 ablation)

    # Every mutator below lands on a Dnode / LocalController / SwitchConfig
    # setter whose change hook invalidates the ring's pre-decoded fast-path
    # plan, so a write at cycle t always governs the fabric from cycle t on
    # regardless of which execution engine is active.

    # -- Dnode configuration -------------------------------------------

    def write_microword(self, layer: int, position: int,
                        microword: MicroWord) -> None:
        """Set the global-mode microinstruction of one Dnode."""
        self._ring.dnode(layer, position).configure(microword)
        self.writes += 1

    def write_mode(self, layer: int, position: int, mode: DnodeMode) -> None:
        """Switch one Dnode between global and local execution."""
        self._ring.dnode(layer, position).set_mode(mode)
        self.writes += 1

    def write_local_slot(self, layer: int, position: int, slot: int,
                         microword: MicroWord) -> None:
        """Load one instruction register of a Dnode's local sequencer."""
        self._ring.dnode(layer, position).local.load_slot(slot, microword)
        self.writes += 1

    def write_local_limit(self, layer: int, position: int,
                          limit: int) -> None:
        """Write the LIMIT register of a Dnode's local sequencer."""
        self._ring.dnode(layer, position).local.set_limit(limit)
        self.writes += 1

    def write_local_program(self, layer: int, position: int,
                            program: List[MicroWord]) -> None:
        """Load a whole local loop (slots + LIMIT + counter reset)."""
        self._ring.dnode(layer, position).local.load_program(program)
        self.writes += len(program) + 1

    # -- Switch configuration ------------------------------------------

    def write_switch_route(self, switch_index: int, position: int,
                           port: int, source: PortSource) -> None:
        """Connect one downstream input port of one switch."""
        self._ring.switch(switch_index).config.route(position, port, source)
        self.writes += 1

    # -- Planes ----------------------------------------------------------

    def capture_plane(self) -> ConfigPlane:
        """Snapshot the entire current fabric configuration."""
        micro: Dict[DnodeAddr, MicroWord] = {}
        modes: Dict[DnodeAddr, DnodeMode] = {}
        local: Dict[DnodeAddr, Tuple[Tuple[MicroWord, ...], int]] = {}
        routes: Dict[SwitchRouteAddr, PortSource] = {}
        for layer in range(self._ring.geometry.layers):
            for pos in range(self._ring.geometry.width):
                dn = self._ring.dnode(layer, pos)
                micro[(layer, pos)] = dn.global_word
                modes[(layer, pos)] = dn.mode
                local[(layer, pos)] = (tuple(dn.local.slots()),
                                       dn.local.limit)
        for si in range(self._ring.geometry.layers):
            sw = self._ring.switch(si)
            for pos in range(sw.width):
                for port in (1, 2):
                    routes[(si, pos, port)] = sw.config.source_for(pos, port)
        return ConfigPlane(micro, modes, local, routes)

    def apply_plane(self, plane: ConfigPlane) -> None:
        """Apply a snapshot to the fabric (one-cycle reconfiguration).

        Counts as a single configuration write burst: the paper's wide
        configuration path, not per-word controller traffic.  Only the
        fields that differ are written and the ring is invalidated once;
        a plane that changes nothing writes and invalidates nothing (see
        the module docstring).  The per-switch route counters still
        count every route the plane lists.
        """
        if not isinstance(plane, ConfigPlane):
            raise ConfigurationError(
                f"expected ConfigPlane, got {type(plane).__name__}"
            )
        ring = self._ring
        layout = plane._layout(ring)
        state = ring._state
        if state is None:
            state = _capture(ring)
        after, dnode_writes, switch_writes = _transition(state, layout)
        if after is not state:
            dnodes = ring._dnodes
            for layer, pos, word, mode, slots, limit, fp in dnode_writes:
                dnodes[layer][pos].rewrite(word, mode, slots, limit, fp)
            for si, route_writes, fp in switch_writes:
                ring._switches[si].config.rewrite(route_writes, fp)
            # One invalidation for the whole plane (it also forgets the
            # state).
            ring._invalidate_fastpath()
        ring._state = after
        ring._fingerprint = after.fingerprint
        for si, route_writes in layout.routes:
            ring._switches[si].config.writes += len(route_writes)
        self.writes += 1
