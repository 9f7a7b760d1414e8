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

A whole-plane switch costs what actually changes.  A plane is validated
once per ring geometry; a *complete* plane (every microword, mode, local
program and route, as :meth:`ConfigMemory.capture_plane` captures) also
carries its Dnode, switch and ring fingerprints.  The ring remembers its
*resident* plane, the last one applied, until any other configuration
write.  Re-applying the resident plane writes nothing.  A complete plane
over a complete resident plane writes a memoized per-pair diff, bypasses
the per-field change hooks, invalidates the ring once and installs its
fingerprint, so re-adopting a cached plan is one dict lookup.  Any other
plane writes the listed fields the live fabric does not already hold
(compared by identity, which is cheap and never skips a needed write),
then invalidates once.
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
from repro.core.local_controller import NUM_SLOTS, check_limit, check_slot
from repro.core.switch import PortSource, routes_fingerprint
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

DnodeAddr = Tuple[int, int]          # (layer, position)
SwitchRouteAddr = Tuple[int, int, int]  # (switch index, position, port)

_FIELDS = ("microwords", "modes", "local_programs", "switch_routes")

#: Resident planes a plane memoizes its diff from (a multiplexing working
#: set; the memo restarts when a plane meets more than this many).
_DIFF_MEMO = 8


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

    ``cells`` holds ``(layer, pos, microword, mode, program)`` for each
    Dnode the plane lists, layer-major, with None for a field it leaves
    alone; ``routes`` holds ``(switch, (((pos, port), source), ...))``
    for each switch it routes.  A complete plane also has each Dnode's
    fingerprint (in ``cells`` order), each switch's and the ring's; a
    partial plane has None there.  ``diffs`` memoizes the writes from
    each complete layout this one was applied over, keyed by its id and
    bounded by :data:`_DIFF_MEMO`.
    """

    __slots__ = ("cells", "routes", "dnode_fps", "switch_fps", "fingerprint",
                 "diffs")

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
        self.cells = tuple(cells)
        self.routes = tuple((si, tuple(sorted(table.items())))
                            for si, table in enumerate(tables) if table)
        self.diffs: Dict[int, tuple] = {}
        self.dnode_fps = self.switch_fps = self.fingerprint = None
        if (all(None not in cell and len(cell[4][0]) == NUM_SLOTS
                for cell in cells)
                and len(cells) == geometry.layers * geometry.width
                and len(plane.switch_routes) == 2 * len(cells)):
            self.dnode_fps = tuple(
                dnode_fingerprint(mode, word, *program)
                for _, _, word, mode, program in cells)
            self.switch_fps = tuple(routes_fingerprint(table)
                                    for table in tables)
            self.fingerprint = _Fingerprint((self.dnode_fps,
                                             self.switch_fps))

    def diff(self, before: "_PlaneLayout") -> tuple:
        """The writes that turn the complete layout *before* into this
        complete one, memoized: ``(dnode_writes, switch_writes)`` of
        ``(layer, pos, microword, mode, slot_writes, limit,
        fingerprint)`` and ``(switch, route_writes, fingerprint)``, with
        None / empty for a field that is equal in both."""
        # An entry holds *before* itself, so its id cannot be reused by
        # another layout while the entry lives.
        memo = self.diffs.get(id(before))
        if memo is not None:
            return memo[1]
        dnode_writes = []
        for cell, was, fp in zip(self.cells, before.cells, self.dnode_fps):
            layer, pos, word, mode, (slots, limit) = cell
            _, _, was_word, was_mode, (was_slots, was_limit) = was
            write = (None if word == was_word else word,
                     None if mode is was_mode else mode,
                     tuple((index, mw) for index, (mw, old)
                           in enumerate(zip(slots, was_slots)) if mw != old),
                     None if limit == was_limit else limit)
            if write != (None, None, (), None):
                dnode_writes.append((layer, pos) + write + (fp,))
        switch_writes = []
        for (si, routes), (_, was), fp in zip(self.routes, before.routes,
                                              self.switch_fps):
            changed = tuple(route for route, old in zip(routes, was)
                            if route[1] != old[1])
            if changed:
                switch_writes.append((si, changed, fp))
        writes = (tuple(dnode_writes), tuple(switch_writes))
        if len(self.diffs) >= _DIFF_MEMO:
            self.diffs.clear()
        self.diffs[id(before)] = (before, writes)
        return writes

    def write_live(self, ring: "Ring") -> None:
        """Write every field of the plane that *ring* does not already
        hold (the same object), quietly, with fingerprints as in
        :meth:`diff`."""
        dnodes = ring._dnodes
        fps = self.dnode_fps
        for index, (layer, pos, word, mode, program) in enumerate(
                self.cells):
            dn = dnodes[layer][pos]
            if word is dn._global_word:
                word = None
            if mode is dn._mode:
                mode = None
            slot_writes, limit = (), None
            if program is not None:
                slots, limit = program
                live = dn.local._slots
                slot_writes = tuple((slot, mw) for slot, mw in enumerate(slots)
                                    if mw is not live[slot])
                if limit == dn.local._limit:
                    limit = None
            if (word is not None or mode is not None or slot_writes
                    or limit is not None):
                dn.rewrite(word, mode, slot_writes, limit,
                           None if fps is None else fps[index])
        for si, routes in self.routes:
            config = ring._switches[si].config
            live = config._routes
            changed = tuple(route for route in routes
                            if live.get(route[0]) is not route[1])
            if changed:
                config.rewrite(changed, None if self.switch_fps is None
                               else self.switch_fps[si])


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
        re-applying the resident plane writes nothing (see the module
        docstring).  The per-switch route counters still count every
        route the plane lists.
        """
        if not isinstance(plane, ConfigPlane):
            raise ConfigurationError(
                f"expected ConfigPlane, got {type(plane).__name__}"
            )
        ring = self._ring
        resident = ring._resident_plane
        if resident is not None and resident == plane:
            layout = resident._layout(ring)
        else:
            layout = plane._layout(ring)
            before = None if resident is None else resident._layout(ring)
            if (layout.fingerprint is not None and before is not None
                    and before.fingerprint is not None):
                dnode_writes, switch_writes = layout.diff(before)
                for layer, pos, word, mode, slots, limit, fp in dnode_writes:
                    ring._dnodes[layer][pos].rewrite(word, mode, slots,
                                                     limit, fp)
                for si, route_writes, fp in switch_writes:
                    ring._switches[si].config.rewrite(route_writes, fp)
            else:
                layout.write_live(ring)
            # One invalidation for the whole plane (it also clears the
            # resident marker), even when nothing differed.
            ring._invalidate_fastpath()
            if layout.fingerprint is not None:
                ring._fingerprint = layout.fingerprint
            ring._resident_plane = plane
        for si, route_writes in layout.routes:
            ring._switches[si].config.writes += len(route_writes)
        self.writes += 1
