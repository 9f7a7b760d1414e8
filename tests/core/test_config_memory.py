"""Tests for the configuration layer (ConfigMemory / ConfigPlane)."""

import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import config_memory
from repro.core.config_memory import ConfigPlane
from repro.core.dnode import DnodeMode, dnode_fingerprint
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.core.switch import PortSource, routes_fingerprint
from repro.errors import ConfigurationError
from repro.kernels.motion_estimation import _sad_planes, full_search_me
from repro.robustness.faults import (CONFIG_KINDS, FaultEvent, FaultInjector,
                                     FaultKind, FaultSite)

from tests.core.test_fuzz import (_legal_word, build_ring, port_sources,
                                  ring_specs)
from tests.core.test_isa import microwords


def mw(imm=0):
    return MicroWord(Opcode.MOV, Source.IMM, dst=Dest.OUT, imm=imm)


class TestWrites:
    def test_write_microword(self, ring8):
        ring8.config.write_microword(1, 1, mw(5))
        assert ring8.dnode(1, 1).global_word == mw(5)

    def test_write_mode(self, ring8):
        ring8.config.write_mode(0, 0, DnodeMode.LOCAL)
        assert ring8.dnode(0, 0).mode is DnodeMode.LOCAL

    def test_write_local_slot_and_limit(self, ring8):
        ring8.config.write_local_slot(0, 0, 2, mw(9))
        ring8.config.write_local_limit(0, 0, 3)
        dn = ring8.dnode(0, 0)
        assert dn.local.slots()[2] == mw(9)
        assert dn.local.limit == 3

    def test_write_local_program(self, ring8):
        ring8.config.write_local_program(0, 0, [mw(1), mw(2)])
        assert ring8.dnode(0, 0).local.limit == 2

    def test_write_switch_route(self, ring8):
        ring8.config.write_switch_route(2, 1, 2, PortSource.up(0))
        assert ring8.switch(2).config.source_for(1, 2) == PortSource.up(0)

    def test_addresses_validated(self, ring8):
        with pytest.raises(ConfigurationError):
            ring8.config.write_microword(9, 0, mw())

    def test_write_counter(self, ring8):
        before = ring8.config.writes
        ring8.config.write_microword(0, 0, mw())
        ring8.config.write_mode(0, 0, DnodeMode.LOCAL)
        assert ring8.config.writes == before + 2


class TestPlanes:
    def test_capture_apply_roundtrip(self, ring8):
        cfg = ring8.config
        cfg.write_microword(0, 0, mw(1))
        cfg.write_mode(1, 0, DnodeMode.LOCAL)
        cfg.write_local_program(1, 0, [mw(2), mw(3)])
        cfg.write_switch_route(0, 0, 1, PortSource.host(2))
        plane = cfg.capture_plane()

        # scramble everything
        cfg.write_microword(0, 0, mw(9))
        cfg.write_mode(1, 0, DnodeMode.GLOBAL)
        cfg.write_switch_route(0, 0, 1, PortSource.zero())

        cfg.apply_plane(plane)
        assert ring8.dnode(0, 0).global_word == mw(1)
        assert ring8.dnode(1, 0).mode is DnodeMode.LOCAL
        assert ring8.dnode(1, 0).local.slots()[1] == mw(3)
        assert ring8.switch(0).config.source_for(0, 1) == PortSource.host(2)

    def test_partial_plane_only_touches_listed(self, ring8):
        ring8.config.write_microword(0, 0, mw(1))
        ring8.config.write_microword(0, 1, mw(2))
        plane = ConfigPlane(microwords={(0, 0): mw(7)})
        ring8.config.apply_plane(plane)
        assert ring8.dnode(0, 0).global_word == mw(7)
        assert ring8.dnode(0, 1).global_word == mw(2)

    def test_apply_type_checked(self, ring8):
        with pytest.raises(ConfigurationError):
            ring8.config.apply_plane({"not": "a plane"})

    def test_plane_counts_as_one_write_burst(self, ring8):
        plane = ring8.config.capture_plane()
        before = ring8.config.writes
        ring8.config.apply_plane(plane)
        assert ring8.config.writes == before + 1

    def test_captured_plane_covers_whole_fabric(self, ring8):
        plane = ring8.config.capture_plane()
        geometry = ring8.geometry
        assert len(plane.microwords) == geometry.dnodes
        assert len(plane.modes) == geometry.dnodes
        assert len(plane.switch_routes) == geometry.layers * \
            geometry.width * 2


class TestFrozenPlanes:
    def _plane(self, ring8):
        ring8.config.write_local_program(1, 0, [mw(2), mw(3)])
        ring8.config.write_switch_route(0, 0, 1, PortSource.host(2))
        return ring8.config.capture_plane()

    @pytest.mark.parametrize("name", ["microwords", "modes",
                                      "local_programs", "switch_routes"])
    def test_mappings_are_read_only(self, ring8, name):
        plane = self._plane(ring8)
        mapping = getattr(plane, name)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(FrozenInstanceError):
            setattr(plane, name, {})

    def test_constructor_copies_its_arguments(self):
        words = {(0, 0): mw(1)}
        plane = ConfigPlane(microwords=words)
        words[(0, 0)] = mw(2)
        words[(0, 1)] = mw(3)
        assert dict(plane.microwords) == {(0, 0): mw(1)}

    def test_pickle_round_trip(self, ring8):
        plane = self._plane(ring8)
        ring8.config.apply_plane(plane)  # builds the per-geometry caches
        assert pickle.loads(pickle.dumps(plane)) == plane

    def test_partial_planes_build(self):
        compute, flush, reset = _sad_planes(4)
        assert set(compute.modes) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert not flush.local_programs and not reset.switch_routes
        assert ConfigPlane(microwords={(0, 0): mw(7)}) != ConfigPlane()

    def test_equality_is_by_content(self, ring8):
        plane = self._plane(ring8)
        assert plane == ring8.config.capture_plane()
        assert plane != ConfigPlane(microwords=plane.microwords)
        with pytest.raises(TypeError):
            hash(plane)


class TestPlaneValidation:
    @pytest.mark.parametrize("plane, message", [
        (ConfigPlane(microwords={(0, 0): mw(1), (9, 0): mw(2)}),
         "layer must be 0..3, got 9"),
        (ConfigPlane(modes={(0, 0): "local"}),
         "expected DnodeMode, got 'local'"),
        (ConfigPlane(local_programs={(0, 0): ((mw(1),) * 9, 2)}),
         "local slot index must be 0..7, got 8"),
        (ConfigPlane(local_programs={(0, 0): ((mw(1),), 9)}),
         "LIMIT must be 1..8, got 9"),
        (ConfigPlane(switch_routes={(0, 0, 1): PortSource.up(2)}),
         r"upstream position 2 out of range \(width 2\)"),
        (ConfigPlane(switch_routes={(0, 0, 3): PortSource.up(0)}),
         "input port must be 1 or 2, got 3"),
    ])
    def test_bad_plane_fails_like_the_setter_and_writes_nothing(
            self, ring8, plane, message):
        before = ring8.config.capture_plane()
        writes = ring8.config.writes
        with pytest.raises(ConfigurationError, match=message):
            ring8.config.apply_plane(plane)
        assert ring8.config.capture_plane() == before
        assert ring8.config.writes == writes


def _echo_ring(**kwargs) -> Ring:
    """A Ring-8 whose lane 0 keeps a running sum of the bus."""
    ring = Ring(RingGeometry.ring(8), **kwargs)
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.SELF, Source.BUS, Dest.OUT))
    return ring


class TestResidentPlane:
    def test_reapply_writes_nothing_and_keeps_the_plan(self):
        ring = _echo_ring(backend="native")
        plane = ring.config.capture_plane()
        ring.config.apply_plane(plane)
        ring.run(8, bus=3)
        plans, invalidations = dict(ring._steady), ring.plan_invalidations
        hits, routes = ring.plan_cache.hits, ring.switch(0).config.writes
        assert plans
        # A decoded copy is equal content, not the same object.
        for again in (plane, pickle.loads(pickle.dumps(plane))):
            writes = ring.config.writes
            ring.config.apply_plane(again)
            assert ring.config.writes == writes + 1
        assert ring._steady == plans
        assert ring.plan_invalidations == invalidations
        assert ring.plan_cache.hits == hits
        # Route counters still count every route the plane lists.
        assert ring.switch(0).config.writes == routes + 2 * 2 * 2

    def test_plane_the_ring_already_holds_writes_nothing(self):
        ring = _echo_ring(backend="native")
        ring.run(8, bus=3)
        plans, invalidations = dict(ring._steady), ring.plan_invalidations
        hits = ring.plan_cache.hits
        assert plans and ring._state is None
        # Never applied before, and listing only what the ring holds.
        ring.config.apply_plane(ConfigPlane(
            microwords={(0, 0): ring.dnode(0, 0).global_word},
            modes={(1, 1): DnodeMode.GLOBAL}))
        assert ring._steady == plans
        assert ring.plan_invalidations == invalidations
        assert ring.plan_cache.hits == hits
        assert ring._state is config_memory._capture(ring)

    def test_switching_between_complete_planes_readopts_in_one_lookup(self):
        ring = _echo_ring(backend="native")
        add = ring.config.capture_plane()
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.SUB, Source.SELF, Source.BUS, Dest.OUT))
        sub = ring.config.capture_plane()
        for plane in (add, sub, add, sub):
            ring.config.apply_plane(plane)
            ring.run(6, bus=1)
        compiles, hits = ring.plan_compiles, ring.plan_cache.hits
        ring.config.apply_plane(add)
        assert ring.adopt_cached_plan()
        assert ring.plan_compiles == compiles
        assert ring.plan_cache.hits == hits + 1
        assert ring.config_fingerprint() == _recomputed_fingerprint(ring)

    def test_config_fault_between_applies_is_repaired(self):
        ring = _echo_ring(backend="native")
        plane = ring.config.capture_plane()
        ring.config.apply_plane(plane)
        ring.run(4, bus=2)
        injector = FaultInjector(ring, seed=1, kinds=CONFIG_KINDS)
        record = injector.inject(FaultEvent(
            cycle=ring.cycles,
            site=FaultSite(FaultKind.CONFIG_WORD, (0, 0)), bit=3))
        assert record.applied
        assert ring.config.capture_plane() != plane
        ring.config.apply_plane(plane)
        assert ring.config.capture_plane() == plane
        assert ring.config_fingerprint() == _recomputed_fingerprint(ring)


# -- plane-apply differential ---------------------------------------------


def _recomputed_fingerprint(ring: Ring) -> tuple:
    """The ring's configuration fingerprint with no cache consulted."""
    return (
        tuple(dnode_fingerprint(dn.mode, dn.global_word, dn.local.slots(),
                                dn.local.limit)
              for dn in ring.all_dnodes()),
        tuple(routes_fingerprint(ring.switch(k).config._routes)
              for k in range(ring.geometry.layers)),
    )


def _apply_fieldwise(ring: Ring, plane: ConfigPlane) -> None:
    """The spec of ``apply_plane``: every listed field through its
    public setter, counted as one configuration write burst."""
    for (layer, pos), word in plane.microwords.items():
        ring.dnode(layer, pos).configure(word)
    for (layer, pos), mode in plane.modes.items():
        ring.dnode(layer, pos).set_mode(mode)
    for (layer, pos), (slots, limit) in plane.local_programs.items():
        local = ring.dnode(layer, pos).local
        for index, word in enumerate(slots):
            local.load_slot(index, word)
        local.set_limit(limit)
    for (si, pos, port), src in plane.switch_routes.items():
        ring.switch(si).config.route(pos, port, src)
    ring.config.writes += 1


def _captured(spec: dict) -> ConfigPlane:
    scratch = build_ring(spec, backend="interpreter")
    return scratch.config.capture_plane()


@st.composite
def _partial_planes(draw, layers: int, width: int):
    spec = draw(ring_specs(min_layers=layers, max_layers=layers,
                           min_width=width, max_width=width,
                           fifo_loads=False, accumulators=True))
    microwords, modes, local_programs, routes = {}, {}, {}, {}
    for layer, pos, word, local, cell_routes, _loads in spec["cells"]:
        if draw(st.booleans()):
            microwords[(layer, pos)] = word
        if draw(st.booleans()):
            modes[(layer, pos)] = draw(st.sampled_from(DnodeMode))
        if local is not None:
            limit = draw(st.integers(1, 8))
            local_programs[(layer, pos)] = (tuple(local), limit)
        for port, route in cell_routes.items():
            if draw(st.booleans()):
                routes[(layer, pos, port)] = route
    return ConfigPlane(microwords=microwords, modes=modes,
                       local_programs=local_programs, switch_routes=routes)


@st.composite
def _single_writes(draw, layers: int, width: int):
    layer = draw(st.integers(0, layers - 1))
    pos = draw(st.integers(0, width - 1))
    word = draw(microwords().map(lambda w: _legal_word(w, width)))
    kind = draw(st.sampled_from(["microword", "mode", "slot", "limit",
                                 "program", "route"]))
    if kind == "microword":
        return ("write_microword", layer, pos, word)
    if kind == "mode":
        return ("write_mode", layer, pos, draw(st.sampled_from(DnodeMode)))
    if kind == "slot":
        return ("write_local_slot", layer, pos, draw(st.integers(0, 7)),
                word)
    if kind == "limit":
        return ("write_local_limit", layer, pos, draw(st.integers(1, 8)))
    if kind == "program":
        return ("write_local_program", layer, pos, [word] * draw(
            st.integers(1, 8)))
    return ("write_switch_route", layer, pos, draw(st.integers(1, 2)),
            draw(port_sources(width)))


@st.composite
def _config_faults(draw, layers: int, width: int):
    kind = draw(st.sampled_from(CONFIG_KINDS))
    if kind is FaultKind.CONFIG_ROUTE:
        address = (draw(st.integers(0, layers - 1)),
                   draw(st.integers(0, width - 1)), draw(st.integers(1, 2)))
    else:
        address = (draw(st.integers(0, layers - 1)),
                   draw(st.integers(0, width - 1)))
    return FaultEvent(cycle=0, site=FaultSite(kind, address),
                      bit=draw(st.integers(0, 15)),
                      index=draw(st.integers(0, 255)))


@st.composite
def plane_sequences(draw):
    """A fabric, a pool of complete planes and a sequence of steps over
    them: complete, copied and partial planes, re-applies of the last
    plane, single-field writes, config faults, short runs and fresh
    rings."""
    layers = draw(st.integers(2, 3))
    width = draw(st.integers(1, 2))
    shape = dict(min_layers=layers, max_layers=layers, min_width=width,
                 max_width=width, fifo_loads=False, accumulators=True)
    base = draw(ring_specs(**shape))
    pool = [_captured(draw(ring_specs(**shape)))
            for _ in range(draw(st.integers(1, 3)))]
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["complete", "copy", "partial", "again",
                                     "write", "fault", "run", "fresh"]))
        if kind in ("complete", "copy"):
            plane = draw(st.sampled_from(pool))
            if kind == "copy":
                plane = pickle.loads(pickle.dumps(plane))
            steps.append(("plane", plane))
        elif kind == "partial":
            steps.append(("plane", draw(_partial_planes(layers, width))))
        elif kind in ("again", "fresh"):
            steps.append((kind,))
        elif kind == "write":
            steps.append(("write", draw(_single_writes(layers, width))))
        elif kind == "fault":
            steps.append(("fault", draw(_config_faults(layers, width))))
        else:
            steps.append(("run", draw(st.integers(1, 12)),
                          draw(st.integers(0, 0xFFFF))))
    return base, steps


def _host(channel: int) -> int:
    return (channel * 37 + 11) & 0xFFFF


def _observe(ring: Ring) -> tuple:
    return (
        state_digest(ring),
        tuple(dn.local.counter for dn in ring.all_dnodes()),
        ring.config.writes,
        tuple(ring.switch(k).config.writes
              for k in range(ring.geometry.layers)),
    )


def _play(ring: Ring, step: tuple, fieldwise: bool = False) -> None:
    """One generated step on *ring*; with *fieldwise* a plane goes
    through every setter instead of ``apply_plane``."""
    if step[0] == "plane":
        if fieldwise:
            _apply_fieldwise(ring, step[1])
        else:
            ring.config.apply_plane(step[1])
    elif step[0] == "write":
        method, *args = step[1]
        getattr(ring.config, method)(*args)
    elif step[0] == "fault":
        FaultInjector(ring, seed=0, kinds=CONFIG_KINDS).inject(step[1])
    else:
        _, cycles, bus = step
        ring.run(cycles, bus=bus, host_in=_host)


class TestPlaneApplyDifferential:
    """``apply_plane`` (one memoized step between interned states) on a
    native ring == every field through its setter on an interpreter
    ring, after every step of a random configuration sequence."""

    @given(case=plane_sequences())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_fieldwise_apply(self, case):
        base, steps = case
        fast = build_ring(base, backend="native")
        spec = build_ring(base, backend="interpreter")
        played, last = [], None
        for step in steps:
            if step[0] == "fresh":
                # A second ring replays the steps so far: its plane
                # switches meet the states and transitions the first
                # one interned.
                fast = build_ring(base, backend="native")
                for earlier in played:
                    _play(fast, earlier)
            else:
                if step[0] == "again":
                    if last is None:
                        continue
                    step = ("plane", last)
                if step[0] == "plane":
                    last = step[1]
                _play(fast, step)
                _play(spec, step, fieldwise=True)
                played.append(step)
            assert _observe(fast) == _observe(spec)
            assert fast.config_fingerprint() == \
                _recomputed_fingerprint(fast) == spec.config_fingerprint()
            for dn in fast.all_dnodes():
                assert dn.config_fingerprint() == dnode_fingerprint(
                    dn.mode, dn.global_word, dn.local.slots(),
                    dn.local.limit)

    def test_geometries_never_share_a_state(self):
        plane = ConfigPlane(
            microwords={(layer, 0): mw(layer) for layer in range(8)},
            modes={(1, 0): DnodeMode.LOCAL},
            local_programs={(1, 0): ((mw(1), mw(2)), 2)},
            switch_routes={(1, 0, 1): PortSource.up(0)})
        rings = []
        for width in (2, 1):
            geometry = RingGeometry.ring(16, width=width)
            ring, spec = Ring(geometry), Ring(geometry,
                                              backend="interpreter")
            ring.config.apply_plane(plane)
            _apply_fieldwise(spec, plane)
            assert ring.config.capture_plane() == spec.config.capture_plane()
            assert ring.config_fingerprint() == \
                _recomputed_fingerprint(ring)
            rings.append(ring)
        wide, tall = rings
        assert wide._state is not tall._state
        assert wide._state.fingerprint != tall._state.fingerprint

    def test_second_me_system_captures_once_and_computes_nothing(
            self, monkeypatch):
        rng = np.random.default_rng(7)
        block = rng.integers(0, 256, (8, 8))
        area = rng.integers(0, 256, (24, 24))
        first = full_search_me(block, area)
        captures = []
        capture = config_memory._capture

        def counted(ring):
            captures.append(capture(ring))
            return captures[-1]
        monkeypatch.setattr(config_memory, "_capture", counted)
        transitions = dict(config_memory._TRANSITIONS)
        second = full_search_me(block, area)
        # The preloaded local programs are word-level writes: the first
        # CFGPLANE captures the memory, which the first op interned.
        assert len(captures) == 1
        assert config_memory._TRANSITIONS == transitions
        assert second.sad_map.tolist() == first.sad_map.tolist()
