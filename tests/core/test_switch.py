"""Tests for the inter-layer switch: routing, pipelines, route encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.core.switch import (
    PortKind,
    PortSource,
    Switch,
    SwitchConfig,
    decode_route,
    encode_route,
)
from repro.errors import ConfigurationError, SimulationError


class TestPortSource:
    def test_constructors(self):
        assert PortSource.zero().kind is PortKind.ZERO
        assert PortSource.up(1).index == 1
        assert PortSource.host(3).index == 3
        assert PortSource.bus().kind is PortKind.BUS
        rp = PortSource.rp(2, 1)
        assert (rp.index, rp.lane) == (2, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PortSource.up(-1)
        with pytest.raises(ConfigurationError):
            PortSource.rp(0, 1)
        with pytest.raises(ConfigurationError):
            PortSource.rp(5, 1)
        with pytest.raises(ConfigurationError):
            PortSource.rp(1, 0)
        with pytest.raises(ConfigurationError):
            PortSource.host(-1)

    def test_str_forms(self):
        assert str(PortSource.up(0)) == "up0"
        assert str(PortSource.rp(1, 2)) == "rp(1,2)"
        assert str(PortSource.host(4)) == "host4"
        assert str(PortSource.zero()) == "zero"


_route_sources = st.one_of(
    st.just(PortSource.zero()),
    st.just(PortSource.bus()),
    st.integers(min_value=0, max_value=255).map(PortSource.up),
    st.integers(min_value=0, max_value=255).map(PortSource.host),
    st.tuples(st.integers(min_value=1, max_value=4),
              st.integers(min_value=1, max_value=31)).map(
        lambda t: PortSource.rp(*t)),
)


class TestRouteEncoding:
    @given(_route_sources)
    def test_roundtrip(self, src):
        assert decode_route(encode_route(src)) == src

    @given(_route_sources)
    def test_fits_16_bits(self, src):
        assert 0 <= encode_route(src) < (1 << 16)

    def test_decode_rejects_illegal_kind(self):
        with pytest.raises(ConfigurationError):
            decode_route(7 << 13)

    def test_decode_rejects_oversize(self):
        with pytest.raises(ConfigurationError):
            decode_route(1 << 16)


class TestSwitchConfig:
    def test_default_is_zero(self):
        cfg = SwitchConfig(2)
        assert cfg.source_for(0, 1) == PortSource.zero()

    def test_route_and_lookup(self):
        cfg = SwitchConfig(2)
        cfg.route(1, 2, PortSource.up(0))
        assert cfg.source_for(1, 2) == PortSource.up(0)
        assert cfg.source_for(1, 1) == PortSource.zero()

    def test_straight_identity(self):
        cfg = SwitchConfig.straight(3)
        for p in range(3):
            assert cfg.source_for(p, 1) == PortSource.up(p)

    def test_position_bounds(self):
        with pytest.raises(ConfigurationError):
            SwitchConfig(2).route(2, 1, PortSource.zero())

    def test_port_must_be_1_or_2(self):
        with pytest.raises(ConfigurationError):
            SwitchConfig(2).route(0, 3, PortSource.zero())

    def test_up_index_bounded_by_width(self):
        with pytest.raises(ConfigurationError):
            SwitchConfig(2).route(0, 1, PortSource.up(2))

    def test_rp_lane_bounded_by_width(self):
        with pytest.raises(ConfigurationError):
            SwitchConfig(2).route(0, 1, PortSource.rp(1, 3))

    def test_clear(self):
        cfg = SwitchConfig(2)
        cfg.route(0, 1, PortSource.up(1))
        cfg.clear()
        assert cfg.source_for(0, 1) == PortSource.zero()

    def test_copy_is_independent(self):
        cfg = SwitchConfig(2)
        cfg.route(0, 1, PortSource.up(1))
        clone = cfg.copy()
        cfg.route(0, 1, PortSource.up(0))
        assert clone.source_for(0, 1) == PortSource.up(1)

    def test_type_checked(self):
        with pytest.raises(ConfigurationError):
            SwitchConfig(2).route(0, 1, "up0")


class TestFeedbackPipelines:
    def test_initially_zero(self):
        sw = Switch(0, 2)
        assert sw.rp_read(1, 1) == 0
        assert sw.rp_read(4, 2) == 0

    def test_shift_semantics(self):
        sw = Switch(0, 2)
        sw.shift([10, 20])
        sw.shift([11, 21])
        sw.shift([12, 22])
        # Rp(i, lane): lane output i shifts ago
        assert sw.rp_read(1, 1) == 12
        assert sw.rp_read(2, 1) == 11
        assert sw.rp_read(3, 1) == 10
        assert sw.rp_read(1, 2) == 22
        assert sw.rp_read(4, 1) == 0  # not yet filled

    def test_depth_limit(self):
        sw = Switch(0, 2)
        for i in range(6):
            sw.shift([i, 0])
        assert sw.rp_read(4, 1) == 2  # oldest retained

    def test_stage_bounds(self):
        sw = Switch(0, 2)
        with pytest.raises(SimulationError):
            sw.rp_read(0, 1)
        with pytest.raises(SimulationError):
            sw.rp_read(5, 1)

    def test_lane_bounds(self):
        sw = Switch(0, 2)
        with pytest.raises(SimulationError):
            sw.rp_read(1, 3)

    def test_shift_arity_checked(self):
        sw = Switch(0, 2)
        with pytest.raises(SimulationError):
            sw.shift([1])

    def test_shift_value_checked(self):
        sw = Switch(0, 2)
        with pytest.raises(ValueError):
            sw.shift([1, -1])

    def test_reset_flushes(self):
        sw = Switch(0, 2)
        sw.shift([5, 6])
        sw.config.route(0, 1, PortSource.up(1))
        sw.reset()
        assert sw.rp_read(1, 1) == 0
        # routing survives reset
        assert sw.config.source_for(0, 1) == PortSource.up(1)

    def test_custom_pipeline_depth(self):
        sw = Switch(0, 1, pipeline_depth=2)
        sw.shift([1])
        sw.shift([2])
        sw.shift([3])
        assert sw.rp_read(2, 1) == 2
        with pytest.raises(SimulationError):
            sw.rp_read(3, 1)


class TestRotatingPipelineBuffer:
    """The O(1) ring-buffer shift must stay bit-identical to the naive
    insert-at-front/drop-at-back pipeline it replaced."""

    def test_matches_naive_shift_model(self):
        depth = 4
        sw = Switch(0, 2, pipeline_depth=depth)
        naive = [[0] * depth for _ in range(2)]
        for i in range(3 * depth + 1):  # several full head wraparounds
            values = [(i * 3 + 1) & 0xFFFF, (i * 5 + 2) & 0xFFFF]
            sw.shift(values)
            for lane in range(2):
                naive[lane].insert(0, values[lane])
                naive[lane].pop()
            for stage in range(1, depth + 1):
                for lane in (1, 2):
                    assert sw.rp_read(stage, lane) == naive[lane - 1][stage - 1]

    def test_reset_preserves_pipe_identity(self):
        # Generated kernels bind the pipeline lists, so reset
        # must clear them in place rather than replace them.
        sw = Switch(0, 2)
        pipes = sw._pipes
        lanes = list(pipes)
        sw.shift([5, 6])
        sw.reset()
        assert sw._pipes is pipes
        assert all(a is b for a, b in zip(sw._pipes, lanes))
        assert sw._head == 0


class TestConfigChangeHook:
    def test_route_and_clear_fire(self):
        calls = []
        cfg = SwitchConfig(2)
        cfg.on_change = lambda: calls.append(1)
        cfg.route(0, 1, PortSource.up(0))
        cfg.clear()
        assert len(calls) == 2

    def test_lookup_does_not_fire(self):
        calls = []
        cfg = SwitchConfig(2)
        cfg.on_change = lambda: calls.append(1)
        cfg.source_for(0, 1)
        assert calls == []
