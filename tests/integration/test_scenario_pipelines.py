"""Context-switched streaming pipelines, end to end.

The scenario pipelines time-multiplex one fabric between two
configuration planes mid-stream (synth voice <-> echo, chorus <-> echo).
These tests pin the three claims the scenario layer makes:

* the wet output is **bit-exact** against the whole-stream golden models
  regardless of chunking, and identical whether the host advances
  cycle-by-cycle or in bulk bursts;
* after the first A/B round, plane switching is **free of interpretation**
  — the plan cache re-adopts each plane by configuration fingerprint
  with zero interpreted cycles and zero recompiles;
* the pipelines run bit-identical on every execution engine, and leave
  the fabric in the interpreter twin's exact architectural state.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.core.ring import Ring, RingGeometry
from repro.kernels import reference, scenarios
from repro.kernels.scenarios import (EFFECTS_CHORUS_DEPTH,
                                     EFFECTS_GEOMETRY, SYNTH_ECHO_LANE,
                                     SYNTH_GEOMETRY, run_effects_chain,
                                     run_synth_voice)

from tests.kernels.conftest import (  # noqa: F401 - shared fixture
    bulk_tail, engine, fabric_state, make_ring)


ENVELOPE = ([min(32767, 700 * n) for n in range(48)] +
            [max(0, 32767 - 1100 * n) for n in range(48)])
SIGNAL = [((7 * n + 11) % 120) - 60 for n in range(96)]

FCW_A, FCW_B = 1400, 1750
ECHO_GAIN = 22000
MASTER_GAIN = 26000

SYNTH_GOLDEN = reference.synth_voice_pipeline(
    ENVELOPE, FCW_A, FCW_B, SYNTH_GEOMETRY.layers, ECHO_GAIN)
EFFECTS_GOLDEN = reference.effects_chain_pipeline(
    SIGNAL, EFFECTS_CHORUS_DEPTH, MASTER_GAIN, EFFECTS_GEOMETRY.layers,
    ECHO_GAIN)


class TestSynthVoicePipeline:
    def test_bit_exact_against_golden(self):
        result = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                                 chunk=32)
        assert result.outputs == SYNTH_GOLDEN
        assert result.stage_outputs == reference.synth_voice_dry(
            ENVELOPE, FCW_A, FCW_B)

    @pytest.mark.parametrize("chunk", [16, 24, 32, 96])
    def test_chunking_invariant(self, chunk):
        result = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                                 chunk=chunk)
        assert result.outputs == SYNTH_GOLDEN
        assert result.switches == 2 * (len(ENVELOPE) // chunk)

    def test_per_cycle_identical_to_bulk(self):
        bulk = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                               chunk=24)
        stepped = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                                  chunk=24, per_cycle=True)
        assert stepped.outputs == bulk.outputs
        assert stepped.stage_outputs == bulk.stage_outputs
        assert stepped.cycles == bulk.cycles

    def test_voice_plane_native_echo_plane_refused(self):
        """The NCO's ``ADD SELF`` phase accumulators have the cumsum
        closed form; the echo's recirculating delay line is a ring-wrap
        cycle through every layer of its lane."""
        ring = Ring(SYNTH_GEOMETRY, backend="native")
        result = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                                 chunk=32, ring=ring)
        assert result.outputs == SYNTH_GOLDEN
        assert ring.native_cycles > 0
        lane = ", ".join(f"D{k}.{SYNTH_ECHO_LANE}"
                         for k in range(SYNTH_GEOMETRY.layers))
        assert ring.native_refusal == (
            f"cross-Dnode dependence cycle through {lane}")


class TestEffectsChainPipeline:
    def test_bit_exact_against_golden(self):
        result = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN,
                                   chunk=32)
        assert result.outputs == EFFECTS_GOLDEN
        assert result.stage_outputs == reference.vca(
            reference.chorus(SIGNAL, EFFECTS_CHORUS_DEPTH),
            [MASTER_GAIN] * len(SIGNAL))

    @pytest.mark.parametrize("chunk", [16, 32, 48, 96])
    def test_chunking_invariant(self, chunk):
        result = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN,
                                   chunk=chunk)
        assert result.outputs == EFFECTS_GOLDEN

    def test_per_cycle_identical_to_bulk(self):
        bulk = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN,
                                 chunk=32)
        stepped = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN,
                                    chunk=32, per_cycle=True)
        assert stepped.outputs == bulk.outputs
        assert stepped.cycles == bulk.cycles


class TestReconfigurationChurn:
    """A/B/A plane switching re-adopts cached plans, zero interpretation."""

    def test_synth_voice_plan_readoption(self):
        ring = Ring(SYNTH_GEOMETRY)
        result = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                                 chunk=16, ring=ring)
        rounds = len(ENVELOPE) // 16
        assert result.switches == 2 * rounds
        # One kernel per plane on the first round: the voice plane's
        # native kernel and the echo plane's macro kernel (native
        # refuses it).  Every later apply_plane re-adopts from the cache
        # by fingerprint: the voice plane's native kernel, the echo
        # plane's cached native refusal and its macro kernel.
        assert result.plan_compiles == 1
        assert ring.native_compiles == 1
        assert result.plan_hits == (1 + 2) * (rounds - 1)

    def test_effects_chain_plan_readoption(self):
        ring = Ring(EFFECTS_GEOMETRY)
        result = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN,
                                   chunk=24, ring=ring)
        rounds = len(SIGNAL) // 24
        assert result.plan_compiles == 1
        assert ring.native_compiles == 1
        assert result.plan_hits == (1 + 2) * (rounds - 1)

    def test_steady_state_has_zero_interpreted_cycles(self):
        ring = Ring(SYNTH_GEOMETRY)
        # Warm both planes (first A/B round compiles them).
        run_synth_voice(ENVELOPE[:32], FCW_A, FCW_B, ECHO_GAIN,
                        chunk=32, ring=ring)
        with ring.profile() as prof:
            run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                            chunk=32, ring=ring)
        assert prof.interpreted_cycles == 0
        assert prof.plan_compiles == 0

    def test_aba_stream_matches_unchunked_golden(self):
        # The A/B/A pattern with the smallest legal chunk is the
        # harshest churn; outputs must still be the whole-stream golden.
        result = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN,
                                   chunk=16)
        assert result.outputs == EFFECTS_GOLDEN
        assert result.switches == 2 * (len(SIGNAL) // 16)


class TestPlaneMemo:
    """Each pipeline captures its two planes once per geometry and
    parameter set; later calls apply the same frozen plane objects."""

    @pytest.fixture
    def captured(self, monkeypatch):
        """Planes captured while the test runs, on an empty memo."""
        planes = []
        capture = scenarios.capture_plane

        def counted(geometry, configure):
            planes.append(capture(geometry, configure))
            return planes[-1]
        monkeypatch.setattr(scenarios, "capture_plane", counted)
        monkeypatch.setattr(scenarios, "_PLANES", OrderedDict())
        return planes

    def test_repeat_synth_call_reuses_its_planes(self, captured):
        rings = [Ring(SYNTH_GEOMETRY) for _ in range(2)]
        first, second = (run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN,
                                         chunk=16, ring=ring)
                         for ring in rings)
        assert first.outputs == second.outputs == SYNTH_GOLDEN
        assert first.stage_outputs == second.stage_outputs
        assert len(captured) == 2
        # Both rings ended on the echo plane: one interned state.
        assert rings[0]._state is not None
        assert rings[0]._state is rings[1]._state
        assert rings[0].config.capture_plane() == captured[1]

    def test_other_gains_and_fcws_get_their_own_planes(self, captured):
        run_synth_voice(ENVELOPE[:32], FCW_A, FCW_B, ECHO_GAIN, chunk=16)
        echo = run_synth_voice(ENVELOPE, FCW_A, FCW_B, ECHO_GAIN + 1,
                               chunk=16)
        assert len(captured) == 3
        assert echo.outputs == reference.synth_voice_pipeline(
            ENVELOPE, FCW_A, FCW_B, SYNTH_GEOMETRY.layers, ECHO_GAIN + 1)
        voice = run_synth_voice(ENVELOPE, FCW_A + 3, FCW_B, ECHO_GAIN,
                                chunk=16)
        assert len(captured) == 4
        assert voice.outputs == reference.synth_voice_pipeline(
            ENVELOPE, FCW_A + 3, FCW_B, SYNTH_GEOMETRY.layers, ECHO_GAIN)
        assert captured[2] != captured[1] and captured[3] != captured[0]

    def test_repeat_effects_call_reuses_its_planes(self, captured):
        first = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN, chunk=24)
        second = run_effects_chain(SIGNAL, MASTER_GAIN, ECHO_GAIN, chunk=24)
        assert first.outputs == second.outputs == EFFECTS_GOLDEN
        assert len(captured) == 2
        run_effects_chain(SIGNAL, MASTER_GAIN - 1, ECHO_GAIN, chunk=24)
        assert len(captured) == 3

    def test_memo_is_bounded(self, captured):
        geometry = RingGeometry(layers=2, width=1)
        for k in range(scenarios.PLANE_MEMO_CAPACITY + 5):
            scenarios._memo_plane(("test", k), geometry, lambda ring: None)
        assert len(scenarios._PLANES) == scenarios.PLANE_MEMO_CAPACITY
        scenarios._memo_plane(("test", 0), geometry, lambda ring: None)
        assert len(captured) == scenarios.PLANE_MEMO_CAPACITY + 6


class TestPipelineEngineMatrix:
    """Both pipelines, every engine, vs interpreter twin state."""

    def test_synth_voice_cross_engine(self, engine):
        name, kwargs = engine
        ring = make_ring(SYNTH_GEOMETRY, kwargs)
        result = run_synth_voice(ENVELOPE[:48], FCW_A, FCW_B, ECHO_GAIN,
                                 chunk=16, ring=ring)
        twin = make_ring(SYNTH_GEOMETRY, {"backend": "interpreter"})
        want = run_synth_voice(ENVELOPE[:48], FCW_A, FCW_B, ECHO_GAIN,
                               chunk=16, ring=twin)
        assert result.outputs == want.outputs, (
            f"{name} diverged from interpreter")
        assert result.outputs == SYNTH_GOLDEN[:48]
        assert fabric_state(ring) == fabric_state(twin)
        bulk_tail(name, ring, twin)

    def test_effects_chain_cross_engine(self, engine):
        name, kwargs = engine
        ring = make_ring(EFFECTS_GEOMETRY, kwargs)
        result = run_effects_chain(SIGNAL[:48], MASTER_GAIN, ECHO_GAIN,
                                   chunk=16, ring=ring)
        twin = make_ring(EFFECTS_GEOMETRY, {"backend": "interpreter"})
        want = run_effects_chain(SIGNAL[:48], MASTER_GAIN, ECHO_GAIN,
                                 chunk=16, ring=twin)
        assert result.outputs == want.outputs, (
            f"{name} diverged from interpreter")
        assert result.outputs == reference.effects_chain_pipeline(
            SIGNAL[:48], EFFECTS_CHORUS_DEPTH, MASTER_GAIN,
            EFFECTS_GEOMETRY.layers, ECHO_GAIN)
        assert fabric_state(ring) == fabric_state(twin)
        bulk_tail(name, ring, twin)
