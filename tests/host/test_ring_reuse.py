"""Reused lifting rings == fresh ones == the per-cycle interpreter.

``dwt53_2d_fabric`` takes its configured batch lifting rings from a
process-wide memo keyed by lane count, and ``Ring.reset`` keeps a batch
ring's lane engine and its bound lane plans.  Every case here runs a
reused ring and a freshly built one through the same work and asserts
identical coefficients, cycle counts, ``state_digest`` (lanes included),
per-Dnode statistics, per-lane FIFO pops and FIFO underflows; every
lane checked is also compared, word for word, with one per-cycle
interpreter ring running that lane's pass alone.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, restore, state_digest
from repro.errors import SimulationError
from repro.host.system import RingSystem
from repro.kernels import reference, wavelet
from repro.robustness.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSite,
)

GEOMETRY = RingGeometry.ring(16, width=2)


def _lifting_ring(**ring_kwargs) -> Ring:
    return wavelet.build_lifting_system(Ring(GEOMETRY, **ring_kwargs)).ring


def _batch_ring(lanes: int) -> Ring:
    return _lifting_ring(backend="batch", batch_size=lanes)


def _datapath(ring: Ring) -> tuple:
    """What a pass leaves in a scalar ring: cycles, registers, OUTs,
    sequencer counters, pipelines, queued FIFO words, per-Dnode
    statistics (FIFO pops included) and FIFO underflows."""
    snap = capture(ring)
    return (snap.cycles, snap.registers, snap.outs, snap.local_counters,
            snap.pipelines, snap.fifos, snap.stats, snap.fifo_underflows)


def _lane_datapath(ring: Ring, lane: int) -> tuple:
    """:func:`_datapath` of one lane of a batch ring."""
    target = Ring(GEOMETRY, backend="interpreter")
    ring.batch.store_lane(lane, target)
    return _datapath(target)


def _observables(ring: Ring) -> tuple:
    """Everything a reused batch ring must share with a fresh one."""
    engine = ring.batch
    return (state_digest(ring),
            [astuple(dn.stats) for dn in ring.all_dnodes()],
            {key: pops.tolist()
             for key, pops in engine.lane_fifo_pops.items()},
            engine.lane_underflows.tolist(), ring.fifo_underflows,
            ring.cycles)


def _pass_inputs(lines: np.ndarray):
    """Each line's even stream and odd-sample FIFO load, as
    ``_lifting_lanes`` builds them."""
    even_index, odd_index = wavelet._border_index(lines.shape[1])
    evens = lines[:, even_index] & 0xFFFF
    odds = np.zeros((len(lines), wavelet.ODD_FIFO_DELAY + len(odd_index)),
                    np.int64)
    odds[:, wavelet.ODD_FIFO_DELAY:] = lines[:, odd_index] & 0xFFFF
    return evens, odds


def _interpreter_pass(line) -> tuple:
    """One lifting pass of *line* on a per-cycle interpreter ring:
    ``(coefficients packed [approx | detail], cycles, ring)``."""
    system = wavelet.build_lifting_system(Ring(GEOMETRY,
                                               backend="interpreter"))
    result = wavelet.lifting53_forward_fabric(line, system)
    return result.approx + result.detail, result.cycles, system.ring


def _row_transform(image: np.ndarray) -> np.ndarray:
    """The row sweep's output (the column sweep's input), from the
    reference lifting."""
    return np.array([sum(reference.lifting53_forward(row.tolist()), [])
                     for row in image])


def _assert_lanes_match_interpreter(ring: Ring, lines: np.ndarray,
                                    outputs: np.ndarray, lanes) -> None:
    """Each of *lanes* of *ring*'s last sweep over *lines* produced
    *outputs* row and left the datapath its interpreter pass leaves."""
    for lane in lanes:
        packed, cycles, iring = _interpreter_pass(lines[lane])
        assert outputs[lane].tolist() == packed
        assert ring.cycles == cycles
        assert _lane_datapath(ring, lane) == _datapath(iring)


def _call(image: np.ndarray) -> tuple:
    """``dwt53_2d_fabric(image)``, and the observables of each ring it
    returned to the memo (by lane count)."""
    coeffs, cycles = wavelet.dwt53_2d_fabric(image)
    return coeffs, cycles, {lanes: _observables(wavelet._lifting_rings[lanes])
                            for lanes in set(image.shape)}


def _assert_same(reused: tuple, fresh: tuple) -> None:
    assert np.array_equal(reused[0], fresh[0])
    assert reused[1] == fresh[1]
    assert reused[2] == fresh[2]


def _check_call(image: np.ndarray, reused: tuple, lanes=None) -> None:
    """*reused* (a :func:`_call` of *image* on reused rings) equals the
    golden transform, the hardware cycle count, a call on fresh rings
    and, lane by lane, the per-cycle interpreter (every lane, or the
    listed *lanes* of each sweep)."""
    rows, cols = image.shape
    assert np.array_equal(reused[0], reference.dwt53_2d(image))
    assert reused[1] == wavelet.wavelet_cycle_model(rows, cols)
    # The memo's rings hold their last sweep: a square image's one ring
    # the column sweep, a non-square image's row ring the row sweep.
    temp = _row_transform(image)
    if rows != cols:
        _assert_lanes_match_interpreter(
            wavelet._lifting_rings[rows], image, temp,
            range(rows) if lanes is None else lanes)
    _assert_lanes_match_interpreter(
        wavelet._lifting_rings[cols], temp.T, reused[0].T,
        range(cols) if lanes is None else lanes)
    wavelet.forget_lifting_rings()
    _assert_same(reused, _call(image))


class TestRingReuse:
    def test_consecutive_calls(self, rng):
        first, second = rng.integers(-300, 300, (2, 8, 8))
        wavelet.dwt53_2d_fabric(first)
        ring = wavelet._lifting_rings[8]
        engine = ring.batch
        reused = _call(second)
        assert wavelet._lifting_rings[8] is ring
        assert ring._batch_engine is engine
        _check_call(second, reused)
        assert wavelet._lifting_rings[8] is not ring

    def test_lane_count_change(self, rng):
        """64 -> 32 -> 64 lanes, as a 2-level pyramid of a 64x64 tile
        and the next tile run: the 64-lane ring comes back from the
        memo after the 32-lane call."""
        first, second = rng.integers(0, 256, (2, 64, 64))
        wavelet.dwt53_2d_fabric(first)
        ring = wavelet._lifting_rings[64]
        engine = ring.batch
        wavelet.dwt53_2d_fabric(first[:32, :32])
        assert set(wavelet._lifting_rings) == {64, 32}
        reused = _call(second)
        assert wavelet._lifting_rings[64] is ring
        assert ring._batch_engine is engine
        _check_call(second, reused, lanes=(0, 31, 63))

    def test_non_square(self, rng):
        """A 6x10 image runs 6 row lanes and 10 column lanes; a 10x6 one
        reuses both rings the other way round."""
        wavelet.dwt53_2d_fabric(rng.integers(0, 256, (6, 10)))
        rings = dict(wavelet._lifting_rings)
        assert set(rings) == {6, 10}
        image = rng.integers(-1000, 1000, (10, 6))
        reused = _call(image)
        assert all(wavelet._lifting_rings[lanes] is ring
                   for lanes, ring in rings.items())
        _check_call(image, reused)

    def test_raised_pass_is_not_handed_out(self, rng, monkeypatch):
        """A strict lifting ring underflows FIFO2 mid-window (the odd
        stream is shorter than the pass).  The memo does not get that
        ring back, and the next call builds a fresh one."""
        image = rng.integers(0, 256, (8, 8))
        built = []

        def strict_ring(*args, **kwargs):
            built.append(Ring(*args, strict_fifos=True, **kwargs))
            return built[-1]

        with monkeypatch.context() as patch:
            patch.setattr(wavelet, "Ring", strict_ring)
            with pytest.raises(SimulationError,
                               match="empty FIFO2 at cycle"):
                wavelet.dwt53_2d_fabric(image)
        raised, = built
        pass_cycles = len(wavelet._border_index(8)[0]) + wavelet.APPROX_LATENCY
        assert 0 < raised.cycles < pass_cycles
        assert wavelet._lifting_rings == {}
        reused = _call(image)
        assert wavelet._lifting_rings[8] is not raised
        _check_call(image, reused)

    def test_reset_after_a_raised_pass_matches_a_fresh_ring(self, rng):
        """The ring a strict underflow aborted, reset and run again,
        fails the same way a fresh ring does and leaves the same
        state."""
        lines = rng.integers(0, 256, (4, 8))
        raised = _lifting_ring(backend="batch", batch_size=4,
                               strict_fifos=True)
        with pytest.raises(SimulationError):
            wavelet._lifting_lanes(raised, lines)
        fresh = _lifting_ring(backend="batch", batch_size=4,
                              strict_fifos=True)
        errors = []
        for ring in (raised, fresh):
            with pytest.raises(SimulationError) as error:
                wavelet._lifting_lanes(ring, lines)
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        assert _observables(raised) == _observables(fresh)

    @pytest.mark.parametrize("source", ["lanes", "scalar"])
    def test_restore_onto_a_used_engine(self, rng, source):
        """A snapshot restored onto a batch ring whose engine has run
        equals the same snapshot restored onto a fresh batch ring, and
        every lane equals the interpreter continuing from the same
        point.  A lanes snapshot loads each lane; a scalar one (from an
        interpreter ring) is broadcast at the engine's next use."""
        lines = rng.integers(0, 256, (4, 8))
        evens, odds = _pass_inputs(lines)
        refs = []
        for lane in range(4 if source == "lanes" else 1):
            iring = _lifting_ring(backend="interpreter")
            system = RingSystem(iring)
            system.data.stream(0, evens[lane])
            iring.push_fifo(2, 0, 2, odds[lane])
            system.run(5)
            refs.append(iring)
        if source == "lanes":
            src = _batch_ring(4)
            system = RingSystem(src)
            system.data.stream(0, evens)
            src.batch.push_fifo(2, 0, 2, odds)
            system.run(5)
        else:
            src = refs[0]
        snapshot = capture(src)
        assert (snapshot.lanes is None) == (source == "scalar")

        used = _batch_ring(4)
        wavelet._lifting_lanes(used, rng.integers(0, 256, (4, 12)))
        engine = used._batch_engine
        fresh = _batch_ring(4)
        for ring in (used, fresh):
            restore(ring, snapshot)
        assert used._batch_engine is engine
        assert state_digest(used) == state_digest(fresh)

        for ring in (used, fresh, *refs):
            ring.run(9, host_in=lambda channel, ring=ring:
                     (0x0135 * (ring.cycles + 3)) & 0xFFFF)
        assert _observables(used) == _observables(fresh)
        for lane in range(4):
            ref = refs[lane if source == "lanes" else 0]
            assert _lane_datapath(used, lane) == _datapath(ref)

    @pytest.mark.parametrize("after_reset", [True, False],
                             ids=["after_reset", "mid_pass"])
    @pytest.mark.parametrize("site", [
        FaultSite(FaultKind.OUT, (1, 1)),
        FaultSite(FaultKind.REGISTER, (3, 1, 2)),
        FaultSite(FaultKind.PIPELINE, (2, 1, 1)),
        FaultSite(FaultKind.FIFO, (2, 0, 2)),
    ], ids=lambda site: site.kind.value)
    def test_fault_reaches_every_lane(self, rng, site, after_reset):
        """A fault injected between a reset and the engine's next use
        (the scalar state is the datapath then) or mid-pass (the lanes
        are) lands on every lane of a reused ring, as on a ring whose
        engine did not exist yet, and as on the interpreter."""
        evens, odds = _pass_inputs(rng.integers(0, 256, (1, 8)))
        used = _batch_ring(4)
        wavelet._lifting_lanes(used, rng.integers(0, 256, (4, 8)))
        engine = used._batch_engine
        used.reset()
        rings = used, _batch_ring(4), _lifting_ring(backend="interpreter")
        event = FaultEvent(cycle=0, site=site, bit=3, index=4)
        for ring in rings:
            system = RingSystem(ring)
            system.data.stream(0, evens[0])
            ring.push_fifo(2, 0, 2, odds[0])
            if not after_reset:
                system.run(3)
            assert FaultInjector(ring, seed=0).inject(event).applied
            system.run(11 if after_reset else 8)
        used, fresh, iring = rings
        assert used._batch_engine is engine
        assert _observables(used) == _observables(fresh)
        for lane in range(4):
            assert _lane_datapath(used, lane) == _datapath(iring)


def test_memo_is_bounded(rng):
    for lanes in range(2, 2 * (wavelet.LIFTING_RING_MEMO + 2), 2):
        wavelet.dwt53_2d_fabric(rng.integers(0, 256, (lanes, lanes)))
    assert len(wavelet._lifting_rings) == wavelet.LIFTING_RING_MEMO
    # The most recently returned lane counts stay.
    assert list(wavelet._lifting_rings) == list(
        range(2 * 2, 2 * (wavelet.LIFTING_RING_MEMO + 2), 2))
