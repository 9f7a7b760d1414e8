"""Cross-engine x kernel conformance matrix.

Every golden recipe in :mod:`repro.kernels` runs against every execution
engine (see ``ENGINES`` in ``conftest.py``) and every cell must be
bit-identical to the NumPy/golden reference — *and* leave the fabric in
exactly the architectural state the reference interpreter leaves it in.
A new engine earns its place by going green down its whole column; a new
kernel by going green across its whole row.

Each cell drives the recipe through the shared ``engine`` fixture; the
host plumbing is lane-aware (``tap_samples``), so the same cell covers
scalar engines and the batch backend (where a scalar stream/FIFO push
broadcasts, making every lane compute the same answer as the golden
model).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import word
from repro.compiler.codegen import compile_graph
from repro.core.nativepath import native_template
from repro.core.ring import RingGeometry
from repro.host.system import RingSystem
from repro.kernels import reference
from repro.kernels.complex_ops import cmag_graph, cmul4_graph
from repro.kernels.cordic import rotation_graph, vectoring_graph
from repro.kernels.dct import build_dct_system, dct8_reference
from repro.kernels.effects import chorus_fabric, chorus_graph, echo_fabric
from repro.kernels.mixer import mixer_graph, vca_graph
from repro.kernels.nco import NCO_LAYERS, nco_fabric
from repro.kernels.resampler import RESAMPLERS
from repro.kernels.ringmac import ringmac_fabric
from repro.kernels.fifo_emulation import build_delay_line, plan_delay
from repro.kernels.fir import build_spatial_fir
from repro.kernels.iir import build_first_order_iir
from repro.kernels.matrix import build_matvec_system, matvec_reference
from repro.kernels.motion_estimation import build_me_system, full_search_me
from repro.kernels.wavelet import (APPROX_LATENCY, BORDER_PREFIX_PAIRS,
                                   DETAIL_LATENCY, _border_streams,
                                   build_lifting_system)

from tests.kernels.conftest import (bulk_tail, fabric_state, make_ring,
                                   tap_samples)

INTERPRETER = {"backend": "interpreter"}


def _signal(length: int, spread: int = 60, stride: int = 7):
    """Deterministic signed test signal."""
    return [((stride * i + 11) % (2 * spread)) - spread
            for i in range(length)]


def _matrix_cell(drive, engine):
    """One conformance cell: run *drive* on the engine and on the
    reference interpreter, assert identical outputs and fabric state."""
    name, kwargs = engine
    got, ring = drive(kwargs)
    want, twin = drive(dict(INTERPRETER))
    assert got == want, f"{name} outputs diverged from interpreter"
    assert fabric_state(ring) == fabric_state(twin), (
        f"{name} architectural state diverged from interpreter"
    )
    bulk_tail(name, ring, twin)
    return got


class TestFirConformance:
    TAPS = [3, -1, 4, 2]
    LENGTH = 24

    def _drive(self, engine_kwargs):
        n_taps = len(self.TAPS)
        ring = make_ring(RingGeometry(layers=n_taps, width=2),
                         engine_kwargs)
        build_spatial_fir(self.TAPS, ring=ring)
        system = RingSystem(ring)
        signal = _signal(self.LENGTH)
        system.data.stream(0, [word.from_signed(v) for v in signal])
        tap = system.data.add_tap(n_taps - 1, 1, skip=n_taps - 1,
                                  limit=self.LENGTH)
        system.run(self.LENGTH + n_taps)
        return [word.to_signed(v) for v in tap_samples(tap)], ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        assert got == reference.fir(_signal(self.LENGTH), self.TAPS)


class TestIirConformance:
    B0, A1 = 3, -1
    LENGTH = 20

    def _drive(self, engine_kwargs):
        ring = make_ring(RingGeometry(layers=2, width=2), engine_kwargs)
        build_first_order_iir(self.B0, self.A1, ring=ring)
        system = RingSystem(ring)
        signal = _signal(self.LENGTH, spread=25)
        system.data.stream(0, [word.from_signed(v) for v in signal])
        tap = system.data.add_tap(1, 0, skip=1, limit=self.LENGTH)
        system.run(self.LENGTH + 2)
        return [word.to_signed(v) for v in tap_samples(tap)], ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        assert got == reference.iir_first_order(
            _signal(self.LENGTH, spread=25), self.B0, self.A1)


class TestDctConformance:
    GROUPS = 3

    def _drive(self, engine_kwargs):
        ring = make_ring(RingGeometry.ring(16), engine_kwargs)
        system = build_dct_system(ring)
        signal = _signal(8 * self.GROUPS, spread=300)
        raw = [word.from_signed(v) for v in signal]
        taps = []
        for k in range(8):
            ring.push_fifo(k, 0, 1, raw)
            taps.append(system.data.add_tap(k, 0, skip=7, every=8,
                                            limit=self.GROUPS))
        system.run(8 * self.GROUPS)
        coeffs = [[word.to_signed(tap_samples(taps[k])[g])
                   for k in range(8)] for g in range(self.GROUPS)]
        return coeffs, ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        signal = _signal(8 * self.GROUPS, spread=300)
        for g in range(self.GROUPS):
            assert got[g] == dct8_reference(signal[8 * g:8 * g + 8])


class TestWaveletConformance:
    LENGTH = 16

    def _drive(self, engine_kwargs):
        ring = make_ring(RingGeometry.ring(16, width=2), engine_kwargs)
        system = build_lifting_system(ring)
        signal = _signal(self.LENGTH, spread=200)
        even_stream, odd_stream = _border_streams(signal)
        half = self.LENGTH // 2
        system.data.stream(0, [word.from_signed(v) for v in even_stream])
        ring.push_fifo(2, 0, 2,
                       [0] * 3 + [word.from_signed(v)
                                  for v in odd_stream])
        detail = system.data.add_tap(
            2, 0, skip=DETAIL_LATENCY - 1 + BORDER_PREFIX_PAIRS,
            limit=half)
        approx = system.data.add_tap(
            6, 0, skip=APPROX_LATENCY - 1 + BORDER_PREFIX_PAIRS,
            limit=half)
        system.run(len(even_stream) + APPROX_LATENCY)
        result = ([word.to_signed(v) for v in tap_samples(approx)],
                  [word.to_signed(v) for v in tap_samples(detail)])
        return result, ring

    def test_matches_reference(self, engine):
        approx, detail = _matrix_cell(self._drive, engine)
        want_a, want_d = reference.lifting53_forward(
            _signal(self.LENGTH, spread=200))
        assert approx == want_a
        assert detail == want_d


class TestMatrixConformance:
    MATRIX = np.array([[1, -2, 3, 4], [5, 6, -7, 8], [9, 1, 2, -3]])
    VECTORS = [[1, 2, 3, 4], [-5, 6, 7, -8], [9, -10, 11, 12]]

    def _drive(self, engine_kwargs):
        rows, cols = self.MATRIX.shape
        ring = make_ring(RingGeometry(layers=rows, width=2),
                         engine_kwargs)
        system = build_matvec_system(self.MATRIX, ring)
        stream = [word.from_signed(int(x))
                  for v in self.VECTORS for x in v]
        taps = []
        for k in range(rows):
            ring.push_fifo(k, 0, 1, stream)
            taps.append(system.data.add_tap(k, 0, skip=cols - 1,
                                            every=cols,
                                            limit=len(self.VECTORS)))
        system.run(len(self.VECTORS) * cols)
        products = [[word.to_signed(tap_samples(taps[k])[i])
                     for k in range(rows)]
                    for i in range(len(self.VECTORS))]
        return products, ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        for i, v in enumerate(self.VECTORS):
            assert got[i] == matvec_reference(self.MATRIX, v)


class TestMotionEstimationConformance:
    """Full-search SAD matching, controller-driven (hybrid reconfig)."""

    BLOCK = np.arange(16).reshape(4, 4) % 11 * 9 % 256
    AREA = (np.arange(36).reshape(6, 6) * 7 + 3) % 256

    def test_matches_reference(self, engine):
        name, kwargs = engine
        result = full_search_me(self.BLOCK, self.AREA, dnodes=8,
                                ring_kwargs=kwargs)
        want_best, want_sad, want_map = reference.full_search(
            self.BLOCK, self.AREA)
        assert np.array_equal(result.sad_map, want_map), (
            f"{name} SAD map diverged from golden full search"
        )
        assert result.best == want_best
        assert result.best_sad == want_sad

    def test_native_kernel_is_grouped(self):
        """The native column runs the SAD loops as one Dnode group: its
        compute-plane kernel is emitted once over all 8 Dnodes."""
        system, _ = build_me_system(self.BLOCK, self.AREA, dnodes=8,
                                    ring_kwargs={"backend": "native"})
        system.run_until_halt()
        ring = system.ring
        assert ring.native_cycles > 0
        ring.config.apply_plane(system.planes[0])
        assert native_template(ring).groups == (tuple(range(8)),)


class TestFifoEmulationConformance:
    DEPTH = 9
    LENGTH = 18

    def _drive(self, engine_kwargs):
        plan = plan_delay(self.DEPTH)
        ring = make_ring(
            RingGeometry(layers=max(plan.dnodes_used, 2), width=2),
            engine_kwargs)
        system = build_delay_line(self.DEPTH, ring)
        signal = _signal(self.LENGTH)
        system.data.stream(0, [word.from_signed(v) for v in signal])
        tap = system.data.add_tap(plan.dnodes_used - 1, 0,
                                  limit=self.LENGTH)
        system.run(self.LENGTH)
        return [word.to_signed(v) for v in tap_samples(tap)], ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        signal = _signal(self.LENGTH)
        assert got == [0] * self.DEPTH + signal[:self.LENGTH - self.DEPTH]


# -- scenario-library rows ---------------------------------------------

def _compiled_drive(graph, streams, engine_kwargs):
    """Drive a compiled graph on a ring of the engine under test."""
    program = compile_graph(graph)
    ring = make_ring(program.geometry, engine_kwargs)
    outs = program.run(streams, ring=ring)
    return [outs[node] for node in graph.outputs], ring


class TestCordicRotateConformance:
    ITERATIONS = 4
    LENGTH = 12

    def _streams(self):
        return {0: _signal(self.LENGTH, spread=9000, stride=997),
                1: _signal(self.LENGTH, spread=9000, stride=641),
                2: _signal(self.LENGTH, spread=8192, stride=1303)}

    def _drive(self, engine_kwargs):
        return _compiled_drive(rotation_graph(self.ITERATIONS),
                               self._streams(), engine_kwargs)

    def test_matches_reference(self, engine):
        xo, yo, zo = _matrix_cell(self._drive, engine)
        s = self._streams()
        want = [reference.cordic_rotate(x, y, z, self.ITERATIONS)
                for x, y, z in zip(s[0], s[1], s[2])]
        assert (xo, yo, zo) == tuple(map(list, zip(*want)))


class TestCordicVectorConformance:
    ITERATIONS = 4
    LENGTH = 12

    def _streams(self):
        return {0: _signal(self.LENGTH, spread=9000, stride=733),
                1: _signal(self.LENGTH, spread=9000, stride=389),
                2: [0] * self.LENGTH}

    def _drive(self, engine_kwargs):
        return _compiled_drive(vectoring_graph(self.ITERATIONS),
                               self._streams(), engine_kwargs)

    def test_matches_reference(self, engine):
        xo, yo, zo = _matrix_cell(self._drive, engine)
        s = self._streams()
        want = [reference.cordic_vector(x, y, z, self.ITERATIONS)
                for x, y, z in zip(s[0], s[1], s[2])]
        assert (xo, yo, zo) == tuple(map(list, zip(*want)))


class TestNcoConformance:
    """Hand-mapped phase accumulator + shaper (SELF recurrence)."""

    FCW = 1873
    LENGTH = 24

    def _drive(self, engine_kwargs):
        ring = make_ring(RingGeometry(layers=NCO_LAYERS, width=2),
                         engine_kwargs)
        result = nco_fabric(self.FCW, self.LENGTH, ring=ring)
        return result.samples, ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        assert got == reference.nco(self.FCW, self.LENGTH)


class TestResamplerConformance:
    LENGTH = 20

    REFERENCES = {
        "up2": reference.upsample2,
        "down2": reference.downsample2,
        "up3": reference.upsample3,
        "down3": reference.downsample3,
    }

    def _drive(self, factor, engine_kwargs):
        builder, fabric = RESAMPLERS[factor]
        program = compile_graph(builder())
        ring = make_ring(program.geometry, engine_kwargs)
        result = fabric(_signal(self.LENGTH), ring=ring)
        return result.samples, ring

    @pytest.mark.parametrize("factor", sorted(RESAMPLERS))
    def test_matches_reference(self, factor, engine):
        got = _matrix_cell(
            lambda kwargs: self._drive(factor, kwargs), engine)
        assert got == self.REFERENCES[factor](_signal(self.LENGTH))


class TestVcaConformance:
    LENGTH = 20

    def _streams(self):
        return {0: _signal(self.LENGTH, spread=2000, stride=577),
                1: [(1000 * i) % 32768 for i in range(self.LENGTH)]}

    def _drive(self, engine_kwargs):
        return _compiled_drive(vca_graph(), self._streams(),
                               engine_kwargs)

    def test_matches_reference(self, engine):
        (got,) = _matrix_cell(self._drive, engine)
        s = self._streams()
        assert got == reference.vca(s[0], s[1])


class TestMixerConformance:
    GAINS = (20000, 16000, 12000, 24000)
    LENGTH = 16

    def _streams(self):
        return {i: _signal(self.LENGTH, spread=1500, stride=7 + 4 * i)
                for i in range(len(self.GAINS))}

    def _drive(self, engine_kwargs):
        return _compiled_drive(mixer_graph(self.GAINS), self._streams(),
                               engine_kwargs)

    def test_matches_reference(self, engine):
        (got,) = _matrix_cell(self._drive, engine)
        s = self._streams()
        assert got == reference.mix([s[i] for i in range(len(s))],
                                    self.GAINS)


class TestChorusConformance:
    DEPTH = 6
    LENGTH = 20

    def _drive(self, engine_kwargs):
        graph = chorus_graph(self.DEPTH)
        program = compile_graph(graph)
        ring = make_ring(program.geometry, engine_kwargs)
        result = chorus_fabric(_signal(self.LENGTH), self.DEPTH,
                               ring=ring)
        return result.samples, ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        assert got == reference.chorus(_signal(self.LENGTH), self.DEPTH)


class TestEchoConformance:
    """Feedback through the ring closure (hand-mapped, stateful)."""

    LAYERS = 6
    GAIN = 22000
    LENGTH = 24

    def _drive(self, engine_kwargs):
        ring = make_ring(RingGeometry(layers=self.LAYERS, width=2),
                         engine_kwargs)
        result = echo_fabric(_signal(self.LENGTH, spread=4000), self.GAIN,
                             ring=ring)
        return result.samples, ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        assert got == reference.echo(_signal(self.LENGTH, spread=4000),
                                     self.LAYERS, self.GAIN)


class TestComplexConformance:
    LENGTH = 16

    def _streams(self):
        return [_signal(self.LENGTH, spread=s, stride=k)
                for s, k in ((121, 7), (144, 11), (99, 13), (130, 17))]

    def _drive_cmul(self, engine_kwargs):
        a, b, c, d = self._streams()
        return _compiled_drive(cmul4_graph(),
                               {0: a, 1: b, 2: c, 3: d}, engine_kwargs)

    def _drive_cmag(self, engine_kwargs):
        a, b, _, _ = self._streams()
        return _compiled_drive(cmag_graph(), {0: a, 1: b}, engine_kwargs)

    def test_cmul_matches_reference(self, engine):
        re, im = _matrix_cell(self._drive_cmul, engine)
        a, b, c, d = self._streams()
        want_re, want_im = reference.complex_multiply(a, b, c, d)
        assert re == want_re
        assert im == want_im

    def test_cmag_matches_reference(self, engine):
        (mag,) = _matrix_cell(self._drive_cmag, engine)
        a, b, _, _ = self._streams()
        assert mag == reference.complex_magnitude(a, b)


class TestRingMacConformance:
    """One MAC Dnode time-multiplexed across client dot products."""

    CLIENTS = 3
    LENGTH = 8

    def _streams(self):
        a = [_signal(self.LENGTH, spread=40, stride=5 + c)
             for c in range(self.CLIENTS)]
        b = [_signal(self.LENGTH, spread=30, stride=3 + 2 * c)
             for c in range(self.CLIENTS)]
        return a, b

    def _drive(self, engine_kwargs):
        ring = make_ring(RingGeometry(layers=2, width=2), engine_kwargs)
        a, b = self._streams()
        result = ringmac_fabric(a, b, ring=ring)
        return result.partials, ring

    def test_matches_reference(self, engine):
        got = _matrix_cell(self._drive, engine)
        a, b = self._streams()
        assert got == reference.ringmac(a, b)
