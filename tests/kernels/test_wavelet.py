"""Tests for the 5/3 lifting wavelet fabric mapping (Table 2 kernel)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.kernels.reference import dwt53_2d, idwt53_2d, lifting53_forward
from repro.kernels.wavelet import (
    DNODES_USED,
    build_lifting_system,
    dwt53_2d_fabric,
    lifting53_forward_fabric,
    wavelet_cycle_model,
)

signals = st.lists(st.integers(min_value=-2000, max_value=2000),
                   min_size=2, max_size=40).filter(lambda s: len(s) % 2 == 0)


class Test1D:
    @pytest.mark.parametrize("sig", [
        [0, 0],
        [10, 13, 25, 26, 29, 21, 7, 15],
        list(range(32)),
        [100, -100] * 8,
    ])
    def test_matches_reference(self, sig):
        expected = lifting53_forward(sig)
        result = lifting53_forward_fabric(sig)
        assert (result.approx, result.detail) == expected

    def test_reconstruction_through_reference_inverse(self):
        from repro.kernels.reference import lifting53_inverse
        sig = [7, -3, 12, 8, -5, 20, 1, 0, 3, 9]
        result = lifting53_forward_fabric(sig)
        assert lifting53_inverse(result.approx, result.detail) == sig

    @given(signals)
    @settings(max_examples=20, deadline=None)
    def test_property_matches_reference(self, sig):
        expected = lifting53_forward(sig)
        result = lifting53_forward_fabric(sig)
        assert (result.approx, result.detail) == expected

    def test_odd_length_rejected(self):
        with pytest.raises(SimulationError):
            lifting53_forward_fabric([1, 2, 3])

    def test_uses_12_dnodes(self):
        """Paper: '25 % of the Ring structure remains free' on Ring-16."""
        result = lifting53_forward_fabric([1, 2, 3, 4])
        assert result.dnodes_used == DNODES_USED == 12
        assert DNODES_USED / 16 == 0.75

    def test_ring_too_small_rejected(self):
        from repro.core.ring import Ring, RingGeometry
        with pytest.raises(SimulationError, match="7 layers"):
            build_lifting_system(Ring(RingGeometry.ring(8)))

    def test_throughput_near_one_pair_per_cycle(self):
        sig = list(range(64))
        result = lifting53_forward_fabric(sig)
        # half+2 stream slots + 8 latency for 32 coefficient pairs
        assert result.cycles == len(sig) // 2 + 10


class Test2D:
    def test_matches_reference(self, rng):
        img = rng.integers(0, 256, (8, 8))
        coeffs, _ = dwt53_2d_fabric(img)
        assert np.array_equal(coeffs, dwt53_2d(img))

    def test_non_square(self, rng):
        img = rng.integers(0, 256, (6, 10))
        coeffs, _ = dwt53_2d_fabric(img)
        assert np.array_equal(coeffs, dwt53_2d(img))

    def test_perfect_reconstruction(self, rng):
        img = rng.integers(-1000, 1000, (8, 8))
        coeffs, _ = dwt53_2d_fabric(img)
        assert np.array_equal(idwt53_2d(coeffs), img)

    def test_cycle_count_matches_model(self, rng):
        img = rng.integers(0, 256, (8, 12))
        _, cycles = dwt53_2d_fabric(img)
        assert cycles == wavelet_cycle_model(8, 12)

    @pytest.mark.parametrize("shape", [(10, 6), (8, 2), (2, 2)])
    def test_row_and_column_lane_counts(self, rng, shape):
        """Row and column sweeps run as different lane counts (6x10 is
        :meth:`test_non_square`); 2-sample rows make a 2-lane column
        sweep."""
        img = rng.integers(-500, 500, shape)
        coeffs, cycles = dwt53_2d_fabric(img)
        assert np.array_equal(coeffs, dwt53_2d(img))
        assert cycles == wavelet_cycle_model(*shape)

    def test_full_range_16_bit_matches_pass_by_pass(self, rng):
        """Full-range inputs wrap in the 16-bit datapath exactly as one
        1-D fabric pass after another does."""
        img = rng.integers(-32768, 32768, (6, 8))
        img[0, :4] = [-32768, 32767, -32768, 32767]
        temp = np.zeros_like(img)
        for r in range(6):
            result = lifting53_forward_fabric(img[r])
            temp[r] = result.approx + result.detail
        want = np.zeros_like(img)
        for c in range(8):
            result = lifting53_forward_fabric(temp[:, c])
            want[:, c] = result.approx + result.detail
        coeffs, _ = dwt53_2d_fabric(img)
        assert np.array_equal(coeffs, want)
        assert not np.array_equal(coeffs, dwt53_2d(img))  # it did wrap

    def test_odd_column_length_rejected(self):
        with pytest.raises(SimulationError, match="got 3"):
            dwt53_2d_fabric(np.zeros((3, 4), dtype=int))

    def test_requires_2d(self):
        with pytest.raises(SimulationError):
            dwt53_2d_fabric(np.arange(8))


class TestPaperRates:
    def test_one_pixel_per_cycle_at_scale(self):
        """Table 2: 'One pixel sample is computed each clock cycle' on
        the 1024x768 image — the model lands within 3 % of 1 px/cycle."""
        pixels = 768 * 1024
        cycles = wavelet_cycle_model(768, 1024)
        assert cycles / pixels == pytest.approx(1.0, rel=0.03)

    def test_transform_time_at_200mhz(self):
        """The full-frame transform takes ~4 ms at 200 MHz."""
        cycles = wavelet_cycle_model(768, 1024)
        assert cycles / 200e6 == pytest.approx(4.0e-3, rel=0.05)
