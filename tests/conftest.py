"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ring import Ring, RingGeometry

@pytest.fixture
def ring8() -> Ring:
    """The paper's prototyped Ring-8 (4 layers x 2)."""
    return Ring(RingGeometry.ring(8))


@pytest.fixture
def ring16() -> Ring:
    """The Ring-16 used for the application benchmarks."""
    return Ring(RingGeometry.ring(16))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for data-driven tests."""
    return np.random.default_rng(0xD5B)
