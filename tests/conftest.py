"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import ring as ring_module
from repro.core.ring import Ring, RingGeometry


def _refuse_native(ring, refusal=None):
    if refusal is not None:
        refusal.append("native tier refused by the macro-rung test seam")
    return None


@contextmanager
def native_refused():
    """Send every ``backend="native"`` ring down to the macro rung.

    ``repro.core.ring.compile_native`` refuses every configuration (it
    appends a reason and returns None), so the native ladder runs each
    span of at least one period on a generated macro kernel.  Tests
    using it assert ``ring.macro_cycles > 0``, so the case cannot
    quietly turn into a second native run.  This form serves loops and
    Hypothesis bodies; :func:`refuse_native` is the fixture.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "compile_native", _refuse_native)
        yield


@pytest.fixture
def refuse_native():
    """:func:`native_refused` for the whole test."""
    with native_refused():
        yield


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
