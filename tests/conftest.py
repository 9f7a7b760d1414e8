"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.core import config_memory, plancache
from repro.core import ring as ring_module
from repro.core.macropath import MacroPlan
from repro.core.ring import Ring, RingGeometry
from repro.kernels import wavelet


@pytest.fixture(autouse=True)
def _fresh_kernel_cache():
    """Empty the process-wide kernel cache, the lifting-ring memo and
    the configuration-state memo before every test, so a test that
    counts compiles, ring builds or plane transitions sees the same
    caches whatever ran before it (a memo ring's lane engine holds bound
    plans, which would also skip a test seam)."""
    plancache.KERNELS.clear()
    wavelet.forget_lifting_rings()
    config_memory.forget_states()


def forget_plans(ring: Ring) -> None:
    """Make *ring*'s current and next configurations first-time ones.

    Empties the process-wide kernel cache and the ring's plan cache
    (its missed fingerprints included), so the ring compiles what it
    runs next as a fresh ring in a fresh process would: the "fresh
    compile" side of a cache differential.  Call it before every switch
    of that ring, after any other ring of the test last ran.
    """
    plancache.KERNELS.clear()
    ring.plan_cache.clear()


class _NativeHidden:
    """The process-wide kernel cache with native templates hidden.

    The native seam must hide them: a template another ring compiled
    must not skip the seam, and a seam refusal must not enter the
    cache.  Lookups of a ``"native"`` key (a native lane plan binds the
    ring's own template) miss and its stores are dropped; every other
    key goes to the real cache.
    """

    def __init__(self, cache):
        self._cache = cache

    def get(self, key, count_miss=True):
        if key[0] == "native":
            return None
        return self._cache.get(key, count_miss)

    def put(self, key, value):
        if key[0] != "native":
            self._cache.put(key, value)


def _refuse_native(ring, refusal=None, engine=None):
    if refusal is not None:
        refusal.append("native tier refused by the macro-rung test seam")
    return None


@contextmanager
def native_refused():
    """Send every ``backend="native"`` ring down to the macro rung.

    ``repro.core.ring.compile_native`` refuses every configuration (it
    appends a reason and returns None), so the native ladder runs every
    span and stepped cycle on a generated macro kernel, and a batch
    ring's lanes run on the macro lane kernels.  Tests
    using it assert ``ring.macro_cycles > 0``, so the case cannot
    quietly turn into a second native run.  Native templates in the
    process-wide kernel cache are hidden for the duration.  This form
    serves loops and Hypothesis bodies; :func:`refuse_native` is the
    fixture.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "compile_native", _refuse_native)
        patch.setattr(ring_module, "KERNELS",
                      _NativeHidden(plancache.KERNELS))
        yield


@pytest.fixture
def refuse_native():
    """:func:`native_refused` for the whole test."""
    with native_refused():
        yield


def _one_cycle_calls(run):
    """*run* (``MacroPlan.run``) split into one call per cycle."""

    def run_cycles(plan, cycles, bus, host_in, taps=()):
        done = [np.empty((len(taps), 0), np.int64)]
        try:
            for _ in range(cycles):
                done.append(run(plan, 1, bus, host_in, taps))
        except Exception as exc:
            exc.window_taps = np.concatenate(done + [exc.window_taps], 1)
            raise
        return np.concatenate(done, 1)

    return run_cycles


@contextmanager
def macro_stepped():
    """Run every macro cycle of a native ring as its own kernel call.

    Refuses the native tier like :func:`native_refused` and splits each
    ``MacroPlan.run`` into one-cycle calls, so the macro kernel is
    entered at every phase of its period and stopped after every cycle,
    as :meth:`Ring.step` drives it, while the ring's windows, runs and
    steps dispatch as usual.
    """
    with native_refused(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(MacroPlan, "run", _one_cycle_calls(MacroPlan.run))
        yield


#: Engine-matrix column -> the seam that pins its rung of the native
#: ladder.  Column ``"fastpath"`` runs the macro rung one cycle per
#: kernel call (:func:`macro_stepped`); the id is the one the column had
#: when it pinned the retired per-cycle plan, kept so test ids stay
#: stable.  The other columns name a backend and need no seam.
RUNG_SEAMS = {"macro": native_refused, "fastpath": macro_stepped}


def rung_seam(column: str):
    """The seam context that pins engine-matrix *column*'s rung."""
    seam = RUNG_SEAMS.get(column)
    return nullcontext() if seam is None else seam()


def assert_rung_ran(column: str, ring: Ring, profile) -> None:
    """Engine-matrix *column*'s engine or rung ran under *profile*.

    ``interpreter``: every profiled cycle interpreted.  ``batch``: the
    lane engine ran, on native lane windows unless the configuration is
    refused with a reason.  ``native``: native kernels ran unless the
    configuration is refused with a reason.  ``macro`` and
    ``fastpath``: macro kernels ran and native never did, so neither
    column can quietly turn into a native run.
    """
    if column == "interpreter":
        assert profile.fastpath_cycles == 0, "a compiled rung ran"
        assert profile.interpreted_cycles > 0, "the interpreter never ran"
    elif column == "batch":
        assert ring._batch_engine is not None, "the lane engine never ran"
        assert profile.fastpath_cycles > 0, "no lane cycle was booked"
        assert ring.native_cycles > 0 or ring.native_refusal, (
            "native lane windows never ran on an accepted configuration")
    elif column == "native":
        assert ring.native_cycles > 0 or ring.native_refusal, (
            "native kernels never ran on an accepted configuration")
    elif column in ("macro", "fastpath"):
        assert ring.native_cycles == 0, "native ran under the seam"
        assert ring.macro_cycles > 0, "the macro rung never ran"
    else:
        raise AssertionError(f"unknown engine column {column!r}")


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
