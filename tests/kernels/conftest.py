"""Shared engine parametrization for the golden-kernel suites.

Every execution backend the repo ships is described once, here, and the
``engine`` fixture parametrizes any test that requests it over all of
them.  A kernel test written against the fixture therefore becomes one
*row* of the cross-engine x kernel conformance matrix: the same golden
recipe, bit-identical on the interpreter, the native ladder, its macro
rung (native refused via the ``refuse_native`` seam), the macro rung
entered one cycle per kernel call (column ``fastpath``, via the
``macro_stepped`` seam) and the batch backend.

Helpers:

* :func:`make_ring` — build a ring of the given geometry under the
  engine's constructor kwargs;
* :func:`tap_samples` — lane-0 samples of a tap regardless of whether it
  is a scalar :class:`~repro.host.streams.OutputTap` or a
  :class:`~repro.host.streams.BatchOutputTap`;
* :func:`fabric_state` — the scalar architectural state of a ring
  (shape-compatible across engines, unlike ``state_digest`` which
  includes the lane arrays of batch snapshots);
* :func:`bulk_tail` — run a ring and its interpreter twin on in bulk,
  compare their state and assert that the column's own rung ran.
"""

from __future__ import annotations

import pytest

from repro.core.ring import Ring, RingGeometry

from tests.conftest import assert_rung_ran, rung_seam

#: name -> Ring constructor kwargs, one entry per execution engine and
#: native-ladder rung.  ``tests/core/test_nativepath.py`` asserts this
#: covers :attr:`Ring.BACKEND_REGISTRY`.
#: ``"macro"`` is a native ring whose native compiler refuses, and
#: ``"fastpath"`` one that also runs each macro cycle as its own kernel
#: call (the ``tests/conftest.py`` seams, applied by :func:`engine`), so
#: both run on the macro rung, the second entering it at every phase.
ENGINES = {
    "interpreter": {"backend": "interpreter"},
    "fastpath": {"backend": "native"},
    "native": {"backend": "native"},
    "macro": {"backend": "native"},
    "batch": {"backend": "batch", "batch_size": 2},
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    """(name, ring_kwargs) for every execution engine, one per param."""
    with rung_seam(request.param):
        yield request.param, dict(ENGINES[request.param])


def make_ring(geometry: RingGeometry, engine_kwargs: dict) -> Ring:
    """A fresh ring of *geometry* running the given engine."""
    return Ring(geometry, **engine_kwargs)


#: Cycles :func:`bulk_tail` runs: at least one period of every kernel.
BULK_TAIL = 64


def _tail_host(channel: int) -> int:
    return 5 * channel + 3


def bulk_tail(name: str, ring: Ring, twin: Ring,
              cycles: int = BULK_TAIL) -> None:
    """Run *ring* and its interpreter *twin* on for *cycles* through
    ``Ring.run``, assert identical architectural state, and assert that
    column *name*'s own engine or rung ran.

    A tapped or streamed system run on a native-refused configuration
    may still step cycles one by one, so each column's rung is checked
    on a bulk run like this.
    """
    with ring.profile() as profile:
        ring.run(cycles, host_in=_tail_host)
    twin.run(cycles, host_in=_tail_host)
    assert fabric_state(ring) == fabric_state(twin), (
        f"{name} state diverged from interpreter in the bulk tail")
    assert_rung_ran(name, ring, profile)


def tap_samples(tap):
    """Lane-0 sample stream of a scalar or batch output tap."""
    return tap.lane(0) if hasattr(tap, "lane") else list(tap.samples)


def fabric_state(ring: Ring) -> dict:
    """Scalar architectural state, comparable across all engines."""
    g = ring.geometry
    return {
        "cycles": ring.cycles,
        "outs": [dn.out for dn in ring.all_dnodes()],
        "regs": [dn.regs.snapshot() for dn in ring.all_dnodes()],
        "counters": [dn.local.counter for dn in ring.all_dnodes()],
        "pipes": [[ring.switch(k).rp_read(stage, lane)
                   for stage in range(1, g.pipeline_depth + 1)
                   for lane in range(1, g.width + 1)]
                  for k in range(g.layers)],
        "fifos": {key: list(queue)
                  for key, queue in sorted(ring._fifos.items()) if queue},
        "underflows": ring.fifo_underflows,
        "stats": [(dn.stats.cycles, dn.stats.instructions,
                   dn.stats.arithmetic_ops, dn.stats.multiplies,
                   dn.stats.fifo_pops) for dn in ring.all_dnodes()],
    }
