"""Shared fixtures for the robustness suite.

``ENGINES`` parameterizes tests over the execution engines and rungs; the
``busy_factory`` builds identically configured rings with every kind of
live state (registers, OUT chains, feedback pipeline taps, FIFO
backlogs, a mid-loop local program), so faults have real state to land
in and recovery is exercised end to end.
"""

import pytest

from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource

from tests.conftest import rung_seam

#: (id, Ring kwargs) for each execution engine.  "macro" is a native ring
#: with the native tier refused and "fastpath" one that also runs each
#: macro cycle as its own kernel call (the ``tests/conftest.py`` seams,
#: applied by :func:`_rung_seam`), so both take the macro rung of the
#: native ladder, the second entering it at every phase.
ENGINES = [
    ("interpreter", dict(backend="interpreter")),
    ("fastpath", dict(backend="native")),
    ("native", dict(backend="native")),
    ("macro", dict(backend="native")),
    ("batch", dict(backend="batch", batch_size=4)),
]


@pytest.fixture(autouse=True)
def _rung_seam(request):
    """Pin the rung of every case parametrized with a seamed engine."""
    callspec = getattr(request.node, "callspec", None)
    column = None if callspec is None else callspec.params.get("engine")
    with rung_seam(column):
        yield


def make_busy_ring(**kwargs) -> Ring:
    """A 3x2 ring with live state in every fault-site category."""
    ring = Ring(RingGeometry(layers=3, width=2), **kwargs)
    cfg = ring.config
    # d0.0 accumulates its IN1 port — the Rp(2,1) feedback tap routed
    # below — so corruption anywhere in switch 0's pipeline lands in
    # persistent register state instead of silently shifting out.
    cfg.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.R0, Source.IN1, Dest.R0))
    cfg.write_microword(0, 1, MicroWord(
        Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=1))
    cfg.write_local_program(1, 0, [
        MicroWord(Opcode.MAC, Source.FIFO1, Source.IMM, Dest.R1,
                  flags=Flag.POP_FIFO1, imm=2),
        MicroWord(Opcode.MOV, Source.R1, dst=Dest.OUT),
    ])
    cfg.write_mode(1, 0, DnodeMode.LOCAL)
    cfg.write_microword(2, 0, MicroWord(Opcode.MOV, Source.IN1,
                                        dst=Dest.OUT))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_switch_route(2, 0, 1, PortSource.up(0))
    cfg.write_switch_route(0, 0, 1, PortSource.rp(2, 1))
    ring.push_fifo(1, 0, 1, list(range(5, 45)))
    return ring


def busy_factory(**kwargs):
    """A zero-argument factory of identical busy rings."""
    return lambda: make_busy_ring(**kwargs)

