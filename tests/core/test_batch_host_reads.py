"""Host reads on batch lanes: what is checked, and the exact messages.

A plain host closure's words are checked on every read, on stepped
lane cycles (the macro lane kernel) and in native lane windows alike,
with the messages below.  A data controller's reads are not checked
again: its stream words were range-checked when they were pushed.
"""

import re

import numpy as np
import pytest

from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.errors import SimulationError
from repro.host.system import RingSystem

LANES = 3


def _host_ring() -> Ring:
    """Three lanes of D0.0 = host channel 0, D1.0 = its running sum."""
    ring = Ring(RingGeometry(layers=2, width=2), backend="batch",
                batch_size=LANES)
    ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
    ring.config.write_microword(0, 0, MicroWord(Opcode.MOV, Source.IN1,
                                                dst=Dest.OUT))
    ring.config.write_switch_route(1, 0, 1, PortSource.up(0))
    ring.config.write_microword(1, 0, MicroWord(
        Opcode.ADD, Source.IN1, Source.SELF, Dest.OUT))
    return ring


@pytest.mark.parametrize("cycles", [1, 4], ids=["stepped", "window"])
@pytest.mark.parametrize("value, error, message", [
    (70000, ValueError,
     "host channel 0 must be a 16-bit raw word, got 70000"),
    (np.zeros(LANES - 1, np.int64), SimulationError,
     f"host channel 0 batch read must have shape ({LANES},), got (2,)"),
    (np.zeros(LANES), ValueError,
     "host channel 0 must be 16-bit raw words, got dtype float64"),
    (np.array([1, 2, 0x10000]), ValueError,
     "host channel 0 must be 16-bit raw words"),
], ids=["word", "shape", "dtype", "range"])
def test_plain_closure_reads_are_checked(cycles, value, error, message):
    ring = _host_ring()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        if cycles == 1:
            ring.step(host_in=lambda channel: value)
        else:
            ring.run(cycles, host_in=lambda channel: value)
    assert ring.cycles == 0


def test_data_controller_reads_are_not_checked_again():
    """Stepped lane cycles fed by a data controller take its words as
    they are and compute what per-lane sums say they should."""
    ring = _host_ring()
    system = RingSystem(ring)
    block = np.arange(LANES * 6).reshape(LANES, 6) * 100
    system.data.stream(0, block)
    for _ in range(6):
        system.step()
    assert ring.batch._words_checked
    # D1.0 has summed the first five words of each lane's stream.
    assert ring.batch.lane_outs(1, 0).tolist() == \
        block[:, :5].sum(axis=1).tolist()
    ring.step(host_in=lambda channel: 1)
    assert not ring.batch._words_checked
