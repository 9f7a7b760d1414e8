"""Lane-axis behaviour once pinned against the sharded backend.

The multi-process shard backend is gone; batch is the only lane engine.
These tests keep what the shard suite checked that still exists: the
strict-FIFO abort of a batch whose lanes run dry at different depths,
per-lane tap collection through a streamed ``RingSystem``, and the CLI
guard on ``--batch-size``.  Each batch result is compared against
independent scalar rings, one per lane.
"""

from __future__ import annotations

import pytest

from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import PortSource, Ring, RingGeometry
from repro.core.snapshot import capture
from repro.kernels.fir import build_spatial_fir
from repro.errors import SimulationError

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]

_SRC = (".ring boot\n"
        "dnode 0.0 global\n"
        "    add out, in1, #5\n"
        "switch 0\n"
        "    route 0.1 <- host0\n")


def _fir_ring(**kwargs) -> Ring:
    ring = Ring(RingGeometry(layers=len(_TAPS), width=2), **kwargs)
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _host_zero(channel: int) -> int:
    return 0


def _fifo_sourced(ring: Ring) -> None:
    """Feed D0.0 from its FIFO1 instead of the host."""
    ring.config.write_switch_route(0, 0, 1, PortSource.rp(1, 1))
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.ADD, Source.FIFO1, Source.IMM, Dest.OUT, imm=1))


class TestStrictFifoDivergence:
    def test_abort_matches_batch_message_and_state(self):
        """Lanes hold different FIFO depths; the batch must abort with
        the scalar text and cycle of its shallowest lane, and leave that
        lane in the scalar ring's state."""
        batch = _fir_ring(backend="batch", batch_size=4, strict_fifos=True)
        _fifo_sourced(batch)
        for lane in range(4):
            # Lane i holds i words, so lane 0 runs dry first.
            batch.batch.push_fifo(0, 0, 1, [7] * lane, lane=lane)
        with pytest.raises(SimulationError) as batch_err:
            batch.run(10, host_in=_host_zero)

        scalar = _fir_ring(strict_fifos=True)
        _fifo_sourced(scalar)
        with pytest.raises(SimulationError) as scalar_err:
            scalar.run(10, host_in=_host_zero)

        assert str(batch_err.value) == str(scalar_err.value)
        assert batch.cycles == scalar.cycles
        target = Ring(batch.geometry)
        batch.batch.store_lane(0, target)
        got, want = capture(target), capture(scalar)
        # Datapath words only: the scalar ring counts the aborting
        # cycle in its per-node statistics, the batch engine does not.
        for field in ("registers", "outs", "pipelines", "fifos"):
            assert getattr(got, field) == getattr(want, field), field
        # The deeper lanes keep their undelivered words.
        assert batch.batch.fifo_contents(0, 0, 1, lane=3) == [7, 7, 7]


class TestSystemChunkPath:
    def test_tapped_system_collects_per_lane(self):
        from repro.asm import assemble, load_system
        from repro.host.streams import DataController
        obj = assemble(_SRC, layers=4, width=2)
        streams = ([10, 20], [1, 2])

        def run_system(batch, per_lane):
            system = load_system(obj)
            if batch > 1:
                system.ring.set_backend("batch", batch)
            system.data = DataController(batch=batch)
            for lane, words in enumerate(per_lane):
                if batch > 1:
                    system.data.stream(0, words, lane=lane)
                else:
                    system.data.stream(0, words)
            tap = system.data.add_tap(0, 0, limit=4)
            system.run(6)
            return tap

        got = run_system(2, streams)
        for lane, words in enumerate(streams):
            want = run_system(1, [words])
            assert got.lane(lane) == want.samples
        assert got.lane(0) != got.lane(1)


class TestShardCli:
    @pytest.fixture
    def ring_obj(self, tmp_path, capsys):
        from repro.tools.__main__ import main
        path = tmp_path / "ring.asm"
        path.write_text(_SRC)
        main(["asm", str(path)])
        capsys.readouterr()
        return path.with_suffix(".obj")

    def test_batch_size_guard_names_both_backends(self, ring_obj, capsys):
        from repro.tools.__main__ import main
        code = main(["run", str(ring_obj), "--batch-size", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--batch-size requires --backend batch" in err
