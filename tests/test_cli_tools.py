"""Tests for the `python -m repro.tools` command-line interface."""

import pytest

from repro.tools.__main__ import main

SRC = """
.ring boot
dnode 0.0 global
    add out, in1, #5
switch 0
    route 0.1 <- host0
.risc
    waiti 8
    halt
"""


SRC_UNCONTROLLED = """
.ring boot
dnode 0.0 global
    add out, in1, #5
switch 0
    route 0.1 <- host0
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text(SRC)
    return path


@pytest.fixture
def ring_obj(tmp_path, capsys):
    path = tmp_path / "ring.asm"
    path.write_text(SRC_UNCONTROLLED)
    main(["asm", str(path)])
    capsys.readouterr()
    return path.with_suffix(".obj")


class TestAsmCommand:
    def test_assembles_to_default_output(self, asm_file, capsys):
        assert main(["asm", str(asm_file), "--layers", "4"]) == 0
        obj_path = asm_file.with_suffix(".obj")
        assert obj_path.exists()
        assert "2 instructions" in capsys.readouterr().out

    def test_explicit_output(self, asm_file, tmp_path):
        out = tmp_path / "custom.obj"
        assert main(["asm", str(asm_file), "-o", str(out)]) == 0
        assert out.exists()

    def test_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.asm"
        bad.write_text(".risc\nfrobnicate r1\n")
        assert main(["asm", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestDisCommand:
    def test_listing_printed(self, asm_file, capsys):
        main(["asm", str(asm_file)])
        capsys.readouterr()
        assert main(["dis", str(asm_file.with_suffix(".obj"))]) == 0
        out = capsys.readouterr().out
        assert "add out, in1, #5" in out
        assert "waiti 8" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["dis", str(tmp_path / "nope.obj")]) == 1


class TestRunCommand:
    def test_streams_and_taps(self, asm_file, capsys):
        main(["asm", str(asm_file)])
        capsys.readouterr()
        code = main(["run", str(asm_file.with_suffix(".obj")),
                     "--stream", "0:10,20,30", "--tap", "0.0:4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tap 0.0:4: [15, 25, 35" in out

    def test_fixed_cycle_run(self, asm_file, capsys):
        main(["asm", str(asm_file)])
        capsys.readouterr()
        code = main(["run", str(asm_file.with_suffix(".obj")),
                     "--stream", "0:1", "--tap", "0.0:1",
                     "--cycles", "3"])
        assert code == 0
        assert "ran 3 cycles" in capsys.readouterr().out

    def test_metrics_export_json(self, asm_file, tmp_path, capsys):
        import json
        main(["asm", str(asm_file)])
        capsys.readouterr()
        metrics = tmp_path / "run.json"
        code = main(["run", str(asm_file.with_suffix(".obj")),
                     "--stream", "0:1", "--tap", "0.0:1",
                     "--cycles", "5", "--metrics", str(metrics)])
        assert code == 0
        assert f"wrote metrics to {metrics}" in capsys.readouterr().out
        data = json.loads(metrics.read_text())
        assert data["ring_cycles_total"] == 5
        assert "controller_cycles_total" in data

    def test_metrics_export_prometheus(self, asm_file, tmp_path, capsys):
        main(["asm", str(asm_file)])
        capsys.readouterr()
        metrics = tmp_path / "run.prom"
        code = main(["run", str(asm_file.with_suffix(".obj")),
                     "--stream", "0:1", "--tap", "0.0:1",
                     "--cycles", "5", "--metrics", str(metrics),
                     "--metrics-format", "prom"])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_ring_cycles_total counter" in text
        assert "repro_ring_cycles_total 5" in text


class TestRunPlanCacheFlags:
    def test_plan_cache_and_macro_step_applied(self, ring_obj, capsys,
                                               refuse_native):
        """A native run whose native tier refuses reaches the macro rung
        and reports it in the ``macro_step_cycles_total`` family."""
        import json
        metrics = ring_obj.parent / "cache.json"
        code = main(["run", str(ring_obj), "--backend", "native",
                     "--cycles", "200", "--metrics", str(metrics)])
        assert code == 0
        assert "ran 200 cycles" in capsys.readouterr().out
        data = json.loads(metrics.read_text())
        assert data["macro_step_cycles_total"] > 0
        assert "plan_cache_hits_total" in data
        assert "plan_cache_misses_total" in data
        assert "plan_cache_evictions_total" in data
        for name in ("hits", "misses", "evictions"):
            assert f"kernel_cache_{name}_total" in data

    def test_plan_cache_is_not_an_option(self, ring_obj, capsys):
        """The ring's plan cache has a constant capacity: argparse
        rejects the retired ``--plan-cache`` flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(ring_obj), "--plan-cache", "4",
                  "--cycles", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --plan-cache 4" in \
            capsys.readouterr().err


class TestRunBatchBackend:
    def test_batch_run_prints_per_lane_taps(self, ring_obj, capsys):
        code = main(["run", str(ring_obj),
                     "--backend", "batch", "--batch-size", "4",
                     "--stream", "0:10,20,30", "--tap", "0.0:3",
                     "--cycles", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ran 6 cycles x 4 lanes (24 lane-cycles)" in out
        # The stream is broadcast, so every lane computes the same result.
        for lane in range(4):
            assert f"tap 0.0:3 lane {lane}: [15, 25, 35]" in out

    def test_batch_matches_scalar_backends(self, ring_obj, capsys):
        def tap_lines(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [line.partition(": ")[2]
                    for line in out.splitlines() if "tap" in line]

        scalar = tap_lines(["run", str(ring_obj), "--stream", "0:7,8,9",
                            "--tap", "0.0:3", "--cycles", "5"])
        batch = tap_lines(["run", str(ring_obj), "--stream", "0:7,8,9",
                           "--tap", "0.0:3", "--cycles", "5",
                           "--backend", "batch", "--batch-size", "2"])
        assert batch == scalar * 2

    def test_batch_metrics_exported(self, ring_obj, tmp_path, capsys):
        import json
        metrics = tmp_path / "batch.json"
        code = main(["run", str(ring_obj),
                     "--backend", "batch", "--batch-size", "3",
                     "--stream", "0:1,2", "--tap", "0.0:2",
                     "--cycles", "4", "--metrics", str(metrics)])
        assert code == 0
        capsys.readouterr()
        data = json.loads(metrics.read_text())
        assert data["batch_lanes"] == 3
        # Every lockstep cycle ran on a native lane window, so no macro
        # lane kernel was built.
        assert data["native_cycles_total"] == 4
        assert data["ring_plan_compiles_total"] == 0
        assert "batch_plan_compiles_total" not in data
        assert "lane=2" in data["batch_lane_fifo_underflows_total"]

    def test_batch_rejects_controller_program(self, asm_file, capsys):
        main(["asm", str(asm_file)])
        capsys.readouterr()
        code = main(["run", str(asm_file.with_suffix(".obj")),
                     "--backend", "batch", "--batch-size", "2"])
        assert code == 1
        assert "uncontrolled" in capsys.readouterr().err

    def test_batch_size_requires_batch_backend(self, ring_obj, capsys):
        code = main(["run", str(ring_obj), "--batch-size", "2"])
        assert code == 1
        assert "requires --backend batch" in capsys.readouterr().err


SRC_FIFO = """
.ring boot
dnode 0.0 global
    mov out, fifo1 [pop1]
"""


class TestRunExitCodes:
    """Satellite: aborted runs must not exit 0 (CI keys off the code)."""

    @pytest.fixture
    def fifo_obj(self, tmp_path, capsys):
        path = tmp_path / "fifo.asm"
        path.write_text(SRC_FIFO)
        main(["asm", str(path)])
        capsys.readouterr()
        return path.with_suffix(".obj")

    def test_strict_fifo_abort_exits_2_with_cycle_on_stderr(
            self, fifo_obj, capsys):
        code = main(["run", str(fifo_obj), "--strict-fifos",
                     "--cycles", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("abort: ")
        assert "FIFO1" in err and "cycle" in err

    def test_underflow_without_strict_still_exits_0(self, fifo_obj,
                                                    capsys):
        assert main(["run", str(fifo_obj), "--cycles", "4"]) == 0
        assert "abort" not in capsys.readouterr().err

    def test_inject_recovery_success_exits_0(self, ring_obj, capsys):
        code = main(["run", str(ring_obj), "--cycles", "16",
                     "--inject", "seu", "--checkpoint-every", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "injected:" in out
        assert "RECOVERY FAILED" not in out

    def test_inject_recovery_failure_exits_1(self, ring_obj, capsys,
                                             monkeypatch):
        # A digest function that never repeats makes every checkpoint
        # comparison fail, so detection fires and replay cannot converge.
        import itertools
        import repro.core.snapshot as snapshot
        counter = itertools.count()
        monkeypatch.setattr(snapshot, "state_digest",
                            lambda ring: (next(counter),))
        code = main(["run", str(ring_obj), "--cycles", "16",
                     "--inject", "seu", "--checkpoint-every", "4"])
        assert code == 1
        assert "RECOVERY FAILED" in capsys.readouterr().out


class TestReportCommand:
    def test_generates_full_report(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["report", "-o", str(out), "--seed", "7"]) == 0
        text = out.read_text()
        assert "Table 1" in text and "Table 2" in text
        assert "Table 3" in text and "Fig. 7" in text
        assert "bit-exact" in text
        assert "MISMATCH" not in text

    def test_seed_changes_workload_not_anchors(self, tmp_path):
        a = tmp_path / "a.md"; b = tmp_path / "b.md"
        main(["report", "-o", str(a), "--seed", "1"])
        main(["report", "-o", str(b), "--seed", "2"])
        ta, tb = a.read_text(), b.read_text()
        # anchors identical regardless of seed
        assert "0.06" in ta and "0.06" in tb
        # the Ring's cycle count is workload-independent too
        assert "2511" in ta and "2511" in tb
