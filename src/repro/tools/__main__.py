"""CLI front end for the Systolic Ring toolchain.

Subcommands:

* ``asm``      — assemble two-level source to binary object code;
* ``dis``      — disassemble object code to a readable listing;
* ``run``      — load object code, stream data in, print tap outputs;
* ``autotune`` — search the mapping space for a library kernel graph
  (measured-throughput scoring, bit-identity verification, memoized by
  graph+fabric fingerprint), optionally followed by the cross-engine
  configuration fuzzer.

Exit codes: 0 success, 1 usage/load errors and failed fault recovery,
2 a simulation abort (strict-FIFO underflow) — the abort cycle and
message go to stderr so CI and load generators can detect failed runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import word
from repro.asm import assemble, load_system
from repro.asm.disasm import disassemble
from repro.asm.objcode import ObjectCode
from repro.core.ring import Ring
from repro.errors import ReproError, SimulationError

#: Exit code for general errors (bad flags, unreadable files, a fault
#: campaign that failed to recover bit-identically).
EXIT_FAILURE = 1
#: Exit code for a simulation abort mid-run (strict-FIFO underflow).
EXIT_ABORT = 2


def _cmd_asm(args: argparse.Namespace) -> int:
    source = Path(args.source).read_text()
    obj = assemble(source, layers=args.layers, width=args.width)
    out_path = Path(args.output or Path(args.source).with_suffix(".obj"))
    out_path.write_bytes(obj.to_bytes())
    print(f"{out_path}: {len(obj.program)} instructions, "
          f"{len(obj.cfg_rom)} ROM entries, {len(obj.planes)} plane(s)")
    return 0


def _cmd_dis(args: argparse.Namespace) -> int:
    obj = ObjectCode.from_bytes(Path(args.object).read_bytes())
    sys.stdout.write(disassemble(obj))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.tools.report import generate_report

    text = generate_report(seed=args.seed)
    Path(args.output).write_text(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def _parse_stream(spec: str):
    """``channel:v1,v2,...`` -> (channel, [values])."""
    channel_text, _, values_text = spec.partition(":")
    values = [word.from_signed(int(v, 0))
              for v in values_text.split(",") if v]
    return int(channel_text), values


def _parse_tap(spec: str):
    """``layer.pos[:count]`` -> (layer, pos, count)."""
    place, _, count = spec.partition(":")
    layer_text, _, pos_text = place.partition(".")
    return int(layer_text), int(pos_text), int(count) if count else None


#: ``--inject`` spec -> the fault kinds it draws from (resolved lazily so
#: plain asm/dis invocations never import the robustness layer).
_INJECT_SPECS = ("seu", "config", "stuck", "drop", "all")


def _inject_kinds(spec: str):
    from repro.robustness.faults import FaultKind

    return {
        "seu": (FaultKind.REGISTER, FaultKind.OUT, FaultKind.PIPELINE,
                FaultKind.FIFO),
        "config": (FaultKind.CONFIG_WORD, FaultKind.CONFIG_ROUTE),
        "stuck": (FaultKind.STUCK_DNODE,),
        "drop": (FaultKind.STREAM_DROP,),
        "all": tuple(FaultKind),
    }[spec]


def _run_with_injection(build, args, cycles: int) -> int:
    """Golden run, then a faulted run with checkpoint/rollback recovery.

    The golden system records state digests at every checkpoint boundary;
    the faulted system compares against them, and on divergence restores
    the last good :meth:`~repro.host.system.RingSystem.checkpoint` and
    replays.  Returns the faulted system (for tap/metric reporting)
    plus an exit status.
    """
    from repro.core.snapshot import state_digest
    from repro.robustness.faults import FaultInjector

    every = args.checkpoint_every
    golden = build()
    digests = {0: state_digest(golden.ring)}
    for _ in range(cycles):
        golden.step()
        if golden.cycles % every == 0 or golden.cycles == cycles:
            digests[golden.cycles] = state_digest(golden.ring)

    system = build()
    injector = FaultInjector(system.ring, seed=args.fault_seed,
                             kinds=_inject_kinds(args.inject),
                             data=system.data)
    fault_cycle = (args.fault_cycle if args.fault_cycle is not None
                   else cycles // 2)
    event = injector.random_event(fault_cycle)
    checkpoint = system.checkpoint()
    system.ring.checkpoints += 1
    record = None
    detected_at = None
    rolled_back_to = None
    recovered = True
    for cycle in range(cycles):
        if cycle == event.cycle:
            record = injector.inject(event)
        system.step()
        if not (system.cycles % every == 0 or system.cycles == cycles):
            continue
        if state_digest(system.ring) == digests[system.cycles]:
            if system.cycles % every == 0:
                checkpoint = system.checkpoint()
                system.ring.checkpoints += 1
            continue
        if detected_at is not None:
            continue
        detected_at = system.cycles
        rolled_back_to = checkpoint.cycles
        system.restore_checkpoint(checkpoint)
        system.ring.rollbacks += 1
        for _ in range(detected_at - rolled_back_to):
            system.step()
        system.ring.recovery_cycles += detected_at - rolled_back_to
        recovered = state_digest(system.ring) == digests[detected_at]
        if not recovered:
            break
    recovered = recovered and state_digest(system.ring) == digests[cycles]
    print(f"injected: {record.describe() if record else event.describe()}")
    if detected_at is None:
        print(f"fault masked: every checkpoint matched the golden run "
              f"(interval {every})")
    else:
        verdict = ("recovered, bit-identical with golden run"
                   if recovered else "RECOVERY FAILED")
        print(f"detected at cycle {detected_at}; rolled back to cycle "
              f"{rolled_back_to}; replayed "
              f"{detected_at - rolled_back_to} cycles; {verdict}")
    return system, (0 if recovered else 1)


def _cmd_run(args: argparse.Namespace) -> int:
    obj = ObjectCode.from_bytes(Path(args.object).read_bytes())
    batched = args.backend == "batch"
    if batched and load_system(obj).controller is not None:
        print(f"error: --backend {args.backend} needs an uncontrolled "
              "program (the configuration controller drives one scalar "
              "fabric)", file=sys.stderr)
        return 1
    if not batched and args.batch_size != 1:
        print("error: --batch-size requires --backend batch",
              file=sys.stderr)
        return 1

    total = max((len(_parse_stream(spec)[1])
                 for spec in args.stream or []), default=0)
    tap_specs = list(args.tap or [])

    def build():
        """One fully wired system; injection runs build golden + faulted
        twins, so every run-affecting option must be applied here."""
        system = load_system(obj, strict_fifos=args.strict_fifos)
        if args.backend is not None:
            system.ring.set_backend(
                args.backend, args.batch_size if batched else 1)
            # Rebuild the data controller so channels/taps match the
            # lane count (streams are broadcast to every lane).
            from repro.host.streams import DataController
            system.data = DataController(batch=system.ring.batch_size)
        if args.plan_cache is not None:
            system.set_plan_cache(args.plan_cache)
        for spec in args.stream or []:
            channel, values = _parse_stream(spec)
            system.data.stream(channel, values)
        for spec in tap_specs:
            layer, pos, count = _parse_tap(spec)
            system.data.add_tap(layer, pos, limit=count)
        return system

    cycles = args.cycles if args.cycles is not None else total + 16
    status = 0
    try:
        if args.inject is not None:
            if args.checkpoint_every is None:
                args.checkpoint_every = max(1, cycles // 8)
            if args.checkpoint_every < 1:
                print("error: --checkpoint-every must be >= 1",
                      file=sys.stderr)
                return EXIT_FAILURE
            system = build()
            if system.controller is not None:
                print("error: --inject supports uncontrolled programs "
                      "only", file=sys.stderr)
                return EXIT_FAILURE
            system, status = _run_with_injection(build, args, cycles)
        else:
            system = build()
            if system.controller is not None and args.cycles is None:
                system.run_until_halt(max_cycles=args.max_cycles)
            else:
                system.run(cycles)
    except SimulationError as exc:
        # A strict-FIFO underflow (or any other mid-run abort) must not
        # exit 0: CI and load generators key off the exit code.  The
        # abort message carries the offending Dnode/FIFO and cycle.
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    taps = list(zip(tap_specs, system.data.taps))
    batch = (system.ring.batch_size
             if system.ring.backend == "batch" else 1)
    if batch > 1:
        print(f"ran {system.cycles} cycles x {batch} lanes "
              f"({system.cycles * batch} lane-cycles)")
    else:
        print(f"ran {system.cycles} cycles")
    for spec, tap in taps:
        if batch > 1:
            for lane in range(batch):
                values = [word.to_signed(v) for v in tap.lane(lane)]
                print(f"tap {spec} lane {lane}: {values}")
        else:
            values = [word.to_signed(v) for v in tap.samples]
            print(f"tap {spec}: {values}")
    if args.metrics:
        snapshot = system.metrics()
        text = (snapshot.to_prometheus() if args.metrics_format == "prom"
                else snapshot.to_json() + "\n")
        Path(args.metrics).write_text(text)
        print(f"wrote metrics to {args.metrics} ({args.metrics_format})")
    return status


def _cmd_autotune(args: argparse.Namespace) -> int:
    import json

    from repro.compiler.autotune import autotune_graph, fuzz_conformance
    from repro.compiler.library import GRAPH_LIBRARY, build_graph

    if args.list:
        for name in sorted(GRAPH_LIBRARY):
            print(name)
        return 0
    if args.graph is None:
        print("error: name a library graph (or use --list)",
              file=sys.stderr)
        return EXIT_FAILURE

    graph = build_graph(args.graph)
    result = autotune_graph(graph, score_cycles=args.cycles,
                            repeats=args.repeats, seed=args.seed,
                            memo=not args.no_memo)
    if args.json:
        payload = {
            "graph": args.graph,
            "mapping": result.mapping.describe(),
            "cycles_per_second": result.cycles_per_second,
            "baseline_cycles_per_second":
                result.baseline_cycles_per_second,
            "speedup": result.speedup,
            "search_ms": result.search_ms,
            "cache_hit": result.cache_hit,
            "candidates": len(result.candidates),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.report())
        print(result.program.resource_report())
    if args.fuzz:
        report = fuzz_conformance(rounds=args.fuzz, seed=args.seed)
        print(report.summary())
        for line in report.mismatches:
            print(f"  MISMATCH {line}", file=sys.stderr)
        if not report.ok:
            return EXIT_FAILURE
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The complete toolchain argument parser (inspectable by tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="Systolic Ring toolchain (assembler/disassembler/runner)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble source to object code")
    p_asm.add_argument("source")
    p_asm.add_argument("-o", "--output")
    p_asm.add_argument("--layers", type=int, default=4)
    p_asm.add_argument("--width", type=int, default=2)
    p_asm.set_defaults(func=_cmd_asm)

    p_dis = sub.add_parser("dis", help="disassemble object code")
    p_dis.add_argument("object")
    p_dis.set_defaults(func=_cmd_dis)

    p_report = sub.add_parser(
        "report", help="regenerate every paper table into one report")
    p_report.add_argument("-o", "--output", default="REPORT.md")
    p_report.add_argument("--seed", type=int, default=2002)
    p_report.set_defaults(func=_cmd_report)

    p_run = sub.add_parser("run", help="execute object code")
    p_run.add_argument("object")
    p_run.add_argument("--stream", action="append",
                       help="channel:v1,v2,... (repeatable)")
    p_run.add_argument("--tap", action="append",
                       help="layer.pos[:count] (repeatable)")
    p_run.add_argument("--cycles", type=int, default=None,
                       help="run exactly N cycles instead of to HALT")
    p_run.add_argument("--max-cycles", type=int, default=1_000_000)
    # No argparse choices: Ring rejects an unknown name with the
    # registry's own error, which lists every backend.
    p_run.add_argument("--backend",
                       metavar="{" + ",".join(Ring.BACKENDS) + "}",
                       default=None,
                       help="execution engine (default: the ring's own, "
                            "'native', which fuses steady state into "
                            "time-vectorized NumPy kernels, falling "
                            "back to generated macro kernels and the "
                            "interpreter; "
                            "'batch' advances --batch-size streams at "
                            "once, streams broadcast to every lane)")
    p_run.add_argument("--batch-size", type=int, default=1, metavar="N",
                       help="lane count for --backend batch")
    p_run.add_argument("--plan-cache", type=int, default=None, metavar="N",
                       help="retain up to N compiled plans keyed by "
                            "configuration fingerprint (0 disables; "
                            "default: the ring's own, normally 8)")
    p_run.add_argument("--strict-fifos", action="store_true",
                       help="abort the run (exit code 2, cycle + message "
                            "on stderr) on any FIFO underflow instead of "
                            "reading zero")
    p_run.add_argument("--inject", choices=_INJECT_SPECS, default=None,
                       help="inject one seeded fault and recover by "
                            "checkpoint rollback-replay, verified "
                            "bit-identical against an uninjected golden "
                            "run (uncontrolled programs only)")
    p_run.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="checkpoint/detection interval in cycles "
                            "for --inject (default: cycles // 8)")
    p_run.add_argument("--fault-cycle", type=int, default=None, metavar="C",
                       help="inject at cycle C (default: mid-run)")
    p_run.add_argument("--fault-seed", type=int, default=2002, metavar="S",
                       help="seed selecting the fault site and bit")
    p_run.add_argument("--metrics", default=None, metavar="PATH",
                       help="export run metrics (counters, FIFO high-water "
                            "marks, controller stalls) to PATH")
    p_run.add_argument("--metrics-format", choices=("json", "prom"),
                       default="json",
                       help="metrics format: JSON or Prometheus text")
    p_run.set_defaults(func=_cmd_run)

    p_tune = sub.add_parser(
        "autotune",
        help="search the mapping space for a library kernel graph")
    p_tune.add_argument("graph", nargs="?", default=None,
                        help="library graph name (see --list)")
    p_tune.add_argument("--list", action="store_true",
                        help="list the kernel-graph library and exit")
    p_tune.add_argument("--cycles", type=int, default=1500, metavar="N",
                        help="timed cycles per candidate measurement")
    p_tune.add_argument("--repeats", type=int, default=2, metavar="R",
                        help="measurement repeats per candidate (best-of)")
    p_tune.add_argument("--seed", type=int, default=2002, metavar="S",
                        help="verification-stream / fuzzer seed")
    p_tune.add_argument("--no-memo", action="store_true",
                        help="skip the best-known-mapping memo cache")
    p_tune.add_argument("--json", action="store_true",
                        help="print the winner as JSON instead of a table")
    p_tune.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="afterwards run N rounds of the cross-engine "
                             "configuration fuzzer (exit 1 on mismatch)")
    p_tune.set_defaults(func=_cmd_autotune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
