"""Dataflow compiler and profiler for the Systolic Ring.

The paper's conclusion names the missing piece of the 2002 system: "Our
future work takes place in the realization of an efficient
compiling/profiling tool, the key to success of reconfigurable computing
architectures."  This package builds that tool:

* :mod:`repro.compiler.graph` — a small dataflow-graph IR (streams,
  constants, operators, explicit delays) with a golden evaluator;
* :mod:`repro.compiler.schedule` — levelling, pass-node insertion and
  lane assignment onto a ring geometry, using the feedback pipelines for
  free re-timing delays;
* :mod:`repro.compiler.codegen` — emission of fabric configuration
  (microwords + switch routes + taps), runnable directly or exported as
  two-level assembly text;
* :mod:`repro.compiler.profiler` — per-Dnode utilisation and operator-mix
  reports from simulator statistics, plus the measured-throughput scoring
  primitive;
* :mod:`repro.compiler.library` — named kernel graphs (FIR-8, DCT-4,
  complex multiply, envelope follower) with deterministic test streams;
* :mod:`repro.compiler.autotune` — the compiler autopilot: a
  measured-throughput search over mode x placement mappings,
  verified bit-identical against the golden evaluator and memoized by
  graph+fabric fingerprint (``compile_graph(..., autotune=True)``).

Typical use::

    from repro.compiler import DataflowGraph, compile_graph

    g = DataflowGraph()
    x = g.input(0)
    y = g.op("mul", x, g.const(3))
    g.output(g.op("add", y, g.delay(x, 1)))
    program = compile_graph(g)
    outputs = program.run([5, 7, 9])     # == golden evaluation
"""

from repro.compiler.graph import DataflowGraph, Node, NodeKind
from repro.compiler.schedule import LANE_ORDERS, Placement, schedule
from repro.compiler.codegen import MODES, CompiledProgram, compile_graph
from repro.compiler.profiler import (measured_cycles_per_second,
                                     profile_report, utilization_by_dnode)
from repro.compiler.library import GRAPH_LIBRARY, build_graph, library_streams
from repro.compiler.autotune import (AutotuneResult, Mapping,
                                     autotune_graph, fuzz_conformance)

__all__ = [
    "DataflowGraph",
    "Node",
    "NodeKind",
    "Placement",
    "schedule",
    "LANE_ORDERS",
    "CompiledProgram",
    "compile_graph",
    "MODES",
    "profile_report",
    "utilization_by_dnode",
    "measured_cycles_per_second",
    "GRAPH_LIBRARY",
    "build_graph",
    "library_streams",
    "AutotuneResult",
    "Mapping",
    "autotune_graph",
    "fuzz_conformance",
]
