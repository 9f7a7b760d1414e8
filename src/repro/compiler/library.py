"""Named kernel-graph library: canonical DSP workloads as dataflow graphs.

The paper's application set (§5) — filtering and transform kernels — as
ready-made :class:`~repro.compiler.graph.DataflowGraph` builders, used by
the tests, the benchmarks, and the conformance fuzzer's seed corpus.  Every builder returns a fresh graph (graphs are mutable), and
every graph here streams one sample per cycle from host channel 0
(plus channel 1 where noted).

The shapes are deliberately diverse:

* ``fir8``  — direct-form FIR with a mov relay chain (deep and narrow:
  width 3, ~10 levels);
* ``dct4``  — 4-point DCT-II butterfly over a sliding window, gathered
  through the feedback pipelines (shallow and wide: width 6, 4 levels,
  delayed operands that make lane order matter);
* ``cmul``  — complex multiply of two interleaved streams (two input
  channels);
* ``envelope`` — rectify + smooth envelope follower (the worked example
  from ``examples/dataflow_compiler.py``).

The scenario library (:mod:`repro.kernels`) contributes the rest of the
catalogue: shift-add CORDIC rotation/vectoring (``cordic4`` /
``cordic_vec4``), the NCO's parabolic sine shaper (``nco_wave``),
polyphase 2x/3x resamplers (``up2``/``down2``/``up3``/``down3``), gain
staging (``vca``/``mixer4``), the chorus voice (``chorus6``) and
same-cycle complex arithmetic (``cmul4``/``cmag``).  Each is the exact
graph the corresponding ``*_fabric`` runner executes, so the fuzzer
exercises the shipping recipes, not toys.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.compiler.graph import CompileError, DataflowGraph

#: Default FIR-8 coefficient set (small signed integers, overflow-safe
#: against 16-bit accumulation for byte-ish inputs).
FIR8_TAPS = (3, -1, 4, 1, -5, 9, 2, -6)

#: Scaled DCT-4 cosine weights (>>0 kept integral: 2*cos(pi/8*k) style
#: small integers — exactness does not matter, the fabric arithmetic is
#: the spec and the golden evaluator follows it bit-for-bit).
DCT4_C1, DCT4_C3 = 5, 2


def fir8(taps=FIR8_TAPS) -> DataflowGraph:
    """Direct-form FIR-8: a mov relay chain feeding one MAC cascade."""
    g = DataflowGraph()
    x = g.input(0)
    acc = g.op("mul", x, g.const(taps[0]))
    tap = x
    for c in taps[1:]:
        tap = g.op("mov", tap)
        acc = g.op("add", acc, g.op("mul", tap, g.const(c)))
    g.output(acc)
    return g


def dct4() -> DataflowGraph:
    """4-point DCT-II butterfly over a sliding input window.

    The window x[n..n-3] is gathered through the switches' feedback
    pipelines (delays 1..3 cost nothing), so level 2 carries four
    butterfly sums whose shared producer is read through ``Rp`` taps,
    so lane order decides which placements are legal.
    """
    g = DataflowGraph()
    x = g.input(0)
    x1, x2, x3 = g.delay(x, 1), g.delay(x, 2), g.delay(x, 3)
    u = g.op("add", x, x3)         # x[n]   + x[n-3]
    v = g.op("add", x1, x2)        # x[n-1] + x[n-2]
    d0 = g.op("sub", x, x3)
    d1 = g.op("sub", x1, x2)
    c1, c3 = g.const(DCT4_C1), g.const(DCT4_C3)
    g.output(g.op("add", u, v))                         # X0
    g.output(g.op("add", g.op("mul", d0, c1),
                  g.op("mul", d1, c3)))                 # X1
    g.output(g.op("sub", u, v))                         # X2
    g.output(g.op("sub", g.op("mul", d0, c3),
                  g.op("mul", d1, c1)))                 # X3
    return g


def cmul() -> DataflowGraph:
    """Complex multiply: (a+jb)(c+jd) with re/im on channels 0/1.

    Interprets channel 0 as the real parts (a then c via a 1-cycle
    delay) and channel 1 as the imaginary parts — a compact stand-in for
    the paper's modem-style kernels with two live input streams.
    """
    g = DataflowGraph()
    re = g.input(0)
    im = g.input(1)
    re_d = g.delay(re, 1)
    im_d = g.delay(im, 1)
    g.output(g.op("sub", g.op("mul", re, re_d),
                  g.op("mul", im, im_d)))               # ac - bd
    g.output(g.op("add", g.op("mul", re, im_d),
                  g.op("mul", im, re_d)))               # ad + bc
    return g


def envelope() -> DataflowGraph:
    """Envelope follower: |x - x[n-2]| smoothed by a 2-tap average."""
    g = DataflowGraph()
    x = g.input(0)
    rect = g.op("abs", g.op("sub", x, g.delay(x, 2)))
    g.output(g.op("avg2", rect, g.delay(rect, 1)))
    return g


def _scenario(module: str, builder: str,
              *args) -> Callable[[], DataflowGraph]:
    """Deferred scenario-library builder.

    The kernels package imports the compiler (codegen) at module scope,
    so the library must import the kernels lazily — at build time the
    cycle is long resolved.
    """
    def build() -> DataflowGraph:
        import importlib
        module_obj = importlib.import_module(f"repro.kernels.{module}")
        return getattr(module_obj, builder)(*args)
    build.__name__ = builder
    return build


#: name -> builder; the CLI, benchmarks and fuzzer seed corpus index this.
GRAPH_LIBRARY: Dict[str, Callable[[], DataflowGraph]] = {
    "fir8": fir8,
    "dct4": dct4,
    "cmul": cmul,
    "envelope": envelope,
    "cordic4": _scenario("cordic", "rotation_graph", 4),
    "cordic_vec4": _scenario("cordic", "vectoring_graph", 4),
    "nco_wave": _scenario("nco", "shaper_graph"),
    "up2": _scenario("resampler", "upsample2_graph"),
    "down2": _scenario("resampler", "downsample2_graph"),
    "up3": _scenario("resampler", "upsample3_graph"),
    "down3": _scenario("resampler", "downsample3_graph"),
    "vca": _scenario("mixer", "vca_graph"),
    "mixer4": _scenario("mixer", "mixer_graph"),
    "chorus6": _scenario("effects", "chorus_graph"),
    "cmul4": _scenario("complex_ops", "cmul4_graph"),
    "cmag": _scenario("complex_ops", "cmag_graph"),
}


def build_graph(name: str) -> DataflowGraph:
    """Instantiate a library graph by name (:data:`GRAPH_LIBRARY` key)."""
    try:
        builder = GRAPH_LIBRARY[name]
    except KeyError:
        raise CompileError(
            f"unknown library graph {name!r}; available: "
            f"{', '.join(sorted(GRAPH_LIBRARY))}")
    return builder()


def library_streams(graph: DataflowGraph, length: int,
                    seed: int = 2002) -> Dict[int, List[int]]:
    """Deterministic signed sample streams for every input channel.

    A tiny LCG keeps this dependency-free and bit-stable across hosts;
    values stay small so multiply-accumulate graphs cannot overflow into
    behaviour that differs between engines only by wrap timing.
    """
    state = seed & 0x7FFFFFFF
    streams: Dict[int, List[int]] = {}
    for channel in graph.input_channels():
        samples = []
        for _ in range(length):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            samples.append((state >> 16) % 61 - 30)
        streams[channel] = samples
    return streams
