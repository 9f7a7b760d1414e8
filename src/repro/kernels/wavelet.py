"""5/3 lifting wavelet transform on the Systolic Ring (Table 2).

The paper implements the JPEG2000-compliant lifting-scheme DWT on a
Ring-16 with one pixel sample per clock cycle and "25 % of the Ring
structure remains free".  Our mapping reproduces both properties:

Lane 0 (7 Dnodes) is the lifting pipeline proper::

    L0  mov  out, in1            ; even-sample stream in (host port 0)
    L1  avg2 out, in1, rp(1,1)   ; floor((e_m + e_m+1)/2)  [predict]
    L2  sub  out, fifo2, in1     ; d_m = o_m - predict     [odd stream]
    L3  add  out, in1, rp(1,1)   ; d_m-1 + d_m             [update]
    L4  add  out, in1, #2
    L5  asr  out, in1, #2        ; floor((d_m-1 + d_m + 2)/4)
    L6  add  out, in1, rp(1,2)   ; s_m = e_m + update

Lane 1 (5 Dnodes, L1..L5) re-times the even samples so they meet their
update term at L6 — every inter-stage delay comes from the switches'
feedback pipelines, never from extra routing.  12 of 16 Dnodes are busy:
exactly the paper's 75 %.

Border handling (symmetric extension) is the stream driver's job: it
prepends a mirrored pair and appends the mirrored last even sample, so
the raw pipeline equations produce the JPEG2000 border results
bit-exactly (see :func:`repro.kernels.reference.lifting53_forward`).

Throughput: one (approx, detail) pair per cycle = 2 samples/cycle for a
1-D pass; a 2-D transform passes every pixel twice (rows then columns),
so the sustained 2-D rate is **1 pixel sample per clock cycle** — the
paper's headline number.

Simulation: the row passes of a 2-D level are independent firings of
the one configured pipeline, and so are the column passes.
:func:`dwt53_2d_fabric` therefore runs each sweep as the lanes of one
``backend="batch"`` ring (one lane per row, then one per column), so a
sweep is one lockstep system window instead of one short run per pass.
The cycles it reports are still the sequential hardware count — one
pass after another, summed per pass — so :func:`wavelet_cycle_model`
and the paper's rate are unchanged.

The configuration persists while data streams through, as in the paper:
configured lifting rings are kept in a process-wide memo, one per lane
count (at most :data:`LIFTING_RING_MEMO`), so a second call writes no
configuration word and builds no ring, lane engine or lane plan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import word
from repro.core.batchpath import batch_to_signed
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.errors import SimulationError
from repro.host.system import RingSystem

#: Dnodes used by the mapping (12 of a Ring-16: the paper's 75 %).
DNODES_USED = 12
#: Fabric latency from first even sample to first valid detail output.
DETAIL_LATENCY = 4
#: Fabric latency from first even sample to first valid approx output.
APPROX_LATENCY = 8
#: Extra mirrored pair prepended for the left border.
BORDER_PREFIX_PAIRS = 1
#: Idle words ahead of the odd samples in L2's FIFO2: they delay the odd
#: stream to meet the prediction.
ODD_FIFO_DELAY = 3
#: Configured batch lifting rings kept for reuse, one per lane count; the
#: least recently returned goes first.  A 2-level DWT of a square tile
#: uses two lane counts.
LIFTING_RING_MEMO = 4

_lifting_rings: "OrderedDict[int, Ring]" = OrderedDict()


@dataclass
class WaveletResult:
    """Outcome of a fabric lifting pass."""

    approx: List[int]
    detail: List[int]
    cycles: int
    dnodes_used: int


def build_lifting_system(ring: Optional[Ring] = None) -> RingSystem:
    """Configure a ring (>= 7 layers x 2) as the 5/3 lifting pipeline."""
    if ring is None:
        ring = Ring(RingGeometry.ring(16, width=2))
    if ring.geometry.layers < 7 or ring.geometry.width < 2:
        raise SimulationError(
            "the lifting pipeline needs at least 7 layers x 2 Dnodes, "
            f"ring is {ring.geometry.layers}x{ring.geometry.width}"
        )
    cfg = ring.config

    # Lane 0: the lifting datapath.
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_microword(0, 0, MicroWord(Opcode.MOV, Source.IN1,
                                        dst=Dest.OUT))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_microword(1, 0, MicroWord(Opcode.AVG2, Source.IN1,
                                        Source.rp(1, 1), Dest.OUT))
    cfg.write_switch_route(2, 0, 1, PortSource.up(0))
    cfg.write_microword(2, 0, MicroWord(Opcode.SUB, Source.FIFO2,
                                        Source.IN1, Dest.OUT,
                                        flags=Flag.POP_FIFO2))
    cfg.write_switch_route(3, 0, 1, PortSource.up(0))
    cfg.write_microword(3, 0, MicroWord(Opcode.ADD, Source.IN1,
                                        Source.rp(1, 1), Dest.OUT))
    cfg.write_switch_route(4, 0, 1, PortSource.up(0))
    cfg.write_microword(4, 0, MicroWord(Opcode.ADD, Source.IN1,
                                        Source.IMM, Dest.OUT, imm=2))
    cfg.write_switch_route(5, 0, 1, PortSource.up(0))
    cfg.write_microword(5, 0, MicroWord(Opcode.ASR, Source.IN1,
                                        Source.IMM, Dest.OUT, imm=2))
    cfg.write_switch_route(6, 0, 1, PortSource.up(0))
    cfg.write_microword(6, 0, MicroWord(Opcode.ADD, Source.IN1,
                                        Source.rp(1, 2), Dest.OUT))

    # Lane 1: even-sample re-timing chain L1..L5.
    cfg.write_switch_route(1, 1, 1, PortSource.up(0))
    cfg.write_microword(1, 1, MicroWord(Opcode.MOV, Source.IN1,
                                        dst=Dest.OUT))
    for k in range(2, 6):
        cfg.write_switch_route(k, 1, 1, PortSource.up(1))
        cfg.write_microword(k, 1, MicroWord(Opcode.MOV, Source.IN1,
                                            dst=Dest.OUT))
    return RingSystem(ring)


def _border_index(n: int) -> Tuple[List[int], List[int]]:
    """Sample indices of the even/odd streams of a length-*n* signal,
    with JPEG2000 symmetric-extension padding.

    Prepends the mirrored pair ``(e_1, o_0)`` (left border: the first
    computed detail equals d_0, giving ``d_-1 = d_0``) and appends the
    mirrored even ``e_half-1`` (right border: ``e_half = e_half-1``).
    """
    if n < 2 or n % 2:
        raise SimulationError(
            f"lifting needs an even-length signal >= 2, got {n}"
        )
    evens = list(range(0, n, 2))
    mirror_even = evens[1] if len(evens) > 1 else evens[0]
    return [mirror_even] + evens + [evens[-1]], [1] + list(range(1, n, 2))


def _border_streams(signal: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Even/odd streams of *signal* (see :func:`_border_index`)."""
    x = [int(v) for v in signal]
    even_index, odd_index = _border_index(len(x))
    return [x[i] for i in even_index], [x[i] for i in odd_index]


def _coefficient_taps(system: RingSystem, half: int):
    """The detail (L2) and approx (L6) taps of a pass of *half* pairs.

    The first valid detail is the second one computed (the first is the
    mirrored duplicate), likewise for approx.
    """
    return (system.data.add_tap(
                2, 0, skip=DETAIL_LATENCY - 1 + BORDER_PREFIX_PAIRS,
                limit=half),
            system.data.add_tap(
                6, 0, skip=APPROX_LATENCY - 1 + BORDER_PREFIX_PAIRS,
                limit=half))


def lifting53_forward_fabric(signal: Sequence[int],
                             system: Optional[RingSystem] = None,
                             ) -> WaveletResult:
    """One forward 5/3 lifting level on the fabric.

    Bit-exact against :func:`repro.kernels.reference.lifting53_forward`
    for any 16-bit signal.
    """
    if system is None:
        system = build_lifting_system()
    ring = system.ring
    even_stream, odd_stream = _border_streams(signal)
    half = len(signal) // 2

    system.data.stream(0, np.asarray(even_stream, np.int64) & word.MASK)
    odds = np.zeros(ODD_FIFO_DELAY + len(odd_stream), np.int64)
    odds[ODD_FIFO_DELAY:] = np.asarray(odd_stream, np.int64) & word.MASK
    ring.push_fifo(2, 0, 2, odds)
    detail_tap, approx_tap = _coefficient_taps(system, half)

    cycles = len(even_stream) + APPROX_LATENCY
    system.run(cycles)
    if len(detail_tap.samples) != half or len(approx_tap.samples) != half:
        raise SimulationError(
            f"expected {half} coefficients, got "
            f"{len(approx_tap.samples)}/{len(detail_tap.samples)}"
        )
    return WaveletResult(
        approx=[word.to_signed(v) for v in approx_tap.samples],
        detail=[word.to_signed(v) for v in detail_tap.samples],
        cycles=cycles,
        dnodes_used=DNODES_USED,
    )


def _lifting_lanes(ring: Ring, lines: np.ndarray) -> Tuple[np.ndarray, int]:
    """One forward lifting level of every row of *lines*, row i on lane i.

    Resets *ring* (a lifting-configured batch ring with one lane per
    row) and runs all the passes in lockstep: each lane gets its own
    even stream and odd-sample FIFO load (one block load per queue, a
    row per lane), and two batch taps collect every lane's
    coefficients.  The reset keeps the ring's lane engine and its bound
    lane plans, so a reused ring runs its pass on the plans its last
    pass bound.  Returns the rows packed ``[approx | detail]`` and the
    cycles the same passes take one after another on the hardware (one
    pass per row).
    """
    count, n = lines.shape
    even_index, odd_index = _border_index(n)
    half = n // 2
    evens = lines[:, even_index] & word.MASK
    odds = np.zeros((count, ODD_FIFO_DELAY + len(odd_index)), np.int64)
    odds[:, ODD_FIFO_DELAY:] = lines[:, odd_index] & word.MASK

    ring.reset()
    system = RingSystem(ring)
    system.data.stream(0, evens)
    ring.batch.push_fifo(2, 0, 2, odds)
    detail_tap, approx_tap = _coefficient_taps(system, half)
    cycles = len(even_index) + APPROX_LATENCY
    system.run(cycles)
    packed = np.empty((count, n), np.int64)
    packed[:, :half] = approx_tap.array()
    packed[:, half:] = detail_tap.array()
    return batch_to_signed(packed), count * cycles


def _take_lifting_ring(lanes: int) -> Ring:
    """A configured batch lifting ring of *lanes* lanes: the memo's, or
    a newly built one."""
    ring = _lifting_rings.pop(lanes, None)
    if ring is None:
        ring = build_lifting_system(Ring(RingGeometry.ring(16, width=2),
                                         backend="batch",
                                         batch_size=lanes)).ring
    return ring


def _keep_lifting_ring(ring: Ring) -> None:
    """Put *ring*, whose passes all succeeded, in the memo."""
    _lifting_rings[ring.batch_size] = ring
    while len(_lifting_rings) > LIFTING_RING_MEMO:
        _lifting_rings.popitem(last=False)


def forget_lifting_rings() -> None:
    """Empty the lifting-ring memo: the next call builds and configures
    its rings afresh."""
    _lifting_rings.clear()


def dwt53_2d_fabric(image: np.ndarray) -> Tuple[np.ndarray, int]:
    """Full 2-D 5/3 DWT level on the fabric: rows then columns.

    The row passes are independent firings of one configured pipeline,
    so they run together as the lanes of one batch ring (one lane per
    row), and then the column passes do (one lane per column).  The
    rings come configured from a process-wide memo keyed by lane count
    and go back to it once both sweeps succeeded (a ring whose pass
    raised is dropped): the configuration survives the datapath reset
    between sweeps and between calls, as in hardware.  Returns the
    subband-packed coefficient array and the total fabric cycles: still
    the sequential hardware count, one 1-D pass after another, summed
    per pass (see :func:`wavelet_cycle_model`).

    Bit-exact against :func:`repro.kernels.reference.dwt53_2d`.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise SimulationError(f"expected a 2-D image, got {image.shape}")
    rows, cols = image.shape
    # Both sweeps' pass lengths up front: a column length the lifting
    # cannot take fails before any row runs.
    _border_index(cols)
    _border_index(rows)
    row_ring = _take_lifting_ring(rows)
    col_ring = row_ring if cols == rows else _take_lifting_ring(cols)
    temp, row_cycles = _lifting_lanes(row_ring, image.astype(np.int64))
    coeffs, col_cycles = _lifting_lanes(col_ring, temp.T)
    _keep_lifting_ring(row_ring)
    if col_ring is not row_ring:
        _keep_lifting_ring(col_ring)
    return np.ascontiguousarray(coeffs.T), row_cycles + col_cycles


def dwt53_2d_multilevel_fabric(image: np.ndarray,
                               levels: int) -> Tuple[np.ndarray, int]:
    """JPEG2000-style dyadic pyramid on the fabric.

    Each level re-transforms the LL subband of the previous one, exactly
    like :func:`repro.kernels.reference.dwt53_2d_multilevel`; each level
    takes the configured lifting rings of its lane counts from the memo
    of :func:`dwt53_2d_fabric` (only the stream contents change).
    Returns the packed pyramid and the total fabric cycles —
    which converge to ~4/3 of a single level as levels grow (the classic
    dyadic geometric series).
    """
    if levels < 1:
        raise SimulationError(f"levels must be >= 1, got {levels}")
    out = np.asarray(image).astype(np.int64).copy()
    rows, cols = out.shape
    total_cycles = 0
    for _ in range(levels):
        if rows % 2 or cols % 2 or rows < 2 or cols < 2:
            raise SimulationError(
                f"subband {rows}x{cols} cannot be split further"
            )
        coeffs, cycles = dwt53_2d_fabric(out[:rows, :cols])
        out[:rows, :cols] = coeffs
        total_cycles += cycles
        rows //= 2
        cols //= 2
    return out, total_cycles


def wavelet_cycle_model(height: int, width: int, levels: int = 1) -> int:
    """Analytic fabric cycles for a *levels*-deep 2-D pyramid.

    Per 1-D pass of length L: ``L/2 + 2`` stream slots plus the pipeline
    latency.  Summed over all rows and columns of one level this is
    ~= height*width cycles — one pixel sample per clock, the paper's
    Table 2 rate; deeper pyramid levels add the dyadic ~1/4 series.
    """
    total = 0
    for _ in range(levels):
        per_row = width // 2 + 2 + APPROX_LATENCY
        per_col = height // 2 + 2 + APPROX_LATENCY
        total += height * per_row + width * per_col
        height //= 2
        width //= 2
    return total
