"""Full-search block-matching motion estimation on the Systolic Ring.

Reproduces the Table 1 experiment: matching an 8x8 reference block
against a +/-8-pixel search area (17 x 17 = 289 candidate positions,
H.261-style).

Mapping (Ring-16, all 16 Dnodes, *hybrid* multi-level reconfiguration —
the paper's showcase):

* every Dnode runs a two-slot **local-mode** loop computing one
  candidate's SAD: ``absdiff r1, fifo1, fifo2 [pop1,pop2]`` then
  ``add r0, r0, r1`` — 2 cycles per pixel pair, 128 cycles per 8x8
  candidate, with the pixel pairs pre-staged in its stream FIFOs
  (the search window lives on-chip, as in the ASIC comparators);
* candidates are dealt round-robin: Dnode *i* handles candidates
  ``i, i+16, i+32, ...`` so a batch of 16 SADs completes every 128
  cycles;
* the **configuration controller** harvests each batch by flipping
  whole configuration planes (``CFGPLANE``): one *flush* cycle (all
  Dnodes momentarily global: ``mov out, r0``), one *reset* cycle
  (``mov r0, zero``), then back to the *compute* plane (local mode) —
  exactly the per-cycle hardware multiplexing of §3.

The host reads the flushed SADs from output taps and picks the minimum;
the fabric cycle count is what Table 1 compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import word
from repro.controller.core import RiscController
from repro.controller.isa import Instruction, ROp
from repro.core.config_memory import ConfigPlane
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.errors import SimulationError
from repro.host.system import RingSystem

#: Local-mode SAD loop: two cycles per pixel pair.
CYCLES_PER_PAIR = 2
#: Controller overhead per harvested batch: flush + reset + loop (addi,
#: bne) cycles during which the fabric idles in a global-mode plane.
BATCH_OVERHEAD_CYCLES = 4
#: Controller preamble before the first compute cycle (two LDIs).
PREAMBLE_CYCLES = 2


@dataclass
class MotionEstimationResult:
    """Outcome of a fabric motion-estimation run."""

    best: Tuple[int, int]       # (dy, dx) of the winning candidate
    best_sad: int
    sad_map: np.ndarray         # SAD of every candidate position
    cycles: int                 # total fabric cycles (incl. control)
    dnodes_used: int
    batches: int


def _deal_candidates(reference_block: np.ndarray, search_area: np.ndarray,
                     n_dnodes: int):
    """Round-robin candidate deal: per-Dnode (ref, cand) pair streams.

    Returns ``(n_dnodes, batches * pairs)`` int64 arrays, one row per
    Dnode: the reference block repeated once per batch, and the
    candidates the Dnode handles, each flattened row-major (a sliding
    window view of the search area).  Slots past the last candidate
    carry the reference block, a padding SAD ignored on readout.
    """
    bh, bw = reference_block.shape
    sh, sw = search_area.shape
    ny, nx = sh - bh + 1, sw - bw + 1
    n_candidates = ny * nx
    batches = -(-n_candidates // n_dnodes)  # ceil
    pairs = bh * bw

    ref_flat = reference_block.reshape(-1).astype(np.int64) & word.MASK
    cands = np.empty((batches * n_dnodes, pairs), np.int64)
    cands[:n_candidates] = sliding_window_view(
        search_area, (bh, bw)).reshape(n_candidates, pairs)
    cands[:n_candidates] &= word.MASK
    cands[n_candidates:] = ref_flat
    # Candidate c goes to Dnode c % n_dnodes, in batch c // n_dnodes.
    cand_stream = cands.reshape(batches, n_dnodes, pairs).transpose(
        1, 0, 2).reshape(n_dnodes, batches * pairs)
    ref_stream = np.broadcast_to(np.tile(ref_flat, batches),
                                 (n_dnodes, batches * pairs))
    return ref_stream, cand_stream, (ny, nx), batches


@lru_cache(maxsize=None)
def _sad_planes(n_dnodes: int) -> Tuple[ConfigPlane, ...]:
    """The compute / flush / reset planes flipped by the controller.

    Memoized per Dnode count: the planes are frozen, so every system
    shares them, each is validated once per process, and a fresh ring's
    plane switches find their transitions in the process-wide memo of
    :mod:`repro.core.config_memory`.
    """
    all_addrs = [divmod(i, 2) for i in range(n_dnodes)]
    compute = ConfigPlane(
        modes={a: DnodeMode.LOCAL for a in all_addrs},
    )
    flush_word = MicroWord(Opcode.MOV, Source.R0, dst=Dest.OUT)
    flush = ConfigPlane(
        microwords={a: flush_word for a in all_addrs},
        modes={a: DnodeMode.GLOBAL for a in all_addrs},
    )
    reset_word = MicroWord(Opcode.MOV, Source.ZERO, dst=Dest.R0)
    reset = ConfigPlane(
        microwords={a: reset_word for a in all_addrs},
        modes={a: DnodeMode.GLOBAL for a in all_addrs},
    )
    return compute, flush, reset


def _controller_program(batches: int, compute_cycles: int,
                        ) -> List[Instruction]:
    """Batch loop: compute plane, wait, flush, reset, decrement, branch."""
    return [
        Instruction(ROp.LDI, rd=1, imm=batches),
        Instruction(ROp.LDI, rd=2, imm=0),
        # loop: (address 2)
        Instruction(ROp.CFGPLANE, plane=0),            # compute
        Instruction(ROp.WAITI, imm=compute_cycles - 1),
        Instruction(ROp.CFGPLANE, plane=1),            # flush SADs to OUT
        Instruction(ROp.CFGPLANE, plane=2),            # clear accumulators
        Instruction(ROp.ADDI, rd=1, rs=1, imm=-1),
        Instruction(ROp.BNE, rs=1, rt=2, imm=-6),
        Instruction(ROp.HALT),
    ]


def build_me_system(reference_block: np.ndarray, search_area: np.ndarray,
                    dnodes: int = 16,
                    ring_kwargs: Optional[dict] = None
                    ) -> Tuple[RingSystem, dict]:
    """Configure a Ring-*dnodes* system for one full-search match.

    Returns the system plus a metadata dict (batch geometry and the
    sample indices where flushed SADs appear in the output taps).
    *ring_kwargs* (e.g. ``{"backend": "native"}``) are forwarded to the
    :class:`~repro.core.ring.Ring` constructor, so the matcher can run
    on any execution engine.
    """
    reference_block = np.asarray(reference_block)
    search_area = np.asarray(search_area)
    if reference_block.ndim != 2 or search_area.ndim != 2:
        raise SimulationError("block and search area must be 2-D")
    if int(reference_block.max(initial=0)) > 255 or \
            int(search_area.max(initial=0)) > 255 or \
            int(reference_block.min(initial=0)) < 0 or \
            int(search_area.min(initial=0)) < 0:
        raise SimulationError("pixels must be 8-bit (0..255)")

    ring = Ring(RingGeometry.ring(dnodes, width=2), **(ring_kwargs or {}))
    ref_streams, cand_streams, grid, batches = _deal_candidates(
        reference_block, search_area, dnodes)
    pairs = reference_block.size
    compute_cycles = pairs * CYCLES_PER_PAIR

    local_loop = [
        MicroWord(Opcode.ABSDIFF, Source.FIFO1, Source.FIFO2, Dest.R1,
                  flags=Flag.POP_FIFO1 | Flag.POP_FIFO2),
        MicroWord(Opcode.ADD, Source.R0, Source.R1, Dest.R0),
    ]
    # Local programs are preloaded but the Dnodes stay in global mode
    # (idle NOPs) until the controller's first compute plane flips them —
    # otherwise they would start consuming pixel pairs during the
    # controller's preamble cycles.
    for i in range(dnodes):
        layer, pos = divmod(i, 2)
        ring.config.write_local_program(layer, pos, local_loop)
        ring.push_fifo(layer, pos, 1, ref_streams[i])
        ring.push_fifo(layer, pos, 2, cand_streams[i])

    controller = RiscController(
        _controller_program(batches, compute_cycles))
    system = RingSystem(ring, controller, planes=_sad_planes(dnodes))
    for i in range(dnodes):
        layer, pos = divmod(i, 2)
        system.data.add_tap(layer, pos)

    # Flushed SADs are visible right after the flush plane's cycle:
    # batch b's flush executes at system step
    #   PREAMBLE + b*(compute + OVERHEAD) + compute + 1
    # and tap sample indices are 0-based steps.
    period = compute_cycles + BATCH_OVERHEAD_CYCLES
    flush_samples = [PREAMBLE_CYCLES + b * period + compute_cycles
                     for b in range(batches)]
    meta = {
        "grid": grid,
        "batches": batches,
        "compute_cycles": compute_cycles,
        "period": period,
        "flush_sample_indices": flush_samples,
    }
    return system, meta


def full_search_me(reference_block: np.ndarray, search_area: np.ndarray,
                   dnodes: int = 16,
                   ring_kwargs: Optional[dict] = None
                   ) -> MotionEstimationResult:
    """Run the full-search matcher on the fabric and pick the best MV.

    The produced SAD map is bit-exact against
    :func:`repro.kernels.reference.full_search` on every backend
    (*ring_kwargs* selects the engine; on a batch ring the SADs are
    read from lane 0 — a scalar FIFO load reaches every lane, so all
    lanes compute the same map).
    """
    system, meta = build_me_system(reference_block, search_area, dnodes,
                                   ring_kwargs=ring_kwargs)
    system.run_until_halt(max_cycles=2_000_000)

    ny, nx = meta["grid"]
    n_candidates = ny * nx
    sads = np.zeros(n_candidates, dtype=np.int64)
    for b, sample_index in enumerate(meta["flush_sample_indices"]):
        for i in range(dnodes):
            c = b * dnodes + i
            if c >= n_candidates:
                continue
            tap = system.data.taps[i]
            samples = (tap.lane(0) if hasattr(tap, "lane")
                       else tap.samples)
            if sample_index >= len(samples):
                raise SimulationError(
                    f"flush sample {sample_index} missing from tap {i} "
                    f"({len(samples)} collected)"
                )
            sads[c] = samples[sample_index]
    sad_map = sads.reshape(ny, nx)
    best = np.unravel_index(int(np.argmin(sad_map)), sad_map.shape)
    return MotionEstimationResult(
        best=(int(best[0]), int(best[1])),
        best_sad=int(sad_map[best]),
        sad_map=sad_map,
        cycles=system.cycles,
        dnodes_used=dnodes,
        batches=meta["batches"],
    )


@dataclass
class FrameMotionResult:
    """Motion-vector field for a whole frame."""

    vectors: np.ndarray       # (blocks_y, blocks_x, 2) displacement (dy,dx)
    sads: np.ndarray          # best SAD per block
    cycles: int               # total fabric cycles across all blocks
    blocks: Tuple[int, int]


def estimate_frame_motion(previous: np.ndarray, current: np.ndarray,
                          block: int = 8, displacement: int = 8,
                          dnodes: int = 16) -> FrameMotionResult:
    """Block-wise motion field between two frames (H.261-style).

    Every *block* x *block* tile of *current* is matched against its
    clipped +/-*displacement* window in *previous* on the fabric; the
    returned vectors are displacements relative to the block position.
    Whole-frame cost is the sum of the per-block fabric runs — one
    macroblock pipeline after another, as the prototype would stream.
    """
    previous = np.asarray(previous)
    current = np.asarray(current)
    if previous.shape != current.shape:
        raise SimulationError(
            f"frame shapes differ: {previous.shape} vs {current.shape}"
        )
    height, width = current.shape
    if height % block or width % block:
        raise SimulationError(
            f"frame {height}x{width} is not a multiple of block {block}"
        )
    blocks_y, blocks_x = height // block, width // block
    vectors = np.zeros((blocks_y, blocks_x, 2), dtype=np.int64)
    sads = np.zeros((blocks_y, blocks_x), dtype=np.int64)
    total_cycles = 0
    for by in range(blocks_y):
        for bx in range(blocks_x):
            y0, x0 = by * block, bx * block
            wy0 = max(y0 - displacement, 0)
            wx0 = max(x0 - displacement, 0)
            wy1 = min(y0 + block + displacement, height)
            wx1 = min(x0 + block + displacement, width)
            tile = current[y0:y0 + block, x0:x0 + block]
            window = previous[wy0:wy1, wx0:wx1]
            result = full_search_me(tile, window, dnodes=dnodes)
            vectors[by, bx, 0] = wy0 + result.best[0] - y0
            vectors[by, bx, 1] = wx0 + result.best[1] - x0
            sads[by, bx] = result.best_sad
            total_cycles += result.cycles
    return FrameMotionResult(vectors=vectors, sads=sads,
                             cycles=total_cycles,
                             blocks=(blocks_y, blocks_x))


def cycle_model(n_candidates: int = 289, block_pixels: int = 64,
                dnodes: int = 16) -> int:
    """Analytic fabric cycle count of the mapping (validated by tests
    against the simulated count)."""
    batches = -(-n_candidates // dnodes)
    period = block_pixels * CYCLES_PER_PAIR + BATCH_OVERHEAD_CYCLES
    # the final batch skips the trailing loop overhead except flush/reset,
    # plus the halt cycle
    return PREAMBLE_CYCLES + batches * period + 1
