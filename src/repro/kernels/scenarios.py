"""End-to-end streaming pipelines: context-switched multi-kernel scenarios.

Two complete DSP products built from the scenario-library recipes, each
**time-multiplexing one fabric between two configuration planes
mid-stream** — the paper's dynamically-reconfigurable pitch as a
runnable workload:

* :func:`run_synth_voice` — a polyphonic synth voice.  Plane A (lanes
  0/1/3) carries two serial NCO voices (phase accumulator + parabolic
  shaper), an AVG2 voice mixer and a MULH VCA driven by a host envelope
  stream; plane B is a recirculating echo confined to lane 2.  The host
  alternates planes every *chunk* cycles through
  :meth:`~repro.core.config_memory.ConfigMemory.apply_plane`.
* :func:`run_effects_chain` — a multi-stage effects chain: plane C is a
  compiled-style chorus + master VCA on lane 0 (feedback-pipeline
  delays), plane D the lane-1 echo.

Both lean on two architectural facts.  **State freezing:** a NOP never
writes OUT, so the Dnodes of the parked plane (NCO phase accumulators,
the echo's recirculating samples) hold their values bit-exactly while
the other plane runs, and resume as if no cycles passed.  **Plan
re-adoption:** re-applying a captured plane reproduces the same
configuration fingerprint, so after the first A/B round the plan cache
re-adopts each plane with zero interpreted cycles and zero recompiles
(the PR 4 contract, asserted by the integration suite).

The chorus plane alone carries state in switch feedback pipelines, which
*do* shift while the other plane runs — the driver re-streams a
4-sample overlap prefix per chunk (overlap-save) so every chunk is
self-contained; the golden models in :mod:`repro.kernels.reference`
(:func:`~repro.kernels.reference.synth_voice_pipeline`,
:func:`~repro.kernels.reference.effects_chain_pipeline`) remain plain
whole-stream functions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

from repro import word
from repro.core.config_memory import ConfigPlane
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.switch import PortSource
from repro.host.system import RingSystem
from repro.kernels.effects import build_echo
from repro.kernels.taps import tap_lane0

# -- synth voice plane geometry ----------------------------------------

#: Fabric shape both synth planes share; the echo delay equals LAYERS.
SYNTH_GEOMETRY = RingGeometry(layers=13, width=4)

#: Layer/lane publishing the dry voice samples (plane A).
VOICE_OUT = (12, 0)

#: Lane reserved for the echo plane's recirculating delay line.
SYNTH_ECHO_LANE = 2

# -- effects chain plane geometry --------------------------------------

#: Fabric shape of the effects chain; echo delay equals LAYERS.
EFFECTS_GEOMETRY = RingGeometry(layers=10, width=2)

#: Chorus depth of the effects chain (one switch feedback pipeline).
EFFECTS_CHORUS_DEPTH = 4

#: Overlap-save prefix re-streamed per chorus chunk (covers the Rp
#: span) and the chorus plane's tap skip (prefix + 3 pipeline stages).
_CHORUS_PREFIX = 4
_CHORUS_SKIP = _CHORUS_PREFIX + 3

#: Layer/lane publishing the chorus+VCA samples (plane C, lane 0).
EFFECTS_OUT = (3, 0)

#: Lane reserved for the effects chain's echo plane.
EFFECTS_ECHO_LANE = 1


@dataclass
class ScenarioResult:
    """Outcome of a context-switched pipeline run."""

    outputs: List[int]          # final (wet) stream
    stage_outputs: List[int]    # intermediate stream between the planes
    cycles: int
    switches: int               # apply_plane() invocations
    plan_hits: int              # plan cache re-adoptions on the ring
    plan_compiles: int          # macro kernels the ring generated
    chunk: int


def _mov(src_lane: int) -> MicroWord:
    return MicroWord(Opcode.MOV, Source.IN1, dst=Dest.OUT)


def _configure_voice(ring: Ring, fcw_a: int, fcw_b: int) -> None:
    """Plane A: two serial NCO voices + mixer + envelope VCA.

    Voice A occupies lanes 0/1 of layers 0-4, voice B the same lanes of
    layers 5-9 while lane 3 relays voice A's finished samples past it;
    layers 10-12 mix, apply the host envelope (channel 0) and rescale.
    Lane :data:`SYNTH_ECHO_LANE` is untouched — it belongs to plane B.
    """
    cfg = ring.config
    for base, fcw in ((0, fcw_a), (5, fcw_b)):
        # Phase accumulator: the SELF recurrence publishes fcw*(n+1).
        cfg.write_microword(base, 0, MicroWord(
            Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT,
            imm=word.from_signed(int(fcw))))
        # Shaper: lane 0 relays the phase, lane 1 carries 32767-|p|.
        cfg.write_switch_route(base + 1, 0, 1, PortSource.up(0))
        cfg.write_microword(base + 1, 0, _mov(0))
        cfg.write_switch_route(base + 1, 1, 1, PortSource.up(0))
        cfg.write_microword(base + 1, 1, MicroWord(
            Opcode.ABS, Source.IN1, dst=Dest.OUT))
        cfg.write_switch_route(base + 2, 0, 1, PortSource.up(0))
        cfg.write_microword(base + 2, 0, _mov(0))
        cfg.write_switch_route(base + 2, 1, 1, PortSource.up(1))
        cfg.write_microword(base + 2, 1, MicroWord(
            Opcode.SUB, Source.IMM, Source.IN1, Dest.OUT,
            imm=word.from_signed(32767)))
        cfg.write_switch_route(base + 3, 0, 1, PortSource.up(0))
        cfg.write_switch_route(base + 3, 0, 2, PortSource.up(1))
        cfg.write_microword(base + 3, 0, MicroWord(
            Opcode.MULH, Source.IN1, Source.IN2, Dest.OUT))
        cfg.write_switch_route(base + 4, 0, 1, PortSource.up(0))
        cfg.write_microword(base + 4, 0, MicroWord(
            Opcode.SHL, Source.IN1, Source.IMM, Dest.OUT, imm=2))
    # Lane 3 relays voice A's samples past voice B's layers.
    cfg.write_switch_route(5, 3, 1, PortSource.up(0))
    cfg.write_microword(5, 3, _mov(0))
    for layer in range(6, 10):
        cfg.write_switch_route(layer, 3, 1, PortSource.up(3))
        cfg.write_microword(layer, 3, _mov(3))
    # Mixer, envelope VCA (host channel 0), output rescale.
    cfg.write_switch_route(10, 0, 1, PortSource.up(0))
    cfg.write_switch_route(10, 0, 2, PortSource.up(3))
    cfg.write_microword(10, 0, MicroWord(
        Opcode.AVG2, Source.IN1, Source.IN2, Dest.OUT))
    cfg.write_switch_route(11, 0, 1, PortSource.up(0))
    cfg.write_switch_route(11, 0, 2, PortSource.host(0))
    cfg.write_microword(11, 0, MicroWord(
        Opcode.MULH, Source.IN1, Source.IN2, Dest.OUT))
    cfg.write_switch_route(12, 0, 1, PortSource.up(0))
    cfg.write_microword(12, 0, MicroWord(
        Opcode.SHL, Source.IN1, Source.IMM, Dest.OUT, imm=1))


def _configure_chorus_vca(ring: Ring, master_gain: int) -> None:
    """Plane C: chorus (Rp depth-4 voice) + master VCA on lane 0."""
    cfg = ring.config
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_microword(0, 0, _mov(0))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_microword(1, 0, MicroWord(
        Opcode.AVG2, Source.IN1,
        Source.rp(EFFECTS_CHORUS_DEPTH, 1), Dest.OUT))
    cfg.write_switch_route(2, 0, 1, PortSource.up(0))
    cfg.write_microword(2, 0, MicroWord(
        Opcode.MULH, Source.IN1, Source.IMM, Dest.OUT,
        imm=word.from_signed(int(master_gain))))
    cfg.write_switch_route(3, 0, 1, PortSource.up(0))
    cfg.write_microword(3, 0, MicroWord(
        Opcode.SHL, Source.IN1, Source.IMM, Dest.OUT, imm=1))


def capture_plane(geometry: RingGeometry,
                  configure: Callable[[Ring], None]) -> ConfigPlane:
    """Configure a scratch interpreter ring, snapshot the full plane."""
    scratch = Ring(geometry, backend="interpreter")
    configure(scratch)
    return scratch.config.capture_plane()


#: Planes the pipelines captured, keyed by what they were captured from
#: (plane kind, geometry and arguments); least recently used dropped
#: first.  A :class:`ConfigPlane` is frozen, so runs share one safely,
#: and a shared plane keeps its validated layouts and memoized diffs.
_PLANES: "OrderedDict[Hashable, ConfigPlane]" = OrderedDict()
PLANE_MEMO_CAPACITY = 32


def _memo_plane(key: Hashable, geometry: RingGeometry,
                configure: Callable[[Ring], None]) -> ConfigPlane:
    """The plane :func:`capture_plane` gives for *key*, captured once."""
    key = (geometry, key)
    plane = _PLANES.get(key)
    if plane is None:
        plane = capture_plane(geometry, configure)
        _PLANES[key] = plane
        if len(_PLANES) > PLANE_MEMO_CAPACITY:
            _PLANES.popitem(last=False)
    else:
        _PLANES.move_to_end(key)
    return plane


def _advance(system: RingSystem, cycles: int, per_cycle: bool) -> None:
    if per_cycle:
        for _ in range(cycles):
            system.step()
    else:
        system.run(cycles)


def _collect(system: RingSystem, tap) -> List[int]:
    samples = [word.to_signed(v) for v in tap_lane0(tap)]
    system.data.taps.remove(tap)
    return samples


def run_synth_voice(envelope: Sequence[int],
                    fcw_a: int = 1400, fcw_b: int = 1750,
                    echo_gain: int = 22000, chunk: int = 32,
                    ring: Optional[Ring] = None,
                    per_cycle: bool = False) -> ScenarioResult:
    """Run the polyphonic synth voice pipeline, A/B-switching per chunk.

    Bit-exact against
    :func:`repro.kernels.reference.synth_voice_pipeline` with
    ``echo_delay = SYNTH_GEOMETRY.layers`` (wet stream; the dry stream
    matches :func:`~repro.kernels.reference.synth_voice_dry`).
    """
    total = len(envelope)
    if chunk < 1 or total % chunk:
        raise ValueError(
            f"envelope length {total} must be a positive multiple of "
            f"chunk {chunk}")
    if ring is None:
        ring = Ring(SYNTH_GEOMETRY)
    if (ring.geometry.layers != SYNTH_GEOMETRY.layers
            or ring.geometry.width < SYNTH_GEOMETRY.width):
        raise ValueError(
            f"synth voice needs a {SYNTH_GEOMETRY.layers}x"
            f"{SYNTH_GEOMETRY.width} ring, got "
            f"{ring.geometry.layers}x{ring.geometry.width}")
    voice_plane = _memo_plane(
        ("voice", fcw_a, fcw_b), ring.geometry,
        lambda r: _configure_voice(r, fcw_a, fcw_b))
    echo_plane = _memo_plane(
        ("echo", echo_gain, SYNTH_ECHO_LANE), ring.geometry,
        lambda r: build_echo(echo_gain, ring=r, lane=SYNTH_ECHO_LANE))
    system = RingSystem(ring)
    dry_all: List[int] = []
    wet_all: List[int] = []
    switches = 0
    for k in range(total // chunk):
        env_chunk = envelope[k * chunk:(k + 1) * chunk]
        ring.config.apply_plane(voice_plane)
        switches += 1
        system.data.stream(0, np.asarray(env_chunk, np.int64) & word.MASK)
        tap = system.data.add_tap(*VOICE_OUT, limit=chunk)
        _advance(system, chunk, per_cycle)
        dry = _collect(system, tap)
        dry_all.extend(dry)
        ring.config.apply_plane(echo_plane)
        switches += 1
        system.data.stream(0, np.asarray(dry, np.int64) & word.MASK)
        tap = system.data.add_tap(0, SYNTH_ECHO_LANE, limit=chunk)
        _advance(system, chunk, per_cycle)
        wet_all.extend(_collect(system, tap))
    return ScenarioResult(
        outputs=wet_all, stage_outputs=dry_all, cycles=system.cycles,
        switches=switches, plan_hits=ring.plan_cache.hits,
        plan_compiles=ring.plan_compiles, chunk=chunk)


def run_effects_chain(signal: Sequence[int],
                      master_gain: int = 26000, echo_gain: int = 20000,
                      chunk: int = 32, ring: Optional[Ring] = None,
                      per_cycle: bool = False) -> ScenarioResult:
    """Run the chorus -> VCA -> echo chain, C/D-switching per chunk.

    The chorus plane's delay state lives in switch feedback pipelines
    (clobbered while the echo plane runs), so each chorus chunk
    re-streams a :data:`_CHORUS_PREFIX`-sample overlap and skips the
    warm-up outputs; the echo plane's state lives in Dnode OUTs and
    simply freezes.  Bit-exact against
    :func:`repro.kernels.reference.effects_chain_pipeline` with
    ``depth = EFFECTS_CHORUS_DEPTH`` and
    ``echo_delay = EFFECTS_GEOMETRY.layers``.
    """
    total = len(signal)
    if chunk < 1 or total % chunk:
        raise ValueError(
            f"signal length {total} must be a positive multiple of "
            f"chunk {chunk}")
    if ring is None:
        ring = Ring(EFFECTS_GEOMETRY)
    if (ring.geometry.layers != EFFECTS_GEOMETRY.layers
            or ring.geometry.width < EFFECTS_GEOMETRY.width):
        raise ValueError(
            f"effects chain needs a {EFFECTS_GEOMETRY.layers}x"
            f"{EFFECTS_GEOMETRY.width} ring, got "
            f"{ring.geometry.layers}x{ring.geometry.width}")
    chorus_plane = _memo_plane(
        ("chorus", master_gain), ring.geometry,
        lambda r: _configure_chorus_vca(r, master_gain))
    echo_plane = _memo_plane(
        ("echo", echo_gain, EFFECTS_ECHO_LANE), ring.geometry,
        lambda r: build_echo(echo_gain, ring=r, lane=EFFECTS_ECHO_LANE))
    system = RingSystem(ring)
    samples = [int(v) for v in signal]
    stage_all: List[int] = []
    wet_all: List[int] = []
    switches = 0
    for k in range(total // chunk):
        lo = k * chunk
        prefix = ([0] * _CHORUS_PREFIX if k == 0
                  else samples[lo - _CHORUS_PREFIX:lo])
        ring.config.apply_plane(chorus_plane)
        switches += 1
        system.data.stream(0, np.asarray(prefix + samples[lo:lo + chunk],
                                         np.int64) & word.MASK)
        tap = system.data.add_tap(*EFFECTS_OUT, skip=_CHORUS_SKIP,
                                  limit=chunk)
        _advance(system, chunk + _CHORUS_SKIP, per_cycle)
        stage = _collect(system, tap)
        stage_all.extend(stage)
        ring.config.apply_plane(echo_plane)
        switches += 1
        system.data.stream(0, np.asarray(stage, np.int64) & word.MASK)
        tap = system.data.add_tap(0, EFFECTS_ECHO_LANE, limit=chunk)
        _advance(system, chunk, per_cycle)
        wet_all.extend(_collect(system, tap))
    return ScenarioResult(
        outputs=wet_all, stage_outputs=stage_all, cycles=system.cycles,
        switches=switches, plan_hits=ring.plan_cache.hits,
        plan_compiles=ring.plan_compiles, chunk=chunk)
