"""Job and result records of the RingFarm serving layer.

A :class:`FarmJob` is the unit of tenant work: a complete fabric
configuration (a :class:`~repro.core.config_memory.ConfigPlane`, i.e. a
*compiled-plan job* — the fingerprint of the plane decides which worker's
warm cache it lands on), the host stimulus (streams, FIFO preloads,
output taps) and a cycle budget.  A :class:`FarmResult` carries back the
tap sample streams, a full :func:`~repro.core.snapshot.state_digest` of
the fabric after the run (the bit-identity contract the differential
suite checks against direct execution) and the plan-cache telemetry the
front door aggregates into ``farm_*`` metrics.

Both records have a JSON wire form (``*_to_wire`` / ``*_from_wire``)
used by the stdlib TCP front door in :mod:`repro.farm.server`: planes
are encoded with the existing ISA and routing codecs
(:func:`repro.core.isa.encode` / :func:`repro.core.switch.encode_route`),
so the wire format is exactly the architecture's own configuration-word
encoding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config_memory import ConfigPlane
from repro.core.dnode import DnodeMode
from repro.core.isa import decode as decode_word, encode as encode_word
from repro.core.switch import decode_route, encode_route
from repro.errors import ConfigurationError

#: ``(layer, position, sample_limit)`` — where to attach an output tap.
TapSpec = Tuple[int, int, Optional[int]]

#: ``(layer, position, channel, words)`` — a FIFO preload.
FifoLoad = Tuple[int, int, int, List[int]]


@dataclass
class FarmJob:
    """One tenant request: run *plane* on a layers x width ring."""

    tenant: str
    layers: int
    width: int
    plane: ConfigPlane
    cycles: int
    streams: Dict[int, List[int]] = field(default_factory=dict)
    taps: List[TapSpec] = field(default_factory=list)
    fifos: List[FifoLoad] = field(default_factory=list)
    strict_fifos: bool = False
    job_id: str = ""
    #: Compute the full-fabric state digest for the result.  Taps are
    #: the product; the digest is the bit-identity verification
    #: affordance, and costs as much as ~40 cycles of execution on a
    #: Ring-16 — latency-sensitive tenants can opt out.
    want_digest: bool = True

    def validate(self) -> None:
        if not self.tenant:
            raise ConfigurationError("farm job needs a tenant name")
        if self.layers < 2:
            raise ConfigurationError(
                f"farm job needs >= 2 layers, got {self.layers}")
        if self.width < 1:
            raise ConfigurationError(
                f"farm job needs width >= 1, got {self.width}")
        if self.cycles < 0:
            raise ConfigurationError(
                f"farm job cycle budget must be >= 0, got {self.cycles}")
        if not isinstance(self.plane, ConfigPlane):
            raise ConfigurationError(
                f"farm job plane must be a ConfigPlane, got "
                f"{type(self.plane).__name__}")


@dataclass
class FarmResult:
    """What a worker hands back for one completed (or aborted) job."""

    job_id: str
    tenant: str
    worker: int
    cycles_run: int
    #: One sample stream per requested tap, in tap order.
    taps: List[List[int]]
    #: Full-fabric state digest after the run (bit-identity contract).
    digest: tuple
    #: Strict-FIFO abort message (cycle included), None on success.
    aborted: Optional[str] = None
    #: True when the job was paused and resumed on another worker.
    migrated: bool = False
    #: True when no plan was compiled and a cached plan was hit or
    #: stayed adopted from the previous job.
    warm: bool = False
    #: Plan-cache hit / plan-compile deltas attributable to this job.
    plan_hits: int = 0
    plan_compiles: int = 0

    @property
    def digest_hex(self) -> str:
        """Compact hex form of :attr:`digest` for wire transport."""
        return hashlib.sha256(repr(self.digest).encode()).hexdigest()


# -- wire codecs -------------------------------------------------------


def plane_to_wire(plane: ConfigPlane) -> dict:
    """JSON-safe encoding of a configuration plane.

    Microwords and routes travel as the architecture's own configuration
    integers; addresses as plain lists (JSON has no tuple keys).
    """
    return {
        "microwords": [[l, p, encode_word(mw)]
                       for (l, p), mw in plane.microwords.items()],
        "modes": [[l, p, mode.name]
                  for (l, p), mode in plane.modes.items()],
        "local": [[l, p, [encode_word(mw) for mw in slots], limit]
                  for (l, p), (slots, limit)
                  in plane.local_programs.items()],
        "routes": [[sw, pos, port, encode_route(src)]
                   for (sw, pos, port), src
                   in plane.switch_routes.items()],
    }


def plane_from_wire(data: dict) -> ConfigPlane:
    return ConfigPlane(
        microwords={(l, p): decode_word(raw)
                    for l, p, raw in data.get("microwords", [])},
        modes={(l, p): DnodeMode[name]
               for l, p, name in data.get("modes", [])},
        local_programs={
            (l, p): (tuple(decode_word(raw) for raw in slots), limit)
            for l, p, slots, limit in data.get("local", [])},
        switch_routes={(sw, pos, port): decode_route(raw)
                       for sw, pos, port, raw in data.get("routes", [])},
    )


def job_to_wire(job: FarmJob) -> dict:
    return {
        "tenant": job.tenant,
        "layers": job.layers,
        "width": job.width,
        "plane": plane_to_wire(job.plane),
        "cycles": job.cycles,
        "streams": {str(ch): list(vals)
                    for ch, vals in job.streams.items()},
        "taps": [[layer, pos, limit] for layer, pos, limit in job.taps],
        "fifos": [[l, p, c, list(words)] for l, p, c, words in job.fifos],
        "strict_fifos": job.strict_fifos,
        "job_id": job.job_id,
        "want_digest": job.want_digest,
    }


def job_from_wire(data: dict) -> FarmJob:
    return FarmJob(
        tenant=data["tenant"],
        layers=data["layers"],
        width=data["width"],
        plane=plane_from_wire(data["plane"]),
        cycles=data["cycles"],
        streams={int(ch): list(vals)
                 for ch, vals in data.get("streams", {}).items()},
        taps=[(layer, pos, limit)
              for layer, pos, limit in data.get("taps", [])],
        fifos=[(l, p, c, list(words))
               for l, p, c, words in data.get("fifos", [])],
        strict_fifos=bool(data.get("strict_fifos", False)),
        job_id=data.get("job_id", ""),
        want_digest=bool(data.get("want_digest", True)),
    )


def result_to_wire(result: FarmResult) -> dict:
    return {
        "job_id": result.job_id,
        "tenant": result.tenant,
        "worker": result.worker,
        "cycles_run": result.cycles_run,
        "taps": [list(stream) for stream in result.taps],
        "digest": result.digest_hex,
        "aborted": result.aborted,
        "migrated": result.migrated,
        "warm": result.warm,
        "plan_hits": result.plan_hits,
        "plan_compiles": result.plan_compiles,
    }


__all__ = [
    "FarmJob",
    "FarmResult",
    "job_from_wire",
    "job_to_wire",
    "plane_from_wire",
    "plane_to_wire",
    "result_to_wire",
]
