"""Unified instrumentation: always-on counters, snapshots, exporters.

Tier 1 of the observability layer.  The simulator's components already
maintain cheap counters on their configuration and commit paths — per-Dnode
activity (:class:`~repro.core.dnode.DnodeStats`), FIFO depth high-water
marks and underflows, fast-path plan compiles/invalidations
(:class:`~repro.core.ring.Ring`), per-switch route writes
(:class:`~repro.core.switch.SwitchConfig`), configuration-word traffic
(:class:`~repro.core.config_memory.ConfigMemory`) and controller
retire/stall statistics (:class:`~repro.controller.core.ControllerState`).
Nothing here adds per-cycle work: a :class:`MetricsRegistry` *aggregates*
those live counters on demand into an immutable :class:`MetricsSnapshot`
that exports as JSON or Prometheus text format (and drives the
``--metrics`` option of ``python -m repro.tools run``).

Tier 2 (sampled tracing) lives in :mod:`repro.analysis.trace`; tier 3
(wall-clock engine profiling) is :meth:`repro.core.ring.Ring.profile`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.plancache import KERNELS
from repro.errors import SimulationError

Labels = Tuple[Tuple[str, str], ...]

#: Prometheus metric name prefix for every exported sample.
PREFIX = "repro_"


@dataclass(frozen=True)
class Metric:
    """One metric family: a name, a kind, and its labelled samples."""

    name: str                 # without the ``repro_`` prefix
    kind: str                 # "counter" or "gauge"
    help: str
    samples: Tuple[Tuple[Labels, float], ...]


def _escape_help(text: str) -> str:
    """Escape HELP text per the text exposition format (version 0.0.4).

    HELP lines escape backslash and newline (no quote escaping — the
    text is not quoted).  Without this, a help string containing a
    newline splits the line and corrupts the whole scrape.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


class MetricsSnapshot:
    """Immutable point-in-time aggregation of every registered counter."""

    def __init__(self, metrics: Iterable[Metric]):
        self.metrics: Tuple[Metric, ...] = tuple(metrics)

    def value(self, name: str, **labels: str) -> float:
        """Look one sample up by metric name and exact label set."""
        want: Labels = tuple(sorted(labels.items()))
        for metric in self.metrics:
            if metric.name != name:
                continue
            for sample_labels, value in metric.samples:
                if tuple(sorted(sample_labels)) == want:
                    return value
        raise KeyError(f"no sample {name}{labels or ''} in snapshot")

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-data form: unlabelled metrics map straight to
        their value, labelled ones to a ``{label-string: value}`` dict."""
        data: Dict[str, object] = {}
        for metric in self.metrics:
            if len(metric.samples) == 1 and not metric.samples[0][0]:
                data[metric.name] = metric.samples[0][1]
            else:
                data[metric.name] = {
                    ",".join(f"{k}={v}" for k, v in labels): value
                    for labels, value in metric.samples
                }
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Render in the Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self.metrics:
            full = PREFIX + metric.name
            lines.append(f"# HELP {full} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {full} {metric.kind}")
            for labels, value in metric.samples:
                if labels:
                    body = ",".join(
                        f'{k}="{_escape_label(str(v))}"' for k, v in labels)
                    lines.append(f"{full}{{{body}}} {_format_value(value)}")
                else:
                    lines.append(f"{full} {_format_value(value)}")
        return "\n".join(lines) + "\n"


class MetricsRegistry:
    """Aggregates the live counters of a ring (and optionally its system).

    Build one with :meth:`of` from either a bare
    :class:`~repro.core.ring.Ring` or a complete
    :class:`~repro.host.system.RingSystem`; :meth:`collect` walks the
    components and returns a :class:`MetricsSnapshot`.  The registry holds
    only references — collecting is read-only and can be repeated.
    """

    def __init__(self, ring, controller=None, system=None):
        self.ring = ring
        self.controller = controller
        self.system = system

    @classmethod
    def of(cls, target) -> "MetricsRegistry":
        """Adapt a Ring or a RingSystem (anything with ``.ring``)."""
        ring = getattr(target, "ring", target)
        if not hasattr(ring, "all_dnodes"):
            raise SimulationError(
                f"cannot collect metrics from {type(target).__name__}"
            )
        controller = getattr(target, "controller", None)
        system = target if hasattr(target, "cycle_paths") else None
        return cls(ring, controller=controller, system=system)

    # ------------------------------------------------------------------

    def collect(self) -> MetricsSnapshot:
        metrics: List[Metric] = []
        metrics.extend(self._ring_metrics())
        metrics.extend(self._dnode_metrics())
        metrics.extend(self._switch_metrics())
        metrics.extend(self._fifo_metrics())
        metrics.extend(self._batch_metrics())
        if self.system is not None:
            metrics.append(self._system_metric())
        if self.controller is not None:
            metrics.extend(self._controller_metrics())
        return MetricsSnapshot(metrics)

    # ------------------------------------------------------------------

    def _ring_metrics(self) -> List[Metric]:
        ring = self.ring
        scalar = [
            ("ring_cycles_total", "counter",
             "Fabric clock cycles executed.", ring.cycles),
            ("ring_fifo_underflows_total", "counter",
             "FIFO reads/pops that found an empty queue.",
             ring.fifo_underflows),
            ("ring_plan_compiles_total", "counter",
             "Macro kernels this ring generated.", ring.plan_compiles),
            ("ring_plan_invalidations_total", "counter",
             "Configuration writes that dropped an active compiled "
             "kernel.",
             ring.plan_invalidations),
            ("plan_cache_hits_total", "counter",
             "Bound plans re-adopted from the ring's fingerprint cache.",
             ring.plan_cache.hits),
            ("plan_cache_misses_total", "counter",
             "Ring fingerprint cache lookups that found no plan.",
             ring.plan_cache.misses),
            ("plan_cache_evictions_total", "counter",
             "Bound plans evicted by the ring cache's LRU bound.",
             ring.plan_cache.evictions),
            ("kernel_cache_hits_total", "counter",
             "Process-wide kernel templates bound to a ring instead of "
             "compiled (all rings of the process).",
             KERNELS.hits),
            ("kernel_cache_misses_total", "counter",
             "Process-wide kernel template lookups that found nothing "
             "(all rings of the process).",
             KERNELS.misses),
            ("kernel_cache_evictions_total", "counter",
             "Kernel templates evicted by the process-wide LRU bound.",
             KERNELS.evictions),
            ("macro_step_cycles_total", "counter",
             "Cycles executed by the native ladder's fused macro kernels.",
             getattr(ring, "macro_cycles", 0)),
            ("native_cycles_total", "counter",
             "Cycles executed inside time-vectorized native kernels.",
             getattr(ring, "native_cycles", 0)),
            ("native_plan_compiles_total", "counter",
             "Native plans compiled (cache hits re-adopt for free).",
             getattr(ring, "native_compiles", 0)),
            ("native_fallback_cycles_total", "counter",
             "Cycles a native-backend ring handed down the fall-back "
             "ladder (ineligible config, sub-period remainder, "
             "strict-FIFO window), or a batch ring ran on macro lane "
             "kernels.",
             getattr(ring, "native_fallback_cycles", 0)),
            ("ring_config_writes_total", "counter",
             "Configuration words written through ConfigMemory.",
             ring.config.writes),
            ("ring_instructions_total", "counter",
             "Non-NOP microinstructions executed fabric-wide.",
             ring.instructions_executed),
            ("ring_arithmetic_ops_total", "counter",
             "Elementary operator activations (MAC counts as 2).",
             ring.arithmetic_ops_executed),
            ("ring_utilization", "gauge",
             "Fraction of Dnode-cycles that executed a real instruction.",
             ring.utilization()),
            ("faults_injected_total", "counter",
             "Faults injected into the fabric by the robustness layer.",
             getattr(ring, "faults_injected", 0)),
            ("checkpoints_total", "counter",
             "Full-state checkpoints captured.",
             getattr(ring, "checkpoints", 0)),
            ("rollbacks_total", "counter",
             "Checkpoint restores triggered by detection or rollback.",
             getattr(ring, "rollbacks", 0)),
            ("recovery_cycles_total", "counter",
             "Cycles re-executed during rollback-replay recovery.",
             getattr(ring, "recovery_cycles", 0)),
        ]
        return [Metric(name, kind, help_, (((), float(value)),))
                for name, kind, help_, value in scalar]

    def _dnode_metrics(self) -> List[Metric]:
        dnodes = self.ring.all_dnodes()
        fields = [
            ("dnode_cycles_total", "cycles", "Cycles this Dnode evaluated."),
            ("dnode_instructions_total", "instructions",
             "Non-NOP microinstructions this Dnode executed."),
            ("dnode_arithmetic_ops_total", "arithmetic_ops",
             "Elementary operator activations of this Dnode."),
            ("dnode_multiplies_total", "multiplies",
             "Hardwired-multiplier activations of this Dnode."),
            ("dnode_fifo_pops_total", "fifo_pops",
             "Words actually dequeued from this Dnode's input FIFOs."),
        ]
        metrics = []
        for name, attr, help_ in fields:
            samples = tuple(
                (((("dnode", dn.name),)), float(getattr(dn.stats, attr)))
                for dn in dnodes
            )
            metrics.append(Metric(name, "counter", help_, samples))
        return metrics

    def _switch_metrics(self) -> List[Metric]:
        ring = self.ring
        samples = tuple(
            ((("switch", str(k)),),
             float(ring.switch(k).config.writes))
            for k in range(ring.geometry.layers)
        )
        return [Metric(
            "switch_route_writes_total", "counter",
            "Routing-table writes applied to this switch.", samples)]

    def _fifo_metrics(self) -> List[Metric]:
        ring = self.ring

        def labels(key) -> Labels:
            layer, position, channel = key
            return (("dnode", f"D{layer}.{position}"),
                    ("channel", str(channel)))

        depth = tuple(
            (labels(key), float(len(queue)))
            for key, queue in sorted(ring._fifos.items()) if queue
        )
        high = tuple(
            (labels(key), float(mark))
            for key, mark in sorted(ring.fifo_high_water.items())
        )
        return [
            Metric("fifo_depth", "gauge",
                   "Current input-FIFO occupancy (non-empty queues only).",
                   depth),
            Metric("fifo_depth_high_water", "gauge",
                   "Deepest occupancy each input FIFO has reached.", high),
        ]

    def _batch_metrics(self) -> List[Metric]:
        """Per-lane counters of the batch backend (empty when inactive).

        The scalar ``ring_*`` metrics always mirror lane 0 (that is the
        batch engine's writeback contract); these add the cross-lane
        view: per-lane samples labelled ``lane=<i>`` plus an aggregate
        sum over every lane, so multi-stream serving dashboards see both
        the distribution and the total.
        """
        engine = self.ring._live_batch()
        if engine is None:
            return []
        lanes = engine.batch
        underflow_samples = tuple(
            ((("lane", str(lane)),), float(engine.lane_underflows[lane]))
            for lane in range(lanes)
        )
        pop_totals = [0] * lanes
        for counts in engine.lane_fifo_pops.values():
            for lane in range(lanes):
                pop_totals[lane] += int(counts[lane])
        pop_samples = tuple(
            ((("lane", str(lane)),), float(pop_totals[lane]))
            for lane in range(lanes)
        )
        scalar = [
            ("batch_lanes", "gauge",
             "Independent streams advanced per batch step.", lanes),
            ("batch_plan_invalidations_total", "counter",
             "Lane plans dropped by reconfiguration.",
             engine.invalidations),
            ("batch_fifo_underflows_total", "counter",
             "FIFO underflows summed across every lane.",
             float(engine.lane_underflows.sum())),
            ("batch_fifo_pops_total", "counter",
             "Words dequeued from input FIFOs summed across every lane.",
             float(sum(pop_totals))),
        ]
        metrics = [Metric(name, kind, help_, (((), float(value)),))
                   for name, kind, help_, value in scalar]
        metrics.append(Metric(
            "batch_lane_fifo_underflows_total", "counter",
            "FIFO underflows of one lane.", underflow_samples))
        metrics.append(Metric(
            "batch_lane_fifo_pops_total", "counter",
            "Words dequeued from input FIFOs of one lane.", pop_samples))
        return metrics

    def _system_metric(self) -> Metric:
        """Which path every system cycle took, and why (see
        :attr:`repro.host.system.RingSystem.cycle_paths`)."""
        samples = tuple(
            ((("path", path), ("reason", reason)), float(cycles))
            for (path, reason), cycles in sorted(
                self.system.cycle_paths.items())
        )
        return Metric(
            "system_cycles_total", "counter",
            "System clock cycles by execution path (bulk, ahead or "
            "per_cycle) and the reason for it.", samples)

    def _controller_metrics(self) -> List[Metric]:
        state = self.controller.state
        scalar = [
            ("controller_cycles_total", "Controller clock cycles.",
             state.cycles),
            ("controller_retired_total", "Instructions retired.",
             state.retired),
            ("controller_stalls_total",
             "Cycles lost to stalls (WAITI + empty-mailbox INW).",
             state.stalls),
            ("controller_wait_stalls_total",
             "Stall cycles spent inside WAITI delays.", state.wait_stalls),
            ("controller_mailbox_stalls_total",
             "Stall cycles spent retrying INW on an empty mailbox.",
             state.mailbox_stalls),
            ("controller_config_commands_total",
             "Configuration commands issued to the fabric.",
             state.config_commands),
            ("controller_bus_writes_total",
             "BUSW instructions driving the shared bus.", state.bus_writes),
        ]
        return [Metric(name, "counter", help_, (((), float(value)),))
                for name, help_, value in scalar]


def collect_metrics(target) -> MetricsSnapshot:
    """One-shot convenience: ``collect_metrics(ring_or_system)``."""
    return MetricsRegistry.of(target).collect()


__all__ = [
    "Metric",
    "MetricsRegistry",
    "MetricsSnapshot",
    "collect_metrics",
]
