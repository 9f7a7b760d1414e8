"""Signal tracing: per-cycle waveform capture from a running fabric.

Debugging a systolic mapping needs the same tool RTL designers use — a
waveform view.  :class:`SignalTrace` hooks a :class:`~repro.core.ring.Ring`
(or :class:`~repro.host.system.RingSystem`) and records selected signals
every cycle:

* ``out``  — a Dnode's output register,
* ``r0..r3`` — a Dnode's register-file entries,
* the shared ``bus`` (the ring records the last driven value, so
  controlled runs capture the controller's ``BUSW`` traffic).

A trace may be *sampled*: ``interval=N`` captures only after every N-th
cycle, and ``start``/``stop`` bound an inclusive cycle window.  A sampled
trace does not force the ring off its compiled tiers —
:meth:`~repro.core.ring.Ring.run` chunk-runs the batch between capture
points, and the samples are bit-identical to an every-cycle trace
decimated to the same schedule (proven by
``tests/core/test_fastpath_equivalence.py``).  Traces attach through the ring's chained-observer interface, so
several traces (or a trace plus a metrics observer) can coexist and
detach independently.

The capture can be rendered as an ASCII timing diagram
(:meth:`SignalTrace.render`) or exported as an IEEE-1364 VCD file
(:func:`write_vcd`) loadable in GTKWave and friends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import word
from repro.core.ring import Ring
from repro.errors import SimulationError


@dataclass(frozen=True)
class Probe:
    """One traced signal."""

    name: str
    layer: int = -1       # -1 for the bus probe
    position: int = 0
    register: Optional[int] = None   # None = the OUT register

    @classmethod
    def out(cls, layer: int, position: int) -> "Probe":
        return cls(f"D{layer}.{position}.out", layer, position)

    @classmethod
    def reg(cls, layer: int, position: int, index: int) -> "Probe":
        return cls(f"D{layer}.{position}.r{index}", layer, position,
                   register=index)

    @classmethod
    def bus(cls) -> "Probe":
        return cls("bus")


class SignalTrace:
    """Records probe values after every captured fabric cycle.

    Args:
        ring: the fabric to observe.
        probes: at least one :class:`Probe`.
        interval: capture after every *interval*-th cycle (post-commit
            cycle index; 1 = every cycle).
        start: first cycle index eligible for capture (None = no bound).
        stop: last cycle index eligible for capture (None = no bound).
    """

    def __init__(self, ring: Ring, probes: List[Probe],
                 interval: int = 1, start: Optional[int] = None,
                 stop: Optional[int] = None):
        if not probes:
            raise SimulationError("trace needs at least one probe")
        self.ring = ring
        self.probes = list(probes)
        self.interval = interval
        self.samples: Dict[str, List[int]] = {p.name: [] for p in probes}
        #: Post-commit cycle index of each captured sample.
        self.sampled_at: List[int] = []
        for probe in probes:
            if probe.layer >= 0:
                ring.dnode(probe.layer, probe.position)  # validate address
        ring.add_observer(self._capture, interval=interval,
                          start=start, stop=stop)

    def detach(self) -> None:
        """Stop recording.

        Removes only this trace's own observer: hooks installed by other
        traces (or any other observer added before or after this one)
        stay attached.
        """
        self.ring.remove_observer(self._capture)

    def _capture(self, ring: Ring) -> None:
        self.sampled_at.append(ring.cycles)
        for probe in self.probes:
            if probe.layer < 0:
                value = ring.last_bus
            else:
                dn = ring.dnode(probe.layer, probe.position)
                value = dn.out if probe.register is None \
                    else dn.regs.read(probe.register)
            self.samples[probe.name].append(value)

    def observe_bus(self, value: int) -> None:
        """Tell the trace what the bus carries.

        Retained for backward compatibility: the ring now records the
        last driven bus value itself (:attr:`~repro.core.ring.Ring.last_bus`),
        so neither systems nor users need to call this — it simply
        forwards to the ring's record.
        """
        self.ring.last_bus = word.check(value, "bus")

    @property
    def cycles(self) -> int:
        """Number of captured samples (== cycles only for interval 1)."""
        return len(next(iter(self.samples.values())))

    def render(self, signed: bool = True, last: Optional[int] = None,
               ) -> str:
        """ASCII timing diagram: one row per signal, one column per sample.

        Columns are labelled with the fabric cycle each sample was
        captured after (for an every-cycle trace on a fresh ring that is
        simply 1, 2, 3, ...).
        """
        if self.cycles == 0:
            raise SimulationError("nothing traced yet")
        names = [p.name for p in self.probes]
        name_w = max(len(n) for n in names)
        count = self.cycles if last is None else min(last, self.cycles)
        start = self.cycles - count
        cell = 7
        header = " " * name_w + " |" + "".join(
            str(cycle).rjust(cell) for cycle in self.sampled_at[start:])
        lines = [header, "-" * len(header)]
        for name in names:
            values = self.samples[name][start:]
            rendered = "".join(
                (str(word.to_signed(v)) if signed else f"{v:04x}")
                .rjust(cell)
                for v in values)
            lines.append(f"{name.ljust(name_w)} |{rendered}")
        return "\n".join(lines)


#: Printable VCD identifier alphabet: '!' (33) .. '~' (126).
_VCD_ID_BASE = 94


def _vcd_identifier(index: int) -> str:
    """Bijective base-94 identifier: '!', ..., '~', '!!', '!"', ...

    Multi-character identifiers keep any number of probes inside the
    printable range the VCD format requires (a single ``chr(33 + i)``
    walks off the end past 93 probes).
    """
    chars: List[str] = []
    index += 1
    while index > 0:
        index -= 1
        chars.append(chr(33 + index % _VCD_ID_BASE))
        index //= _VCD_ID_BASE
    return "".join(reversed(chars))


def write_vcd(trace: SignalTrace, path, timescale: str = "5 ns",
              module: str = "systolic_ring") -> None:
    """Export a trace as an IEEE-1364 VCD file (GTKWave-loadable).

    One VCD time unit per captured sample (the default 5 ns = 200 MHz for
    an every-cycle trace).  Initial values are dumped in a ``$dumpvars``
    section at time 0; afterwards only value *changes* are dumped, per
    the format.
    """
    if trace.cycles == 0:
        raise SimulationError("nothing traced yet")
    identifiers = {
        probe.name: _vcd_identifier(i)
        for i, probe in enumerate(trace.probes)
    }
    lines = [
        "$date reproduction run $end",
        "$version repro systolic-ring tracer $end",
        f"$timescale {timescale} $end",
        f"$scope module {module} $end",
    ]
    for probe in trace.probes:
        safe = probe.name.replace(".", "_")
        lines.append(
            f"$var wire 16 {identifiers[probe.name]} {safe} $end")
    lines += ["$upscope $end", "$enddefinitions $end"]

    previous: Dict[str, int] = {}
    lines.append("#0")
    lines.append("$dumpvars")
    for probe in trace.probes:
        value = trace.samples[probe.name][0]
        lines.append(f"b{value:016b} {identifiers[probe.name]}")
        previous[probe.name] = value
    lines.append("$end")
    for t in range(1, trace.cycles):
        changes = []
        for probe in trace.probes:
            value = trace.samples[probe.name][t]
            if value != previous[probe.name]:
                changes.append(
                    f"b{value:016b} {identifiers[probe.name]}")
                previous[probe.name] = value
        if changes:
            lines.append(f"#{t}")
            lines.extend(changes)
    lines.append(f"#{trace.cycles}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)


def parse_vcd(path) -> Dict[str, List[Tuple[int, int]]]:
    """Minimal VCD reader: signal name -> [(time, value), ...].

    Exists so tests (and users) can verify exported waveforms without an
    external viewer; handles exactly the subset :func:`write_vcd` emits
    (including multi-character identifiers and the ``$dumpvars``
    section, whose initial values are reported as changes at time 0).
    """
    names: Dict[str, str] = {}
    changes: Dict[str, List[Tuple[int, int]]] = {}
    time = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("$var"):
                parts = line.split()
                names[parts[3]] = parts[4]
                changes[parts[4]] = []
            elif line.startswith("#"):
                time = int(line[1:])
            elif line.startswith("b"):
                value_text, ident = line[1:].split()
                changes[names[ident]].append((time, int(value_text, 2)))
    return changes
