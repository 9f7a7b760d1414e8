"""Two levels of compiled-plan caching, both keyed by configuration.

The paper's headline feature is *dynamic* reconfiguration: the RISC
configuration controller rewrites Dnode microinstructions every cycle
(hardware multiplexing) or swaps between a small working set of contexts.
Compiled engines (macro and native kernels, scalar or lane) are pure
functions of the fabric *configuration*, so a kernel
compiled for a configuration stays valid whenever that exact
configuration is restored, on the same ring or on another one.  This
module provides the pieces that exploit it:

* a **stable configuration fingerprint**: every Dnode contributes its
  mode plus the microwords that can actually execute (the global word in
  global mode; LIMIT and the active local slots in local mode), every
  switch contributes its non-zero routes.  Components cache their tuple
  and drop it on their own mutation hook, so assembling the full
  fingerprint is O(components) tuple packing with no re-hashing of
  unchanged parts;
* a bounded :class:`PlanCache` (LRU on an ``OrderedDict``) with
  hit/miss/eviction counters surfaced through
  :mod:`repro.analysis.metrics`.

It is used at two levels, both with constant capacities:

* **per ring** (``Ring.plan_cache``, :data:`RING_CAPACITY` entries):
  native/macro plans *bound* to that ring's state containers from a
  template, and the tiers' refusals, so a switch back to a known
  configuration re-adopts its kernels in one lookup per tier instead
  of binding a template again (50-130 us on a 16-Dnode ring);
* **per process** (:data:`KERNELS`, :data:`KERNEL_CAPACITY` entries):
  ring-free native and macro *templates* (the generated code plus its
  schedule as Dnode indices), and the tiers' refusals, keyed by
  ``(tier, geometry, entry phase, fingerprint)``; a macro kernel reads
  the sequencer counters when it runs, so its key's phase is None.  A
  ring whose own cache misses looks here next and binds a hit to its
  state, so a fresh ring with a configuration the process has compiled
  before pays no code generation and steps no first-time cycle.  A
  batch engine's lane plans bind their templates from here directly.
  The cache holds no reference to any ring or engine.

Neither lookup ever compiles on a miss.  The per-ring cache also
remembers recently *missed* configurations: the first time one appears
the ring interprets its first stepped cycle and compiles nothing for it
(so a never-repeating per-cycle reconfiguration stream pays zero
compiles), but one that misses twice is evidently part of a
multiplexing working set and its macro kernel is compiled immediately.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.errors import ConfigurationError

#: Number of bound plans and refusals a ring retains (``Ring.plan_cache``).
RING_CAPACITY = 8

#: Number of native/macro templates and native refusals the process
#: retains across rings (:data:`KERNELS`).
KERNEL_CAPACITY = 64

_MISSING = object()


class PlanCache:
    """Bounded LRU mapping configuration fingerprints to compiled plans."""

    __slots__ = ("capacity", "hits", "misses", "evictions",
                 "_entries", "_missed", "_missed_capacity")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"plan cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # Fingerprints that have missed at least once (bounded FIFO).
        self._missed: "OrderedDict[Hashable, bool]" = OrderedDict()
        self._missed_capacity = max(4 * capacity, 16)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self):
        """Cache keys in LRU order (oldest first); test/debug helper."""
        return list(self._entries.keys())

    def get(self, key: Hashable, count_miss: bool = True) -> Optional[Any]:
        """Look *key* up, counting a hit (and refreshing LRU) or a miss.

        With *count_miss* False a miss leaves no trace: a hit-only
        probe for callers that fall back to a counted lookup later.
        """
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            if count_miss:
                self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def note_miss(self, key: Hashable) -> bool:
        """Record that *key* missed; True when it had missed before.

        A True return means the configuration is recurring (part of a
        multiplexing working set) and is worth compiling eagerly instead
        of waiting out the stepped-cycle deferral.  A first miss counts
        in :attr:`misses`; a repeat is counted by the lookup that
        compiles it.
        """
        if key in self._missed:
            self._missed.move_to_end(key)
            return True
        self.misses += 1
        self._missed[key] = True
        if len(self._missed) > self._missed_capacity:
            self._missed.popitem(last=False)
        return False

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU one past capacity.

        A stored key is no longer "missed": its pending-miss record is
        purged, so if the entry is later evicted the configuration starts
        over with the deferred compile policy instead of inheriting a
        stale second-miss promotion.
        """
        self._missed.pop(key, None)
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: Hashable) -> None:
        """Drop one entry if present (no eviction accounting).

        The missed-fingerprint record goes with it: a discarded plan's
        configuration must re-earn eager compilation, not trigger it
        spuriously on its next appearance.
        """
        self._entries.pop(key, None)
        self._missed.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and the missed-fingerprint memory.

        The hit/miss/eviction counters are preserved — they are lifetime
        statistics, not content."""
        self._entries.clear()
        self._missed.clear()

    def __repr__(self) -> str:
        return (
            f"PlanCache(capacity={self.capacity}, size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


#: The process-wide template cache (see the module docstring).
KERNELS = PlanCache(KERNEL_CAPACITY)


__all__ = ["PlanCache", "RING_CAPACITY", "KERNELS", "KERNEL_CAPACITY"]
