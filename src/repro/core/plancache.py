"""Configuration-fingerprinted LRU cache of compiled execution plans.

The paper's headline feature is *dynamic* reconfiguration: the RISC
configuration controller rewrites Dnode microinstructions every cycle
(hardware multiplexing) or swaps between a small working set of contexts.
Compiled engines (fast-path plans, batch kernel sets, macro/native plans)
are pure functions of the fabric *configuration* — they close over the
persistent state containers (register lists, OUT latches, FIFO deques,
pipeline buffers) and read the runtime values through them — so a plan
compiled for a configuration stays valid whenever that exact
configuration is restored.  This module provides the two pieces that
exploit it:

* a **stable configuration fingerprint**: every Dnode contributes its
  mode plus the microwords that can actually execute (the global word in
  global mode; LIMIT and the active local slots in local mode), every
  switch contributes its non-zero routes.  Components cache their tuple
  and drop it on their own mutation hook, so assembling the full
  fingerprint is O(components) tuple packing with no re-hashing of
  unchanged parts;
* a bounded :class:`PlanCache` (LRU on an ``OrderedDict``) keyed by those
  fingerprints, with hit/miss/eviction counters surfaced through
  :mod:`repro.analysis.metrics`.

The cache also remembers recently *missed* fingerprints: the first time a
configuration appears the ring keeps its deferred compile-after-one-
stable-cycle policy (so a never-repeating per-cycle reconfiguration
stream still pays zero compiles), but a fingerprint that misses twice is
evidently part of a multiplexing working set and is compiled immediately
— from then on every switch back to it re-adopts the cached plan with
zero interpreted cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.errors import ConfigurationError

#: Default number of compiled plans a ring retains (``Ring(plan_cache=)``).
DEFAULT_CAPACITY = 8

_MISSING = object()


class PlanCache:
    """Bounded LRU mapping configuration fingerprints to compiled plans.

    Capacity 0 disables the cache entirely: lookups miss without counting
    and stores are dropped, restoring the pre-cache recompile-on-every-
    switch behaviour (the benchmark baseline).
    """

    __slots__ = ("capacity", "hits", "misses", "evictions",
                 "_entries", "_missed", "_missed_capacity")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise ConfigurationError(
                f"plan cache capacity must be >= 0, got {capacity}"
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
        if not self.capacity:
            return None
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
        of waiting out the stable-cycle deferral.
        """
        if not self.capacity:
            return False
        if key in self._missed:
            self._missed.move_to_end(key)
            return True
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
        if not self.capacity:
            return
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


__all__ = ["PlanCache", "DEFAULT_CAPACITY"]
