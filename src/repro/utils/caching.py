"""Byte-budgeted LRU caching for long-lived processes.

Solver sessions (:mod:`repro.service.session`) keep expensive derived
state warm across requests — sampled RR collections, Monte-Carlo
evaluation bundles, live dynamic maximizers — and the service engine
bounds its registry of sessions with the same cache. A plain ``dict``
cache is a slow leak in a process that serves traffic for hours, and
:func:`functools.lru_cache` bounds
*entries*, not *bytes*, which is the wrong unit when one entry is a
30k-sample RR collection and the next a two-float tuple.

:class:`BoundedCache` is an LRU map whose eviction unit is an estimated
byte size (:func:`estimate_nbytes`), with hit/miss/eviction counters
(:class:`CacheStats`) that the service surfaces in responses.

Two hooks cover the awkward cases:

* ``sizeof`` — values report their own footprint via a ``memory_bytes()``
  method (e.g. :class:`repro.problems.influence.InfluenceObjective`) or
  fall back to a recursive estimate over arrays and containers;
* ``anchor`` / ``validate`` — identity-pinned entries (session caches
  key on ``id()`` of a graph) re-check their anchor object on every
  hit, so a recycled id can never serve a stale value.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Optional

import numpy as np

__all__ = [
    "BoundedCache",
    "CacheStats",
    "estimate_nbytes",
]


def estimate_nbytes(value: Any, _seen: Optional[set[int]] = None) -> int:
    """Best-effort resident size of ``value`` in bytes.

    NumPy arrays report ``nbytes``; objects exposing ``memory_bytes()``
    are trusted; containers recurse (cycle-safe); everything else falls
    back to :func:`sys.getsizeof`. The estimate is for cache accounting,
    not profiling — it only needs to rank entries and track totals to
    the right order of magnitude.
    """
    if _seen is None:
        _seen = set()
    obj_id = id(value)
    if obj_id in _seen:
        return 0
    _seen.add(obj_id)
    if isinstance(value, np.memmap):
        # Memory-mapped arrays are backed by the file system, not the
        # process heap: the pages are reclaimable at any time, so for
        # budget accounting they cost nothing while cold. Charging the
        # full file size would make any memmap instantly evict a cache.
        return 0
    if isinstance(value, np.ndarray):
        if value.base is not None and isinstance(value.base, np.memmap):
            return 0
        return int(value.nbytes)
    memory_bytes = getattr(value, "memory_bytes", None)
    if callable(memory_bytes):
        return int(memory_bytes())
    if isinstance(value, (str, bytes, bytearray)):
        return int(sys.getsizeof(value))
    if isinstance(value, dict):
        return int(sys.getsizeof(value)) + sum(
            estimate_nbytes(k, _seen) + estimate_nbytes(v, _seen)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return int(sys.getsizeof(value)) + sum(
            estimate_nbytes(item, _seen) for item in value
        )
    slots = getattr(value, "__slots__", None)
    if slots:
        return int(sys.getsizeof(value)) + sum(
            estimate_nbytes(getattr(value, name), _seen)
            for name in slots
            if hasattr(value, name)
        )
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return int(sys.getsizeof(value)) + estimate_nbytes(attrs, _seen)
    return int(sys.getsizeof(value))


@dataclass
class CacheStats:
    """Counters for one :class:`BoundedCache` (mutated in place)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0  # values larger than the whole budget, never stored
    invalidations: int = 0  # hits discarded by a failed validate()
    current_bytes: int = 0
    budget_bytes: int = 0
    entries: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-safe snapshot (service responses embed this)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "invalidations": self.invalidations,
            "current_bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
            "entries": self.entries,
            "hit_ratio": round(self.hit_ratio, 6),
        }


@dataclass
class _Entry:
    value: Any
    nbytes: int
    anchor: Any = None  # optional identity pin checked by validate hooks


class BoundedCache:
    """LRU cache evicting by estimated byte footprint.

    Invariant: ``stats.current_bytes <= budget_bytes`` after every
    operation. A value whose own estimate exceeds the entire budget is
    *not* stored (counted in ``stats.rejected``) — the caller still gets
    it back from :meth:`get_or_create`, it just will not be warm next
    time.
    """

    def __init__(
        self,
        budget_bytes: int,
        *,
        sizeof: Callable[[Any], int] = estimate_nbytes,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        self._budget = int(budget_bytes)
        self._sizeof = sizeof
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self.stats = CacheStats(budget_bytes=self._budget)

    # -- mapping-ish surface ---------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries  # no stats side effect

    def keys(self) -> Iterator[Hashable]:
        return iter(list(self._entries))

    @property
    def budget_bytes(self) -> int:
        return self._budget

    @property
    def current_bytes(self) -> int:
        return self.stats.current_bytes

    # -- core operations ---------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def put(self, key: Hashable, value: Any, *, anchor: Any = None) -> None:
        """Insert/replace ``key``; evicts LRU entries to stay in budget."""
        nbytes = int(self._sizeof(value))
        old = self._entries.pop(key, None)
        if old is not None:
            self.stats.current_bytes -= old.nbytes
        if nbytes > self._budget:
            self.stats.rejected += 1
            self.stats.entries = len(self._entries)
            return
        while (
            self._entries
            and self.stats.current_bytes + nbytes > self._budget
        ):
            _, evicted = self._entries.popitem(last=False)
            self.stats.current_bytes -= evicted.nbytes
            self.stats.evictions += 1
        self._entries[key] = _Entry(value, nbytes, anchor)
        self.stats.current_bytes += nbytes
        self.stats.entries = len(self._entries)

    def get_or_create(
        self,
        key: Hashable,
        factory: Callable[[], Any],
        *,
        validate: Optional[Callable[[Any], bool]] = None,
        anchor: Any = None,
    ) -> Any:
        """Return the cached value, building and storing it on a miss.

        ``validate`` re-checks a hit before trusting it (version
        counters, config pins); a failed check counts as an invalidation
        and falls through to the factory. ``anchor`` pins an auxiliary
        object alongside the value (e.g. the graph whose ``id()`` is
        part of the key): it is kept alive by the entry — closing the
        recycled-``id()`` hole — checked *by identity* on every hit, and
        excluded from the entry's byte estimate (anchors are shared, not
        cache-owned).
        """
        entry = self._entries.get(key)
        if entry is not None:
            anchored = anchor is None or entry.anchor is anchor
            if anchored and (validate is None or validate(entry.value)):
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry.value
            self._entries.pop(key)
            self.stats.current_bytes -= entry.nbytes
            self.stats.invalidations += 1
            self.stats.entries = len(self._entries)
        self.stats.misses += 1
        value = factory()
        self.put(key, value, anchor=anchor)
        return value

    def reaccount(self, key: Hashable) -> bool:
        """Re-estimate ``key``'s byte footprint after in-place mutation.

        Repairing a cached value (e.g. an influence objective whose RR
        collection was spliced) changes its resident size without going
        through :meth:`put`, which would silently corrupt the byte
        accounting. This re-runs the size estimator, adjusts the total,
        and restores the budget invariant: other entries are evicted LRU
        while over budget, and if the entry alone now exceeds the whole
        budget it is dropped (counted in ``stats.rejected``, mirroring
        :meth:`put`). Returns ``True`` iff the entry is still cached.
        Unknown keys return ``False`` without touching the stats.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        nbytes = int(self._sizeof(entry.value))
        self.stats.current_bytes += nbytes - entry.nbytes
        entry.nbytes = nbytes
        if nbytes > self._budget:
            self._entries.pop(key)
            self.stats.current_bytes -= nbytes
            self.stats.rejected += 1
            self.stats.entries = len(self._entries)
            return False
        while self.stats.current_bytes > self._budget:
            victim_key = next(
                k for k in self._entries if k != key
            )
            victim = self._entries.pop(victim_key)
            self.stats.current_bytes -= victim.nbytes
            self.stats.evictions += 1
        self.stats.entries = len(self._entries)
        return True

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Read without touching recency or hit/miss counters."""
        entry = self._entries.get(key)
        return default if entry is None else entry.value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        entry = self._entries.pop(key, None)
        if entry is None:
            return default
        self.stats.current_bytes -= entry.nbytes
        self.stats.entries = len(self._entries)
        return entry.value

    def clear(self) -> None:
        self._entries.clear()
        self.stats.current_bytes = 0
        self.stats.entries = 0
