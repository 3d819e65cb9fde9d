"""A bounded least-recently-used map with hit and miss counters.

The process's memo caches are instances of :class:`LRU`: megablock
lowerings (:mod:`repro.gpusim.compile`), NP variants
(:mod:`repro.npc.pipeline`) and parsed served kernels
(:mod:`repro.serve.kernels`); so are the kernel server's per-tenant
counters (:mod:`repro.serve.batcher`).  Every lookup and update holds the
instance's one lock, so threads may share a cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, List, Optional, Tuple


class LRU:
    """At most ``capacity`` entries; the least recently used is evicted
    first.  Values must not be None: :meth:`get` returns None for a miss."""

    __slots__ = ("capacity", "hits", "misses", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key``, now the most recent entry, or None;
        counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest
        ones past capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and zero both counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def keys(self) -> List[Hashable]:
        """A snapshot of the keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def items(self) -> List[Tuple[Hashable, Any]]:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)
