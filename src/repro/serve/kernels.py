"""Source-digest kernel dedupe: a bounded in-memory LRU of parsed kernels.

The server parses each distinct kernel source exactly once per process:
requests are keyed by the sha256 of the *raw* source text, hitting a
bounded in-memory LRU of parsed :class:`~repro.minicuda.nodes.Kernel`
ASTs.

Lowering is deduplicated one layer down by
:func:`repro.gpusim.megablock.compile_megablock`'s own digest-keyed cache,
so this module only has to make parsing once-per-source.
"""

from __future__ import annotations

import collections
import threading

from ..minicuda.nodes import Kernel
from ..minicuda.parser import parse_kernel

_DEFAULT_CAPACITY = 128


class KernelCache:
    """Thread-safe source-digest → parsed-kernel LRU cache."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        self.capacity = max(int(capacity), 1)
        self._lru: "collections.OrderedDict[str, Kernel]" = collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, digest: str, source: str) -> Kernel:
        """Parsed kernel for ``source`` (whose sha256 is ``digest``)."""
        with self._lock:
            kernel = self._lru.get(digest)
            if kernel is not None:
                self._lru.move_to_end(digest)
                self.hits += 1
                return kernel
            self.misses += 1

        # Parse outside the lock: concurrent first requests for the same
        # source may both parse, but the ASTs are equivalent and
        # last-writer-wins is harmless.
        kernel = parse_kernel(source)

        with self._lock:
            self._lru[digest] = kernel
            self._lru.move_to_end(digest)
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
        return kernel

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._lru),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }
