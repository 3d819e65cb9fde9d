"""Source-digest kernel dedupe: memory LRU over the persistent disk tier.

The server parses each distinct kernel source exactly once per process:
requests are keyed by the sha256 of the *raw* source text, hitting a
bounded in-memory LRU of parsed :class:`~repro.minicuda.nodes.Kernel`
ASTs.  When the persistent cache tier is active
(:func:`repro.gpusim.diskcache.get_disk_cache`), misses fall through to
the ``"kernel"`` namespace — a pickled AST keyed by the same digest — so
a restarted server skips re-parsing sources its predecessor served.

Lowering is deduplicated one layer down by
:func:`repro.gpusim.megablock.compile_megablock`'s own digest-keyed cache,
so this module only has to make parsing once-per-source.
"""

from __future__ import annotations

import collections
import threading
from typing import Optional

from ..gpusim import diskcache
from ..minicuda.nodes import Kernel
from ..minicuda.parser import parse_kernel

_DEFAULT_CAPACITY = 128


class KernelCache:
    """Thread-safe source-digest → parsed-kernel cache (LRU + disk tier)."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        self.capacity = max(int(capacity), 1)
        self._lru: "collections.OrderedDict[str, Kernel]" = collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def get(self, digest: str, source: str) -> Kernel:
        """Parsed kernel for ``source`` (whose sha256 is ``digest``)."""
        with self._lock:
            kernel = self._lru.get(digest)
            if kernel is not None:
                self._lru.move_to_end(digest)
                self.hits += 1
                return kernel
            self.misses += 1

        # Parse (or disk-load) outside the lock: concurrent first requests
        # for the same source may both parse, but the ASTs are equivalent
        # and last-writer-wins is harmless.
        kernel = self._from_disk(digest)
        if kernel is None:
            kernel = parse_kernel(source)
            self._to_disk(digest, kernel)

        with self._lock:
            self._lru[digest] = kernel
            self._lru.move_to_end(digest)
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
        return kernel

    def _from_disk(self, digest: str) -> Optional[Kernel]:
        cache = diskcache.get_disk_cache()
        if cache is None:
            return None
        kernel = cache.get_blob("kernel", {"source_sha256": digest})
        if isinstance(kernel, Kernel):
            with self._lock:
                self.disk_hits += 1
            return kernel
        return None

    def _to_disk(self, digest: str, kernel: Kernel) -> None:
        cache = diskcache.get_disk_cache()
        if cache is not None:
            cache.put_blob("kernel", {"source_sha256": digest}, kernel)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._lru),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
            }
