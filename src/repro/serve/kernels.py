"""Source-digest kernel dedupe: a bounded in-memory LRU of parsed kernels.

The server parses each distinct kernel source exactly once per process:
requests are keyed by the sha256 of the *raw* source text, hitting a
locked :class:`~repro.lru.LRU` of up to 128 parsed
:class:`~repro.minicuda.nodes.Kernel` ASTs.

Lowering is deduplicated one layer down by
:func:`repro.gpusim.megablock.compile_megablock`'s own digest-keyed cache,
so this module only has to make parsing once-per-source.
"""

from __future__ import annotations

from ..lru import LRU
from ..minicuda.nodes import Kernel
from ..minicuda.parser import parse_kernel

#: Parsed kernels a cache keeps.
CAPACITY = 128


class KernelCache:
    """Thread-safe source-digest → parsed-kernel LRU cache."""

    def __init__(self) -> None:
        self._lru = LRU(CAPACITY)

    def get(self, digest: str, source: str) -> Kernel:
        """Parsed kernel for ``source`` (whose sha256 is ``digest``)."""
        kernel = self._lru.get(digest)
        if kernel is None:
            # Parsed outside the lock: concurrent first requests for the
            # same source may both parse, but the ASTs are equivalent and
            # last-writer-wins is harmless.
            kernel = parse_kernel(source)
            self._lru.put(digest, kernel)
        return kernel

    def snapshot(self) -> dict:
        return {
            "entries": len(self._lru),
            "capacity": CAPACITY,
            "hits": self._lru.hits,
            "misses": self._lru.misses,
        }
