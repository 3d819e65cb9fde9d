"""Disk-backed, content-addressed cache tier shared across processes.

The in-memory caches — the compile LRU (:mod:`repro.gpusim.compile`) and
the digest×NpConfig variant cache (:mod:`repro.npc.pipeline`) — die with
their process, so every bench run, CI job, server and experiment run
pays the full NP-transform + lowering cost from scratch.  This module is
the persistent tier underneath them: entries are addressed by the sha256
content digests those caches already key on, so two processes that would
hit the same in-memory entry hit the same file.

Design constraints, in order:

- **Concurrent writers are safe.**  Every write goes to a temp file in the
  destination directory and lands with ``os.replace`` (atomic on POSIX), so
  a reader can never observe a half-written entry and two writers racing on
  one key leave one intact winner.
- **Corruption is a miss, never an error.**  Unreadable JSON, a version
  field from another release, a key mismatch (hash collision or truncated
  write), or a blob that fails to unpickle all count on the ``errors``
  counter and fall through to a recompile; nothing propagates to the
  caller.
- **Observable.**  Per-namespace :class:`DiskCacheStats` are exposed via
  :func:`disk_cache_stats` (and re-exported on ``compile_cache_stats()`` /
  ``variant_cache_stats()``); every hit/miss/store/evict also lands in a
  bounded event log that :mod:`repro.prof.timeline` exports as Chrome-trace
  instants.
- **Bounded.**  Each namespace directory is capped
  (``GPUSIM_CACHE_MAX_ENTRIES``, default 4096 entries); eviction removes
  oldest-``mtime`` entries first, and hits re-stamp mtime so the policy is
  LRU across processes.

Activation: set ``GPUSIM_CACHE_DIR`` or call :func:`configure` (which
``launch(..., cache_dir=...)`` does for you).  When neither names a
directory the tier is inert and every accessor returns zeros.

Entries are JSON envelopes carrying human-readable key metadata plus an
optional base64-pickled payload (``blob``).  Pickled payloads are trusted:
the cache directory is local, developer-owned state.
"""

from __future__ import annotations

import base64
import collections
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional

#: Entry-format version: bump on any incompatible change to the envelope or
#: payload schema.  Entries from another version are misses, never errors.
FORMAT_VERSION = 1

#: Default per-namespace entry cap (override with GPUSIM_CACHE_MAX_ENTRIES).
DEFAULT_MAX_ENTRIES = 4096

#: Known namespaces (subdirectories of the cache root).  "variant" holds
#: NP-transformed kernel ASTs, "autotune" finished search outcomes, and
#: "kernel" the serve layer's parsed-source ASTs (keyed by raw-source
#: sha256, so a restarted server process skips re-parsing hot kernels).
NAMESPACES = ("variant", "autotune", "kernel")


@dataclass
class DiskCacheStats:
    """Counters for one namespace (or the whole tier when aggregated)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Corrupt / version-mismatched / unpicklable entries encountered; each
    #: also counted as a miss (the caller recompiles and overwrites).
    errors: int = 0
    #: On-disk entry count at stats() time (0 when the tier is inactive).
    entries: int = 0

    def add(self, other: "DiskCacheStats") -> "DiskCacheStats":
        return DiskCacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            stores=self.stores + other.stores,
            evictions=self.evictions + other.evictions,
            errors=self.errors + other.errors,
            entries=self.entries + other.entries,
        )


@dataclass(frozen=True)
class CacheEvent:
    """One disk-tier access, for the Chrome-trace "disk cache" row."""

    ts: float            # time.monotonic()
    kind: str            # "hit" | "miss" | "store" | "evict" | "error"
    namespace: str
    key: str             # first 12 hex chars of the entry hash
    detail: str = ""


#: Bounded process-wide event log (newest last); see :func:`cache_events`.
_EVENTS: Deque[CacheEvent] = collections.deque(maxlen=512)


def cache_events() -> List[CacheEvent]:
    """Snapshot of the recent disk-cache events (oldest first)."""
    return list(_EVENTS)


def clear_cache_events() -> None:
    _EVENTS.clear()


def canonical_key(key_obj: dict) -> str:
    """Canonical JSON serialization of a key object (dict of JSON-able
    values): key equality is byte equality of this string."""
    return json.dumps(key_obj, sort_keys=True, separators=(",", ":"))


def key_hash(key_obj: dict) -> str:
    """Content address of a key object: sha256 of its canonical JSON."""
    return hashlib.sha256(canonical_key(key_obj).encode()).hexdigest()


def pack_blob(obj) -> str:
    """Pickle + base64 an object for embedding in a JSON envelope."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode(
        "ascii"
    )


def unpack_blob(blob: str):
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


class DiskCache:
    """One cache root: namespace subdirectories of atomic JSON entries.

    Safe to share across forked processes — there is no in-memory index to
    go stale, only per-process counters (which reset on fork so a child
    never reports its parent's hit history as its own, matching the
    in-memory caches' pid-tracked accounting).
    """

    def __init__(self, root: os.PathLike, max_entries: Optional[int] = None):
        self.root = Path(root)
        if max_entries is None:
            raw = os.environ.get("GPUSIM_CACHE_MAX_ENTRIES")
            max_entries = int(raw) if raw else DEFAULT_MAX_ENTRIES
        self.max_entries = max(int(max_entries), 1)
        self._stats: Dict[str, DiskCacheStats] = {}
        self._pid = os.getpid()

    # -- accounting ----------------------------------------------------------

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._stats = {}

    def _ns_stats(self, namespace: str) -> DiskCacheStats:
        self._check_fork()
        if namespace not in self._stats:
            self._stats[namespace] = DiskCacheStats()
        return self._stats[namespace]

    def _event(self, kind: str, namespace: str, khash: str, detail: str = "") -> None:
        _EVENTS.append(
            CacheEvent(
                ts=time.monotonic(),
                kind=kind,
                namespace=namespace,
                key=khash[:12],
                detail=detail,
            )
        )

    def stats(self, namespace: Optional[str] = None) -> DiskCacheStats:
        """Counters for ``namespace``, or the sum over all namespaces."""
        self._check_fork()
        names = [namespace] if namespace is not None else list(NAMESPACES)
        total = DiskCacheStats()
        for ns in names:
            s = self._stats.get(ns, DiskCacheStats())
            s = DiskCacheStats(
                hits=s.hits, misses=s.misses, stores=s.stores,
                evictions=s.evictions, errors=s.errors,
                entries=self._count_entries(ns),
            )
            total = total.add(s)
        return total

    def _count_entries(self, namespace: str) -> int:
        try:
            return sum(
                1 for p in (self.root / namespace).iterdir()
                if p.suffix == ".json"
            )
        except OSError:
            return 0

    # -- storage -------------------------------------------------------------

    def _path(self, namespace: str, khash: str) -> Path:
        return self.root / namespace / f"{khash}.json"

    def get(self, namespace: str, key_obj: dict) -> Optional[dict]:
        """The entry envelope for ``key_obj``, or None (miss).

        Corrupt, version-mismatched, and key-mismatched files are misses
        (counted on ``errors`` too); a hit re-stamps the file's mtime so
        cross-process eviction stays LRU.
        """
        stats = self._ns_stats(namespace)
        khash = key_hash(key_obj)
        path = self._path(namespace, khash)
        try:
            raw = path.read_text()
        except OSError:
            stats.misses += 1
            self._event("miss", namespace, khash)
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            if entry.get("version") != FORMAT_VERSION:
                raise ValueError(f"format version {entry.get('version')!r}")
            if entry.get("key") != key_obj:
                raise ValueError("key mismatch")
        except (ValueError, TypeError) as exc:
            stats.errors += 1
            stats.misses += 1
            self._event("error", namespace, khash, detail=str(exc))
            return None
        stats.hits += 1
        self._event("hit", namespace, khash)
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    def put(self, namespace: str, key_obj: dict, payload: dict) -> bool:
        """Store ``payload`` under ``key_obj`` (atomic; evicts past the cap).

        Returns False (and stays silent) when the filesystem refuses —
        a read-only or full cache dir must never break compilation.
        """
        stats = self._ns_stats(namespace)
        khash = key_hash(key_obj)
        entry = {"version": FORMAT_VERSION, "namespace": namespace,
                 "key": key_obj, **payload}
        directory = self.root / namespace
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{khash[:12]}.", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(entry, fh)
                os.replace(tmp, self._path(namespace, khash))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, TypeError, ValueError) as exc:
            stats.errors += 1
            self._event("error", namespace, khash, detail=str(exc))
            return False
        stats.stores += 1
        self._event("store", namespace, khash)
        self._evict(namespace, stats)
        return True

    def get_blob(self, namespace: str, key_obj: dict):
        """Unpickled payload of an entry, or None; unpickle failure is an
        error-counted miss like any other corruption."""
        entry = self.get(namespace, key_obj)
        if entry is None:
            return None
        stats = self._ns_stats(namespace)
        try:
            return unpack_blob(entry["blob"])
        except Exception as exc:
            # The json envelope was valid but the pickled payload was not:
            # reclassify the hit as an error-counted miss.
            stats.hits -= 1
            stats.errors += 1
            stats.misses += 1
            self._event("error", namespace, key_hash(key_obj), detail=str(exc))
            return None

    def put_blob(self, namespace: str, key_obj: dict, obj,
                 extra: Optional[dict] = None) -> bool:
        payload = dict(extra or {})
        payload["blob"] = pack_blob(obj)
        return self.put(namespace, key_obj, payload)

    def _evict(self, namespace: str, stats: DiskCacheStats) -> None:
        """Drop oldest-mtime entries past ``max_entries`` (best-effort:
        a concurrent process may have removed a file already)."""
        directory = self.root / namespace
        try:
            files = [p for p in directory.iterdir() if p.suffix == ".json"]
        except OSError:
            return
        if len(files) <= self.max_entries:
            return

        def mtime(p: Path) -> float:
            try:
                return p.stat().st_mtime
            except OSError:
                return 0.0

        files.sort(key=lambda p: (mtime(p), p.name))
        for victim in files[: len(files) - self.max_entries]:
            try:
                victim.unlink()
            except OSError:
                continue
            stats.evictions += 1
            self._event("evict", namespace, victim.stem)


# -- process-wide activation ------------------------------------------------

#: tri-state: "unset" (defer to GPUSIM_CACHE_DIR), None (explicitly off),
#: or the active DiskCache.
_EXPLICIT = "unset"
#: env-resolved instances, one per path, so counters accumulate per process.
_ENV_CACHES: Dict[str, DiskCache] = {}
_ENV_PID = os.getpid()


def configure(path: Optional[os.PathLike]) -> Optional[DiskCache]:
    """Activate (or, with None, deactivate) the disk tier for this process.

    Overrides ``GPUSIM_CACHE_DIR``.  Idempotent for an unchanged path, so
    ``launch(..., cache_dir=...)`` can call it per launch without resetting
    counters.
    """
    global _EXPLICIT
    if path is None:
        _EXPLICIT = None
        return None
    resolved = str(Path(path))
    if (
        isinstance(_EXPLICIT, DiskCache)
        and str(_EXPLICIT.root) == resolved
        and _EXPLICIT._pid == os.getpid()
    ):
        return _EXPLICIT
    _EXPLICIT = DiskCache(resolved)
    return _EXPLICIT


def reset_configuration() -> None:
    """Back to env-driven activation (tests)."""
    global _EXPLICIT
    _EXPLICIT = "unset"
    _ENV_CACHES.clear()
    clear_cache_events()


def get_disk_cache() -> Optional[DiskCache]:
    """The active disk tier, or None when inactive.

    :func:`configure` wins; otherwise ``GPUSIM_CACHE_DIR`` names the root
    (re-read every call, so tests and late ``os.environ`` edits work).
    Forked children re-resolve so their counters start at zero.
    """
    global _ENV_PID
    if _EXPLICIT is None:
        return None
    if isinstance(_EXPLICIT, DiskCache):
        return _EXPLICIT
    path = os.environ.get("GPUSIM_CACHE_DIR")
    if not path:
        return None
    if os.getpid() != _ENV_PID:
        _ENV_CACHES.clear()
        _ENV_PID = os.getpid()
    resolved = str(Path(path))
    cache = _ENV_CACHES.get(resolved)
    if cache is None:
        cache = DiskCache(resolved)
        _ENV_CACHES[resolved] = cache
    return cache


def disk_cache_stats(namespace: Optional[str] = None) -> DiskCacheStats:
    """Counters of the active tier (zeros when inactive), one namespace or
    the aggregate."""
    cache = get_disk_cache()
    if cache is None:
        return DiskCacheStats()
    return cache.stats(namespace)
