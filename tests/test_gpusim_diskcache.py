"""Persistent cache tier tests: atomicity, corruption, eviction, rehydration."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.gpusim.diskcache import (
    DEFAULT_MAX_ENTRIES,
    FORMAT_VERSION,
    DiskCache,
    DiskCacheStats,
    cache_events,
    clear_cache_events,
    configure,
    disk_cache_stats,
    get_disk_cache,
    key_hash,
    reset_configuration,
)
from repro.gpusim.launch import launch
from repro.minicuda.parser import parse_kernel
from repro.minicuda.pretty import emit_kernel
from repro.npc.config import NpConfig
from repro.npc.pipeline import clear_variant_cache, compile_np, variant_cache_stats

KEY_A = {"kind": "test", "digest": "a" * 64}
KEY_B = {"kind": "test", "digest": "b" * 64}

NP_SRC = """
__global__ void saxpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    #pragma np parallel for reduction(+:acc)
    for (int j = 0; j < 8; j++) {
        acc += x[(i * 8 + j) % n] * a;
    }
    y[i] = acc;
}
"""


@pytest.fixture(autouse=True)
def _fresh_tier(monkeypatch):
    """Every test starts with an inactive tier and clean event log."""
    monkeypatch.delenv("GPUSIM_CACHE_DIR", raising=False)
    reset_configuration()
    yield
    reset_configuration()


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("variant", KEY_A) is None
        assert cache.put("variant", KEY_A, {"note": "hello"})
        entry = cache.get("variant", KEY_A)
        assert entry["note"] == "hello"
        assert entry["version"] == FORMAT_VERSION
        assert entry["key"] == KEY_A
        stats = cache.stats("variant")
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.entries == 1

    def test_blob_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        payload = {"arr": np.arange(5), "n": 3}
        cache.put_blob("variant", KEY_A, payload, extra={"label": "x"})
        out = cache.get_blob("variant", KEY_A)
        np.testing.assert_array_equal(out["arr"], np.arange(5))
        assert out["n"] == 3
        assert cache.get("variant", KEY_A)["label"] == "x"

    def test_no_temp_files_left(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(5):
            cache.put("variant", {"i": i}, {"v": i})
        leftovers = [p for p in (tmp_path / "variant").iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []

    def test_namespaces_are_disjoint(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("variant", KEY_A, {"v": 1})
        assert cache.get("autotune", KEY_A) is None
        cache.put("autotune", KEY_A, {"v": 2})
        assert cache.get("variant", KEY_A)["v"] == 1
        assert cache.get("autotune", KEY_A)["v"] == 2


class TestCorruption:
    """Every flavor of bad entry is an error-counted miss, never a raise."""

    def _entry_path(self, cache, key):
        return cache._path("variant", key_hash(key))

    def test_unparseable_json(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("variant", KEY_A, {"v": 1})
        self._entry_path(cache, KEY_A).write_text("{not json")
        assert cache.get("variant", KEY_A) is None
        stats = cache.stats("variant")
        assert stats.errors == 1 and stats.misses == 1

    def test_version_mismatch(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("variant", KEY_A, {"v": 1})
        path = self._entry_path(cache, KEY_A)
        entry = json.loads(path.read_text())
        entry["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get("variant", KEY_A) is None
        assert cache.stats("variant").errors == 1

    def test_key_mismatch(self, tmp_path):
        """A file renamed onto another key's address (or a hash collision)
        is rejected by the embedded key, not trusted by filename."""
        cache = DiskCache(tmp_path)
        cache.put("variant", KEY_A, {"v": 1})
        os.replace(
            self._entry_path(cache, KEY_A), self._entry_path(cache, KEY_B)
        )
        assert cache.get("variant", KEY_B) is None
        assert cache.stats("variant").errors == 1

    def test_bad_blob_is_error_counted_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("variant", KEY_A, {"blob": "!!!not-base64-pickle!!!"})
        assert cache.get_blob("variant", KEY_A) is None
        stats = cache.stats("variant")
        assert stats.errors == 1 and stats.misses == 1 and stats.hits == 0

    def test_unwritable_root_never_raises(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("")
        cache = DiskCache(blocked / "sub")
        assert cache.put("variant", KEY_A, {"v": 1}) is False
        assert cache.stats("variant").errors == 1
        assert cache.get("variant", KEY_A) is None


class TestEviction:
    def _stamp(self, cache, key, when):
        os.utime(cache._path("variant", key_hash(key)), (when, when))

    def test_oldest_mtime_evicted_past_cap(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        keys = [{"i": i} for i in range(3)]
        for t, key in enumerate(keys[:2]):
            cache.put("variant", key, {"v": 1})
            self._stamp(cache, key, 1000.0 + t)
        cache.put("variant", keys[2], {"v": 1})
        stats = cache.stats("variant")
        assert stats.evictions == 1
        assert stats.entries == 2
        assert cache.get("variant", keys[0]) is None   # oldest gone
        assert cache.get("variant", keys[1]) is not None
        assert cache.get("variant", keys[2]) is not None

    def test_hit_restamps_mtime_for_cross_process_lru(self, tmp_path):
        """A get() refreshes the entry's position in the eviction order."""
        cache = DiskCache(tmp_path, max_entries=2)
        keys = [{"i": i} for i in range(3)]
        for t, key in enumerate(keys[:2]):
            cache.put("variant", key, {"v": 1})
            self._stamp(cache, key, 1000.0 + t)
        assert cache.get("variant", keys[0]) is not None  # re-stamps now()
        cache.put("variant", keys[2], {"v": 1})
        assert cache.get("variant", keys[0]) is not None  # survived
        assert cache.get("variant", keys[1]) is None      # now the oldest

    def test_default_cap_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPUSIM_CACHE_MAX_ENTRIES", "7")
        assert DiskCache(tmp_path).max_entries == 7
        monkeypatch.delenv("GPUSIM_CACHE_MAX_ENTRIES")
        assert DiskCache(tmp_path).max_entries == DEFAULT_MAX_ENTRIES


class TestActivation:
    def test_inactive_by_default(self):
        assert get_disk_cache() is None
        assert disk_cache_stats() == DiskCacheStats()

    def test_env_activation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPUSIM_CACHE_DIR", str(tmp_path))
        cache = get_disk_cache()
        assert cache is not None and cache.root == tmp_path
        # Same instance per process, so counters accumulate.
        assert get_disk_cache() is cache

    def test_configure_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPUSIM_CACHE_DIR", str(tmp_path / "env"))
        explicit = configure(tmp_path / "explicit")
        assert get_disk_cache() is explicit
        configure(None)  # explicit off wins over the env var too
        assert get_disk_cache() is None

    def test_configure_idempotent(self, tmp_path):
        first = configure(tmp_path)
        first.put("variant", KEY_A, {"v": 1})
        assert configure(tmp_path) is first  # counters survive re-configure
        assert configure(tmp_path).stats("variant").stores == 1

    def test_events_recorded(self, tmp_path):
        cache = configure(tmp_path)
        clear_cache_events()
        cache.get("variant", KEY_A)
        cache.put("variant", KEY_A, {"v": 1})
        cache.get("variant", KEY_A)
        kinds = [ev.kind for ev in cache_events()]
        assert kinds == ["miss", "store", "hit"]
        assert all(ev.namespace == "variant" for ev in cache_events())


class TestVariantRehydration:
    """The tier's reason to exist: a warm process skips the NP pipeline."""

    def test_warm_process_equivalence(self, tmp_path):
        configure(tmp_path)
        clear_variant_cache()
        config = NpConfig(slave_size=4, np_type="inter")
        cold = compile_np(NP_SRC, 64, config)
        assert disk_cache_stats("variant").stores == 1

        clear_variant_cache()  # simulate a fresh process (memory tier gone)
        warm = compile_np(NP_SRC, 64, config)
        assert disk_cache_stats("variant").hits == 1
        # The rehydrated variant is the same compile, bit for bit.
        assert emit_kernel(warm.kernel) == emit_kernel(cold.kernel)
        assert warm.config == cold.config
        assert warm.block == cold.block
        assert warm.notes == cold.notes

    def test_rehydrated_variant_launches_bit_identically(self, tmp_path):
        configure(tmp_path)
        clear_variant_cache()
        config = NpConfig(slave_size=4, np_type="inter")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256, dtype=np.float32)

        def run(variant):
            args = variant.host_args(
                {"y": np.zeros(256, np.float32), "x": x.copy(),
                 "a": np.float32(1.5), "n": 256},
                4,
            )
            return launch(variant.kernel, 4, variant.block, args)

        cold = run(compile_np(NP_SRC, 64, config))
        clear_variant_cache()
        warm = run(compile_np(NP_SRC, 64, config))
        np.testing.assert_array_equal(
            cold.gmem["y"].data, warm.gmem["y"].data
        )
        assert cold.stats == warm.stats

    def test_variant_stats_expose_disk_tier(self, tmp_path):
        configure(tmp_path)
        clear_variant_cache()
        compile_np(NP_SRC, 64, NpConfig(slave_size=4, np_type="inter"))
        stats = variant_cache_stats()
        assert stats.disk.stores == 1
        assert stats.pid == os.getpid()

    def test_corrupt_variant_entry_recompiles(self, tmp_path):
        cache = configure(tmp_path)
        clear_variant_cache()
        config = NpConfig(slave_size=4, np_type="inter")
        compile_np(NP_SRC, 64, config)
        # Corrupt the single stored entry, drop the memory tier, recompile.
        (entry,) = (tmp_path / "variant").glob("*.json")
        entry.write_text("garbage")
        clear_variant_cache()
        variant = compile_np(NP_SRC, 64, config)
        assert variant is not None
        stats = cache.stats("variant")
        assert stats.errors == 1
        assert stats.stores == 2  # the good entry was re-stored


def _warm_probe(payload):
    """Forked child: compile with an empty memory tier; report disk hits."""
    path, src, slave = payload
    configure(path)
    clear_variant_cache()
    compile_np(src, 64, NpConfig(slave_size=slave, np_type="inter"))
    stats = disk_cache_stats("variant")
    return stats.hits, stats.misses, os.getpid()


@pytest.mark.needs_fork
class TestCrossProcess:
    def test_child_process_warm_hit(self, tmp_path):
        """An entry stored by this process is a disk hit in a fresh one —
        and the child's counters start at zero (pid-tracked, like the
        in-memory caches)."""
        configure(tmp_path)
        clear_variant_cache()
        compile_np(NP_SRC, 64, NpConfig(slave_size=4, np_type="inter"))
        assert disk_cache_stats("variant").stores == 1

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            hits, misses, child_pid = pool.apply(
                _warm_probe, ((str(tmp_path), NP_SRC, 4),)
            )
        assert (hits, misses) == (1, 0)
        assert child_pid != os.getpid()
        # Parent counters unaffected by the child's traffic.
        assert disk_cache_stats("variant").hits == 0
