"""The locked LRU behind the lowering, variant and parsed-kernel caches."""

import sys
import threading

from repro.lru import LRU


def test_evicts_least_recently_used_first():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1          # "b" is now the oldest
    lru.put("c", 3)
    assert lru.keys() == ["a", "c"]
    assert len(lru) == 2
    assert lru.get("b") is None


def test_counts_hits_and_misses():
    lru = LRU(4)
    assert lru.get("a") is None
    lru.put("a", 1)
    assert lru.get("a") == 1
    assert lru.get("a") == 1
    assert (lru.hits, lru.misses) == (2, 1)


def test_clear_drops_entries_and_counters():
    lru = LRU(4)
    lru.put("a", 1)
    lru.get("a")
    lru.get("b")
    lru.clear()
    assert (len(lru), lru.keys(), lru.hits, lru.misses) == (0, [], 0, 0)


def test_threads_sharing_a_full_cache_raise_nothing():
    """8 threads churn a capacity-2 cache; every lookup is counted once."""
    lru = LRU(2)
    threads, rounds, errors = 8, 5_000, []

    def churn(tid):
        try:
            for i in range(rounds):
                key = (tid + i) % 3
                if lru.get(key) is None:
                    lru.put(key, i + 1)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn, args=(t,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert lru.hits + lru.misses == threads * rounds
    assert len(lru) <= 2
