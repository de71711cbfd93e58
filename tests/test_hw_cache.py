"""Shared L3 model: LRU behaviour and eviction."""

import pytest

from repro.errors import HardwareError
from repro.hardware.cache import SharedCache


def test_miss_then_hit():
    cache = SharedCache(capacity_pages=4)
    assert cache.access(1) is False
    assert cache.access(1) is True


def test_eviction_is_lru():
    cache = SharedCache(capacity_pages=2)
    cache.access(1)
    cache.access(2)
    cache.access(1)          # 1 is now more recent than 2
    cache.access(3)          # evicts 2
    assert 1 in cache
    assert 3 in cache
    assert 2 not in cache
    assert len(cache) == 2


def test_capacity_never_exceeded():
    cache = SharedCache(capacity_pages=3)
    for page in range(10):
        cache.access(page)
    assert len(cache) == 3


def test_access_many_counts():
    cache = SharedCache(capacity_pages=8)
    outcomes = [cache.access(page) for page in [1, 2, 3, 1, 2]]
    assert outcomes == [False, False, False, True, True]
    # one resolve over a run reports its missed sub-runs
    assert cache.resolve(0, 5) == [range(0, 1), range(4, 5)]


def test_invalidate_drops_named_pages():
    cache = SharedCache(capacity_pages=4)
    cache.resolve(1, 4)
    dropped = cache.invalidate([2, 99])
    assert dropped == 1
    assert 2 not in cache
    assert 1 in cache


def test_flush_empties():
    cache = SharedCache(capacity_pages=4)
    cache.resolve(1, 4)
    cache.flush()
    assert len(cache) == 0
    assert cache.resident_pages() == []


def test_resident_order_cold_to_hot():
    cache = SharedCache(capacity_pages=4)
    cache.resolve(1, 4)
    cache.access(1)
    assert cache.resident_pages() == [2, 3, 1]


def test_zero_capacity_rejected():
    with pytest.raises(HardwareError):
        SharedCache(capacity_pages=0)
