"""Unit + property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import AccessResult, Cache, CacheConfig, WritePolicy


def small_cache(policy=WritePolicy.WRITE_THROUGH, assoc=2, sets=4,
                line=64, **kw):
    cfg = CacheConfig(size_bytes=assoc * sets * line, assoc=assoc,
                      line_bytes=line, policy=policy, **kw)
    return Cache(cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, assoc=2, line_bytes=64)


def test_non_power_of_two_line_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=4096, assoc=2, line_bytes=48)


def test_n_sets():
    cfg = CacheConfig(size_bytes=32 * 1024, assoc=2, line_bytes=64)
    assert cfg.n_sets == 256


def test_write_allocate_defaults():
    wt = CacheConfig(policy=WritePolicy.WRITE_THROUGH)
    wb = CacheConfig(policy=WritePolicy.WRITE_BACK)
    assert not wt.allocates_on_write
    assert wb.allocates_on_write


# ---------------------------------------------------------------------------
# hit/miss behaviour
# ---------------------------------------------------------------------------
def test_first_access_misses_then_hits():
    c = small_cache()
    assert not c.access(0x1000, False).hit
    assert c.access(0x1000, False).hit
    assert c.access(0x1030, False).hit  # same 64B line


def test_different_lines_different_outcomes():
    c = small_cache()
    c.access(0x1000, False)
    assert not c.access(0x1040, False).hit


def test_lru_eviction():
    c = small_cache(assoc=2, sets=1)
    c.access(0x0, False)       # way A
    c.access(0x40, False)      # way B
    c.access(0x0, False)       # touch A
    c.access(0x80, False)      # evicts B (LRU)
    assert c.access(0x0, False).hit
    assert not c.access(0x40, False).hit


def test_write_through_store_miss_does_not_allocate():
    c = small_cache(policy=WritePolicy.WRITE_THROUGH)
    c.access(0x1000, True)
    assert not c.probe(0x1000)


def test_write_back_store_miss_allocates_dirty():
    c = small_cache(policy=WritePolicy.WRITE_BACK, assoc=1, sets=1)
    c.access(0x1000, True)
    assert c.probe(0x1000)
    # the allocated line is dirty: evicting it writes it back
    assert c.access(0x1040, False).writeback_line == 0x1000


def test_write_through_never_dirty():
    c = small_cache(policy=WritePolicy.WRITE_THROUGH, assoc=1, sets=1)
    c.access(0x1000, False)
    c.access(0x1000, True)
    assert c.access(0x1040, False).writeback_line is None


def test_dirty_eviction_reports_writeback():
    c = small_cache(policy=WritePolicy.WRITE_BACK, assoc=1, sets=1)
    c.access(0x0, True)                     # dirty
    result = c.access(0x40, False)          # evicts dirty line 0
    assert result.writeback_line == 0x0
    assert c.writebacks == 1


def test_clean_eviction_no_writeback():
    c = small_cache(policy=WritePolicy.WRITE_BACK, assoc=1, sets=1)
    c.access(0x0, False)
    assert c.access(0x40, False).writeback_line is None


def test_hit_latency_reported():
    c = Cache(CacheConfig(hit_latency=3))
    assert c.access(0, False).latency == 3


# ---------------------------------------------------------------------------
# inventory / invalidation (the recovery path uses these)
# ---------------------------------------------------------------------------
def test_resident_lines():
    c = small_cache()
    c.access(0x0, False)
    c.access(0x40, False)
    assert sorted(c.resident_lines()) == [0x0, 0x40]
    assert c.resident_count() == 2


def test_invalidate_single():
    c = small_cache()
    c.access(0x0, False)
    assert c.invalidate(0x20)  # same line as 0x0
    assert not c.probe(0x0)
    assert not c.invalidate(0x0)  # already gone


def test_invalidate_all():
    c = small_cache()
    for a in range(0, 0x200, 0x40):
        c.access(a, False)
    n = c.invalidate_all()
    assert n == 8
    assert c.resident_count() == 0


def test_hit_and_miss_counters():
    c = small_cache()
    c.access(0, False)
    c.access(0, False)
    c.access(0, False)
    assert (c.hits, c.misses) == (2, 1)
    c.reset_stats()
    assert (c.hits, c.misses) == (0, 0)


# ---------------------------------------------------------------------------
# property: cache contents always match a reference LRU model
# ---------------------------------------------------------------------------
@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1023),
                          st.booleans()), max_size=200))
def test_matches_reference_lru(accesses):
    """Drive a tiny write-back cache and an explicit LRU reference model
    with the same access stream; resident sets must agree throughout."""
    assoc, sets, line = 2, 2, 64
    c = small_cache(policy=WritePolicy.WRITE_BACK, assoc=assoc, sets=sets,
                    line=line)
    ref = {i: [] for i in range(sets)}  # index -> [line_addr] in LRU order
    for addr, is_write in accesses:
        addr *= 4
        line_addr = addr - addr % line
        index = (addr // line) % sets
        ways = ref[index]
        if line_addr in ways:
            ways.remove(line_addr)
            ways.append(line_addr)
        else:
            if len(ways) >= assoc:
                ways.pop(0)
            ways.append(line_addr)
        c.access(addr, is_write)
    model = {i: set(w) for i, w in ref.items() if w}
    actual = {}
    for a in c.resident_lines():
        actual.setdefault((a // line) % sets, set()).add(a)
    assert actual == model
