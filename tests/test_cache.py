import pytest

from xxrx import CountTable, cache
from xxrx.cache import cached_table


@pytest.fixture(autouse=True)
def _fresh_table_memo(monkeypatch):
    # each test starts with no table another test built
    monkeypatch.setattr(cache, "_longest", None)


def count_builds(monkeypatch):
    """Record the limit of every CountTable.build call."""
    builds = []
    build = CountTable.build
    monkeypatch.setattr(CountTable, "build", lambda limit: builds.append(limit) or build(limit))
    return builds


def test_memo_slices_equal_fresh_builds():
    # build(n) is a prefix of build(N) for n <= N, so a slice of the memo
    # is what a fresh build gives
    cached_table(1200)
    for n in [*range(301), 1000, 1200]:
        assert cached_table(n) == CountTable.build(n)


def test_reads_within_the_memo_do_not_build(monkeypatch):
    builds = count_builds(monkeypatch)
    cached_table(40)
    assert builds == [40]
    for limit in (40, 40, 25, 0, 33):
        assert cached_table(limit).limit == limit
    assert builds == [40]
    # a longer request builds once and becomes the memo
    grown = cached_table(50)
    assert builds == [40, 50]
    assert cache._longest is grown
    cached_table(45)
    assert builds == [40, 50]


def test_shorter_store_does_not_clobber_longer():
    longer = cached_table(4)
    assert cached_table(1) == CountTable.build(1)
    assert cache._longest is longer
    assert cached_table(4) is longer


def test_negative_limit_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        cached_table(-1)
    assert cache._longest is None
    assert cached_table(0) == CountTable(0, (1,), (1,), (1,))


def test_cache_is_isolated_per_test():
    # the autouse fixture clears the memo before every test
    assert cache._longest is None

