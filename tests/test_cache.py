from pathlib import Path

import pytest

from xxrx import CountTable, cache
from xxrx.cache import cached_table
from xxrx.cli import main


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


def test_cli_writes_no_file(monkeypatch, tmp_path, capsys):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.chdir(home)
    assert main(["count", "30"]) == 0
    assert main(["asym", "5"]) == 0
    assert capsys.readouterr().err == ""
    assert list(home.iterdir()) == []


def test_no_home_directory_means_no_cache(monkeypatch, capsys):
    # Path.home raises when HOME is unset and the uid has no passwd entry
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XXRX_CACHE_DIR", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(Path, "home", classmethod(no_home))
    assert cached_table(5) == CountTable.build(5)
    assert main(["count", "3"]) == 0
    assert main(["asym", "5"]) == 0
    assert capsys.readouterr().err == ""
