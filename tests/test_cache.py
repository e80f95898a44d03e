from pathlib import Path

from xxrx import CountTable
from xxrx.cache import STAMP, _load, _store, cache_dir, cached_table


def table_path():
    return cache_dir() / "table.csv"


def rewrite(edit):
    """Replace the cache file's lines by edit(lines)."""
    path = table_path()
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def test_cache_dir_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("XXRX_CACHE_DIR", str(tmp_path / "x"))
    assert cache_dir() == tmp_path / "x"


def test_cache_dir_default_under_xdg(monkeypatch, tmp_path):
    monkeypatch.delenv("XXRX_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert cache_dir() == tmp_path / "xxrx"


def test_store_and_load_round_trip():
    table = CountTable.build(6)
    _store(table)
    assert _load() == table
    assert table_path().read_text().splitlines() == [
        STAMP,
        "n,u_tilde,t2",
        "0,1,0",
        "1,2,0",
        "2,3,1",
        "3,6,0",
        "4,9,1",
        "5,14,2",
        "6,22,2",
        "# rows 7",
    ]


def test_load_missing_returns_none():
    assert _load() is None


def test_cached_table_writes_then_reads(monkeypatch):
    table = cached_table(6)
    assert table == CountTable.build(6)
    assert sorted(p.name for p in cache_dir().iterdir()) == ["table.csv"]
    lines = table_path().read_text().splitlines()
    assert lines[:2] == [STAMP, "n,u_tilde,t2"]

    # the second call must be served from the file, with no build; a
    # marker row beyond the requested range stays in place
    rewrite(lambda lines: lines[:-1] + ["7,777777,1", "# rows 8"])

    def no_build(limit):
        raise AssertionError("rebuilt instead of reading the file")

    monkeypatch.setattr(CountTable, "build", no_build)
    again = cached_table(6)
    assert again == table
    assert _load().u_tilde[7] == 777777


def test_stamp_mismatch_invalidates():
    cached_table(4)
    rewrite(lambda lines: ["# xxrx tables v2"] + lines[1:])
    assert _load() is None
    # recompute still works and refreshes the file
    table = cached_table(4)
    assert table.c == (1, 2, 4, 6, 10)
    assert _load() == table


def test_corrupt_rows_invalidate():
    _store(CountTable.build(2))
    rewrite(lambda lines: [line.replace("2,3,1", "2,three,1") for line in lines])
    assert _load() is None


def test_gapped_indices_invalidate():
    path = table_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{STAMP}\nn,u_tilde,t2\n0,1,0\n2,3,1\n# rows 2\n")
    assert _load() is None


def test_shorter_store_does_not_clobber_longer():
    longer = CountTable.build(4)
    _store(longer)
    _store(CountTable.build(1))
    assert _load() == longer


def test_unwritable_cache_is_silent(monkeypatch, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a plain file, not a directory")
    monkeypatch.setenv("XXRX_CACHE_DIR", str(blocker / "sub"))
    # store must swallow the failure and cached_table must still compute
    _store(CountTable.build(1))
    assert cached_table(3).c == (1, 2, 4, 6)


def test_cache_is_isolated_per_test():
    # the autouse fixture points XXRX_CACHE_DIR at a fresh tmp dir
    assert not Path(cache_dir()).exists() or not list(Path(cache_dir()).iterdir())


def test_truncated_files_are_rebuilt():
    full = cached_table(50)
    path = table_path()
    path.write_text(path.read_text()[:-5])
    assert _load() is None
    assert cached_table(50) == full
    assert _load() == full
    # the rebuild leaves no temporary files behind
    assert sorted(p.name for p in cache_dir().iterdir()) == ["table.csv"]


def test_parity_break_reads_as_absent():
    full = cached_table(30)
    # t2(10) = 7; one more makes u_tilde(10) + t2(10) odd
    rewrite(lambda lines: [line.replace("10,93,7", "10,93,8") for line in lines])
    assert "10,93,8" in table_path().read_text()
    assert _load() is None
    assert cached_table(30) == full
    assert _load() == full


def test_per_column_files_are_ignored():
    directory = cache_dir()
    directory.mkdir(parents=True)
    # per-column files of the earlier v2 layout, with a wrong c(3)
    for name, values in (("u_tilde", [1, 2, 3, 6]), ("v", [1, 1, 2, 3]), ("c", [1, 2, 4, 7])):
        lines = ["# xxrx tables v2", f"n,{name}"] + [f"{n},{x}" for n, x in enumerate(values)]
        (directory / f"{name}.csv").write_text("\n".join(lines + [f"# rows {len(values)}"]) + "\n")
    assert _load() is None
    assert cached_table(3) == CountTable.build(3)
    assert _load() == CountTable.build(3)


def test_rows_beyond_the_read_are_not_parsed():
    cached_table(40)
    rewrite(lambda lines: lines[:32] + ["30,unparsable,0"] + lines[33:])
    corrupt = table_path().read_text()
    # served from the rows it reads, without a rebuild that would replace the file
    assert cached_table(20) == CountTable.build(20)
    assert table_path().read_text() == corrupt
    assert _load() is None
    # a read that reaches the bad row rebuilds and stores a valid file
    assert cached_table(35) == CountTable.build(35)
    assert _load() == CountTable.build(35)
