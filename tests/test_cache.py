from pathlib import Path

from xxrx import CountTable
from xxrx.cache import STAMP, _load, _store, cache_dir, cached_table
from xxrx.cli import main


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


def test_undecodable_file_is_rebuilt(capsys):
    cache_dir().mkdir(parents=True)
    table_path().write_bytes(b"n,u_tilde,t2\n\xff\n")
    assert _load() is None
    assert main(["count", "3"]) == 0
    assert main(["asym", "5"]) == 0
    assert capsys.readouterr().err == ""
    assert _load() == CountTable.build(5)


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


def count_parses(monkeypatch):
    """Count CountTable.from_series calls, which every parse of rows makes."""
    calls = []
    from_series = CountTable.from_series

    def counted(limit, u, t2):
        calls.append(limit)
        return from_series(limit, u, t2)

    monkeypatch.setattr(CountTable, "from_series", counted)
    return calls


def test_same_size_edit_after_a_read_is_seen(monkeypatch):
    full = cached_table(30)
    assert _load(30) == full
    size = table_path().stat().st_size
    # t2(10) = 7; one more makes u_tilde(10) + t2(10) odd, at the same size
    rewrite(lambda lines: [line.replace("10,93,7", "10,93,8") for line in lines])
    assert table_path().stat().st_size == size
    assert _load(30) is None
    builds = []
    build = CountTable.build
    monkeypatch.setattr(CountTable, "build", lambda limit: builds.append(limit) or build(limit))
    assert cached_table(30) == full
    assert builds == [30]
    assert "10,93,7" in table_path().read_text()
    assert _load() == full


def test_repeated_reads_of_unchanged_text_do_not_parse(monkeypatch):
    tables = {n: CountTable.build(n) for n in (0, 25, 33, 40, 45, 50)}
    cached_table(40)
    assert _load(40) == tables[40]
    calls = count_parses(monkeypatch)
    # the same bytes written again are the same text, whatever the mtime
    table_path().write_text(table_path().read_text())
    for limit in (40, 40, 25, 0):
        assert _load(limit) == tables[limit]
    assert cached_table(33) == tables[33]
    assert calls == []
    # a read further than the memo reaches parses again
    _store(tables[50])
    assert _load(45) == tables[45]
    assert calls == [45]


def test_store_over_a_shorter_file_does_not_parse_it(monkeypatch):
    _store(CountTable.build(10))
    table = CountTable.build(20)
    calls = count_parses(monkeypatch)
    # over a file of fewer rows than the table, then over one of as many
    for _ in range(2):
        _store(table)
        assert calls == []
        assert _load() == table
        del calls[:]


def test_store_replaces_a_longer_file_with_a_bad_row_past_its_limit():
    _store(CountTable.build(40))
    rewrite(lambda lines: lines[:37] + ["35,unparsable,0"] + lines[38:])
    # the bad row lies past what the shorter table's read would reach
    assert _load(20) == CountTable.build(20)
    _store(CountTable.build(20))
    assert _load() == CountTable.build(20)


def test_large_file_read_and_its_trailer():
    _store(CountTable.build(10_000))
    text = table_path().read_text()
    assert text.endswith("\n# rows 10001\n")
    assert _load(1000) == CountTable.build(1000)
    body = text[: -len("# rows 10001\n")]
    # a trailer that names another count, no trailer at all, and a cut file
    for bad in (
        body + "# rows 10002\n",
        body + "# rows 10000\n",
        body + "# rows 10001x\n",
        body,
        text[:-40],
    ):
        table_path().write_text(bad)
        assert _load(1000) is None


def test_line_endings_do_not_change_the_table():
    table = CountTable.build(12)
    _store(table)
    text = table_path().read_text()
    for variant in (text.replace("\n", "\r\n"), text[:-1], text.replace("\n", "\r\n")[:-2]):
        table_path().write_bytes(variant.encode())
        for limit in (None, 0, 5, 12):
            assert _load(limit) == (table if limit is None else CountTable.build(limit))
        assert _load(13) is None
