from pathlib import Path

from xxrx import CountTable
from xxrx.cache import STAMP, cache_dir, cached_table, load_column, store_column


def test_cache_dir_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("XXRX_CACHE_DIR", str(tmp_path / "x"))
    assert cache_dir() == tmp_path / "x"


def test_cache_dir_default_under_xdg(monkeypatch, tmp_path):
    monkeypatch.delenv("XXRX_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert cache_dir() == tmp_path / "xxrx"


def test_store_and_load_round_trip():
    store_column("c", [1, 2, 4, 6])
    assert load_column("c") == [1, 2, 4, 6]


def test_load_missing_returns_none():
    assert load_column("v") is None


def test_cached_table_writes_then_reads():
    table = cached_table(6)
    assert table.c == tuple(CountTable.build(6).c)
    path = cache_dir() / "c.csv"
    assert path.exists()
    text = path.read_text()
    assert text.splitlines()[0] == STAMP
    assert text.splitlines()[1] == "n,c"

    # second call must be served from the files; plant a marker value
    # beyond the requested range to prove they are read
    store_column("u_tilde", list(cached_table(6).u_tilde) + [777777])
    again = cached_table(6)
    assert again.u_tilde == table.u_tilde
    assert load_column("u_tilde")[7] == 777777


def test_stamp_mismatch_invalidates():
    cached_table(4)
    path = cache_dir() / "c.csv"
    body = path.read_text().splitlines()[1:]
    path.write_text("\n".join(["# other tool"] + body) + "\n")
    assert load_column("c") is None
    # recompute still works and refreshes the file
    table = cached_table(4)
    assert table.c == (1, 2, 4, 6, 10)
    assert load_column("c") == [1, 2, 4, 6, 10]


def test_corrupt_rows_invalidate():
    store_column("v", [1, 1, 2])
    path = cache_dir() / "v.csv"
    path.write_text(path.read_text().replace("2,2", "2,two"))
    assert load_column("v") is None


def test_gapped_indices_invalidate():
    path = cache_dir() / "c.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{STAMP}\nn,c\n0,1\n2,4\n")
    assert load_column("c") is None


def test_shorter_store_does_not_clobber_longer():
    store_column("c", [1, 2, 4, 6, 10])
    store_column("c", [1, 2])
    assert load_column("c") == [1, 2, 4, 6, 10]


def test_unwritable_cache_is_silent(monkeypatch, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a plain file, not a directory")
    monkeypatch.setenv("XXRX_CACHE_DIR", str(blocker / "sub"))
    # store must swallow the failure and cached_table must still compute
    store_column("c", [1, 2])
    assert cached_table(3).c == (1, 2, 4, 6)


def test_cache_is_isolated_per_test():
    # the autouse fixture points XXRX_CACHE_DIR at a fresh tmp dir
    assert not Path(cache_dir()).exists() or not list(Path(cache_dir()).iterdir())


def test_truncated_files_are_rebuilt():
    full = cached_table(50)
    for name in ("u_tilde", "v", "c"):
        path = cache_dir() / f"{name}.csv"
        path.write_text(path.read_text()[:-5])
        assert load_column(name) is None
    assert cached_table(50) == full
    for name in ("u_tilde", "v", "c"):
        assert load_column(name) == list(full.column(name))
    # the rebuild leaves no temporary files behind
    assert sorted(p.name for p in cache_dir().iterdir()) == ["c.csv", "u_tilde.csv", "v.csv"]
