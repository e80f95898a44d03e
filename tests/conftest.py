import pytest

from xxrx import cache


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    # keep table caching hermetic per test: a fresh directory, and no memo
    # of a file another test read
    monkeypatch.setenv("XXRX_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache, "_memo", None)
