import pytest

from xxrx import cache


@pytest.fixture(autouse=True)
def _fresh_table_memo(monkeypatch):
    # each test starts with no table another test built
    monkeypatch.setattr(cache, "_longest", None)
