"""Best-effort on-disk cache for the count tables.

One CSV, table.csv, under a cache directory (XXRX_CACHE_DIR overrides
the default under the user cache home) holds the series u_tilde and t2;
v and c are derived from them on load.  The file begins with a version
stamp line and ends with a trailer holding the row count, so a file cut
short reads as incomplete rather than as a shorter table.  Anything
unreadable, unparsable, differently stamped, without its trailer, or
failing the table's parity guard is treated as absent.  A hit for index
limit checks the stamp, header and trailer against the whole file but
parses only rows 0..limit; a fault in a later row shows on the next read
that reaches it, or on the next store, which reads every row.  The file
is written to a temporary name and renamed into place, so readers never
see a partial write.  Cache failures never propagate: the worst case is
a recompute.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .counting import CountTable

__all__ = ["ENV_CACHE_DIR", "STAMP", "cache_dir", "cached_table"]

ENV_CACHE_DIR = "XXRX_CACHE_DIR"
_FILENAME = "table.csv"
STAMP = "# xxrx tables v3"
_HEADER = "n,u_tilde,t2"


def cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "xxrx"


def _trailer(rows: int) -> str:
    return f"# rows {rows}"


def _load(limit: int | None = None) -> CountTable | None:
    """The cached table through index limit (every stored row when limit
    is None), or None if the file is absent, invalid or too short.

    The stamp, header and trailer are checked against the whole file;
    only the rows served are parsed and checked.
    """
    try:
        lines = (cache_dir() / _FILENAME).read_text().splitlines()
    except OSError:
        return None
    rows = len(lines) - 3
    if rows < 1 or lines[0] != STAMP or lines[1] != _HEADER or lines[-1] != _trailer(rows):
        return None
    if limit is None:
        limit = rows - 1
    elif limit >= rows:
        return None
    try:
        parsed = [tuple(map(int, line.split(","))) for line in lines[2 : limit + 3]]
    except ValueError:
        return None
    if any(len(row) != 3 or row[0] != n for n, row in enumerate(parsed)):
        return None
    _, u, t2 = zip(*parsed)
    try:
        return CountTable.from_series(limit, u, t2)
    except RuntimeError:
        return None


def _store(table: CountTable) -> None:
    """Write the table's series, silently giving up on any filesystem trouble."""
    existing = _load()
    if existing is not None and existing.limit >= table.limit:
        return
    lines = [STAMP, _HEADER]
    lines.extend(f"{n},{un},{tn}" for n, (un, tn) in enumerate(zip(table.u_tilde, table.t2)))
    lines.append(_trailer(table.limit + 1))
    try:
        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{_FILENAME}.", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w") as f:
                f.write("\n".join(lines) + "\n")
            os.replace(tmp, directory / _FILENAME)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError:
        pass


def cached_table(limit: int) -> CountTable:
    """A CountTable through index limit, reusing the cached table when it
    reaches far enough and refreshing the cache when it does not."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    table = _load(limit)
    if table is None:
        table = CountTable.build(limit)
        _store(table)
    return table
