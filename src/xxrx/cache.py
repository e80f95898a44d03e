"""Best-effort on-disk cache for the count tables.

One CSV per column under a cache directory (XXRX_CACHE_DIR overrides the
default under the user cache home).  Files begin with a version stamp
line and end with a trailer holding the row count, so a file cut short
reads as incomplete rather than as a shorter column.  Anything
unreadable, unparsable, differently stamped, or without its trailer is
treated as absent.  Files are written to a temporary name and renamed
into place, so readers never see a partial write.  Cache failures never
propagate: the worst case is a recompute.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Sequence
from pathlib import Path

from .counting import CountTable

__all__ = ["ENV_CACHE_DIR", "STAMP", "cache_dir", "cached_table", "load_column", "store_column"]

ENV_CACHE_DIR = "XXRX_CACHE_DIR"
STAMP = "# xxrx tables v2"
_COLUMNS = ("u_tilde", "v", "c")


def cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "xxrx"


def _trailer(rows: int) -> str:
    return f"# rows {rows}"


def load_column(name: str) -> list[int] | None:
    """Cached values of one column, or None if absent or invalid."""
    path = cache_dir() / f"{name}.csv"
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    if (
        len(lines) < 3
        or lines[0] != STAMP
        or lines[1] != f"n,{name}"
        or lines[-1] != _trailer(len(lines) - 3)
    ):
        return None
    values = []
    for i, line in enumerate(lines[2:-1]):
        parts = line.split(",")
        if len(parts) != 2:
            return None
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            return None
        if n != i:
            return None
        values.append(value)
    return values


def store_column(name: str, values: Sequence[int]) -> None:
    """Write one column, silently giving up on any filesystem trouble."""
    existing = load_column(name)
    if existing is not None and len(existing) >= len(values):
        return
    lines = [STAMP, f"n,{name}"]
    lines.extend(f"{n},{v}" for n, v in enumerate(values))
    lines.append(_trailer(len(values)))
    try:
        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w") as f:
                f.write("\n".join(lines) + "\n")
            os.replace(tmp, directory / f"{name}.csv")
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError:
        pass


def cached_table(limit: int) -> CountTable:
    """A CountTable through index limit, reusing cached columns when they
    reach far enough and refreshing the cache when they do not."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    columns = {name: load_column(name) for name in _COLUMNS}
    if all(col is not None and len(col) > limit for col in columns.values()):
        return CountTable(
            limit,
            tuple(columns["u_tilde"][: limit + 1]),
            tuple(columns["v"][: limit + 1]),
            tuple(columns["c"][: limit + 1]),
        )
    table = CountTable.build(limit)
    for name in _COLUMNS:
        store_column(name, table.column(name))
    return table
