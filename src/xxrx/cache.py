"""Best-effort on-disk cache for the count tables.

One CSV, table.csv, under a cache directory (XXRX_CACHE_DIR overrides
the default under the user cache home) holds the series u_tilde and t2;
v and c are derived from them on load.  The file begins with a version
stamp line and ends with a trailer holding the row count, so a file cut
short reads as incomplete rather than as a shorter table.  Anything
unreadable, undecodable, unparsable, differently stamped, without its
trailer, or failing the table's parity guard is treated as absent.  A
hit for index limit checks the stamp, the header, the trailer and the
row just before it, which must be the last row the trailer counts, but
splits off and parses only rows 0..limit; a fault in a row between
those shows on the next read that reaches it.

Each read takes the whole text of the file.  The process keeps one
memo: the last text a read parsed, with the table read from it through
that read's limit.  A read whose text equals the memo's and whose limit
is within it slices the memo's table and parses nothing; any other read
parses and refreshes the memo.  The key is the text itself, not a file
time or size, so a hit gives exactly what parsing the same text would,
even after an in-place rewrite of the same size.  A fresh process starts
with no memo, so a one-shot CLI run always parses.  A store parses the
existing file only when its trailer counts more rows than the new
table, since only a valid longer file is kept.

The file is written to a temporary name and renamed into place, so
readers never see a partial write.  Cache failures never propagate: the
worst case is a recompute.  Where neither variable is set and no home
directory can be found (HOME unset and no passwd entry for the uid),
there is no cache: tables are built and nothing is stored.
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
_TRAILER = "# rows "


def cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    try:
        base = Path(xdg) if xdg else Path.home() / ".cache"
    except RuntimeError as exc:
        # HOME unset and no passwd entry for the uid; callers read OSError as no cache
        raise OSError(str(exc)) from None
    return base / "xxrx"


def _trailer(rows: int) -> str:
    return f"{_TRAILER}{rows}"


def _rows(text: str) -> int:
    """The row count that the trailer of text names, or 0 if its last line
    is not a trailer or the line before it is not that count's last row."""
    end = len(text) - text.endswith("\n")
    begin = text.rfind("\n", 0, end) + 1
    line = text[begin:end]
    digits = line.removeprefix(_TRAILER)
    # no real table has 19 digits of rows, so longer ones are not converted
    if begin == 0 or len(digits) > 18:
        return 0
    try:
        rows = int(digits)
    except ValueError:
        return 0
    last_row = text.rfind("\n", 0, begin - 1) + 1
    if line != _trailer(rows) or not text.startswith(f"{rows - 1},", last_row):
        return 0
    return rows


def _parse(text: str, limit: int | None = None) -> CountTable | None:
    """The table that text holds through index limit (every row when
    limit is None), or None if text is invalid or too short.

    Lines end in a newline, the last one possibly not.  The stamp,
    header and trailer are checked, and the row count the trailer
    names is taken as the file's once the line before the trailer is that
    count's last row; only the rows served are split off and parsed.
    """
    rows = _rows(text)
    if rows < 1:
        return None
    if limit is None:
        limit = rows - 1
    elif limit >= rows:
        return None
    lines = text.split("\n", limit + 3)
    if lines[0] != STAMP or lines[1] != _HEADER:
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


def _read() -> str | None:
    # text mode reads CR LF and CR line ends as LF, the one _parse splits at
    try:
        return (cache_dir() / _FILENAME).read_text()
    except (OSError, UnicodeDecodeError):
        return None


# the last text _load parsed successfully, and the table it read from it
_memo: tuple[str, CountTable] | None = None


def _load(limit: int | None = None) -> CountTable | None:
    """The cached table through index limit (every stored row when limit
    is None), or None if the file is absent, invalid or too short.

    When the file's text equals the memo's and limit is within the memo's
    table, that table is sliced; otherwise the text is parsed, and a table
    read from it becomes the memo.
    """
    global _memo
    text = _read()
    if text is None:
        return None
    # one read of the global, so that text and table come from one memo
    memo = _memo
    if memo is not None and limit is not None and limit <= memo[1].limit and memo[0] == text:
        table = memo[1]
        return CountTable(limit, *(col[: limit + 1] for col in (table.u_tilde, table.v, table.c)))
    table = _parse(text, limit)
    if table is not None:
        _memo = (text, table)
    return table


def _store(table: CountTable) -> None:
    """Write the table's series, silently giving up on any filesystem trouble."""
    text = _read()
    # only a valid file of more rows than the table is kept
    if text is not None and _rows(text) > table.limit + 1 and _parse(text) is not None:
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
