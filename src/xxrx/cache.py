"""In-process memo of the count tables.

No package code calls it: each ``xxrx`` command builds the one table it
prints.  It stays only for the benchmark's ``tables`` workload, until
that workload is redefined as cold builds (ROADMAP.md, open items).

The process keeps the longest table it has built.  A request within it
slices its columns; a longer one builds the table and replaces it.
Slicing is exact: coefficient n of every series in ``counting`` depends
only on the coefficients below it, so CountTable.build(n) is a prefix of
CountTable.build(N) for n <= N.  Nothing is written to disk.
"""

from __future__ import annotations

from .counting import CountTable

__all__ = ["cached_table"]

# read by nothing; kept because the benchmark's tables workload still sets it
ENV_CACHE_DIR = "XXRX_CACHE_DIR"

# the longest table this process has built
_longest: CountTable | None = None


def cached_table(limit: int) -> CountTable:
    """The CountTable through index limit, sliced from the memo when the
    memo reaches that far and built, to become the memo, when not."""
    global _longest
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    table = _longest
    if table is None or table.limit < limit:
        table = _longest = CountTable.build(limit)
    if table.limit == limit:
        return table
    return CountTable(limit, *(col[: limit + 1] for col in (table.u_tilde, table.v, table.c)))
