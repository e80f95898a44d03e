"""OEIS b-file parsing, rendering, and comparison with local tables.

A b-file lists one "n a(n)" pair per line.  Lines starting with '#' and
blank lines are tolerated on read and never written.  No network access
happens here; callers download files themselves.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

from .sequences import _echo, _int_fault

__all__ = [
    "BFile",
    "BFileParseError",
    "KNOWN_SEQUENCE_IDS",
    "MAX_BFILE_BYTES",
    "SequenceMismatch",
    "compare_values",
    "format_bfile",
    "read_bfile",
]

# catalog identifiers of the columns this package tabulates
KNOWN_SEQUENCE_IDS = {"c": "A261204", "u_tilde": "A022567"}

# read_bfile refuses larger files; a b-file of c(0..10000) is ~0.77 MB
MAX_BFILE_BYTES = 16 * 2**20

_BFILE_NAME = re.compile(r"b(\d{6})\.txt")


class BFileParseError(ValueError):
    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BFile(namedtuple("BFile", "entries sequence_id", defaults=(None,))):
    """Parsed entries (index, value) with strictly increasing indices."""

    __slots__ = ()
    entries: tuple[tuple[int, int], ...]
    sequence_id: str | None


def _parse_bfile(text: str, sequence_id: str | None = None) -> BFile:
    """Parse b-file text; a BFileParseError quotes at most the first 60
    characters of the line or of each index at fault."""
    entries = []
    last = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"expected 'n a(n)', got {_echo(raw)}", lineno)
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            fault = _int_fault(parts[0], "field") or _int_fault(parts[1], "field")
            raise BFileParseError(f"{fault} in {_echo(raw)}", lineno) from None
        if last is not None and n <= last:
            raise BFileParseError(
                f"indices must be strictly increasing, {_echo(parts[0])} after {_echo(last_text)}",
                lineno,
            )
        last, last_text = n, parts[0]
        entries.append((n, value))
    return BFile(tuple(entries), sequence_id)


def read_bfile(path: str | Path) -> BFile:
    """Parse a UTF-8 b-file from disk; the id is inferred from names like
    b261204.txt.

    Raises ValueError for a file of more than MAX_BFILE_BYTES bytes,
    having read at most one byte past the cap.
    """
    p = Path(path)
    m = _BFILE_NAME.fullmatch(p.name)
    sid = f"A{m.group(1)}" if m else None
    with p.open("rb") as f:
        data = f.read(MAX_BFILE_BYTES + 1)
    if len(data) > MAX_BFILE_BYTES:
        raise ValueError(f"file is larger than {MAX_BFILE_BYTES} bytes")
    return _parse_bfile(data.decode("utf-8"), sid)


def format_bfile(values: Sequence[int]) -> str:
    """Render consecutive values as b-file lines starting at index 0."""
    return "".join(f"{i} {v}\n" for i, v in enumerate(values))


class SequenceMismatch(namedtuple("SequenceMismatch", "index local reference")):
    """One term where the local value differs from the b-file's.  The field
    index shadows tuple.index."""

    __slots__ = ()
    index: int
    local: int
    reference: int


def compare_values(
    bfile: BFile, values: Sequence[int], offset: int = 0
) -> tuple[list[SequenceMismatch], int]:
    """Compare local values against a b-file on their overlapping indices.

    values[i] is taken as the term of index offset + i.  Returns the
    mismatch rows and the overlap size; an empty overlap is the caller's
    signal to warn about a vacuous comparison.
    """
    mismatches = []
    overlap = 0
    for n, reference in bfile.entries:
        i = n - offset
        if 0 <= i < len(values):
            overlap += 1
            if values[i] != reference:
                mismatches.append(SequenceMismatch(n, values[i], reference))
    return mismatches, overlap
