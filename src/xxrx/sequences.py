"""Valley-free positive sequences and their partition-pair encoding.

A sequence (d_1,...,d_m) of positive integers is valley-free when no
interior index j has d_{j-1} >= d_j <= d_{j+1}; ``in_x`` tests exactly
this.  Such sequences rise strictly to a peak and then fall strictly;
the peak is either a single strict maximum or one pair of equal
adjacent maxima.  Splitting at the peak writes the sequence as an
increasing run followed by a reversed increasing run, i.e. a pair of
partitions into distinct parts; a pair maps back to its sequence as
``pair.lam + pair.mu[::-1]``.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence

__all__ = [
    "NotInXError",
    "PartitionPair",
    "format_sequence",
    "in_x",
    "parse_sequence",
    "sequence_to_pairs",
]


class NotInXError(ValueError):
    """Raised when an operation requires a valley-free sequence."""


def _entries(seq: Iterable[int]) -> tuple[int, ...]:
    out = tuple(seq)
    for d in out:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"sequence entries must be positive integers, found {d!r}")
    return out


def _has_valley(s: Sequence[int]) -> bool:
    """True iff some interior entry of s is at most both its neighbours.

    The entries may be any integers, zeros included: ``_scan_py.is_member``
    passes the run lengths of a word, in which a triple letter is a 0.
    """
    for j in range(1, len(s) - 1):
        if s[j - 1] >= s[j] <= s[j + 1]:
            return True
    return False


def in_x(seq: Iterable[int]) -> bool:
    """True iff the sequence is valley-free: no interior entry is at most
    both of its neighbours.  Empty and single-entry sequences are
    valley-free; entries must be positive integers."""
    return not _has_valley(_entries(seq))


def _strictly_increasing(parts: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(parts, parts[1:]))


class PartitionPair(namedtuple("PartitionPair", "lam mu")):
    """Two partitions into distinct parts, each stored strictly increasing.

    ``lam`` supplies the rising run of a sequence; ``mu`` is read in
    reverse to supply the falling run.
    """

    __slots__ = ()
    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __new__(cls, lam: Iterable[int], mu: Iterable[int]) -> PartitionPair:
        lam, mu = _entries(lam), _entries(mu)
        for name, parts in (("lam", lam), ("mu", mu)):
            if not _strictly_increasing(parts):
                raise ValueError(f"{name} must have strictly increasing parts, got {parts}")
        return super().__new__(cls, lam, mu)

    @classmethod
    def _make(cls, iterable: Iterable) -> PartitionPair:
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)


def sequence_to_pairs(seq: Iterable[int]) -> set[PartitionPair]:
    """All pairs that encode the given valley-free sequence.

    Every cut point whose prefix rises strictly and whose suffix falls
    strictly yields a pair; there are exactly two for a strict peak (the
    peak may go to either side), one when the maxima are an equal pair,
    and one for the empty sequence.
    """
    s = _entries(seq)
    if _has_valley(s):
        raise NotInXError(f"sequence {s} has a valley; no pair encoding exists")
    out = set()
    for cut in range(len(s) + 1):
        lam, mu = s[:cut], s[cut:][::-1]
        if _strictly_increasing(lam) and _strictly_increasing(mu):
            out.add(PartitionPair(lam, mu))
    return out


def format_sequence(seq: Iterable[int]) -> str:
    """Render entries as "(1,3,2)"; the empty sequence as "()"."""
    return "(" + ",".join(str(d) for d in seq) + ")"


def _echo(text: object) -> str:
    """repr of text for an error message; a string is cut to 60 characters."""
    if isinstance(text, str) and len(text) > 60:
        return f"{text[:60]!r}…"
    return repr(text)


def _int_fault(part: str) -> str | None:
    """Why int(part) fails, calling part an entry; None if it does not."""
    try:
        int(part)
    except ValueError:
        digits = part.strip()
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        # int() takes every decimal string except one longer than
        # sys.get_int_max_str_digits()
        if digits.isdecimal():
            return f"entry too long ({len(digits)} digits, limit {sys.get_int_max_str_digits()})"
        return "non-integer entry"
    return None


def parse_sequence(text: str) -> tuple[int, ...]:
    """Inverse of format_sequence; tolerates spaces and a trailing comma.

    Error messages quote at most the first 60 characters of text.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected a parenthesized sequence, got {_echo(text)}")
    inner = s[1:-1].strip()
    # tested before the trailing comma goes, so "(,)" has one empty entry
    if not inner:
        return ()
    if inner.endswith(","):
        inner = inner[:-1]
    out = []
    for part in inner.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(f"{_int_fault(part)} in sequence {_echo(text)}") from None
    return tuple(out)
