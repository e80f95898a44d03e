"""Valley-free positive sequences and their partition-pair encoding.

A sequence (d_1,...,d_m) of positive integers is valley-free when no
interior index j has d_{j-1} >= d_j <= d_{j+1}.  Such sequences rise
strictly to a peak and then fall strictly; the peak is either a single
strict maximum or one pair of equal adjacent maxima.  Splitting at the
peak writes the sequence as an increasing run followed by a reversed
increasing run, i.e. a pair of partitions into distinct parts.
"""

from __future__ import annotations

import enum
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence

__all__ = [
    "NotInXError",
    "PartitionPair",
    "SequenceClass",
    "SequenceKind",
    "classify",
    "format_pair",
    "format_sequence",
    "in_x",
    "pair_to_sequence",
    "parse_sequence",
    "sequence_to_pairs",
]


class NotInXError(ValueError):
    """Raised when an operation requires a valley-free sequence."""


class SequenceKind(enum.Enum):
    TYPE1 = "type1"          # strict peak: rises strictly, falls strictly
    TYPE2 = "type2"          # two equal adjacent maxima, strict elsewhere
    NOT_IN_X = "not-in-x"    # has a valley


class SequenceClass(namedtuple("SequenceClass", "kind witness")):
    """Classification verdict with a checkable witness index.

    For TYPE1 and TYPE2 the witness is the 1-based peak index (for TYPE2
    the second of the equal pair; 0 for the empty sequence).  For
    NOT_IN_X it is the smallest 1-based valley index.
    """

    __slots__ = ()
    kind: SequenceKind
    witness: int


def _entries(seq: Iterable[int]) -> tuple[int, ...]:
    out = tuple(seq)
    for d in out:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"sequence entries must be positive integers, found {d!r}")
    return out


def _first_valley(s: Sequence[int]) -> int:
    """Smallest 1-based valley index of s, or 0 if it has none.

    The entries may be any integers, zeros included: ``_scan_py.is_member``
    passes the run lengths of a word, in which a triple letter is a 0.
    """
    for j in range(1, len(s) - 1):
        if s[j - 1] >= s[j] <= s[j + 1]:
            return j + 1
    return 0


def classify(seq: Iterable[int]) -> SequenceClass:
    """Classify a positive sequence as TYPE1, TYPE2, or NOT_IN_X.

    Empty and single-entry sequences are TYPE1 by convention (witness 0
    and 1 respectively); they are vacuously peak-shaped.
    """
    s = _entries(seq)
    m = len(s)
    valley = _first_valley(s)
    if valley:
        return SequenceClass(SequenceKind.NOT_IN_X, valley)
    # valley-free: at most one equal adjacent pair, and it sits at the peak
    for j in range(m - 1):
        if s[j] == s[j + 1]:
            return SequenceClass(SequenceKind.TYPE2, j + 2)
    if m == 0:
        return SequenceClass(SequenceKind.TYPE1, 0)
    return SequenceClass(SequenceKind.TYPE1, s.index(max(s)) + 1)


def in_x(seq: Iterable[int]) -> bool:
    """True iff the sequence is valley-free (TYPE1 or TYPE2): classify's
    verdict from its valley test alone, with no peak witness."""
    return not _first_valley(_entries(seq))


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

    @property
    def weight(self) -> int:
        return sum(self.lam) + sum(self.mu)


def pair_to_sequence(pair: PartitionPair) -> tuple[int, ...]:
    """Concatenate lam ascending with mu descending; always valley-free."""
    return pair.lam + pair.mu[::-1]


def sequence_to_pairs(seq: Iterable[int]) -> set[PartitionPair]:
    """All pairs that encode the given valley-free sequence.

    Every cut point whose prefix rises strictly and whose suffix falls
    strictly yields a pair; there are exactly two for a strict peak (the
    peak may go to either side), one when the maxima are an equal pair,
    and one for the empty sequence.
    """
    s = _entries(seq)
    if not in_x(s):
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


def _echo(text: object, limit: int = 60) -> str:
    """repr of text for an error message; a string is cut to limit
    characters."""
    if isinstance(text, str) and len(text) > limit:
        return f"{text[:limit]!r}…"
    return repr(text)


def _int_fault(part: str, what: str) -> str | None:
    """Why int(part) fails, calling part a what; None if it does not."""
    try:
        int(part)
    except ValueError:
        digits = part.strip()
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        # int() takes every decimal string except one longer than
        # sys.get_int_max_str_digits()
        if digits.isdecimal():
            return f"{what} too long ({len(digits)} digits, limit {sys.get_int_max_str_digits()})"
        return f"non-integer {what}"
    return None


def parse_sequence(text: str) -> tuple[int, ...]:
    """Inverse of format_sequence; tolerates spaces and a trailing comma.

    Error messages quote at most the first 60 characters of text.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected a parenthesized sequence, got {_echo(text)}")
    inner = s[1:-1].strip()
    if inner.endswith(","):
        inner = inner[:-1]
    if not inner:
        return ()
    out = []
    for part in inner.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(f"{_int_fault(part, 'entry')} in sequence {_echo(text)}") from None
    return tuple(out)


def format_pair(pair: PartitionPair) -> str:
    """Render a pair as "λ=(1,3);μ=(2)"."""
    return f"λ={format_sequence(pair.lam)};μ={format_sequence(pair.mu)}"
