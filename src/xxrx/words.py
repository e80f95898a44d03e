"""Binary words and definition-level pattern-instance search.

Words are plain strings over {'0', '1'}; the empty string is the empty
word.  The instance finder returns the instance with minimal block
length, ties broken by minimal start.  It tests the definition only
where a shortest instance can sit, at the two ends of each interior
block, as ``_scan_py._is_instance`` sets out.  This scan is the
reference that the linear recognizer in ``factorization`` is checked
against.
"""

from __future__ import annotations

from collections import namedtuple

from ._scan_py import scan_xxrx

__all__ = [
    "PatternInstance",
    "avoids_xxrx_naive",
    "check_word",
    "complement",
    "find_xxrx_instance",
    "reverse",
]

_COMPLEMENT = str.maketrans("01", "10")


def check_word(w: str) -> str:
    """Return w unchanged; raise ValueError on symbols outside {'0','1'}."""
    # every non-ASCII character encodes as '?', so anything left is a bad symbol
    if w.encode("ascii", "replace").translate(None, b"01"):
        bad = next(ch for ch in w if ch not in "01")
        raise ValueError(f"word symbols must be '0' or '1', found {bad!r}")
    return w


class PatternInstance(namedtuple("PatternInstance", "start block_len")):
    """Three adjacent blocks of length ``block_len`` starting at ``start``."""

    __slots__ = ()
    start: int
    block_len: int


def complement(w: str) -> str:
    """Symbolwise 0/1 flip (an involution)."""
    return check_word(w).translate(_COMPLEMENT)


def reverse(w: str) -> str:
    """Mirror image of the word (an involution)."""
    return check_word(w)[::-1]


def find_xxrx_instance(w: str) -> PatternInstance | None:
    """Earliest instance of x x^R x: a block, its mirror image, the block
    again.  Minimal block length wins, then minimal start; None if the
    word avoids the pattern."""
    hit = scan_xxrx(check_word(w).encode("ascii"))
    return None if hit is None else PatternInstance(*hit)


def avoids_xxrx_naive(w: str) -> bool:
    """True iff the word has no x x^R x instance, by direct scan."""
    return find_xxrx_instance(w) is None
