"""Binary words and definition-level pattern-instance search.

Words are plain strings over {'0', '1'}; the empty string is the empty
word.  The instance finder tries block lengths t and starts i in (t, i)
order, so the first hit is the one with minimal block length, ties
broken by minimal start.  For t >= 2 it tries only the starts where the
middle of x x^R falls on a doubled letter, since x ends with the letter
x^R begins with.  This quadratic scan is the reference that the linear
recognizer in ``factorization`` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend

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


@dataclass(frozen=True)
class PatternInstance:
    """Three adjacent blocks of length ``block_len`` starting at ``start``."""

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
    hit = _backend.scan_xxrx(check_word(w).encode("ascii"))
    return None if hit is None else PatternInstance(*hit)


def avoids_xxrx_naive(w: str) -> bool:
    """True iff the word has no x x^R x instance, by direct scan."""
    return find_xxrx_instance(w) is None
