"""Binary words and definition-level pattern-instance search.

Words are plain strings over {'0', '1'}, the empty string the empty
word.  ``check_word`` validates a word and returns the ASCII bytes the
kernels read; no other module encodes a word.  The instance finder
returns the instance with minimal block length, then minimal start.
It tests the definition only at the two ends of each interior block,
where ``_scan_py._is_instance`` shows a shortest instance sits.  It is
the reference the linear recognizer in ``factorization`` is checked against.
``avoids_xxrx_naive`` calls that scan directly, with no PatternInstance.
"""

from __future__ import annotations

from collections import namedtuple

from ._scan_py import scan_xxrx

__all__ = [
    "PatternInstance",
    "avoids_xxrx_naive",
    "check_word",
    "find_xxrx_instance",
]


def check_word(w: str) -> bytes:
    """The ASCII bytes of w; raise ValueError on symbols outside {'0','1'},
    and TypeError if w is not a str."""
    # every non-ASCII character encodes as '?', so anything left is a bad symbol
    try:
        b = w.encode("ascii", "replace")
    except AttributeError:
        raise TypeError(f"word must be a str, not {type(w).__name__}") from None
    if b.translate(None, b"01"):
        bad = next(ch for ch in w if ch not in "01")
        raise ValueError(f"word symbols must be '0' or '1', found {bad!r}")
    return b


class PatternInstance(namedtuple("PatternInstance", "start block_len")):
    """Three adjacent blocks of length ``block_len`` starting at ``start``."""

    __slots__ = ()
    start: int
    block_len: int


def find_xxrx_instance(w: str) -> PatternInstance | None:
    """Earliest instance of x x^R x: a block, its mirror image, the block
    again.  Minimal block length wins, then minimal start; None if the
    word avoids the pattern."""
    hit = scan_xxrx(check_word(w))
    return None if hit is None else PatternInstance(*hit)


def avoids_xxrx_naive(w: str) -> bool:
    """True iff the word has no x x^R x instance: the block-end scan of
    ``_scan_py.scan_xxrx``, called directly on check_word's bytes, finds
    none.  The name is older than that scan.  It is the public scan of
    one word, which the gates and tests use."""
    return scan_xxrx(check_word(w)) is None
