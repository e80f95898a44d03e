"""Pure-Python scan kernels, re-exported by ``_backend``.

Words arrive as ASCII bytes of b'0'/b'1' (callers validate the alphabet).

Every kernel rests on one pass that finds all doubled letters at once.
The word is read as a big-endian integer x, one byte per letter, so
byte k of the n big-endian bytes of x ^ (x >> 8) is w[k-1] ^ w[k] for
k >= 1.  The codes of '0' and '1' differ only in their low bit, so that
byte is 0 exactly when w[k-1] == w[k], and 1 otherwise.  A block ends
at w[k-1] and the next starts at w[k] exactly there, so splitting bytes
1..n-1 at each 0 leaves one piece per block, one letter short.

Conversion from and to bytes, the shift, the XOR and the split all run
in C, in time linear in the word length.  No decimal string is built,
so CPython's limit on int/str conversions (4300 digits by default)
never applies, and words of any length pass.
"""

from __future__ import annotations

from itertools import accumulate


def _blocks(w: bytes) -> list[int]:
    """Block lengths of a nonempty triple-free word, from one XOR pass."""
    x = int.from_bytes(w, "big")
    diff = (x ^ (x >> 8)).to_bytes(len(w), "big")
    return [len(run) + 1 for run in diff[1:].split(b"\0")]


def scan_xxrx(w: bytes) -> tuple[int, int] | None:
    """First (block length, then start) occurrence of x x^R x, or None."""
    n = len(w)
    if n < 3:
        return None
    # t = 1 is a plain triple-letter search
    i0 = w.find(b"000")
    i1 = w.find(b"111")
    if i0 >= 0 and (i1 < 0 or i0 < i1):
        return (i0, 1)
    if i1 >= 0:
        return (i1, 1)
    # x ends with the letter x^R begins with, so the middle of x x^R is a
    # doubled letter w[i+t-1] == w[i+t], and a block starts at i + t
    starts = list(accumulate(_blocks(w)[:-1]))
    for t in range(2, n // 3 + 1):
        for s in starts:
            i = s - t
            if i < 0:
                continue
            if i > n - 3 * t:
                break
            x = w[i:i + t]
            if w[i + t:i + 2 * t] == x[::-1] and w[i + 2 * t:i + 3 * t] == x:
                return (i, t)
    return None


def profile_of(w: bytes) -> list[int]:
    """Block-length profile of a word with no triple letter.

    Raises ValueError if the word contains 000 or 111, since the
    factorization is undefined there.
    """
    if b"000" in w or b"111" in w:
        raise ValueError("word contains a triple letter")
    return _blocks(w) if w else []


def is_member(w: bytes) -> bool:
    """Linear-time membership in the xx^Rx-avoiding language: no triple
    letter and a valley-free profile."""
    try:
        prof = profile_of(w)
    except ValueError:
        return False
    return not any(
        prof[j - 1] >= prof[j] <= prof[j + 1] for j in range(1, len(prof) - 1)
    )
