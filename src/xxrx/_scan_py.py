"""Pure-Python scan kernels, re-exported by ``_backend``.

Words arrive as ASCII bytes of b'0'/b'1' (callers validate the alphabet).
"""

from __future__ import annotations

import re

_DOUBLE = re.compile(rb"(?=00|11)")


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
    # the middle of x x^R is a doubled letter w[k] == w[k+1], k = i + t - 1,
    # so only the starts i = k - t + 1 can begin an instance
    doubles = [m.start() for m in _DOUBLE.finditer(w)]
    for t in range(2, n // 3 + 1):
        for k in doubles:
            i = k - t + 1
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
    n = len(w)
    if n == 0:
        return []
    doubles = [m.start() for m in _DOUBLE.finditer(w)]
    if not doubles:
        return [n]
    out = [doubles[0] + 1]
    out.extend(b - a for a, b in zip(doubles, doubles[1:]))
    out.append(n - 1 - doubles[-1])
    return out


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
