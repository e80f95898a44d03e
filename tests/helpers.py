"""Reference implementations the tests trust instead of the package.

Everything here is written straight from the definitions, favoring a
different formulation than the library uses wherever one exists, so that
agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import add


def ref_find_xxrx(w: str) -> tuple[int, int] | None:
    """Smallest block length, then smallest start, of an x x^R x factor."""
    n = len(w)
    for t in range(1, n // 3 + 1):
        for i in range(n - 3 * t + 1):
            x = w[i : i + t]
            if w[i + t : i + 2 * t] == x[::-1] and w[i + 2 * t : i + 3 * t] == x:
                return (i, t)
    return None


def ref_profile(w: str) -> tuple[int, ...]:
    """Block profile by walking runs: a new block starts at each doubled
    letter, and the doubled letter is counted once in each block."""
    if "000" in w or "111" in w:
        raise ValueError("profile undefined on words with a tripled letter")
    if not w:
        return ()
    lengths = []
    current = 1
    for i in range(1, len(w)):
        if w[i] == w[i - 1]:
            lengths.append(current)
            current = 1
        else:
            current += 1
    lengths.append(current)
    return tuple(lengths)


def complement(w: str) -> str:
    """Symbolwise 0/1 flip."""
    return "".join("1" if ch == "0" else "0" for ch in w)


def reverse(w: str) -> str:
    """Mirror image of the word."""
    return "".join(reversed(w))


def has_equal_peak(s: tuple[int, ...]) -> bool:
    """True iff two adjacent entries both equal the maximum."""
    top = max(s, default=0)
    return any(a == b == top for a, b in zip(s, s[1:]))


def strictly_increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def strictly_decreasing(seq) -> bool:
    return all(a > b for a, b in zip(seq, seq[1:]))


def ref_in_x_template(s: tuple[int, ...]) -> bool:
    """Membership via the peak templates instead of the valley test:
    strictly up then strictly down, with at most one equal adjacent pair
    and only at the top."""
    m = len(s)
    if m <= 1:
        return True
    for j in range(m):
        if strictly_increasing(s[: j + 1]) and strictly_decreasing(s[j:]):
            return True
    for j in range(1, m):
        if s[j - 1] == s[j] and strictly_increasing(s[:j]) and strictly_decreasing(s[j:]):
            return True
    return False


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def valid_profiles(n: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n whose interior entries are all at least 2."""
    for comp in compositions(n):
        if all(d >= 2 for d in comp[1:-1]):
            yield comp


def distinct_partitions(n: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of n into strictly increasing positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(min_part, n + 1):
        remaining = n - first
        if remaining == 0:
            yield (first,)
        elif remaining > first:
            for rest in distinct_partitions(remaining, first + 1):
                yield (first,) + rest


def count_partition_pairs(n: int) -> int:
    """Pairs of distinct-part partitions with total weight n, counted
    directly."""
    sizes = [sum(1 for _ in distinct_partitions(a)) for a in range(n + 1)]
    return sum(sizes[a] * sizes[n - a] for a in range(n + 1))


def poly_mul_trunc(a: list[int], b: list[int], limit: int) -> list[int]:
    out = [0] * (limit + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > limit:
            continue
        for j, bj in enumerate(b):
            if i + j > limit:
                break
            out[i + j] += ai * bj
    return out


def gf_u_reversed_order(limit: int) -> list[int]:
    """The distinct-pair series built with factors multiplied in the
    opposite order and by a generic polynomial product."""
    poly = [1]
    for j in range(limit, 0, -1):
        factor = [0] * (min(2 * j, limit) + 1)
        factor[0] = 1
        if j <= limit:
            factor[j] += 2
        if 2 * j <= limit:
            factor[2 * j] += 1
        poly = poly_mul_trunc(poly, factor, limit)
    while len(poly) < limit + 1:
        poly.append(0)
    return poly


def ref_series(limit: int) -> tuple[list[int], list[int]]:
    """Coefficients 0..limit of u_tilde and t2, from one O(limit^2) sweep
    over p of list-wide shift-adds.

    t2 is the sum over p >= 1 of q^(2p) times the product of (1 + q^j)^2
    for j < p, and that partial product is the running product just
    before it takes the factor for p; after the last p it is u_tilde.
    """
    prod = [1] + [0] * limit
    t2 = [0] * (limit + 1)
    for p in range(1, limit + 1):
        # each right side is built in full before its slice is replaced,
        # so it reads the old coefficients
        t2[2 * p :] = map(add, t2[2 * p :], prod)
        for _ in range(2):
            prod[p:] = map(add, prod[p:], prod)
    return prod, t2


def strongly_unimodal_sweep(limit: int, bound: int) -> list[int]:
    """Coefficients 0..limit of U, from Andrews' sum over p >= 0 of
    q^(p+1) times the product of (1 + q^j)^2 for j <= p: a strict-peak
    sequence with peak p + 1 is a pair of distinct-part partitions with
    parts <= p, one on each side of the peak.

    Each series is one packed integer, coefficient k in slot k of a
    width that holds ``bound``; every coefficient met must be at most
    ``bound`` (the product's are at most u_tilde's), else it carries
    into the next slot and the result is wrong.  The term for p reads
    only the product's coefficients below limit - p, so the product is
    cut there.
    """
    size = bound.bit_length() // 8 + 1
    width = 8 * size
    prod, total = 1, 0
    for p in range(limit):
        if p:
            for _ in range(2):
                prod += prod << (p * width)
            prod &= (1 << ((limit - p) * width)) - 1
        total += prod << ((p + 1) * width)
    data = total.to_bytes((limit + 1) * size, "little")
    return [int.from_bytes(data[k * size : (k + 1) * size], "little") for k in range(limit + 1)]


def all_words(n: int) -> Iterator[str]:
    fmt = f"0{n}b"
    if n == 0:
        yield ""
        return
    for v in range(1 << n):
        yield format(v, fmt)
