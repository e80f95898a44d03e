"""Random long members of L, as the benchmark workloads build them.

A valley-free profile (one distinct-part partition ascending, another
descending) always reconstructs to a word avoiding x x^R x; the
recognizer must accept it at every length.
"""

import random

from xxrx import avoids_xxrx_naive, is_in_l_linear, reconstruct


def _random_distinct_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    """Random partition of total into strictly increasing positive parts."""
    parts: list[int] = []
    smallest = 1
    remaining = total
    while remaining:
        if remaining < 2 * smallest + 1:
            parts.append(remaining)
            break
        part = rng.randint(smallest, (remaining - 1) // 2)
        parts.append(part)
        remaining -= part
        smallest = part + 1
    return tuple(parts)


def _random_member_word(rng: random.Random, length: int) -> str:
    if length == 0:
        return ""
    lam = _random_distinct_partition(rng, rng.randint(0, length))
    mu = _random_distinct_partition(rng, length - sum(lam))
    return reconstruct(rng.choice("01"), lam + mu[::-1])


def test_random_member_word_is_a_member():
    rng = random.Random(3)
    for length in list(range(25)) + [100, 1000]:
        w = _random_member_word(rng, length)
        assert len(w) == length
        assert is_in_l_linear(w)
        if length <= 60:
            assert avoids_xxrx_naive(w)
