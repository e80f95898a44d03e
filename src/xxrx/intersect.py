"""The quadruple word family (01)^i (10)^j (01)^k (10)^l.

Each of the four pieces alternates and has at least two letters, so the
word doubles a letter at its three joins (11, 00, 11) and nowhere else,
and has no 000 or 111.  Its profile is therefore (2i, 2j, 2k, 2l), and
it is in the x x^R x avoiding language exactly when that profile is
valley-free (see ``factorization``).  Only the 2nd and 3rd entries have
a neighbour on each side, and 2a >= 2b <= 2c exactly when a >= b <= c,
so membership is "no valley at the 2nd or 3rd entry":

    (i < j or k < j) and (j < k or l < k)

verify_intersection_claim checks that equivalence exhaustively on a box
of exponents, word by word, against the direct pattern scan.  The words
of one (i, j, k) share their head (01)^i (10)^j (01)^k, which is built
once; each word, head and tail, is still scanned whole.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable

from ._scan_py import scan_xxrx

__all__ = [
    "IntersectionReport",
    "QuadCase",
    "QuadExponents",
    "build_quad_word",
    "quad_predicate",
    "verify_intersection_claim",
]

MAX_QUAD_EXPONENT = 10


class QuadExponents(namedtuple("QuadExponents", "i j k l")):
    """The exponents of (01)^i (10)^j (01)^k (10)^l, each at least 1."""

    __slots__ = ()
    i: int
    j: int
    k: int
    l: int

    def __new__(cls, i: int, j: int, k: int, l: int) -> QuadExponents:
        for name, e in (("i", i), ("j", j), ("k", k), ("l", l)):
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"exponent {name} must be a positive integer, got {e!r}")
        return super().__new__(cls, i, j, k, l)

    @classmethod
    def _make(cls, iterable: Iterable) -> QuadExponents:
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)


def quad_predicate(e: tuple[int, int, int, int]) -> bool:
    """The membership condition on the exponents: no valley at the 2nd
    or 3rd entry of the profile (2i, 2j, 2k, 2l)."""
    i, j, k, l = e
    return (i < j or k < j) and (j < k or l < k)


def build_quad_word(e: tuple[int, int, int, int]) -> str:
    i, j, k, l = e
    return "01" * i + "10" * j + "01" * k + "10" * l


class QuadCase(namedtuple("QuadCase", "exponents in_l predicate")):
    """One evaluated quadruple with both verdicts."""

    __slots__ = ()
    exponents: QuadExponents
    in_l: bool
    predicate: bool


class IntersectionReport(namedtuple("IntersectionReport", "max_exp total_cases mismatches")):
    """The quadruples up to max_exp on which scan and predicate disagree."""

    __slots__ = ()
    max_exp: int
    total_cases: int
    mismatches: tuple[QuadCase, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_text(self) -> str:
        head = f"quadruple check: {self.total_cases} cases with exponents up to {self.max_exp}"
        if self.ok:
            return head + ": scan and predicate agree everywhere\n"
        lines = [head + f": {len(self.mismatches)} mismatches"]
        lines.extend(
            f"  (i,j,k,l)=({c.exponents.i},{c.exponents.j},{c.exponents.k},{c.exponents.l})"
            f" in_L={c.in_l} predicate={c.predicate}"
            for c in self.mismatches
        )
        return "\n".join(lines) + "\n"

    def as_csv(self) -> str:
        lines = ["i,j,k,l,in_L,predicate"]
        lines.extend(
            f"{c.exponents.i},{c.exponents.j},{c.exponents.k},{c.exponents.l},"
            f"{str(c.in_l).lower()},{str(c.predicate).lower()}"
            for c in self.mismatches
        )
        return "\n".join(lines) + "\n"


def verify_intersection_claim(max_exp: int) -> IntersectionReport:
    """Scan every quadruple in [1, max_exp]^4 and report disagreements
    between actual membership and the exponent predicate (expected: none).

    The words are the ASCII bytes of build_quad_word's, made as a head
    (01)^i (10)^j (01)^k, built once per (i, j, k), and a tail (10)^l,
    built once per call.  Each whole word goes to ``_scan_py.scan_xxrx``:
    it is made of b"01" and b"10" alone, so it needs no validation.
    """
    if not 1 <= max_exp <= MAX_QUAD_EXPONENT:
        raise ValueError(f"max_exp must be between 1 and {MAX_QUAD_EXPONENT}")
    mismatches = []
    rng = range(1, max_exp + 1)
    tails = [(l, b"10" * l) for l in rng]
    # plain tuples, in range by construction: only a mismatch needs a record
    for i, j, k in itertools.product(rng, repeat=3):
        head = b"01" * i + b"10" * j + b"01" * k
        for l, tail in tails:
            e = (i, j, k, l)
            in_l = scan_xxrx(head + tail) is None
            pred = quad_predicate(e)
            if in_l != pred:
                mismatches.append(QuadCase(QuadExponents(*e), in_l, pred))
    return IntersectionReport(max_exp, max_exp**4, tuple(mismatches))
