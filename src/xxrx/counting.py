"""Exact count tables and the closed-form asymptotic estimate.

Three sequences are tabulated with arbitrary-precision integers:

* u_tilde(n): pairs of partitions of n into distinct parts, read off the
  series product of (1 + q^j)^2 over j >= 1.
* v(n): valley-free positive sequences of weight n.  Splitting at the
  peak maps each pair of distinct-part partitions to such a sequence;
  strict-peak sequences are hit twice and equal-peak sequences once, so
  v(n) = (u_tilde(n) + t2(n)) / 2 with t2 counting the equal-peak kind.
* c(n): binary words of length n avoiding x x^R x.  Each valley-free
  sequence of weight n is the profile of exactly one such word per start
  letter, so c(n) = 2 v(n) for n >= 1.

The series u_tilde and t2 are built on packed integers.  The distinct-part
partition counts Q, with u_tilde = Q^2, come from Euler's pentagonal
number theorem (Q(q) E(q) = E(q^2)) in O(N^1.5) small additions.  Packing
Q one coefficient per fixed-width slot of an integer turns Q^2 into one
big-integer square (Kronecker substitution).  t2 comes from a sweep over
the peak p <= N/2 whose running product, packed the same way, is cut to
the degrees later terms can still reach, so each step is a few shifts and
additions.  The slot width is derived from u_tilde(N), which bounds every
coefficient of degree <= N that either construction produces.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

__all__ = [
    "AsymptoticEstimate",
    "CountTable",
    "MAX_TABLE_LIMIT",
    "asymptotic_u_tilde",
    "count_c",
    "count_v",
    "gf_u_tilde",
    "type2_counts",
    "verify_bounds",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_FLOAT_MAX_INT = int(sys.float_info.max)

# largest N that `xxrx count` and `xxrx oeis-compare` tabulate:
# CountTable.build(10_000) takes seconds, and the time grows about as N^2
MAX_TABLE_LIMIT = 10_000

COLUMN_ALIASES = {"u": "u_tilde", "u_tilde": "u_tilde", "v": "v", "c": "c"}


def _distinct_partitions(limit: int) -> list[int]:
    """Coefficients 0..limit of Q, the product of (1 + q^j) for j >= 1.

    Q(q) E(q) = E(q^2) for Euler's E(q), the product of (1 - q^j), whose
    only nonzero coefficients are (-1)^k at the generalized pentagonal
    numbers k(3k - 1)/2 and k(3k + 1)/2.  So Q(n) is the coefficient of
    q^n in E(q^2) plus Q(n - m) for each pentagonal 0 < m <= n with k
    odd, minus it for each with k even: O(limit^1.5) small additions.
    """
    # generalized pentagonal m (all distinct) -> whether its k is odd
    odd_k: dict[int, bool] = {}
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        odd_k[k * (3 * k - 1) // 2] = odd_k[k * (3 * k + 1) // 2] = k % 2 == 1
        k += 1
    e_square = [1] + [0] * limit
    for m, odd in odd_k.items():
        if 2 * m <= limit:
            e_square[2 * m] = -1 if odd else 1
    q: list[int] = []
    get = q.__getitem__
    added: list[int] = []
    subtracted: list[int] = []
    for n in range(limit + 1):
        if n in odd_k:
            (added if odd_k[n] else subtracted).append(-n)
        # q holds Q(0..n-1), so q[-m] is Q(n - m)
        q.append(e_square[n] + sum(map(get, added)) - sum(map(get, subtracted)))
    return q


def _series(limit: int) -> tuple[list[int], list[int]]:
    """Coefficients 0..limit of u_tilde and t2.

    Both are computed on integers that pack one coefficient per slot of
    a fixed number of bytes (Kronecker substitution).  Every coefficient
    of degree <= limit produced below counts some of the distinct-part
    partition pairs that u_tilde(limit) counts, and u_tilde is
    nondecreasing, so u_tilde(limit) fits a slot and no slot at degree
    <= limit ever carries into the next.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    q = _distinct_partitions(limit)
    width = (sum(map(mul, q, reversed(q))).bit_length() + 7) // 8
    bits, size = 8 * width, width * (limit + 1)

    # u_tilde = Q^2 in one big-integer square.  Slots above degree limit
    # may overflow, but carries only move up, past the slots kept.
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in q), "little")
    low = (packed * packed).to_bytes(2 * size, "little")
    u = [int.from_bytes(low[i : i + width], "little") for i in range(0, size, width)]

    # t2 is the sum over p of q^(2p) P(p-1), with P(p) the product of
    # (1 + q^j)^2 for j <= p.  Only p <= limit/2 reach degree limit, and
    # then P(p-1) only up to degree limit - 2p.  prod holds P(p-1) reversed
    # about that degree (slot i is the coefficient of degree limit-2p-i), so
    # cutting degrees off and multiplying by q^p are right shifts, and
    # q^(2p) P(p-1) lines up with t2, which is held reversed about limit.
    prod, t2 = 1 << (limit * bits), 0
    for p in range(1, limit // 2 + 1):
        prod >>= 2 * bits
        t2 += prod
        prod += prod >> (p * bits)
        prod += prod >> (p * bits)
    high = t2.to_bytes(size, "big")
    return u, [int.from_bytes(high[i : i + width], "big") for i in range(0, size, width)]


def gf_u_tilde(limit: int) -> list[int]:
    """Coefficients 0..limit of the product of (1 + q^j)^2 for j >= 1."""
    return _series(limit)[0]


def type2_counts(limit: int) -> list[int]:
    """Coefficients 0..limit counting equal-peak valley-free sequences.

    A weight-n sequence whose two maxima equal p is a pair of strictly
    increasing runs below p on either side, giving the series sum over
    p >= 1 of q^(2p) times the product of (1 + q^j)^2 for j < p.
    """
    return _series(limit)[1]


def count_v(limit: int) -> list[int]:
    """Exact counts of valley-free positive sequences by weight 0..limit."""
    return list(CountTable.build(limit).v)


def count_c(limit: int) -> list[int]:
    """Exact counts of words avoiding x x^R x by length 0..limit."""
    return list(CountTable.build(limit).c)


@dataclass(frozen=True)
class CountTable:
    """Immutable columns u_tilde, v, c over indices 0..limit."""

    limit: int
    u_tilde: tuple[int, ...]
    v: tuple[int, ...]
    c: tuple[int, ...]

    @classmethod
    def build(cls, limit: int) -> CountTable:
        return cls.from_series(limit, *_series(limit))

    @classmethod
    def from_series(cls, limit: int, u: Sequence[int], t2: Sequence[int]) -> CountTable:
        """The table with v = (u_tilde + t2) / 2 and c = 2 v, both 1 at n = 0."""
        v = [1]
        for n in range(1, limit + 1):
            total = u[n] + t2[n]
            if total % 2:
                raise RuntimeError(
                    f"double-counting parity broken at weight {n}: {u[n]} + {t2[n]} is odd"
                )
            v.append(total // 2)
        c = [1] + [2 * vn for vn in v[1:]]
        return cls(limit, tuple(u), tuple(v), tuple(c))

    @property
    def t2(self) -> tuple[int, ...]:
        """The equal-peak series: c - u_tilde, which is 0 at n = 0."""
        return tuple(cn - un for un, cn in zip(self.u_tilde, self.c))

    def column(self, name: str) -> tuple[int, ...]:
        try:
            return getattr(self, COLUMN_ALIASES[name])
        except KeyError:
            raise ValueError(f"unknown column {name!r}; expected one of u, v, c") from None

    def to_csv(self) -> str:
        lines = ["n,u_tilde,v,c"]
        lines.extend(
            f"{n},{self.u_tilde[n]},{self.v[n]},{self.c[n]}" for n in range(self.limit + 1)
        )
        return "\n".join(lines) + "\n"


def _log_estimate(n: int) -> float:
    """Natural logarithm of the estimate of u_tilde(n) for any int n >= 1;
    math.inf once sqrt(24n-1) leaves the float range."""
    m = 24 * n - 1
    try:
        # past the float range, 24n-1 converts only through its square root
        root = math.sqrt(m) if m <= _FLOAT_MAX_INT else float(math.isqrt(m))
    except OverflowError:
        return math.inf
    # math.log is exact on ints of any size
    return (
        0.5 * math.log(3.0)
        - 0.75 * math.log(m)
        + math.pi / 6.0 * root
        + math.log1p((math.pi**2 - 9.0) / (4.0 * math.pi * root))
    )


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Closed-form estimate of u_tilde(n), first correction term included.

    The next correction of order 1/n is dropped; relative_error_vs_exact
    is filled only when the caller supplies the exact value.  value is
    math.inf once the estimate exceeds the float range (n above about
    78800); log10_value holds it until sqrt(24n-1) leaves the float range
    (n above about 1e615), and is math.inf after that.  log10_value
    carries about 16 significant digits, so from about 1e15 on not even
    its integer part is known.
    """

    n: int
    value: float
    relative_error_vs_exact: float | None = None

    @property
    def log10_value(self) -> float:
        return _log_estimate(self.n) / math.log(10.0)


def asymptotic_u_tilde(n: int, exact: int | None = None) -> AsymptoticEstimate:
    """Evaluate sqrt(3) (24n-1)^(-3/4) exp((pi/6) sqrt(24n-1))
    (1 + (pi^2-9) / (4 pi sqrt(24n-1)))."""
    if n < 1:
        raise ValueError("estimate defined for n >= 1 only")
    m = 24 * n - 1
    try:
        root = math.sqrt(m)
        value = (
            math.sqrt(3.0)
            * m ** -0.75
            * math.exp(math.pi / 6.0 * root)
            * (1.0 + (math.pi**2 - 9.0) / (4.0 * math.pi * root))
        )
    except OverflowError:
        # the exponential alone leaves the float range a little before
        # the whole product does, and 24n-1 itself from n ~ 7e306; past
        # that, only the logarithm is kept
        log_value = _log_estimate(n)
        value = math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf
    if exact is None:
        err = None
    elif math.isinf(value) or exact > sys.float_info.max:
        err = abs(math.expm1(_log_estimate(n) - math.log(exact)))
    else:
        err = abs(value / exact - 1.0)
    return AsymptoticEstimate(n, value, err)


def verify_bounds(limit: int) -> bool:
    """Check u/2 <= v <= u and u <= c <= 2u for 1 <= n <= limit.

    All comparisons are exact; the lower sandwich is tested as
    2 v(n) >= u_tilde(n) to stay in integers.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    table = CountTable.build(limit)
    for n in range(1, limit + 1):
        u, v, c = table.u_tilde[n], table.v[n], table.c[n]
        if not (2 * v >= u and v <= u):
            return False
        if not (u <= c <= 2 * u):
            return False
    return True
