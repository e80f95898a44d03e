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

Both series come from dividing a sparse numerator by Euler's E(q), the
product of (1 - q^j) over j >= 1, in O(N^1.5) additions each:

* u_tilde = psi / E, with psi(q) the sum of q^(k(k+1)/2) over k >= 0:
  the product of (1 + q^j) is E(q^2) / E(q), and by Gauss's identity
  psi(q) = E(q^2)^2 / E(q).
* U = R / E counts the strict-peak (strongly unimodal) sequences: U(q)
  is the sum over p >= 0 of q^(p+1) times the product of (1 + q^j)^2 for
  j <= p (G. E. Andrews, "Concave and convex compositions", Ramanujan
  J. 31 (2013)), and R(q) is the sum over n >= 1 and 0 <= j <= (n-1)/2
  of (-1)^j q^(T(n) - T(j)), with T(k) = k(k+1)/2.  U = R / E
  ("identity 2") was found numerically and is not proven.  It is
  checked at every n <= 10000 against a sweep of Andrews' sum itself
  (the tests run it to 2000, CI to MAX_TABLE_LIMIT), and against the
  equal-peak sequences listed one by one up to weight 14.
* t2 = u_tilde - 1 - 2U exactly: (1 + q^(p+1))^2 - 1 = 2 q^(p+1) +
  q^(2p+2); times the product of (1 + q^j)^2 for j <= p, it telescopes
  over p.  So v = u_tilde - U, which is how CountTable.build takes it.

Each valley-free sequence has one or two pair encodings
(``sequence_to_pairs``), so u_tilde/2 <= v <= u_tilde, and with c = 2v,
u_tilde <= c <= 2 u_tilde; verify_bounds checks this sandwich.  From it,
c(n) grows faster than any polynomial and slower than any exponential:
for every n >= 1,

    2^(k+1) <= c(n) <= 2 exp(pi sqrt(2n/3)),  k = max{k >= 0 : k(k+3)/2 < n}.

* Upper bound: the series of u_tilde has nonnegative coefficients, so
  at q = exp(-e), for any e > 0, its term u_tilde(n) q^n is at most the
  product of (1 + exp(-j e))^2 over j >= 1.  log(1 + exp(-x)) falls
  with x, so its sum over j >= 1 at x = j e is at most its integral
  over x > 0 divided by e, (pi^2/12) / e.  So u_tilde(n) <=
  exp(n e + pi^2 / (6 e)), which at e = pi / sqrt(6n) is
  exp(pi sqrt(2n/3)).
* Lower bound: when k(k+3)/2 < n, each subset S of {1, ..., k}, with
  the part n - sum(S) > k added, is a distinct partition lam of n, so
  there are at least 2^k of them.  The pairs (lam, ()) and ((), lam)
  give u_tilde(n) >= 2^(k+1), and c >= u_tilde.

As n grows, the bracket of log c(n) / sqrt(n) tends to
[sqrt(2) log 2, pi sqrt(2/3)], about [0.98, 2.565].
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

__all__ = [
    "AsymptoticEstimate",
    "CountTable",
    "MAX_TABLE_LIMIT",
    "asymptotic_u_tilde",
    "count_c",
    "count_v",
    "gf_u_tilde",
    "verify_bounds",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_FLOAT_MAX_INT = int(sys.float_info.max)

# largest N that `xxrx count` tabulates: a cold build at it must stay
# inside the 10 s budget of test_counting::test_table_at_the_cap
MAX_TABLE_LIMIT = 10_000

COLUMN_ALIASES = {"u": "u_tilde", "u_tilde": "u_tilde", "v": "v", "c": "c"}


def _over_euler(numerator: Sequence[int]) -> list[int]:
    """Coefficients 0..len(numerator)-1 of numerator(q) / E(q), where E(q)
    is Euler's product of (1 - q^j) over j >= 1.

    By the pentagonal number theorem the only nonzero coefficients of E
    are (-1)^k at the generalized pentagonal numbers k(3k - 1)/2 and
    k(3k + 1)/2.  So f = numerator / E has f(n) = numerator(n) plus
    f(n - m) for each pentagonal 0 < m <= n with k odd, minus it for each
    with k even: O(N^1.5) additions.
    """
    limit = len(numerator) - 1
    # generalized pentagonal m (all distinct) -> whether its k is odd
    odd_k: dict[int, bool] = {}
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        odd_k[k * (3 * k - 1) // 2] = odd_k[k * (3 * k + 1) // 2] = k % 2 == 1
        k += 1
    f: list[int] = []
    get = f.__getitem__
    added: list[int] = []
    subtracted: list[int] = []
    for n in range(limit + 1):
        if n in odd_k:
            (added if odd_k[n] else subtracted).append(-n)
        # f holds f(0..n-1), so f[-m] is f(n - m)
        f.append(numerator[n] + sum(map(get, added)) - sum(map(get, subtracted)))
    return f


def _series(limit: int) -> tuple[list[int], list[int]]:
    """Coefficients 0..limit of u_tilde and U (module docstring)."""
    u = gf_u_tilde(limit)
    r = [0] * (limit + 1)
    # the exponents of R fall with j, and for each n the smallest is at
    # least 3n^2/8, so no n above sqrt(3 limit) reaches limit
    for n in range(1, math.isqrt(3 * limit) + 1):
        for j in range((n - 1) // 2, -1, -1):
            degree = (n * (n + 1) - j * (j + 1)) // 2
            if degree > limit:
                break
            r[degree] += -1 if j % 2 else 1
    return u, _over_euler(r)


def gf_u_tilde(limit: int) -> list[int]:
    """Coefficients 0..limit of the product of (1 + q^j)^2 for j >= 1,
    computed as psi / E (module docstring)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    # n is triangular exactly when 8n + 1 is a square
    return _over_euler([int(math.isqrt(8 * n + 1) ** 2 == 8 * n + 1) for n in range(limit + 1)])


def count_v(limit: int) -> list[int]:
    """Exact counts of valley-free positive sequences by weight 0..limit."""
    return list(CountTable.build(limit).v)


def count_c(limit: int) -> list[int]:
    """Exact counts of words avoiding x x^R x by length 0..limit."""
    return list(CountTable.build(limit).c)


class CountTable(namedtuple("CountTable", "limit u_tilde v c")):
    """Immutable columns u_tilde, v, c over indices 0..limit."""

    __slots__ = ()
    limit: int
    u_tilde: tuple[int, ...]
    v: tuple[int, ...]
    c: tuple[int, ...]

    @classmethod
    def build(cls, limit: int) -> CountTable:
        """The table with v = u_tilde - U and c = 2 v, both 1 at n = 0."""
        u, strict = _series(limit)
        v = tuple(un - sn for un, sn in zip(u, strict))
        c = (1,) + tuple(2 * vn for vn in v[1:])
        return cls(limit, tuple(u), v, c)

    def column(self, name: str) -> tuple[int, ...]:
        try:
            return getattr(self, COLUMN_ALIASES[name])
        except KeyError:
            raise ValueError(f"unknown column {name!r}; expected one of u, v, c") from None

    def to_csv(self, column: str | None = None) -> str:
        """Rows n,value under a header: for the one column named (any name
        ``column`` takes), or for u_tilde, v and c when column is None."""
        names = ("u_tilde", "v", "c") if column is None else (COLUMN_ALIASES.get(column, column),)
        fields = [map(str, range(self.limit + 1))]
        fields.extend(map(str, self.column(name)) for name in names)
        return "\n".join([",".join(("n", *names)), *map(",".join, zip(*fields))]) + "\n"

    def to_bfile(self, column: str) -> str:
        """The named column as b-file lines "n value", from index 0."""
        return "".join(f"{i} {v}\n" for i, v in enumerate(self.column(column)))


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


class AsymptoticEstimate(
    namedtuple("AsymptoticEstimate", "n value relative_error_vs_exact", defaults=(None,))
):
    """Closed-form estimate of u_tilde(n), first correction term included.

    The next correction of order 1/n is dropped; relative_error_vs_exact
    is filled only when the caller supplies the exact value.  value is
    math.inf once the estimate exceeds the float range (n above about
    78800); log10_value holds it until sqrt(24n-1) leaves the float range
    (n above about 1e615), and is math.inf after that.  log10_value
    carries about 16 significant digits, so from about 1e15 on not even
    its integer part is known.
    """

    __slots__ = ()
    n: int
    value: float
    relative_error_vs_exact: float | None

    @property
    def log10_value(self) -> float:
        return _log_estimate(self.n) / math.log(10.0)


def asymptotic_u_tilde(n: int, exact: int | None = None) -> AsymptoticEstimate:
    """Evaluate sqrt(3) (24n-1)^(-3/4) exp((pi/6) sqrt(24n-1))
    (1 + (pi^2-9) / (4 pi sqrt(24n-1))).  The exact value, if given,
    must be positive."""
    if n < 1:
        raise ValueError("estimate defined for n >= 1 only")
    if exact is not None and exact <= 0:
        raise ValueError(f"exact value must be positive, got {exact}")
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
