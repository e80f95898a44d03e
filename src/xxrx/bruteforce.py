"""Exhaustive reference counts for words and sequences.

Everything here recounts from the definitions: the word side grows the
words avoiding x x^R x letter by letter, testing each new letter against
the pattern's definition, and the sequence side walks compositions of n
and applies the valley test.  Neither consults the series tables they
are used to check, which is what makes a match evidential.  Hard range
guards keep runs at desk scale.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .counting import CountTable
from .factorization import profile
from .sequences import in_x

__all__ = [
    "CrossCheckReport",
    "Discrepancy",
    "MAX_BRUTE_SEQ_WEIGHT",
    "MAX_BRUTE_WORD_LEN",
    "brute_count_words",
    "brute_count_x",
    "cross_check",
    "iter_words_in_l",
    "iter_x_sequences",
]

MAX_BRUTE_WORD_LEN = 24
MAX_BRUTE_SEQ_WEIGHT = 40

# bijection spot-checks stay at the lengths the acceptance suite checks
# exhaustively (criterion 4)
_BIJECTION_LEN_CAP = 16


def _ends_in_instance(w: str) -> bool:
    """True iff an x x^R x factor ends at the last letter of w, tested
    straight from the definition on every suffix of length 3t."""
    m = len(w)
    for t in range(1, m // 3 + 1):
        x = w[m - t :]
        if w[m - 2 * t : m - t] == x[::-1] and w[m - 3 * t : m - 2 * t] == x:
            return True
    return False


def _walk(n: int, first_letters: str) -> Iterator[str]:
    """Yield the length-n words avoiding x x^R x that begin with one of
    first_letters, in numeric order.

    The language is factor-closed, so every prefix of a member is a
    member: depth-first growth that keeps a word only while no instance
    ends at its newest letter reaches every member and visits nothing
    but members of length up to n.  '0' is tried before '1', which gives
    the numeric order.
    """

    def extend(w: str) -> Iterator[str]:
        if len(w) == n:
            yield w
            return
        for letter in "01":
            child = w + letter
            if not _ends_in_instance(child):
                yield from extend(child)

    if n == 0:
        yield ""
        return
    for letter in first_letters:
        yield from extend(letter)


def brute_count_words(n: int) -> int:
    """Number of length-n words avoiding x x^R x, by walking them all."""
    if not 0 <= n <= MAX_BRUTE_WORD_LEN:
        raise ValueError(f"brute-force word count limited to 0 <= n <= {MAX_BRUTE_WORD_LEN}")
    return sum(1 for _ in _walk(n, "01"))


def iter_words_in_l(n: int, start_letter: str | None = None) -> Iterator[str]:
    """Yield the length-n words avoiding x x^R x, in numeric order.

    start_letter restricts to words beginning with that letter; the
    empty word is yielded for n = 0 regardless.
    """
    if not 0 <= n <= MAX_BRUTE_WORD_LEN:
        raise ValueError(f"brute-force word scan limited to 0 <= n <= {MAX_BRUTE_WORD_LEN}")
    if start_letter not in (None, "0", "1"):
        raise ValueError(f"start letter must be '0' or '1', not {start_letter!r}")
    yield from _walk(n, start_letter or "01")


def iter_x_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the valley-free positive sequences of weight n.

    Depth-first over compositions of n; a branch is dropped as soon as
    its newest interior entry is a valley, since later entries cannot
    repair one.  Each completed composition is still rechecked whole.
    """
    if not 0 <= n <= MAX_BRUTE_SEQ_WEIGHT:
        raise ValueError(f"brute-force sequence scan limited to 0 <= n <= {MAX_BRUTE_SEQ_WEIGHT}")

    def extend(prefix: tuple[int, ...], remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if in_x(prefix):
                yield prefix
            return
        for d in range(1, remaining + 1):
            cand = prefix + (d,)
            if len(cand) >= 3 and cand[-3] >= cand[-2] <= cand[-1]:
                continue
            yield from extend(cand, remaining - d)

    if n == 0:
        yield ()
        return
    yield from extend((), n)


def brute_count_x(n: int) -> int:
    """Number of valley-free positive sequences of weight n."""
    return sum(1 for _ in iter_x_sequences(n))


@dataclass(frozen=True)
class Discrepancy:
    """One disagreement row: expected is the brute-force value."""

    n: int
    side: str  # "words", "sequences", or "bijection"
    expected: int
    got: int


@dataclass(frozen=True)
class CrossCheckReport:
    max_word_len: int
    max_seq_weight: int
    discrepancies: tuple[Discrepancy, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def as_text(self) -> str:
        head = (
            f"cross-check: words to length {self.max_word_len}, "
            f"sequences to weight {self.max_seq_weight}"
        )
        if self.ok:
            return head + ": all counts agree\n"
        lines = [head + f": {len(self.discrepancies)} discrepancies"]
        lines.extend(
            f"  n={d.n} side={d.side} expected={d.expected} got={d.got}"
            for d in self.discrepancies
        )
        return "\n".join(lines) + "\n"

    def as_csv(self) -> str:
        lines = ["n,side,expected,got"]
        lines.extend(
            f"{d.n},{d.side},{d.expected},{d.got}" for d in self.discrepancies
        )
        return "\n".join(lines) + "\n"


def cross_check(max_word_len: int, max_seq_weight: int) -> CrossCheckReport:
    """Compare the series tables against brute force, and spot-check the
    profile bijection.

    For each n up to the caps, the word and sequence counts must match
    the table columns c and v.  For n up to min(max_word_len, 16) the
    profiles of the 0-starting words are additionally required to be
    distinct and to cover exactly the weight-n valley-free sequences.
    Disagreements are collected, not raised.
    """
    if not 0 <= max_word_len <= MAX_BRUTE_WORD_LEN:
        raise ValueError(f"word side limited to 0 <= n <= {MAX_BRUTE_WORD_LEN}")
    if not 0 <= max_seq_weight <= MAX_BRUTE_SEQ_WEIGHT:
        raise ValueError(f"sequence side limited to 0 <= n <= {MAX_BRUTE_SEQ_WEIGHT}")
    table = CountTable.build(max(max_word_len, max_seq_weight))
    rows = []
    for n in range(max_word_len + 1):
        brute = brute_count_words(n)
        if brute != table.c[n]:
            rows.append(Discrepancy(n, "words", brute, table.c[n]))
    for n in range(max_seq_weight + 1):
        brute = brute_count_x(n)
        if brute != table.v[n]:
            rows.append(Discrepancy(n, "sequences", brute, table.v[n]))
    for n in range(min(max_word_len, _BIJECTION_LEN_CAP) + 1):
        profiles = [profile(w) for w in iter_words_in_l(n, "0")]
        image = set(profiles)
        targets = set(iter_x_sequences(n))
        if len(image) != len(profiles) or image != targets:
            rows.append(Discrepancy(n, "bijection", len(targets), len(image & targets)))
    return CrossCheckReport(max_word_len, max_seq_weight, tuple(rows))
