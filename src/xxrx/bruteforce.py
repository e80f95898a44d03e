"""Exhaustive reference counts for words and sequences.

Everything here recounts from the definitions, with one depth-first
walk per side.  The word side grows the words avoiding x x^R x letter
by letter, testing each new letter with ``_scan_py._is_instance``;
the sequence side grows valley-free sequences entry by entry and
rechecks every one whole with ``sequences.in_x``.  Both sets are
prefix-closed, so one walk to the cap reaches, in preorder, every
member up to the cap.  The walk itself counts the members of every size
and keeps those of the sizes asked for: the counts at every size, the
listings of one size and the bijection check all read from it.  A
member is counted where it is made, and the walk recurses only into one
that may have a child.  Neither walk consults the series tables they
are used to check, or any profile theory, which is what makes a match
evidential.  Hard range guards keep runs at desk scale.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from ._scan_py import _is_instance
from .counting import CountTable
from .factorization import _check_start_letter, profile
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


def _check_range(n: int, cap: int, what: str) -> None:
    if not 0 <= n <= cap:
        raise ValueError(f"{what} limited to 0 <= n <= {cap}")


def _ends_in_instance(w: str, starts: tuple[int, ...]) -> bool:
    """True iff an x x^R x factor ends at the last letter of w.

    starts: every k >= 1 with w[k-1] == w[k], rising.  With |x| = t the
    factor is w[m-3t:m]; its second centre s2 = m - t is such a k (see
    ``_scan_py``) with 3·s2 >= 2m, and its first centre is 2·s2 - m.
    """
    m = len(w)
    for s2 in reversed(starts):
        if 3 * s2 < 2 * m:
            return False
        if _is_instance(w, 2 * s2 - m, s2):
            return True
    return False


def _walk_words(
    n: int, keep: Iterable[int] = (), first_letters: str = "01"
) -> tuple[list[int], dict[int, list[str]]]:
    """Walk every word avoiding x x^R x of length at most n, in preorder:
    the empty word, then those beginning with one of first_letters.
    Returns the number of members at each length 0..n, and for each
    length in keep its members in the order reached.

    The language is factor-closed, so every prefix of a member is a
    member: depth-first growth that keeps a word only while no instance
    ends at its newest letter reaches every member and nothing but
    members.  '0' is tried before '1', so the members of any one length
    are reached in numeric order.  A member is counted where it is made,
    and extended only if it is shorter than n.
    """
    counts = [1] + [0] * n
    kept: dict[int, list[str]] = {k: [] if k else [""] for k in keep}

    def extend(w: str, k: int, starts: tuple[int, ...]) -> None:
        # w: a member of length k < n; counts, keeps and extends its
        # children, of length m
        m = k + 1
        for letter in "01" if k else first_letters:
            child = w + letter
            # a doubled letter at index k starts a block
            grown = starts + (k,) if letter == w[-1:] else starts
            if not _ends_in_instance(child, grown):
                counts[m] += 1
                if m in kept:
                    kept[m].append(child)
                if m < n:
                    extend(child, m, grown)

    if n:
        extend("", 0, ())
    # extend refers to itself: dropping the name frees it, and the lists
    # it holds, now rather than at the next cycle collection
    del extend
    return counts, kept


def _walk_sequences(
    n: int, keep: Iterable[int] = ()
) -> tuple[list[int], dict[int, list[tuple[int, ...]]]]:
    """Walk every valley-free positive sequence of weight at most n, in
    preorder.  Returns the number of members at each weight 0..n, and
    for each weight in keep its members in the order reached.

    A valley cannot be repaired by later entries, so the valley-free
    sequences are prefix-closed.  A new entry d makes the last entry of s
    a valley exactly when s[-2] >= s[-1] <= d, so after a step that does
    not rise only entries below s[-1] are tried.  Entries are tried
    smallest first, so the members of any one weight are reached in
    lexicographic order.  Every node is rechecked whole with in_x; one
    it rejects is neither counted nor extended.  A member is counted
    where it is made, and extended only if some entry may follow it.
    """
    counts = [1] + [0] * n
    kept: dict[int, list[tuple[int, ...]]] = {k: [] if k else [()] for k in keep}

    def extend(s: tuple[int, ...], k: int, top: int) -> None:
        # top >= 1: the largest entry that may follow s, of weight k
        last = s[-1] if s else 0
        for d in range(1, top + 1):
            child = s + (d,)
            if in_x(child):
                weight = k + d
                counts[weight] += 1
                if weight in kept:
                    kept[weight].append(child)
                room = n - weight
                if last >= d:
                    room = min(room, d - 1)
                if room:
                    extend(child, weight, room)

    if n:
        extend((), 0, n)
    del extend  # as in _walk_words
    return counts, kept


def brute_count_words(n: int) -> int:
    """Number of length-n words avoiding x x^R x, by walking them all."""
    _check_range(n, MAX_BRUTE_WORD_LEN, "brute-force word count")
    return _walk_words(n)[0][n]


def iter_words_in_l(n: int, start_letter: str | None = None) -> Iterator[str]:
    """The length-n words avoiding x x^R x, in numeric order.

    start_letter restricts to words beginning with that letter; the
    empty word is yielded for n = 0 regardless.  Bad arguments raise
    ValueError at the call, not at the first item.
    """
    _check_range(n, MAX_BRUTE_WORD_LEN, "brute-force word scan")
    if start_letter is not None:
        _check_start_letter(start_letter)
    return iter(_walk_words(n, (n,), start_letter or "01")[1][n])


def iter_x_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The valley-free positive sequences of weight n, in lexicographic
    order.  A weight out of range raises ValueError at the call."""
    _check_range(n, MAX_BRUTE_SEQ_WEIGHT, "brute-force sequence scan")
    return iter(_walk_sequences(n, (n,))[1][n])


def brute_count_x(n: int) -> int:
    """Number of valley-free positive sequences of weight n."""
    _check_range(n, MAX_BRUTE_SEQ_WEIGHT, "brute-force sequence scan")
    return _walk_sequences(n)[0][n]


class Discrepancy(namedtuple("Discrepancy", "n side expected got")):
    """One disagreement row: expected is the brute-force value."""

    __slots__ = ()
    n: int
    side: str  # "words", "sequences", or "bijection"
    expected: int
    got: int


class CrossCheckReport(
    namedtuple("CrossCheckReport", "max_word_len max_seq_weight discrepancies")
):
    """The rows on which the tables and the brute-force oracles disagree."""

    __slots__ = ()
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
    the table columns c and v.  For every n up to max_word_len the
    profiles of the 0-starting words are additionally required to be
    distinct and to cover exactly the weight-n valley-free sequences.
    Each side is one walk, the sequences' to the larger cap.
    Disagreements are collected, not raised.
    """
    _check_range(max_word_len, MAX_BRUTE_WORD_LEN, "word side")
    _check_range(max_seq_weight, MAX_BRUTE_SEQ_WEIGHT, "sequence side")
    table = CountTable.build(max(max_word_len, max_seq_weight))
    sizes = range(max_word_len + 1)
    word_counts, words = _walk_words(max_word_len, sizes)
    seq_counts, seqs = _walk_sequences(max(max_seq_weight, max_word_len), sizes)
    rows = []
    for n in range(max_word_len + 1):
        if word_counts[n] != table.c[n]:
            rows.append(Discrepancy(n, "words", word_counts[n], table.c[n]))
    for n in range(max_seq_weight + 1):
        if seq_counts[n] != table.v[n]:
            rows.append(Discrepancy(n, "sequences", seq_counts[n], table.v[n]))
    for n in sizes:
        profiles = [profile(w) for w in words[n] if not w.startswith("1")]
        image = set(profiles)
        targets = set(seqs[n])
        if len(image) != len(profiles) or image != targets:
            rows.append(Discrepancy(n, "bijection", len(targets), len(image & targets)))
    return CrossCheckReport(max_word_len, max_seq_weight, tuple(rows))
