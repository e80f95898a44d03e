"""Exhaustive reference counts for words and sequences.

Everything here recounts from the definitions, with one depth-first
walk per side.  The word side grows the words avoiding x x^R x letter
by letter, testing each new letter with ``_scan_py._is_instance`` and
never trying a third equal letter in a row, which would end in x x^R x
with |x| = 1; the sequence side grows valley-free sequences entry by
entry, trying only the entries that leave the newest interior entry no
valley.  Both sets are prefix-closed, so one walk to the cap reaches,
in preorder, every member up to the cap.  The walk itself counts the
members of every size and keeps those of the sizes asked for: the
counts at every size, the listings of one size and the bijection check
all read from it.  A member is counted where it is made, and the walk
recurses only into one that may have a child.  Each parent passes its
child what it just learnt in making it, rather than have the child
derive it again: a word's last letter and whether it ends doubled, a
sequence's last entry and the largest entry that may follow.  A
sequence that only the entry 1 may follow has that one child and no
grandchild, so its parent counts that leaf in place instead of making
a call that would do only that.  Neither walk consults
the series tables they are used to check, or any profile theory, which
is what makes a match evidential.  Hard range guards keep runs at desk
scale.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from ._scan_py import _is_instance
from .counting import CountTable
from .factorization import _check_start_letter, profile

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
    ``_scan_py``) with 3·s2 >= 2m, and its first centre s1 = 2·s2 - m,
    which is then at least t >= 1, is a doubled letter too: that one
    comparison comes before the test of the definition.
    """
    m = len(w)
    for s2 in reversed(starts):
        if 3 * s2 < 2 * m:
            return False
        s1 = 2 * s2 - m
        if w[s1 - 1] == w[s1] and _is_instance(w, s1, s2):
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
    members.  A member that ends in a doubled letter is not offered that
    letter again: the child would end in a triple, x x^R x with |x| = 1,
    so it is no member, and nothing is lost by not making it.  Every
    child that is made is tested.  The parent appended the child's last
    letter, and knows whether it equals its own, so it hands the child
    both: that letter, and whether the child ends in a doubled letter.
    '0' is tried before '1', so the members of any one length are
    reached in numeric order.  A member is
    counted where it is made, and extended only if it is shorter than n.
    """
    counts = [1] + [0] * n
    kept: dict[int, list[str]] = {k: [] if k else [""] for k in keep}

    def extend(w: str, k: int, starts: tuple[int, ...], last: str, doubled: bool) -> None:
        # w: a member of length k < n, with last letter last ("" if
        # empty), ending in a doubled letter iff doubled; counts, keeps
        # and extends its children, of length m
        m = k + 1
        for letter in "01" if k else first_letters:
            if letter == last:
                if doubled:
                    continue
                # a doubled letter at index k starts a block
                grown = starts + (k,)
            else:
                grown = starts
            child = w + letter
            if not _ends_in_instance(child, grown):
                counts[m] += 1
                if m in kept:
                    kept[m].append(child)
                if m < n:
                    extend(child, m, grown, letter, letter == last)

    if n:
        extend("", 0, (), "", False)
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
    sequences are prefix-closed.  A child s + (d,) of s has one new
    interior entry, s[-1], and it is a valley exactly when
    s[-2] >= s[-1] <= d.  So after a step that does not rise only
    entries below s[-1] are tried: exactly the d for which that fails.
    By induction from the empty sequence every node is valley-free, and
    every valley-free sequence within the weight is reached, through its
    prefixes; no node needs a second test.  This is the argument of
    _walk_words, which tests only the instances ending at the new
    letter.  Entries are tried smallest first, so the members of any one
    weight are reached in lexicographic order.  A member is counted
    where it is made, and extended only if some entry may follow it.
    When only the entry 1 may follow it, that one child ends the branch:
    its last step, to 1, does not rise, so only entries below 1 may
    follow it, and there are none.  The parent counts, and keeps, that
    leaf in place; a call would do nothing more, and at weight 22 these
    leaves are about half the nodes the walk would call.  Each node
    carries its last entry, and is built as a tuple only up to the
    heaviest weight kept: above it only the counts are needed.
    """
    counts = [1] + [0] * n
    kept: dict[int, list[tuple[int, ...]]] = {k: [] if k else [()] for k in keep}
    deepest = max(kept, default=0)

    def extend(s: tuple[int, ...], k: int, top: int, last: int) -> None:
        # top: the largest entry that may follow s, of weight k and last
        # entry last (0 if empty); at least 2, or 1 for the root.  Past
        # deepest no tuple is built: the s handed down there is a stale
        # prefix, and is never read
        child = s
        for d in range(1, top + 1):
            weight = k + d
            counts[weight] += 1
            if weight <= deepest:
                child = s + (d,)
                if weight in kept:
                    kept[weight].append(child)
            room = n - weight
            if last >= d and room >= d:
                room = d - 1
            if room == 1:
                # the one child, entry 1, has room 0: counted here
                counts[weight + 1] += 1
                if weight + 1 in kept:
                    kept[weight + 1].append(child + (1,))
            elif room:
                extend(child, weight, room, d)

    if n:
        extend((), 0, n, 0)
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
