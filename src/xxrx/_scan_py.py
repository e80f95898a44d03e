"""The package's scan kernels, in pure Python; ``BACKEND`` names them.

Words arrive as ASCII bytes of b'0'/b'1' from ``words.check_word``.

Every kernel rests on one pass that finds all doubled letters at once.
The word is read as a big-endian integer x, one byte per letter, so
byte k of the n big-endian bytes of x ^ (x >> 8) is w[k-1] ^ w[k] for
k >= 1.  The codes of '0' and '1' differ only in their low bit, so that
byte is 0 exactly when w[k-1] == w[k], and 1 otherwise.  A block ends
at w[k-1] and the next starts at w[k] exactly there, so splitting bytes
1..n-1 at each 0 leaves one piece per block, one letter short.

A triple letter is two 0 bytes in a row: an empty interior piece of that
split, where only the first and last pieces may be empty.  So the split
that gives the profile also finds every triple letter, and
``profile_of`` runs no search of its own.  An empty interior piece is
no longer than either neighbour, so it is a valley of the pieces'
lengths, and ``is_member`` decides triples and valleys in one call of
``sequences._has_valley``, the valley test that defines X.  It first
searches the first ``_PREFIX`` letters for 000, as an early exit for
random words: the split decides every triple past them, so the bound
changes only the cost, never an answer.
``scan_xxrx`` searches the whole word for 000 the same way, and looks
for a 111 only once it has found a 000.

Conversion from and to bytes, the shift, the XOR and the split all run
in C, in time linear in the word length.  No decimal string is built,
so CPython's limit on int/str conversions (4300 digits by default)
never applies, and words of any length pass.

``_is_instance``, the one test of the definition, is shared with the
brute-force word walk; ``scan_xxrx`` applies it once per interior block,
left to right, since a shortest instance has one block as its x^R.
"""

from __future__ import annotations

from .sequences import _has_valley

# names the kernel module for reports and benchmark records
BACKEND = "python"

# how many leading letters is_member's 000 early exit reads.  A uniform
# random word avoids 000 in its first 256 letters with probability
# ~5.5e-10 (words of length 256 avoiding 000, over 2**256); a member
# pays for this much search and no more before its split
_PREFIX = 256


def _split(w: bytes) -> list[bytes]:
    """The XOR pass every kernel uses: one run per block, each one
    letter shorter than its block.

    A triple letter is an empty interior run.  The first run is empty
    when the word starts with a doubled letter, and the last when it
    ends with one.  The empty word gives one empty run.
    """
    x = int.from_bytes(w, "big")
    return (x ^ (x >> 8)).to_bytes(len(w), "big")[1:].split(b"\0")


def _is_instance(w: bytes | str, s1: int, s2: int) -> bool:
    """True iff w[s1-t:s1], w[s1:s2] reversed and w[s2:s2+t] are one x,
    where t = s2 - s1; the caller keeps 0 < t <= s1 and s2 + t <= len(w).

    Both centres of an instance are doubled letters: x ends with the
    letter x^R begins with, w[s1-1] == w[s1], and x^R ends with the one
    x begins with, w[s2-1] == w[s2].  So only pairs of block starts need
    testing: in a triple-free word, whose starts differ by at least 2,
    only those with t >= 2.

    A shortest instance has no block start between its centres.  If it
    had one, x^R = w[s1:s2] would hold r >= 2 whole blocks b_1..b_r, each
    shorter than t.  x x^R and x^R x are even palindromes centred at s1
    and s2, so the block that ends at s1 is as long as b_1, and the one
    that starts at s2 as long as b_r.  The shortest b_j then has
    neighbours at least as long as itself.  Every block alternates, so
    with u = b_j and b_j starting at s, w[s-u:s], w[s:s+u] reversed and
    w[s+u:s+2u] are one x: an instance with |x| = u < t.  So the shortest
    instances are among the pairs of consecutive block starts, the two
    ends of an interior block.
    """
    t = s2 - s1
    x = w[s1 - t:s1]
    # x again first: it needs no reversed copy
    return w[s2:s2 + t] == x and w[s1:s2] == x[::-1]


def scan_xxrx(w: bytes) -> tuple[int, int] | None:
    """First (block length, then start) occurrence of x x^R x, or None."""
    n = len(w)
    # t = 1 is a triple letter.  As in is_member, a 000 is searched for
    # first, as an early exit; then only a 111 left of it can come first.
    # That search is not bounded at the 000: on a random word both stop
    # within a few letters, and the bounds would cost more than they save
    i0 = w.find(b"000")
    if i0 >= 0:
        i1 = w.find(b"111")
        return (i1 if 0 <= i1 < i0 else i0, 1)
    # a shortest instance has its centres at consecutive block starts, the
    # ends of an interior block (see _is_instance); left to right, a strictly
    # shorter hit replaces the best, so the first of the shortest is kept.
    # A 111 is an interior block of length 1, so the first t = 1 hit is
    # the leftmost 111, and nothing shorter can follow it.  A word of
    # under 3 letters has no interior block
    runs = _split(w)
    found = None
    best = n
    s1 = len(runs[0]) + 1
    for run in runs[1:-1]:
        t = len(run) + 1
        if t < best and t <= s1 and s1 + 2 * t <= n and _is_instance(w, s1, s1 + t):
            found, best = (s1 - t, t), t
            if t == 1:
                break
        s1 += t
    return found


def profile_of(w: bytes) -> list[int]:
    """Block-length profile of a word with no triple letter.

    Raises ValueError if the word contains 000 or 111, since the
    factorization is undefined there.
    """
    if not w:
        return []
    # block lengths; a triple letter is an interior block of length 1
    prof = [len(run) + 1 for run in _split(w)]
    if 1 in prof[1:-1]:
        raise ValueError("word contains a triple letter")
    return prof


def is_member(w: bytes) -> bool:
    """Linear-time membership in the xx^Rx-avoiding language: no triple
    letter and a valley-free profile."""
    # a uniform random word shows a 000 within ~14 letters on average,
    # long before the XOR pass has read it all
    if w.find(b"000", 0, _PREFIX) >= 0:
        return False
    # each run is its block less one letter, which moves no valley, and a
    # triple is an empty interior run, no longer than either neighbour: a
    # valley too.  So X's valley test decides both
    return not _has_valley(list(map(len, _split(w))))
