import sys
import time

import pytest

from helpers import all_words, compositions, ref_in_x_template
from xxrx import (
    MAX_BRUTE_SEQ_WEIGHT,
    MAX_BRUTE_WORD_LEN,
    CrossCheckReport,
    Discrepancy,
    avoids_xxrx_naive,
    brute_count_words,
    brute_count_x,
    count_c,
    cross_check,
    iter_words_in_l,
    iter_x_sequences,
)
from xxrx import bruteforce


def test_brute_count_words_reaches_the_length_cap():
    c = count_c(24)
    for n in range(21, 25):
        assert brute_count_words(n) == c[n]


def test_range_guards_raise_at_the_call():
    # the iterators refuse at the call: no next() is needed for the error
    words_cap = "brute-force word count limited to 0 <= n <= 24"
    seq_cap = "brute-force sequence scan limited to 0 <= n <= 40"
    letter = "start letter must be '0' or '1', not "
    for call, want in [
        (lambda: brute_count_words(25), words_cap),
        (lambda: brute_count_words(-1), words_cap),
        (lambda: brute_count_x(41), seq_cap),
        (lambda: brute_count_x(-1), seq_cap),
        (lambda: iter_words_in_l(30), "brute-force word scan limited to 0 <= n <= 24"),
        (lambda: iter_x_sequences(99), seq_cap),
        (lambda: cross_check(25, 0), "word side limited to 0 <= n <= 24"),
        (lambda: cross_check(0, 41), "sequence side limited to 0 <= n <= 40"),
        (lambda: iter_words_in_l(3, "2"), letter + "'2'"),
        (lambda: iter_words_in_l(3, 5), letter + "5"),
        (lambda: iter_words_in_l(3, "x" * 300), letter + f"'{'x' * 60}'…"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want


def test_iter_x_sequences_equals_unpruned_filter():
    for n in range(17):
        pruned = sorted(iter_x_sequences(n))
        plain = sorted(s for s in compositions(n) if ref_in_x_template(s))
        assert pruned == plain


def test_iter_words_in_l_matches_naive_filter():
    for n in range(15):
        expected = [w for w in all_words(n) if avoids_xxrx_naive(w)]
        assert list(iter_words_in_l(n)) == expected
        zero = [w for w in expected if not w or w[0] == "0"]
        one = [w for w in expected if w and w[0] == "1"]
        assert list(iter_words_in_l(n, "0")) == zero
        got_one = list(iter_words_in_l(n, "1"))
        assert got_one == ([""] if n == 0 else one)


def test_cross_check_small_ranges_clean():
    assert cross_check(0, 0).ok
    report = cross_check(8, 12)
    assert report.ok
    assert report.discrepancies == ()
    assert "all counts agree" in report.as_text()
    assert report.as_csv() == "n,side,expected,got\n"


def test_report_rendering_with_rows():
    report = CrossCheckReport(4, 4, (Discrepancy(3, "words", 6, 7),))
    assert not report.ok
    assert "n=3 side=words expected=6 got=7" in report.as_text()
    assert report.as_csv() == "n,side,expected,got\n3,words,6,7\n"


def _ends_in_instance_every_t(w):
    m = len(w)
    for t in range(1, m // 3 + 1):
        x = w[m - t :]
        if w[m - 2 * t : m - t] == x[::-1] and w[m - 3 * t : m - 2 * t] == x:
            return True
    return False


def test_doubled_centre_scan_agrees_with_every_t_scan():
    for n in range(15):
        for w in all_words(n):
            starts = tuple(k for k in range(1, n) if w[k - 1] == w[k])
            got = bruteforce._ends_in_instance(w, starts)
            assert got == _ends_in_instance_every_t(w), w


def test_walk_never_tries_a_tripled_letter(monkeypatch):
    real, tested = bruteforce._ends_in_instance, []

    def recorded(w, starts):
        tested.append(w)
        return real(w, starts)

    monkeypatch.setattr(bruteforce, "_ends_in_instance", recorded)
    bruteforce._walk_words(14)
    assert not [w for w in tested if w.endswith(("000", "111"))]
    # a member tries both letters, but one that ends in a doubled letter
    # only the other: the empty word gives 2
    members = [u for n in range(14) for u in all_words(n) if avoids_xxrx_naive(u)]
    assert len(tested) == sum(1 if u[-2:] in ("00", "11") else 2 for u in members)


def test_cross_check_at_both_caps():
    # one walk per side, inside a 30 s budget
    start = time.perf_counter()
    assert cross_check(MAX_BRUTE_WORD_LEN, MAX_BRUTE_SEQ_WEIGHT).ok
    assert time.perf_counter() - start < 30


def test_sequence_walk_calls_only_nodes_with_room_two():
    # a node with room 1 has one child, entry 1, with room 0: the walk
    # counts it in place, so only the root and the nodes with room >= 2
    # are calls of extend
    code = next(c for c in bruteforce._walk_sequences.__code__.co_consts
                if getattr(c, "co_name", None) == "extend")

    def room(s, n):
        r = n - sum(s)
        return min(r, s[-1] - 1) if len(s) >= 2 and s[-2] >= s[-1] else r

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    for n in (12, 22):
        calls = [0]
        sys.setprofile(count)
        try:
            bruteforce._walk_sequences(n)
        finally:
            sys.setprofile(None)
        want = 1 + sum(room(s, n) >= 2 for k in range(1, n) for s in iter_x_sequences(k))
        assert calls[0] == want
