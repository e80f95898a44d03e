import pytest

from helpers import compositions, ref_in_x_template
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
from xxrx import bruteforce, sequences


def test_brute_count_words_examples():
    assert brute_count_words(0) == 1
    assert brute_count_words(5) == 16
    assert brute_count_words(8) == 50


def test_brute_count_words_reaches_the_length_cap():
    c = count_c(24)
    for n in range(21, 25):
        assert brute_count_words(n) == c[n]


def test_brute_count_words_guard():
    with pytest.raises(ValueError):
        brute_count_words(25)
    with pytest.raises(ValueError):
        brute_count_words(-1)


def test_brute_count_x_examples():
    assert brute_count_x(0) == 1
    assert brute_count_x(2) == 2
    assert brute_count_x(4) == 5


def test_brute_count_x_guard():
    with pytest.raises(ValueError):
        brute_count_x(41)
    with pytest.raises(ValueError):
        brute_count_x(-1)


def test_weight_four_members_listed():
    assert set(iter_x_sequences(4)) == {(4,), (1, 3), (3, 1), (2, 2), (1, 2, 1)}


def test_iter_x_sequences_equals_unpruned_filter():
    for n in range(17):
        pruned = sorted(iter_x_sequences(n))
        plain = sorted(s for s in compositions(n) if ref_in_x_template(s))
        assert pruned == plain


def test_iter_words_in_l_matches_naive_filter():
    for n in range(15):
        expected = [w for w in _all(n) if avoids_xxrx_naive(w)]
        assert list(iter_words_in_l(n)) == expected
        zero = [w for w in expected if not w or w[0] == "0"]
        one = [w for w in expected if w and w[0] == "1"]
        assert list(iter_words_in_l(n, "0")) == zero
        got_one = list(iter_words_in_l(n, "1"))
        assert got_one == ([""] if n == 0 else one)


def _all(n):
    if n == 0:
        return [""]
    return [format(v, f"0{n}b") for v in range(1 << n)]


def test_iterators_validate_arguments_at_the_call():
    # no next() is needed for the error
    for call in (
        lambda: iter_words_in_l(30),
        lambda: iter_words_in_l(3, "2"),
        lambda: iter_x_sequences(99),
    ):
        with pytest.raises(ValueError):
            call()


def test_iter_words_in_l_validates_arguments():
    with pytest.raises(ValueError):
        list(iter_words_in_l(30))
    with pytest.raises(ValueError):
        list(iter_words_in_l(3, "2"))
    with pytest.raises(ValueError, match="not 5$"):
        list(iter_words_in_l(3, 5))
    with pytest.raises(ValueError) as info:
        list(iter_words_in_l(3, "x" * 300))
    assert str(info.value) == f"start letter must be '0' or '1', not '{'x' * 60}'…"


def test_word_count_doubles_sequence_count():
    for n in range(1, 13):
        assert brute_count_words(n) == 2 * brute_count_x(n)


def test_cross_check_small_ranges_clean():
    assert cross_check(0, 0).ok
    report = cross_check(8, 12)
    assert report.ok
    assert report.discrepancies == ()
    assert "all counts agree" in report.as_text()
    assert report.as_csv() == "n,side,expected,got\n"


def test_cross_check_guards():
    with pytest.raises(ValueError):
        cross_check(25, 0)
    with pytest.raises(ValueError):
        cross_check(0, 41)


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
        for w in _all(n):
            starts = tuple(k for k in range(1, n) if w[k - 1] == w[k])
            got = bruteforce._ends_in_instance(w, starts)
            assert got == _ends_in_instance_every_t(w), w


def test_every_sequence_node_is_rechecked_with_in_x(monkeypatch):
    def no_equal_pair(s):
        s = tuple(s)
        return sequences.in_x(s) and all(a != b for a, b in zip(s, s[1:]))

    monkeypatch.setattr(bruteforce, "in_x", no_equal_pair)
    report = cross_check(0, 8)
    assert {d.side for d in report.discrepancies} == {"sequences"}
    assert list(iter_x_sequences(4)) == [(1, 2, 1), (1, 3), (3, 1), (4,)]
    assert brute_count_x(4) == 4


def test_cross_check_at_both_caps():
    assert cross_check(MAX_BRUTE_WORD_LEN, MAX_BRUTE_SEQ_WEIGHT).ok
