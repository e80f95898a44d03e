import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_words, ref_find_xxrx
from xxrx import (
    PatternInstance,
    avoids_xxrx_naive,
    check_word,
    complement,
    find_xxrx_instance,
    reconstruct,
    reverse,
)

words = st.text(alphabet="01", max_size=60)


def test_check_word_accepts_binary():
    assert check_word("0101") == "0101"
    assert check_word("") == ""


def test_check_word_rejects_other_symbols():
    with pytest.raises(ValueError):
        check_word("0a1")
    for word, bad in (("0é1", "'é'"), ("01\x00", "'\\x00'"), ("012", "'2'")):
        with pytest.raises(ValueError) as info:
            check_word(word)
        assert str(info.value) == f"word symbols must be '0' or '1', found {bad}"


def test_find_xxrx_worked_example():
    assert find_xxrx_instance("010110100101") == PatternInstance(0, 4)
    # two doubled letters, and the only instance has the longest block
    assert find_xxrx_instance(reconstruct("0", (1000, 1000, 1000))) == PatternInstance(0, 1000)


def test_find_xxrx_trivial_cases():
    assert find_xxrx_instance("") is None
    assert find_xxrx_instance("011001") == PatternInstance(0, 2)
    assert find_xxrx_instance("000") == PatternInstance(0, 1)


def test_avoids_examples():
    assert avoids_xxrx_naive("0101")
    assert avoids_xxrx_naive("")
    assert not avoids_xxrx_naive("010110100101")


def test_complement_reverse_examples():
    assert complement("010") == "101"
    assert reverse("0010") == "0100"
    assert reverse("") == ""


def test_complement_reverse_are_involutions():
    for w in ("", "0", "0110", "010011"):
        assert complement(complement(w)) == w
        assert reverse(reverse(w)) == w


def test_instance_search_matches_reference_exhaustively():
    for n in range(13):
        for w in all_words(n):
            expected = ref_find_xxrx(w)
            got = find_xxrx_instance(w)
            assert (got is None) == (expected is None)
            if got is not None:
                assert (got.start, got.block_len) == expected


def test_avoiders_contain_no_tripled_letter():
    for n in range(13):
        for w in all_words(n):
            if avoids_xxrx_naive(w):
                assert "000" not in w and "111" not in w


@given(words)
def test_witness_revalidates(w):
    inst = find_xxrx_instance(w)
    if inst is not None:
        i, t = inst.start, inst.block_len
        assert i >= 0 and t >= 1 and i + 3 * t <= len(w)
        x = w[i : i + t]
        assert w[i + t : i + 2 * t] == x[::-1]
        assert w[i + 2 * t : i + 3 * t] == x


@given(words)
def test_avoidance_invariant_under_complement_and_reverse(w):
    verdict = avoids_xxrx_naive(w)
    assert avoids_xxrx_naive(complement(w)) == verdict
    assert avoids_xxrx_naive(reverse(w)) == verdict


@settings(max_examples=200)
@given(words)
def test_scan_matches_reference_on_random_words(w):
    expected = ref_find_xxrx(w)
    got = find_xxrx_instance(w)
    assert got == (None if expected is None else PatternInstance(*expected))
