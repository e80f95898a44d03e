import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_words, complement, ref_profile, valid_profiles
from xxrx import (
    Factorization,
    ProfileError,
    avoids_xxrx_naive,
    factorize,
    format_sequence,
    is_in_l_linear,
    parse_sequence,
    profile,
    reconstruct,
)
from xxrx.factorization import MAX_RECONSTRUCT_LEN


def triple_free_words(max_len):
    for n in range(max_len + 1):
        for w in all_words(n):
            if "000" not in w and "111" not in w:
                yield w


def test_factorize_examples():
    assert factorize("010110100101") == Factorization("0", (4, 4, 4))
    assert factorize("") == Factorization(None, ())
    assert factorize("00") == Factorization("0", (1, 1))
    assert factorize("0101") == Factorization("0", (4,))


def test_reconstruct_examples():
    assert reconstruct("0", (4, 4, 4)) == "010110100101"
    assert reconstruct("1", (1, 1)) == "11"
    assert reconstruct("0", ()) == ""
    # the empty word has no start letter, whatever iterable holds its profile
    assert reconstruct(None, ()) == reconstruct(None, []) == reconstruct(None, iter(())) == ""


def test_reconstruct_rejects_bad_profiles():
    with pytest.raises(ProfileError):
        reconstruct("0", (1, 1, 1))
    with pytest.raises(ProfileError):
        reconstruct("0", (0,))
    with pytest.raises(ProfileError):
        reconstruct("0", (3, -2))
    with pytest.raises(ValueError):
        reconstruct("2", (3,))
    # only the empty profile goes without a start letter
    with pytest.raises(ValueError):
        reconstruct(None, (2,))
    with pytest.raises(ProfileError, match=r"^profile weight 10000001 exceeds 10000000 letters$"):
        reconstruct("0", (MAX_RECONSTRUCT_LEN, 1))
    assert len(reconstruct("0", (MAX_RECONSTRUCT_LEN - 1, 1))) == MAX_RECONSTRUCT_LEN


def test_validate_profile_passes_end_entries_of_one():
    assert reconstruct("0", (1, 2, 1)) == "0011"
    assert reconstruct("0", [1]) == "0"
    assert reconstruct("1", iter((2, 1))) == "100"


# weight 1980, valley-free (equal peak), and the same with one valley
LONG_PEAK = tuple(range(1, 45)) + tuple(range(44, 0, -1))
LONG_VALLEY = tuple(range(1, 45)) + (2,) + tuple(range(44, 0, -1))


def test_is_in_l_linear_examples():
    assert not is_in_l_linear("010110100101")
    assert is_in_l_linear("00")
    assert not is_in_l_linear("000")
    for p, member in ((LONG_PEAK, True), (LONG_VALLEY, False)):
        for start in "01":
            w = reconstruct(start, p)
            assert is_in_l_linear(w) is member
            assert profile(w) == p


def test_profile_matches_reference_and_weight_identity():
    for w in triple_free_words(12):
        p = profile(w)
        assert p == ref_profile(w)
        assert sum(p) == len(w)
        assert all(d >= 1 for d in p)
        assert all(d >= 2 for d in p[1:-1])


def test_round_trip_on_all_triple_free_words():
    for w in triple_free_words(12):
        f = factorize(w)
        assert f == Factorization(w[:1] or None, profile(w))
        assert reconstruct(f.start_letter, f.profile) == w


def test_inverse_round_trip_on_all_valid_profiles():
    for n in range(13):
        for p in valid_profiles(n):
            for start in "01":
                w = reconstruct(start, p)
                assert len(w) == n
                assert profile(w) == p
                if p:
                    assert w[0] == start


def test_profile_is_complement_invariant():
    for w in triple_free_words(10):
        assert profile(w) == profile(complement(w))


@settings(max_examples=300)
@given(st.text(alphabet="01", max_size=200))
def test_linear_recognizer_agrees_with_scan_random(w):
    assert is_in_l_linear(w) == avoids_xxrx_naive(w)


profile_entries = st.lists(st.integers(min_value=1, max_value=9), max_size=8).map(
    lambda raw: tuple(
        d if i == 0 or i == len(raw) - 1 else max(d, 2) for i, d in enumerate(raw)
    )
)


@given(profile_entries, st.sampled_from("01"))
def test_random_profile_round_trip(p, start):
    w = reconstruct(start, p)
    assert profile(w) == p
    assert "000" not in w and "111" not in w


def test_format_parse_profile():
    assert format_sequence((4, 4, 4)) == "(4,4,4)"
    assert format_sequence(()) == "()"
    # a profile read from text goes through parse_sequence, then reconstruct
    assert reconstruct("0", parse_sequence("(4,4,4)")) == "010110100101"
    assert reconstruct("0", parse_sequence("()")) == ""
    assert reconstruct("1", parse_sequence(" ( 1 , 2 ) ")) == "110"
    with pytest.raises(ProfileError):
        reconstruct("0", parse_sequence("(1,1,1)"))
    with pytest.raises(ValueError):
        parse_sequence("4,4,4")
    with pytest.raises(ValueError):
        parse_sequence("(4,x)")


@given(profile_entries, st.sampled_from("01"))
def test_profile_serialization_round_trip(p, start):
    assert profile(reconstruct(start, parse_sequence(format_sequence(p)))) == p


# random long members of L, as the benchmark workloads build them: a
# valley-free profile (one distinct-part partition ascending, another
# descending) always reconstructs to a word avoiding x x^R x


def _random_distinct_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    """Random partition of total into strictly increasing positive parts."""
    parts: list[int] = []
    smallest = 1
    remaining = total
    while remaining:
        if remaining < 2 * smallest + 1:
            parts.append(remaining)
            break
        part = rng.randint(smallest, (remaining - 1) // 2)
        parts.append(part)
        remaining -= part
        smallest = part + 1
    return tuple(parts)


def _random_member_word(rng: random.Random, length: int) -> str:
    if length == 0:
        return ""
    lam = _random_distinct_partition(rng, rng.randint(0, length))
    mu = _random_distinct_partition(rng, length - sum(lam))
    return reconstruct(rng.choice("01"), lam + mu[::-1])


def test_random_member_word_is_a_member():
    rng = random.Random(3)
    for length in list(range(25)) + [100, 1000]:
        w = _random_member_word(rng, length)
        assert len(w) == length
        assert is_in_l_linear(w)
        if length <= 60:
            assert avoids_xxrx_naive(w)
