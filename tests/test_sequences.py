import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compositions, distinct_partitions, has_equal_peak, ref_in_x_template
from xxrx import (
    NotInXError,
    PartitionPair,
    format_sequence,
    in_x,
    parse_sequence,
    sequence_to_pairs,
)


def test_in_x_examples():
    assert not in_x((4, 4, 4))
    assert not in_x((1, 1, 2))
    assert in_x((1, 2, 1))
    assert in_x((2, 2))
    assert in_x((5,))
    assert in_x(())


@pytest.mark.parametrize("bad", [(0,), (3, -1), (1, 0, 1), (2, 1.5), (1, "2", 1)])
def test_in_x_rejects_entries_as_classify_does(bad):
    # the message names the first bad entry, whatever iterable holds it,
    # as every entry point that checks sequence entries words it
    first = next(d for d in bad if not isinstance(d, int) or d < 1)
    want = f"sequence entries must be positive integers, found {first!r}"
    for arg in (bad, list(bad), iter(bad)):
        with pytest.raises(ValueError) as got:
            in_x(arg)
        assert str(got.value) == want
    with pytest.raises(ValueError) as got:
        sequence_to_pairs(bad)
    assert str(got.value) == want


def test_partition_pair_validation():
    with pytest.raises(ValueError):
        PartitionPair((3, 3), ())
    with pytest.raises(ValueError):
        PartitionPair((2, 1), ())
    with pytest.raises(ValueError):
        PartitionPair((), (0,))
    assert PartitionPair([1, 3], [2]).lam == (1, 3)  # coerced to tuples


def test_sequence_to_pairs_examples():
    assert sequence_to_pairs((1, 3, 2)) == {
        PartitionPair((1, 3), (2,)),
        PartitionPair((1,), (2, 3)),
    }
    assert sequence_to_pairs((2, 2)) == {PartitionPair((2,), (2,))}
    assert sequence_to_pairs(()) == {PartitionPair((), ())}
    assert len(sequence_to_pairs((7,))) == 2


def test_sequence_to_pairs_requires_valley_free():
    with pytest.raises(NotInXError):
        sequence_to_pairs((4, 4, 4))


def test_pairs_reproduce_their_sequence():
    for n in range(11):
        for s in compositions(n):
            if not in_x(s):
                continue
            pairs = sequence_to_pairs(s)
            assert len(pairs) == (1 if has_equal_peak(s) or not s else 2)
            for p in pairs:
                assert p.lam + p.mu[::-1] == s


def test_in_x_is_classify_without_the_witness():
    # the membership verdict, with no peak or valley witness attached,
    # for any iterable of entries
    for n in range(15):
        for s in compositions(n):
            want = ref_in_x_template(s)
            assert in_x(s) is want
            assert in_x(list(s)) is want
            assert in_x(d for d in s) is want


pairs = st.builds(
    PartitionPair,
    st.sets(st.integers(min_value=1, max_value=15), max_size=5).map(sorted).map(tuple),
    st.sets(st.integers(min_value=1, max_value=15), max_size=5).map(sorted).map(tuple),
)


@settings(max_examples=300)
@given(pairs)
def test_pair_to_sequence_lands_in_x(p):
    # lam ascending, then mu descending: always valley-free, and one of
    # the sequence's own encodings
    s = p.lam + p.mu[::-1]
    assert in_x(s)
    assert p in sequence_to_pairs(s)


def test_format_sequence_and_pair():
    assert format_sequence((1, 3, 2)) == "(1,3,2)"
    assert format_sequence(()) == "()"
    # a pair renders as its two parts, as README's API notes spell it
    for pair, want in (
        (PartitionPair((1, 3), (2,)), "λ=(1,3);μ=(2)"),
        (PartitionPair((), ()), "λ=();μ=()"),
    ):
        assert f"λ={format_sequence(pair.lam)};μ={format_sequence(pair.mu)}" == want


def test_parse_sequence():
    assert parse_sequence("(1,3,2)") == (1, 3, 2)
    assert parse_sequence("()") == ()
    assert parse_sequence("(5,)") == (5,)
    assert parse_sequence("( )") == ()
    for text in ("1,3,2", "(1,3", "1,3)", "(1,a)"):
        with pytest.raises(ValueError):
            parse_sequence(text)
    # a comma with no entry before it is not a trailing comma, and a
    # text of 60 characters is echoed whole
    for text in ("(,)", "( , )", "(" + "x" * 58 + ")"):
        with pytest.raises(ValueError) as got:
            parse_sequence(text)
        assert str(got.value) == f"non-integer entry in sequence {text!r}"
    # the sign is not counted as a digit, and the echo is cut to 60 characters
    with pytest.raises(ValueError) as got:
        parse_sequence("(-" + "7" * 5000 + ")")
    assert str(got.value) == (
        f"entry too long (5000 digits, limit {sys.get_int_max_str_digits()}) "
        f"in sequence '(-{'7' * 58}'…"
    )


def test_distinct_partitions_helper_is_sane():
    # anchor the helper used to validate the series elsewhere
    assert sorted(distinct_partitions(6)) == [(1, 2, 3), (1, 5), (2, 4), (6,)]
