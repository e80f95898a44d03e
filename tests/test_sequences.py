import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compositions, distinct_partitions, ref_in_x_template
from xxrx import (
    NotInXError,
    PartitionPair,
    SequenceClass,
    SequenceKind,
    classify,
    format_pair,
    format_sequence,
    gf_u_tilde,
    in_x,
    pair_to_sequence,
    parse_sequence,
    sequence_to_pairs,
)


def test_classify_examples():
    assert classify((4, 4, 4)) == SequenceClass(SequenceKind.NOT_IN_X, 2)
    assert classify((1, 2, 1)) == SequenceClass(SequenceKind.TYPE1, 2)
    assert classify((2, 2)) == SequenceClass(SequenceKind.TYPE2, 2)
    assert classify((1, 1, 2)) == SequenceClass(SequenceKind.NOT_IN_X, 2)
    assert classify((5,)) == SequenceClass(SequenceKind.TYPE1, 1)
    assert classify(()) == SequenceClass(SequenceKind.TYPE1, 0)


def test_classify_rejects_nonpositive_entries():
    for bad in ((0,), (3, -1), (1, 0, 1)):
        with pytest.raises(ValueError):
            classify(bad)
        with pytest.raises(ValueError):
            in_x(bad)


def test_in_x_examples():
    assert not in_x((4, 4, 4))
    assert in_x((2, 2))
    assert in_x(())


def test_in_x_is_classify_without_the_witness():
    for n in range(15):
        for s in compositions(n):
            want = classify(s).kind is not SequenceKind.NOT_IN_X
            assert in_x(s) is want
            assert in_x(list(s)) is want
            assert in_x(d for d in s) is want


@pytest.mark.parametrize("bad", [(0,), (3, -1), (1, 0, 1), (2, 1.5), (1, "2", 1)])
def test_in_x_rejects_entries_as_classify_does(bad):
    with pytest.raises(ValueError) as want:
        classify(bad)
    for arg in (bad, list(bad), iter(bad)):
        with pytest.raises(ValueError) as got:
            in_x(arg)
        assert str(got.value) == str(want.value)


def test_pair_to_sequence_examples():
    assert pair_to_sequence(PartitionPair((1, 3), (2,))) == (1, 3, 2)
    assert pair_to_sequence(PartitionPair((), ())) == ()
    seq = pair_to_sequence(PartitionPair((2,), (2,)))
    assert seq == (2, 2)
    assert classify(seq).kind is SequenceKind.TYPE2


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
            kind = classify(s).kind
            assert len(pairs) == (1 if kind is SequenceKind.TYPE2 or not s else 2)
            for p in pairs:
                assert pair_to_sequence(p) == s


def test_valley_test_agrees_with_peak_templates():
    for n in range(13):
        for s in compositions(n):
            assert in_x(s) == ref_in_x_template(s)


def test_no_interior_entry_one_in_x():
    for n in range(13):
        for s in compositions(n):
            if len(s) >= 3 and in_x(s):
                assert 1 not in s[1:-1]


def test_double_counting_identity_matches_series():
    u = gf_u_tilde(12)
    for n in range(13):
        total = sum(len(sequence_to_pairs(s)) for s in compositions(n) if in_x(s))
        assert total == u[n]


def test_classify_witness_revalidates():
    for n in range(12):
        for s in compositions(n):
            verdict = classify(s)
            j = verdict.witness
            if verdict.kind is SequenceKind.NOT_IN_X:
                assert 2 <= j <= len(s) - 1
                assert s[j - 2] >= s[j - 1] <= s[j]
            elif verdict.kind is SequenceKind.TYPE2:
                assert 2 <= j <= len(s)
                assert s[j - 2] == s[j - 1] == max(s)
            elif s:
                assert 1 <= j <= len(s)
                assert s[j - 1] == max(s)
            else:
                assert j == 0


pairs = st.builds(
    PartitionPair,
    st.sets(st.integers(min_value=1, max_value=15), max_size=5).map(sorted).map(tuple),
    st.sets(st.integers(min_value=1, max_value=15), max_size=5).map(sorted).map(tuple),
)


@settings(max_examples=300)
@given(pairs)
def test_pair_to_sequence_lands_in_x(p):
    s = pair_to_sequence(p)
    assert in_x(s)
    assert sum(s) == p.weight
    assert p in sequence_to_pairs(s)


def test_format_sequence_and_pair():
    assert format_sequence((1, 3, 2)) == "(1,3,2)"
    assert format_sequence(()) == "()"
    assert format_pair(PartitionPair((1, 3), (2,))) == "λ=(1,3);μ=(2)"
    assert format_pair(PartitionPair((), ())) == "λ=();μ=()"


def test_parse_sequence():
    assert parse_sequence("(1,3,2)") == (1, 3, 2)
    assert parse_sequence("()") == ()
    assert parse_sequence("(5,)") == (5,)
    with pytest.raises(ValueError):
        parse_sequence("1,3,2")
    with pytest.raises(ValueError):
        parse_sequence("(1,a)")


def test_distinct_partitions_helper_is_sane():
    # anchor the helper used to validate the series elsewhere
    assert sorted(distinct_partitions(6)) == [(1, 2, 3), (1, 5), (2, 4), (6,)]
