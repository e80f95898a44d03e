import itertools

from hypothesis import given
from hypothesis import strategies as st

from helpers import complement, reverse
from xxrx import (
    IntersectionReport,
    QuadCase,
    QuadExponents,
    avoids_xxrx_naive,
    build_quad_word,
    profile,
    verify_intersection_claim,
)
from xxrx import intersect


def test_profile_is_twice_the_exponents():
    # the premise of the module docstring's proof: the word is triple-free
    # (profile accepts it) and splits at its three joins alone
    for e in itertools.product(range(1, 7), repeat=4):
        assert profile(build_quad_word(e)) == tuple(2 * x for x in e)
    # a profile does not fix the start letter
    assert build_quad_word((1, 2, 1, 1)) == "0110100110"


exponents = st.integers(min_value=1, max_value=6)


@given(exponents, exponents, exponents, exponents)
def test_membership_invariant_under_reverse_complement(i, j, k, l):
    w = build_quad_word(QuadExponents(i, j, k, l))
    assert avoids_xxrx_naive(w) == avoids_xxrx_naive(reverse(complement(w)))


def test_report_rendering():
    clean = verify_intersection_claim(2)
    assert "agree everywhere" in clean.as_text()
    assert clean.as_csv() == "i,j,k,l,in_L,predicate\n"

    fabricated = IntersectionReport(
        2, 16, (QuadCase(QuadExponents(1, 2, 3, 4), True, False),)
    )
    assert not fabricated.ok
    assert "1 mismatches" in fabricated.as_text()
    assert fabricated.as_csv() == "i,j,k,l,in_L,predicate\n1,2,3,4,true,false\n"


def test_mismatches_are_records_in_product_order(monkeypatch):
    # only (1, 2, 2, 1) of the 16 quadruples up to 2 is in L, so a
    # predicate that is always true disagrees on the other 15
    monkeypatch.setattr(intersect, "quad_predicate", lambda e: True)
    report = verify_intersection_claim(2)
    want = [e for e in itertools.product((1, 2), repeat=4) if e != (1, 2, 2, 1)]
    assert report.total_cases == 16 and not report.ok
    assert [c.exponents for c in report.mismatches] == want
    for c in report.mismatches:
        assert type(c) is QuadCase and type(c.exponents) is QuadExponents
        assert (c.in_l, c.predicate) == (False, True)
    assert report.as_csv() == "i,j,k,l,in_L,predicate\n" + "".join(
        f"{i},{j},{k},{l},false,true\n" for i, j, k, l in want
    )
    # the loop builds its words as bytes: they are build_quad_word's words
    wide = verify_intersection_claim(6)
    assert [c.exponents for c in wide.mismatches] == [
        e
        for e in itertools.product(range(1, 7), repeat=4)
        if not avoids_xxrx_naive(build_quad_word(e))
    ]
