import math
import time

import pytest

from helpers import (
    count_partition_pairs,
    gf_u_reversed_order,
    has_equal_peak,
    ref_series,
    strongly_unimodal_sweep,
)
from xxrx import (
    CountTable,
    asymptotic_u_tilde,
    count_c,
    count_v,
    gf_u_tilde,
    iter_x_sequences,
    verify_bounds,
)
from xxrx.counting import MAX_TABLE_LIMIT

# rows 0..12, frozen after independent validation
U_ROW = [1, 2, 3, 6, 9, 14, 22, 32, 46, 66, 93, 128, 176]
V_ROW = [1, 1, 2, 3, 5, 8, 12, 17, 25, 36, 50, 69, 94]
C_ROW = [1, 2, 4, 6, 10, 16, 24, 34, 50, 72, 100, 138, 188]

# continuation 13..20 of c, frozen from the exhaustive word scan
C_EXT = [254, 342, 454, 598, 784, 1018, 1316, 1694]


def test_table_rows_through_12():
    assert gf_u_tilde(12) == U_ROW
    assert count_v(12) == V_ROW
    assert count_c(12) == C_ROW


def test_frozen_extension_values():
    table = CountTable.build(25)
    assert list(table.c[13:21]) == C_EXT
    assert table.u_tilde[20] == 1598
    assert table.u_tilde[25] == 5248
    assert table.v[25] == 2765


def test_negative_limits_rejected():
    with pytest.raises(ValueError, match="^limit must be nonnegative$"):
        gf_u_tilde(-1)
    with pytest.raises(ValueError, match="^limit must be nonnegative$"):
        CountTable.build(-1)


def test_series_matches_direct_pair_count():
    u = gf_u_tilde(20)
    for n in range(21):
        assert u[n] == count_partition_pairs(n)


def test_series_is_order_independent():
    assert gf_u_tilde(200) == gf_u_reversed_order(200)


@pytest.mark.parametrize("limits", [range(61), [200, 1000, 1201, 2000]])
def test_packed_series_match_the_sweep(limits):
    # the numerators psi and R gain terms at triangular and
    # T(n) - T(j) degrees, and the pentagonal offsets at pentagonal ones,
    # so an off-by-one in any cut-off shows at some limit here
    for limit in limits:
        u, t2 = ref_series(limit)
        table = CountTable.build(limit)
        assert list(table.u_tilde) == u
        # the equal-peak count t2 = 2 v - u_tilde, for n >= 1
        assert [2 * v - u for u, v in zip(table.u_tilde[1:], table.v[1:])] == t2[1:]


def test_identity_2_from_its_definition():
    # v = u_tilde - U, with U = R / E in the table and Andrews' sum here;
    # the sweep's slots hold u_tilde(2000), the largest coefficient met
    table = CountTable.build(2000)
    strict = strongly_unimodal_sweep(2000, table.u_tilde[-1])
    assert [u - s for u, s in zip(table.u_tilde, strict)] == list(table.v)


def test_shorter_tables_are_prefixes():
    # coefficient n of each series depends only on those below it
    longest = CountTable.build(1200)
    for n in [*range(301), 1000, 1200]:
        assert CountTable.build(n) == CountTable(n, *(col[: n + 1] for col in longest[1:]))


def test_table_at_the_cap():
    # a cold build at the cap stays inside its 10 s budget
    start = time.perf_counter()
    table = CountTable.build(MAX_TABLE_LIMIT)
    assert time.perf_counter() - start < 10
    prefix = CountTable.build(2000)
    for name in ("u_tilde", "v", "c"):
        assert table.column(name)[:2001] == prefix.column(name)
    for n in range(1, MAX_TABLE_LIMIT + 1):
        u, v, c = table.u_tilde[n], table.v[n], table.c[n]
        assert u <= 2 * v and v <= u
        assert u <= c <= 2 * u
    # measured 1.222e-5, about the dropped 1/n correction
    err = asymptotic_u_tilde(MAX_TABLE_LIMIT, table.u_tilde[-1]).relative_error_vs_exact
    assert err < 1.3e-5


def test_type2_counts_match_classification():
    # the equal-peak sequences listed one by one, against 2 v - u_tilde
    table = CountTable.build(14)
    for n in range(1, 15):
        direct = sum(1 for s in iter_x_sequences(n) if has_equal_peak(s))
        assert 2 * table.v[n] - table.u_tilde[n] == direct


def test_count_table_columns_and_csv():
    table = CountTable.build(2)
    assert table.column("u") == table.u_tilde == (1, 2, 3)
    assert table.column("u_tilde") == (1, 2, 3)
    assert table.column("v") == (1, 1, 2)
    assert table.column("c") == (1, 2, 4)
    with pytest.raises(ValueError):
        table.column("w")
    assert table.to_csv() == "n,u_tilde,v,c\n0,1,1,1\n1,2,1,2\n2,3,2,4\n"
    # one column, headed by its full name
    assert table.to_csv("c") == "n,c\n0,1\n1,2\n2,4\n"
    assert table.to_csv("v") == "n,v\n0,1\n1,1\n2,2\n"
    assert table.to_csv("u") == table.to_csv("u_tilde") == "n,u_tilde\n0,1\n1,2\n2,3\n"
    with pytest.raises(ValueError):
        table.to_csv("w")
    assert table.to_bfile("c") == "0 1\n1 2\n2 4\n"
    assert table.to_bfile("u") == "0 1\n1 2\n2 3\n"
    with pytest.raises(ValueError):
        table.to_bfile("w")


def test_verify_bounds():
    assert verify_bounds(1)
    assert verify_bounds(12)
    assert verify_bounds(200)
    with pytest.raises(ValueError):
        verify_bounds(0)


def test_asymptotic_examples():
    est = asymptotic_u_tilde(1)
    assert est.value > 0 and math.isfinite(est.value)
    assert est.relative_error_vs_exact is None

    est12 = asymptotic_u_tilde(12, 176)
    assert est12.relative_error_vs_exact is not None
    assert est12.relative_error_vs_exact < 0.02

    # n = 3 is the one n <= 10000 where the estimate, 5.8849..., is below exact
    est3 = asymptotic_u_tilde(3, 6)
    assert est3.value < 6 and est3.relative_error_vs_exact == 1 - est3.value / 6


def test_asymptotic_beyond_float_range():
    # exp() alone overflows from n ~ 76600, the product from n ~ 78900
    for n in (60000, 77000):
        est = asymptotic_u_tilde(n)
        assert math.isfinite(est.value)
        assert math.isclose(math.log10(est.value), est.log10_value, rel_tol=1e-14)
    est = asymptotic_u_tilde(100000, 5 * 10**347)
    assert est.value == math.inf
    assert math.isclose(est.log10_value, math.log10(5.41761449423769) + 347, rel_tol=1e-14)
    assert math.isclose(est.relative_error_vs_exact, 5.41761449423769 / 5 - 1, rel_tol=1e-9)
    # 24n-1 leaves the float range from n ~ 7e306, its square root from
    # n ~ 1e615; the leading term (pi/6) sqrt(24n) dwarfs the others
    est = asymptotic_u_tilde(10**400)
    assert est.value == math.inf
    leading = math.pi / 6 * math.sqrt(24) * 1e200 / math.log(10)
    assert math.isclose(est.log10_value, leading, rel_tol=1e-14)
    assert asymptotic_u_tilde(10**700).log10_value == math.inf


def test_asymptotic_domain():
    # math.sqrt(-1) raises a ValueError too; this one names the domain
    with pytest.raises(ValueError, match="n >= 1"):
        asymptotic_u_tilde(0)


def test_c_strictly_increases_on_computed_range():
    # growth diagnostic; a failure would flag a table bug
    c = count_c(600)
    assert all(c[n] < c[n + 1] for n in range(1, 600))
