"""The four counting routes and the reflection-group reduction."""

from math import comb

import pytest

from pinnacles import counting
from pinnacles.admissible import max_pinnacles
from pinnacles.counting import (
    CrossCheckMismatch,
    NegativeCount,
    count_closed_alternating,
    count_closed_positive,
    count_complex,
    count_pinnacle_sets,
    count_recursion_m,
    count_recursion_n,
    count_total,
)
from pinnacles.oracle import BudgetExceeded, OracleBudget
from pinnacles.wreath import GroupParams

ALL_METHODS = tuple(counting.METHODS)


class TestFormulas:
    def test_modulus_recursion_examples(self):
        assert count_recursion_m(1, 10, 3) == 84
        assert count_recursion_m(7, 9, 0) == 1
        assert count_recursion_m(2, 5, 2) == 31

    def test_degree_recursion_examples(self):
        assert count_recursion_n(2, 7, 3) == 209
        assert count_recursion_n(3, 5, 2) == 76
        assert count_recursion_n(6, 11, 0) == 1

    def test_alternating_examples(self):
        assert count_closed_alternating(2, 5, 2) == 1 - 5 * 2 + 10 * 4 == 31
        assert count_closed_alternating(3, 7, 3) == 776

    def test_positive_examples(self):
        assert count_closed_positive(2, 7, 3) == 20 + 70 + 84 + 35 == 209
        assert count_closed_positive(4, 6, 2) == 217

    def test_modulus_one_is_binomial(self):
        for n in range(1, 16):
            for d in range(max_pinnacles(n) + 1):
                expected = comb(n - 1, d)
                for method in ALL_METHODS:
                    assert counting.METHODS[method](1, n, d) == expected

    def test_zero_cap_is_one(self):
        for method in ALL_METHODS:
            assert counting.METHODS[method](9, 14, 0) == 1

    def test_four_way_agreement_small(self):
        for m in range(1, 9):
            for n in range(1, 13):
                for d in range(max_pinnacles(n) + 1):
                    values = {counting.METHODS[x](m, n, d) for x in ALL_METHODS}
                    assert len(values) == 1, (m, n, d, values)

    def test_range_validation(self):
        for fn in counting.METHODS.values():
            with pytest.raises(ValueError):
                fn(2, 5, 3)  # above the cap
            with pytest.raises(ValueError):
                fn(2, 5, -1)
            with pytest.raises(ValueError):
                fn(0, 5, 1)


# reference definitions: each route's formula with a fresh comb per term, the
# form the kernels' term-to-term ratios must reproduce exactly


def old_closed_alternating(m, n, d):
    return sum(comb(n, i) * m**i * (-1) ** (i + d) for i in range(d + 1))


def old_closed_positive(m, n, d):
    return sum((m - 1) ** k * comb(n, k) * comb(n - k - 1, d - k) for k in range(d + 1))


def old_recursion_m(m, n, d):
    if m == 1 or d == 0:
        return comb(n - 1, d)
    base = n - d
    row = [comb(base + e - 1, e) for e in range(d + 1)]
    for _ in range(m - 2):
        row = [sum(comb(base + e, i) * row[e - i] for i in range(e + 1)) for e in range(d + 1)]
    return sum(comb(n, i) * row[d - i] for i in range(d + 1))


def old_odd_maximal_correction(m, p, r):
    k, n = m // p, 2 * r + 1
    return sum(comb(n, i) * p**i * (k**i - 1) * (-1) ** (i + r) for i in range(r + 1))


class TestKernels:
    def test_routes_match_reference_definitions(self):
        for m in range(1, 9):
            for n in range(1, 81):
                for d in range(max_pinnacles(n) + 1):
                    want = old_closed_positive(m, n, d)
                    assert old_closed_alternating(m, n, d) == want, (m, n, d)
                    assert count_closed_positive(m, n, d) == want, (m, n, d)
                    assert count_closed_alternating(m, n, d) == want, (m, n, d)
                    assert count_recursion_n(m, n, d) == want, (m, n, d)
                    assert count_recursion_m(m, n, d) == old_recursion_m(m, n, d) == want, (
                        m, n, d,
                    )

    def test_correction_matches_reference_definition(self):
        for m in range(1, 13):
            for p in range(1, m + 1):
                if m % p == 0:
                    for r in range(21):
                        n = 2 * r + 1
                        assert old_odd_maximal_correction(m, p, r) == count_pinnacle_sets(
                            m, n, r
                        ) - count_pinnacle_sets(p, n, r), (m, p, r)

    def test_large_degree_identities(self):
        # p(m,n,d) + p(m,n,d-1) = C(n,d) m^d and p(1,n,d) = C(n-1,d)
        for fn in (count_closed_positive, count_closed_alternating):
            for m, n in ((2, 1400), (3, 1421), (7, 1450)):
                for d in (1, 2, n // 3, max_pinnacles(n) - 1, max_pinnacles(n)):
                    assert fn(m, n, d) + fn(m, n, d - 1) == comb(n, d) * m**d, (fn, m, n, d)
            for n in (1400, 1433, 1450):
                for d in (0, 1, n // 4, max_pinnacles(n)):
                    assert fn(1, n, d) == comb(n - 1, d), (fn, n, d)


class TestFiltration:
    def test_counts_grow_with_cap_and_stay_positive(self):
        for m in (1, 2, 5):
            for n in (4, 9, 14):
                values = [count_pinnacle_sets(m, n, d) for d in range(max_pinnacles(n) + 1)]
                assert all(v > 0 for v in values)
                assert values == sorted(values)

    def test_counts_grow_with_modulus(self):
        for n in (5, 8):
            for d in range(max_pinnacles(n) + 1):
                values = [count_pinnacle_sets(m, n, d) for m in range(1, 7)]
                assert values == sorted(values)


class TestDispatch:
    def test_default_cap(self):
        assert count_pinnacle_sets(3, 10) == 14146

    def test_method_all_cross_validates(self):
        assert count_pinnacle_sets(4, 9, 2, method="all") == count_pinnacle_sets(4, 9, 2)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count_pinnacle_sets(2, 5, 1, method="closed")

    def test_fault_injection_trips_cross_check(self, monkeypatch):
        monkeypatch.setitem(counting.METHODS, "closed-positive", lambda m, n, d: 0)
        with pytest.raises(CrossCheckMismatch) as info:
            count_pinnacle_sets(2, 5, 2, method="all")
        assert info.value.values["closed-positive"] == 0
        assert info.value.values["closed-alternating"] == 31

    def test_negative_value_raises_typed_error(self, monkeypatch):
        # a check that must hold under python -O, where asserts are stripped
        monkeypatch.setattr(counting, "_rec_n", lambda m, n, d: -3)
        with pytest.raises(NegativeCount) as info:
            count_recursion_n(2, 5, 2)
        assert info.value.method == "recursion-in-n" and info.value.value == -3
        monkeypatch.setattr(counting, "comb", lambda a, b: -1)
        with pytest.raises(NegativeCount) as info:
            count_closed_alternating(2, 5, 0)
        assert info.value.method == "closed-alternating" and info.value.params == (2, 5, 0)

    def test_totals(self):
        assert count_total(3, 10) == 14146
        assert count_total(2, 12) == 18943
        assert count_total(8, 3) == 23
        with pytest.raises(ValueError):
            count_total(3, 1)


class TestComplexCounts:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            count_complex(GroupParams(4, 3, 5))

    def test_whole_group(self):
        assert count_complex(GroupParams(3, 1, 10)) == 14146

    def test_even_degree_equals_full_count(self, reports):
        assert count_complex(GroupParams(4, 2, 6)) == 217
        assert reports(4, 2, 6).total_admissible == 217

    def test_below_maximal_cardinality_equals_full_count(self):
        assert count_complex(GroupParams(4, 2, 7), d=2) == count_pinnacle_sets(4, 7, 2)
        assert count_complex(GroupParams(2, 2, 5), d=1) == count_pinnacle_sets(2, 5, 1)

    def test_correction_term_is_total_difference(self, reports):
        for m, p, r in [(4, 2, 1), (4, 2, 2), (6, 2, 1), (6, 3, 2), (9, 3, 1)]:
            n = 2 * r + 1
            excess = count_complex(GroupParams(m, p, n)) - reports(p, p, n).total_admissible
            assert excess == count_pinnacle_sets(m, n) - count_pinnacle_sets(p, n), (m, p, r)
            assert excess == old_odd_maximal_correction(m, p, r), (m, p, r)

    def test_odd_maximal_values_match_direct_scans(self, reports):
        # frozen from exhaustive scans of the subgroups themselves
        expected = {
            (2, 2, 3): 4,
            (4, 2, 3): 10,
            (2, 2, 5): 28,
            (4, 2, 5): 138,
            (3, 3, 3): 6,
            (4, 4, 3): 9,
        }
        for (m, p, n), value in expected.items():
            assert count_complex(GroupParams(m, p, n)) == value, (m, p, n)
            assert reports(m, p, n).total_admissible == value, (m, p, n)

    def test_degree_seven_subgroup_total(self, reports):
        # the irreducible total for G(2,2,7); no affine combination of the
        # full-group totals matches it (209 + 10 and 209 - 10 both miss),
        # which is why it only ever comes from a scan
        assert count_complex(GroupParams(2, 2, 7)) == 192
        assert reports(2, 2, 7).total_admissible == 192
        full = count_pinnacle_sets(2, 7)
        half_plain = count_pinnacle_sets(1, 7) // 2
        assert full + half_plain != 192 and full - half_plain != 192

    def test_budget_refusal_names_subproblem(self):
        tiny = OracleBudget(max_order=10)
        with pytest.raises(BudgetExceeded) as info:
            count_complex(GroupParams(4, 2, 5), budget=tiny)
        assert info.value.params == GroupParams(2, 2, 5)
        assert info.value.required == GroupParams(2, 2, 5).order
        assert str(info.value.required) in str(info.value)

    def test_degree_one(self):
        assert count_complex(GroupParams(6, 3, 1)) == 1
