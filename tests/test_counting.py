"""The four counting routes and the reflection-group reduction."""

import random
from math import comb

import pytest

from pinnacles import _setspace, counting, wreath
from pinnacles.admissible import is_admissible, max_pinnacles
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
from pinnacles.wreath import GroupParams, PinSet
from test_acceptance import CANDIDATE_ORDERS, _candidate_key

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
        monkeypatch.setattr(counting, "comb", lambda a, b: -3)
        with pytest.raises(NegativeCount) as info:
            count_recursion_n(1, 5, 2)
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

    def test_parameters_must_be_integers(self):
        # every route takes m, n and d through operator.index: a float raises
        # TypeError, and a numpy integer counts as a Python int, so no term of
        # a sum wraps around in int64
        for fn in (*counting.METHODS.values(), count_pinnacle_sets):
            for args in ((2.0, 5, 2), (2, 5.0, 2), (2, 5, 2.0)):
                with pytest.raises(TypeError):
                    fn(*args)
        with pytest.raises(TypeError):
            count_total(2.0, 5)
        import numpy as np

        assert count_total(np.int64(3), 40) == count_total(3, 40) > 2**63


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
        # full-group totals matches it (209 + 10 and 209 - 10 both miss), so
        # it comes from the maximal-set engine, checked here against a scan
        assert count_complex(GroupParams(2, 2, 7)) == 192
        assert reports(2, 2, 7).total_admissible == 192
        full = count_pinnacle_sets(2, 7)
        half_plain = count_pinnacle_sets(1, 7) // 2
        assert full + half_plain != 192 and full - half_plain != 192

    def test_budget_refusal_names_subproblem(self):
        tiny = OracleBudget(max_order=10)
        with pytest.raises(BudgetExceeded) as info:
            count_complex(GroupParams(4, 2, 5), method="all", budget=tiny)
        assert info.value.params == GroupParams(2, 2, 5)
        # C(5,2) 2^2 candidates, each testing 3 valley slots
        assert info.value.required == comb(5, 2) * 2**2 * 3
        assert str(info.value.required) in str(info.value)
        assert "candidate slot test" in str(info.value)

    def test_budget_refusal_comes_before_the_count(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("counted before refusing")

        monkeypatch.setattr(counting, "count_pinnacle_sets", no_count)
        with pytest.raises(BudgetExceeded):
            count_complex(GroupParams(2, 2, 9), method="all", budget=OracleBudget(max_order=1000))

    def test_sweep_budget_refusal(self, monkeypatch):
        # the default route is refused on the sweep's step estimate
        # n (r+1)^3 p^min(r,3), before it counts or runs the sweep
        def no_count(*args, **kwargs):
            raise AssertionError("counted before refusing")

        monkeypatch.setattr(counting, "count_pinnacle_sets", no_count)
        monkeypatch.setattr(_setspace, "lost", no_count)
        with pytest.raises(BudgetExceeded) as info:
            count_complex(GroupParams(4, 2, 5), budget=OracleBudget(max_order=10))
        assert info.value.params == GroupParams(2, 2, 5)
        assert info.value.required == 5 * 3**3 * 2**2
        assert "estimated sweep step count 540" in str(info.value)
        with pytest.raises(BudgetExceeded) as info:
            count_complex(GroupParams(6, 6, 11), budget=OracleBudget(max_order=10**5))
        assert info.value.required == 11 * 6**3 * 6**3
        # under "all" the enumeration's slot tests, which bound the sweep's steps, are the work
        monkeypatch.undo()
        budget = OracleBudget(max_order=comb(5, 2) * 2**2 * 3)
        assert count_complex(GroupParams(2, 2, 5), method="all", budget=budget) == 28

    def test_default_budget_admits_the_sweep_far_past_the_enumeration(self):
        # the enumeration would run C(31,15) 2^15 16, about 1.6e14, slot tests
        for g, r in ((GroupParams(2, 2, 31), 15), (GroupParams(3, 3, 21), 10)):
            estimate = list(counting._sweep_partials(g.p, r))[-1]
            assert estimate <= OracleBudget().max_order
            assert count_complex(g) == count_pinnacle_sets(g.m, g.n) - _setspace.lost(g.p, g.n)

    def test_degree_one(self):
        assert count_complex(GroupParams(6, 3, 1)) == 1


# every G(p,p,2r+1) with p <= 5 and n in {3,5,7} except G(5,5,7), whose order
# 78,750,000 is past the suite's scan budget
ENGINE_GRID = [(p, n) for p in (2, 3, 4, 5) for n in (3, 5, 7) if (p, n) != (5, 7)]


class TestMaximalSetEngine:
    def test_every_candidate_matches_the_scans(self, reports):
        for p, n in ENGINE_GRID:
            subgroup = reports(p, p, n)
            # the full group's color-sum ranges, where it is small enough to scan
            full = reports(p, 1, n) if GroupParams(p, 1, n).order <= 30_000_000 else None
            kept = set()
            for mags, colors, span in _setspace._maximal_sets(p, n):
                P = PinSet(p, n, tuple(zip(colors, mags)))
                assert (span is not None) == is_admissible(P), (p, n, str(P))
                if span is None:
                    continue
                lo, hi = span
                if full is not None:
                    stats = full.stats[P]
                    assert (stats.eps_min, stats.eps_max) == (lo, hi), (p, n, str(P))
                if -lo % p <= hi - lo:
                    kept.add(P)
                    # G(p,p,n) keeps the multiples of p in [lo, hi]
                    stats = subgroup.stats[P]
                    assert (stats.eps_min, stats.eps_max) == (lo + -lo % p, hi - hi % p)
            assert kept == {P for P in subgroup.stats if len(P) == max_pinnacles(n)}, (p, n)
            assert count_complex(GroupParams(p, p, n)) == subgroup.total_admissible, (p, n)

    def test_totals_beyond_the_suite_scans(self):
        # an exhaustive scan of G(2,2,9), of order 92,897,280, with
        # `pinnacles oracle --m 2 --p 2 --n 9 --budget 100000000` gives 1389
        assert count_complex(GroupParams(2, 2, 9)) == 1389
        # an independent set-space count, with an assignment solver in place
        # of the matching, gave 7965 for G(3,3,9) and 10216 for G(2,2,11)
        assert count_complex(GroupParams(3, 3, 9)) == 7965
        assert count_complex(GroupParams(2, 2, 11)) == 10216

    def test_sweep_equals_the_enumeration(self, monkeypatch):
        # every p <= 5 with r <= 3 and p = 2 with r <= 5, under each candidate
        # order and the one in which every color ascends
        orders = {**CANDIDATE_ORDERS, "all-asc": lambda m, c: True}
        grid = [(p, r) for p in range(1, 6) for r in range(1, 4)] + [(2, 4), (2, 5)]
        for name, ascends in orders.items():
            monkeypatch.setattr(wreath, "value_key", _candidate_key(ascends))
            for p, r in grid:
                n = 2 * r + 1
                assert _setspace.lost(p, n) == _setspace.lost_enumerated(p, n), (name, p, r)

    def test_lost_sets_under_both_orders(self, monkeypatch):
        # L(p,r) from the set-space engine alone, r = 1, 2, ...; the table of
        # L(p,r) under both orders in the roadmap's item on the sequence
        def lost(p, rs):
            return [_setspace.lost(p, 2 * r + 1) for r in rs]

        assert lost(2, range(1, 8)) == [1, 3, 17, 82, 409, 2061, 10571]
        assert lost(3, range(1, 6)) == [2, 12, 54, 271, 1682]
        monkeypatch.setattr(wreath, "value_key", _candidate_key(CANDIDATE_ORDERS["top-asc"]))
        assert lost(2, range(1, 8)) == [1, 3, 10, 35, 126, 462, 1716]
        assert lost(3, range(1, 6)) == [2, 10, 31, 176, 742]
        assert lost(4, range(1, 5)) == [2, 15, 120, 422]
        assert lost(5, range(1, 5)) == [2, 30, 202, 974]
        assert lost(6, range(1, 4)) == [3, 49, 238]
        assert [_setspace.lost(p, 3) for p in range(2, 10)] == [1, 2, 2, 2, 3, 4, 5, 6]

    def test_identity_a_far_past_any_scan(self, monkeypatch):
        # under top-asc, L(2,r) = C(2r-1, r-1) = (1/2) #APS(1,1,2r+1): the p = 2
        # identity (a), out to n = 25, where the enumeration would list 169 billion sets
        monkeypatch.setattr(wreath, "value_key", _candidate_key(CANDIDATE_ORDERS["top-asc"]))
        for r in range(1, 13):
            assert _setspace.lost(2, 2 * r + 1) == comb(2 * r - 1, r - 1), r

    def test_sweep_refuses_an_order_it_cannot_read(self, monkeypatch):
        # colors interleaved by magnitude, then a color whose magnitudes are not monotone
        for key in (lambda cv: (cv.magnitude, -cv.color),
                    lambda cv: (-cv.color, (cv.magnitude - 2) % 5)):
            monkeypatch.setattr(wreath, "value_key", lambda m, key=key: key)
            with pytest.raises(_setspace.UnsupportedOrder) as info:
                _setspace.lost(2, 5)
            assert isinstance(info.value, ValueError) and "in blocks" in str(info.value)
            assert _setspace.lost_enumerated(2, 5) >= 0  # the enumeration reads any order

    def test_cross_check_catches_a_wrong_sweep(self, monkeypatch):
        sweep = _setspace.lost
        monkeypatch.setattr(_setspace, "lost", lambda p, n: sweep(p, n) + 1)
        assert count_complex(GroupParams(2, 2, 7)) == 191  # the default route trusts the sweep
        with pytest.raises(CrossCheckMismatch) as info:
            count_complex(GroupParams(2, 2, 7), method="all")
        assert info.value.values == {"lost by sweep": 18, "lost by enumeration": 17}
        assert info.value.params == (2, 7, 3)

    def test_matching_is_maximum_and_keeps_matched_slots(self):
        # under the documented order each slot's cheap fillers are the larger
        # magnitudes, so the first free filler always serves and no path is
        # ever rerouted; random slot options exercise the augmenting paths
        def brute(options, s=0, used=0):
            if s == len(options):
                return 0
            best, mask = brute(options, s + 1, used), options[s] & ~used
            while mask:
                bit = mask & -mask
                mask ^= bit
                best = max(best, 1 + brute(options, s + 1, used | bit))
            return best

        rng = random.Random(5)
        for _ in range(400):
            fillers = rng.randint(1, 6)
            options = [rng.getrandbits(fillers) << 1 for _ in range(rng.randint(1, 6))]
            owner, matched = {}, set()
            for s in range(len(options)):
                if _setspace._augment(options, owner, s):
                    matched.add(s)
                assert set(owner.values()) == matched, options
            assert all(options[t] & bit for bit, t in owner.items()), options
            assert len(owner) == len(matched) == brute(options), options
