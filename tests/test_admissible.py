"""Canonical witness construction and the three admissibility deciders."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinnacles.admissible import (
    Admissibility,
    AdmissibilityError,
    CardinalityViolation,
    MultiplicityViolation,
    admissibility,
    canonical_witness,
    is_admissible,
    is_admissible_rec,
    is_admissible_top,
    max_pinnacles,
)
from pinnacles import wreath
from pinnacles.wreath import ColoredValue, GenPerm, PinSet, pinnacle_set, value_key
from test_acceptance import CANDIDATE_ORDERS

CV = ColoredValue


def subsets_up_to_cap(m, n):
    universe = [CV(c, x) for c in range(m) for x in range(1, n + 1)]
    cap = max_pinnacles(n)
    for size in range(cap + 1):
        for combo in itertools.combinations(universe, size):
            yield PinSet(m, n, combo)


def seeded_large_sets():
    # beyond the scannable grid: free sets spread over 1..n and crowded
    # ones packed near the bottom, where B's inequality is tight
    rng = random.Random(14)
    for i in range(2000):
        m, n = rng.randint(2, 9), rng.randint(10, 200)
        cap = max_pinnacles(n)
        if i % 2:
            mags = rng.sample(range(1, 2 * cap + 2), rng.randint(cap // 2, cap))
        else:
            mags = rng.sample(range(1, n + 1), rng.randint(0, cap))
        yield PinSet(m, n, tuple((rng.choice((m - 1, rng.randrange(m))), x) for x in mags))


@st.composite
def distinct_magnitude_sets(draw, max_m=4, max_n=9):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    cap = max_pinnacles(n)
    mags = draw(st.lists(st.integers(1, n), unique=True, max_size=cap))
    elems = tuple((draw(st.integers(0, m - 1)), x) for x in mags)
    return PinSet(m, n, elems)


class TestCanonicalWitness:
    def test_three_color_example(self):
        P = PinSet(3, 10, ((1, 3), (0, 5), (0, 2)))
        expected = GenPerm.from_word(
            3,
            [(2, 10), (1, 3), (2, 9), (0, 5), (2, 8), (0, 2), (2, 7), (2, 6), (2, 4), (2, 1)],
        )
        assert canonical_witness(P) == expected

    def test_two_element_example(self):
        P = PinSet(5, 5, ((4, 3), (3, 2)))
        assert str(canonical_witness(P)) == "xi^4(5) xi^4(3) xi^4(4) xi^3(2) xi^4(1)"

    def test_empty_set_is_descending_top_color(self):
        assert str(canonical_witness(PinSet(2, 3))) == "xi^1(3) xi^1(2) xi^1(1)"

    def test_multiplicity_violation(self):
        with pytest.raises(MultiplicityViolation):
            canonical_witness(PinSet(5, 7, ((4, 3), (2, 3), (0, 1))))

    def test_cardinality_violation(self):
        with pytest.raises(CardinalityViolation):
            canonical_witness(PinSet(2, 4, ((0, 1), (0, 2))))

    @given(distinct_magnitude_sets())
    def test_subsequences_are_ascending(self, P):
        # pinnacle entries and filler entries each increase along the word
        w = canonical_witness(P)
        word = w.word
        pins = [v for v in word if v in P.elements]
        fills = [v for v in word if v not in P.elements]
        key = value_key(P.m)
        assert pins == sorted(pins, key=key)
        assert fills == sorted(fills, key=key)
        assert all(v.color == P.m - 1 for v in fills)

    def test_max_pinnacle_word_attains_bound(self):
        # interleaving the smallest magnitudes at color 0 fills the cap exactly
        for m, n in [(1, 5), (1, 8), (2, 7), (3, 6), (4, 9)]:
            cap = max_pinnacles(n)
            P = PinSet(m, n, tuple((0, x) for x in range(1, cap + 1)))
            w = canonical_witness(P)
            assert pinnacle_set(w) == P
            assert len(pinnacle_set(w)) == cap


class TestWitnessDecider:
    def test_repeated_magnitude_reason(self):
        result = admissibility(PinSet(5, 7, ((4, 3), (2, 3), (0, 1))))
        assert not result.admissible
        assert result.code == "repeated-magnitude"
        assert result.reason == "repeated magnitude 3"

    def test_oversize_reason(self):
        result = admissibility(PinSet(2, 4, ((0, 1), (0, 2))))
        assert not result.admissible
        assert result.code == "too-many-pinnacles"

    def test_no_witness_reason(self):
        result = admissibility(PinSet(2, 3, ((1, 2),)))
        assert not result.admissible
        assert result.code == "no-witness"
        assert result.witness is None

    def test_admissible_example_carries_witness(self):
        result = admissibility(PinSet(3, 10, ((1, 3), (0, 5), (0, 2))))
        assert result.admissible and result.reason is None
        assert pinnacle_set(result.witness) == PinSet(3, 10, ((1, 3), (0, 5), (0, 2)))

    def test_admissible_iff_witness_realizes(self):
        # A against its definition: P is admissible exactly when its canonical
        # witness exists and has P as its pinnacle set, and the outcome carries
        # that witness or the reason there is none
        check_a_against_the_witness()

    def test_rank_route_follows_the_order(self, monkeypatch):
        # A decides on the witness's ranks, which read the order through
        # wreath._value_rank; under top-asc they must still give the verdicts
        # of the witness built from value objects
        monkeypatch.setattr(wreath, "_ascending_colors", CANDIDATE_ORDERS["top-asc"])
        check_a_against_the_witness()


def check_a_against_the_witness():
    # the grid is built here, so its sets are sorted under the order in force
    grid = [P for m, n in [(1, 7), (2, 6), (3, 5), (4, 5)] for P in subsets_up_to_cap(m, n)]
    verdicts = set()
    for P in itertools.chain(grid, seeded_large_sets()):
        try:
            witness = canonical_witness(P)
        except AdmissibilityError as violation:
            expected = Admissibility(False, violation.code, str(violation))
        else:
            if pinnacle_set(witness) == P:
                expected = Admissibility(True, witness=witness)
            else:
                expected = Admissibility(
                    False, "no-witness", "canonical witness does not realize the set"
                )
        assert admissibility(P) == expected, str(P)
        assert is_admissible(P) == expected.admissible, str(P)
        verdicts.add(expected.code)
    assert verdicts == {None, "no-witness", "repeated-magnitude"}


class TestDeciderAgreement:
    def test_three_deciders_agree_small_grid(self):
        for m, n in [(1, 5), (2, 5), (3, 4), (2, 6)]:
            for P in subsets_up_to_cap(m, n):
                a = is_admissible(P)
                assert is_admissible_rec(P) == a, str(P)
                assert is_admissible_top(P) == a, str(P)

    def test_deciders_on_named_examples(self):
        bad = PinSet(5, 7, ((4, 3), (2, 3), (0, 1)))
        good = PinSet(3, 10, ((1, 3), (0, 5), (0, 2)))
        oversize = PinSet(2, 4, ((0, 1), (0, 2)))
        for decider in (is_admissible, is_admissible_rec, is_admissible_top):
            assert not decider(bad)
            assert decider(good)
            assert not decider(oversize)

    def test_all_color_zero_sets_admissible(self):
        for n in (5, 7, 9):
            for m in (2, 3, 5):
                P = PinSet(m, n, tuple((0, x) for x in range(2, 2 + max_pinnacles(n))))
                assert is_admissible_rec(P) and is_admissible_top(P) and is_admissible(P)

    def test_no_top_color_slice_with_distinct_magnitudes_admissible(self):
        # colors 1..m-2 only; the top-color base case is vacuous
        P = PinSet(4, 9, ((1, 2), (2, 5), (1, 7)))
        assert not any(cv.color == 3 for cv in P)
        assert is_admissible(P) and is_admissible_rec(P) and is_admissible_top(P)

    def test_top_color_maximum_magnitude_singleton_inadmissible(self):
        for m, n in [(2, 3), (3, 5), (5, 4)]:
            P = PinSet(m, n, ((m - 1, n),))
            assert not is_admissible(P)
            assert not is_admissible_rec(P)
            assert not is_admissible_top(P)

    @pytest.mark.parametrize("m", [1000, 1200, 10**9])
    def test_deciders_agree_at_huge_modulus(self, m):
        # no decider's work grows with m: each reads only the magnitudes 1..n and P
        sets = [PinSet(m, 5, ((0, 3),)), PinSet(m, 9, ((0, 3), (7, 5), (m - 2, 7), (m - 1, 8)))]
        for P in sets:
            assert is_admissible_rec(P) == is_admissible_top(P) == is_admissible(P), str(P)

    def test_decider_b_reads_the_order_once_not_per_magnitude(self, monkeypatch):
        # B reads the top color's direction from wreath._ascending_colors and
        # bisects over the used magnitudes; it calls no value_key, so its work
        # does not grow with the degree
        n, calls = 10**5, []
        sets = [PinSet(3, n, ((2, 2), (2, 7), (0, 50_000), (1, 3), (2, 99_998))),
                PinSet(3, n, ((2, 99_999), (2, 40), (1, 5))),
                PinSet(3, n, ((2, 1), (2, 3), (0, 2)))]
        monkeypatch.setattr(wreath, "value_key", lambda m: calls.append(m))
        # where the top color ascends, its lowest element 2:2, 2:40 or 2:1 has
        # 1, 38 or 0 unused magnitudes below it; where it descends, 2:99998,
        # 2:99999 or 2:3 has 2, 1 or 99995 above it
        for name, verdicts in (("documented", [True, False, True]), ("top-asc", [False, True, False])):
            monkeypatch.setattr(wreath, "_ascending_colors", CANDIDATE_ORDERS[name])
            for P, verdict in zip(sets, verdicts):
                assert is_admissible_rec(P) == verdict, (name, str(P))
        assert calls == []

    def test_decider_a_builds_a_witness_only_to_return_it(self, monkeypatch):
        # A and C decide on the witness's ranks; admissibility builds the one
        # GenPerm it returns, for an admissible set, and none otherwise
        built, init = [], GenPerm.__init__
        monkeypatch.setattr(GenPerm, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        admissible = PinSet(4, 201, ((3, 2), (0, 100), (1, 7), (3, 150)))
        inadmissible = PinSet(3, 10, ((2, 10), (0, 5)))
        repeated = PinSet(3, 10, ((2, 4), (0, 4)))
        for P, verdict in ((admissible, True), (inadmissible, False), (repeated, False)):
            assert is_admissible(P) == is_admissible_top(P) == verdict, str(P)
            assert built == []
            assert admissibility(P).admissible == verdict, str(P)
            assert len(built) == verdict, str(P)
            built.clear()

    def test_deciders_agree_on_seeded_large_sets(self):
        verdicts = set()
        for P in seeded_large_sets():
            a = is_admissible(P)
            assert is_admissible_rec(P) == is_admissible_top(P) == a, str(P)
            verdicts.add(a)
        assert verdicts == {True, False}

    def test_agreement_with_oracle_membership(self, reports):
        for m, n in [(2, 4), (3, 4), (2, 5)]:
            admissible_sets = set(reports(m, 1, n).stats)
            for P in subsets_up_to_cap(m, n):
                assert is_admissible(P) == (P in admissible_sets), str(P)

    def test_all_three_deciders_against_oracle_degree_seven(self, reports):
        for m in (1, 2, 3):
            admissible_sets = set(reports(m, 1, 7).stats)
            for P in subsets_up_to_cap(m, 7):
                expected = P in admissible_sets
                assert is_admissible(P) == expected, str(P)
                assert is_admissible_rec(P) == expected, str(P)
                assert is_admissible_top(P) == expected, str(P)


class TestSingleColorSets:
    def test_degree_from_largest_magnitude(self):
        target = PinSet(4, 13, ((2, 6), (2, 2), (2, 3)))
        witness = canonical_witness(target)
        assert pinnacle_set(witness) == target
        fills = [v for v in witness.word if v not in target.elements]
        assert all(v.color == 3 for v in fills)

    @given(st.data())
    def test_returned_degree_admits_the_set(self, data):
        m = data.draw(st.integers(1, 5))
        mags = data.draw(st.lists(st.integers(1, 8), unique=True, min_size=1, max_size=4))
        color = data.draw(st.integers(0, m - 1))
        # every magnitude fits below the midpoint of degree 2L+1, L the largest
        embedded = PinSet(m, 2 * max(mags) + 1, tuple((color, x) for x in mags))
        assert is_admissible(embedded)
        assert pinnacle_set(canonical_witness(embedded)) == embedded

    def test_one_color_band_always_admissible(self):
        # any single middle color with enough room is admissible in place
        for m in (3, 4, 5):
            for n in (5, 7):
                for i in range(1, m - 1):
                    for mags in itertools.combinations(range(1, n + 1), max_pinnacles(n)):
                        P = PinSet(m, n, tuple((i, x) for x in mags))
                        assert is_admissible(P), str(P)
