"""Group structure, the total order, and pinnacle extraction."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinnacles.wreath import (
    ColoredValue,
    GenPerm,
    GroupParams,
    PinSet,
    color_sum,
    in_subgroup,
    inverse,
    multiply,
    peaks,
    pinnacle_set,
    value_key,
)

CV = ColoredValue


def all_elements(m, n):
    for mags in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(m), repeat=n):
            yield GenPerm(m, tuple(zip(colors, mags)))


def act(w, value):
    # w on any colored value, color-equivariantly: w(xi^a(x)) = xi^a(w(x))
    base = w.image[value.magnitude - 1]
    return CV((base.color + value.color) % w.m, base.magnitude)


colored_values = st.builds(
    CV, color=st.integers(0, 6), magnitude=st.integers(1, 12)
)

# colored_values draws colors 0..6, so they compare under the key of modulus 7
KEY7 = value_key(7)


@st.composite
def gen_perms(draw, max_m=5, max_n=8):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    mags = draw(st.permutations(list(range(1, n + 1))))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return GenPerm(m, tuple(zip(colors, mags)))


@st.composite
def gen_perm_pairs(draw, max_m=5, max_n=8):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    out = []
    for _ in range(2):
        mags = draw(st.permutations(list(range(1, n + 1))))
        colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        out.append(GenPerm(m, tuple(zip(colors, mags))))
    return out


class TestOrder:
    def test_higher_color_is_lower(self):
        assert KEY7(CV(2, 10)) < KEY7(CV(1, 3))

    def test_within_color_larger_magnitude_is_lower(self):
        assert KEY7(CV(0, 3)) < KEY7(CV(0, 2))

    def test_reflexive_equality(self):
        assert CV(1, 4) == CV(1, 4)

    def test_plain_one_is_global_maximum(self):
        key = value_key(3)
        values = [CV(c, x) for c in range(3) for x in range(1, 6)]
        assert max(values, key=key) == CV(0, 1)
        assert min(values, key=key) == CV(2, 5)

    def test_values_have_no_order_of_their_own(self):
        # the order needs the modulus, so a bare comparison has no meaning
        with pytest.raises(TypeError):
            CV(2, 10) < CV(1, 3)

    @given(colored_values, colored_values)
    def test_trichotomy(self, u, v):
        assert (KEY7(u) < KEY7(v)) + (u == v) + (KEY7(v) < KEY7(u)) == 1

    @given(colored_values, colored_values, colored_values)
    def test_transitivity(self, u, v, w):
        if KEY7(u) < KEY7(v) and KEY7(v) < KEY7(w):
            assert KEY7(u) < KEY7(w)


class TestGroupOps:
    def test_multiply_concrete(self):
        # m=2, n=2: verified by composing the color-equivariant actions
        w = GenPerm(2, ((1, 2), (0, 1)))
        u = GenPerm(2, ((1, 1), (0, 2)))
        assert multiply(w, u) == GenPerm(2, ((0, 2), (0, 1)))

    def test_identity_laws(self):
        e = GenPerm.identity(3, 4)
        w = GenPerm(3, ((2, 3), (0, 1), (1, 4), (2, 2)))
        assert multiply(e, w) == w
        assert multiply(w, e) == w

    def test_multiply_is_composition_exhaustive(self):
        # right factor acts first: (w*u)(j) = w(u(j)), extended equivariantly
        for m, n in [(1, 3), (2, 2), (2, 3)]:
            for w, u in itertools.product(all_elements(m, n), repeat=2):
                composed = GenPerm(m, tuple(act(w, v) for v in u.image))
                assert multiply(w, u) == composed

    @given(gen_perm_pairs(max_m=4, max_n=6))
    def test_multiply_is_composition_random(self, pair):
        w, u = pair
        composed = GenPerm(w.m, tuple(act(w, v) for v in u.image))
        assert multiply(w, u) == composed

    def test_associativity_exhaustive_small(self):
        for m, n in [(1, 3), (2, 2)]:
            elements = list(all_elements(m, n))
            for a, b, c in itertools.product(elements, repeat=3):
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_inverse_exhaustive_small(self):
        for m, n in [(1, 3), (2, 3), (3, 2)]:
            e = GenPerm.identity(m, n)
            for w in all_elements(m, n):
                assert multiply(w, inverse(w)) == e
                assert multiply(inverse(w), w) == e

    def test_inverse_of_identity_and_involution(self):
        assert inverse(GenPerm.identity(4, 5)) == GenPerm.identity(4, 5)
        swap = GenPerm(1, ((0, 2), (0, 1), (0, 3)))
        assert inverse(swap) == swap

    @given(gen_perms())
    def test_inverse_random(self, w):
        e = GenPerm.identity(w.m, w.n)
        assert multiply(w, inverse(w)) == e
        assert multiply(inverse(w), w) == e

    @given(gen_perm_pairs())
    def test_color_sum_additive_mod_m(self, pair):
        w, u = pair
        assert color_sum(multiply(w, u)) % w.m == (color_sum(w) + color_sum(u)) % w.m

    def test_mismatched_groups_rejected(self):
        w = GenPerm.identity(2, 3)
        with pytest.raises(ValueError):
            multiply(w, GenPerm.identity(2, 4))
        with pytest.raises(ValueError):
            multiply(w, GenPerm.identity(3, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            GenPerm(2, ((2, 1), (0, 2)))  # color out of range
        with pytest.raises(ValueError):
            GenPerm(2, ((0, 1), (0, 1)))  # repeated magnitude
        with pytest.raises(ValueError):
            GenPerm(2, ((0, 1), (0, 3)))  # magnitude out of range
        with pytest.raises(ValueError):
            GenPerm(0, ((0, 1),))


class TestPinnacles:
    def test_monotone_word_has_no_peaks(self):
        assert peaks(GenPerm.identity(1, 5)) == frozenset()

    def test_alternating_word(self):
        w = GenPerm.from_word(2, [(1, 5), (0, 4), (1, 3), (0, 2), (1, 1)])
        assert peaks(w) == frozenset({4, 2})
        assert pinnacle_set(w) == PinSet(2, 5, ((0, 4), (0, 2)))
        assert len(pinnacle_set(w)) == (5 - 1) // 2  # bound is tight

    def test_three_peak_word(self):
        word = [(0, 1), (0, 4), (0, 2), (1, 7), (2, 9), (1, 3), (2, 10), (1, 8), (0, 5), (1, 6)]
        w = GenPerm.from_word(3, word)
        assert peaks(w) == frozenset({8, 5, 2})
        assert pinnacle_set(w) == PinSet(3, 10, ((0, 2), (1, 3), (0, 5)))

    def test_identity_has_empty_pinnacle_set(self):
        assert pinnacle_set(GenPerm.identity(3, 6)) == PinSet(3, 6)

    def test_endpoints_never_peak(self):
        # plain descending word: position n holds the top value, still no peak
        w = GenPerm.from_word(1, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert peaks(w) == frozenset()

    def test_bound_and_multiplicity_exhaustive(self):
        for m, n in [(1, 5), (2, 4), (3, 3)]:
            cap = (n - 1) // 2
            for w in all_elements(m, n):
                P = pinnacle_set(w)
                assert len(P) <= cap
                assert len(P.magnitude_set()) == len(P)

    def test_word_round_trip(self):
        w = GenPerm.from_word(3, [(2, 3), (0, 1), (1, 2)])
        assert w.word == (CV(2, 3), CV(0, 1), CV(1, 2))
        assert w.image[2] == CV(2, 3) and w.image[0] == CV(1, 2)
        assert str(w) == "xi^2(3) xi^0(1) xi^1(2)"


class TestColorSum:
    def test_printed_witness(self):
        w = GenPerm.from_word(5, [(4, 5), (4, 3), (4, 4), (3, 2), (4, 1)])
        assert color_sum(w) == 19

    def test_identity(self):
        assert color_sum(GenPerm.identity(4, 7)) == 0

    def test_shifted_witness(self):
        w = GenPerm.from_word(8, [(7, 5), (7, 3), (7, 4), (6, 2), (7, 1)])
        assert color_sum(w) == 34


class TestSubgroup:
    def test_identity_always_member(self):
        for m, p, n in [(2, 2, 3), (6, 3, 4), (5, 1, 2)]:
            assert in_subgroup(GenPerm.identity(m, n), GroupParams(m, p, n))

    def test_color_sum_residue_excludes(self):
        w = GenPerm.from_word(5, [(4, 5), (4, 3), (4, 4), (3, 2), (4, 1)])
        assert color_sum(w) == 19
        assert not in_subgroup(w, GroupParams(5, 5, 5))  # 19 % 5 != 0
        odd = GenPerm.from_word(2, [(1, 2), (0, 1)])
        assert not in_subgroup(odd, GroupParams(2, 2, 2))
        with pytest.raises(ValueError):
            GroupParams(5, 2, 5)  # p must divide m

    @given(gen_perms())
    def test_p_equal_one_is_whole_group(self, w):
        assert in_subgroup(w, GroupParams(w.m, 1, w.n))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_subgroup(GenPerm.identity(2, 3), GroupParams(2, 2, 4))

    def test_subgroup_closure_exhaustive(self):
        # color-sum residue defines a subgroup: closed under product and inverse
        for m in range(1, 5):
            for p in range(1, m + 1):
                if m % p:
                    continue
                for n in (1, 2, 3):
                    g = GroupParams(m, p, n)
                    members = [w for w in all_elements(m, n) if in_subgroup(w, g)]
                    assert len(members) == g.order
                    for w in members:
                        assert in_subgroup(inverse(w), g)
                    for w, u in itertools.product(members, repeat=2):
                        assert in_subgroup(multiply(w, u), g)

    def test_randomized_axioms_beyond_small(self):
        rng = random.Random(20240809)

        def rand_perm(m, n):
            mags = list(range(1, n + 1))
            rng.shuffle(mags)
            colors = [rng.randrange(m) for _ in range(n)]
            return GenPerm(m, tuple(zip(colors, mags)))

        for _ in range(10_000):
            m = rng.randint(1, 6)
            n = rng.randint(1, 10)
            a, b, c = (rand_perm(m, n) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, inverse(a)) == GenPerm.identity(m, n)
            assert color_sum(multiply(a, b)) % m == (color_sum(a) + color_sum(b)) % m


class TestPinSet:
    def test_magnitude_set_examples(self):
        assert PinSet(5, 7, ((4, 3), (2, 3), (0, 1))).magnitude_set() == {1, 3}
        assert PinSet(5, 7).magnitude_set() == frozenset()
        assert PinSet(3, 10, ((1, 3), (0, 5), (0, 2))).magnitude_set() == {2, 3, 5}

    def test_sorted_and_deduplicated(self):
        P = PinSet(3, 6, ((0, 2), (2, 5), (0, 2), (1, 1)))
        assert P.elements == (CV(2, 5), CV(1, 1), CV(0, 2))
        assert len(P) == 3
        assert CV(0, 2) in P.elements and CV(2, 6) not in P.elements

    def test_validation(self):
        with pytest.raises(ValueError):
            PinSet(2, 5, ((2, 1),))
        with pytest.raises(ValueError):
            PinSet(2, 5, ((0, 6),))

    def test_str(self):
        assert str(PinSet(2, 3)) == "{}"
        assert str(PinSet(3, 10, ((0, 5), (1, 3)))) == "{xi^1(3), xi^0(5)}"


@st.composite
def raw_values(draw):
    # a modulus and up to five values, each a ColoredValue or a plain (c, x)
    # pair; about one in four colors is out of range or None, which compares
    # with no number, and about one in four magnitudes is redrawn from 0..n+1,
    # so out of range or repeated
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    values = []
    for x in draw(st.permutations(list(range(1, n + 1)))):
        if draw(st.integers(0, 3)) == 0:
            x = draw(st.integers(0, n + 1))
        c = draw(st.integers(0, m - 1))
        if draw(st.integers(0, 3)) == 0:
            c = draw(st.sampled_from((-1, m, m + 2, None)))
        values.append(CV(c, x) if draw(st.booleans()) else (c, x))
    return m, values


def outcome(build):
    try:
        return build()
    except (TypeError, ValueError) as error:
        return type(error), str(error)


def per_value_check(values, m, n, bijection):
    # the rule value by value: the first offending value raises
    seen = set()
    for cv in values:
        if not 0 <= cv.color < m:
            raise ValueError(f"color {cv.color} out of range for modulus {m}")
        if not 1 <= cv.magnitude <= n:
            raise ValueError(f"magnitude {cv.magnitude} out of range for degree {n}")
        if bijection and cv.magnitude in seen:
            raise ValueError(f"magnitude {cv.magnitude} repeated; not a bijection")
        seen.add(cv.magnitude)


def coerced(raw):
    return [v if isinstance(v, CV) else CV(int(v[0]), int(v[1])) for v in raw]


def per_value_gen_perm(m, raw):
    image = tuple(coerced(raw))
    if not image:
        raise ValueError("degree must be positive")
    per_value_check(image, m, len(image), True)
    return image


def per_value_pin_set(m, n, raw):
    elements = tuple(sorted(set(coerced(raw)), key=value_key(m)))
    per_value_check(elements, m, n, False)
    return elements


class TestValueChecks:
    # GenPerm and PinSet test their values inline and call check_value only to
    # raise; they must accept and reject exactly as a loop that checks value by
    # value does, with its exception and message

    @given(raw_values())
    def test_gen_perm_matches_the_per_value_loop(self, drawn):
        m, raw = drawn
        assert outcome(lambda: GenPerm(m, raw).image) == outcome(lambda: per_value_gen_perm(m, raw))

    @given(raw_values(), st.integers(1, 5))
    def test_pin_set_matches_the_per_value_loop(self, drawn, n):
        m, raw = drawn
        assert outcome(lambda: PinSet(m, n, raw).elements) == outcome(
            lambda: per_value_pin_set(m, n, raw)
        )
