"""Group structure, the total order, pinnacle extraction, and value semantics."""

import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinnacles import wreath
from pinnacles.admissible import Admissibility
from pinnacles.oracle import DEFAULT_MAX_ORDER, OracleBudget, OracleReport, PinStats
from pinnacles.shifts import ShiftParams
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
    value_rank,
)
from test_acceptance import CANDIDATE_ORDERS

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

# colored_values draws colors 0..6 and magnitudes 1..12, so they compare
# under the ranks of modulus 7 and degree 12
_RANKS_7_12 = value_rank(7, 12)


def rank7(cv):
    return _RANKS_7_12(cv.color, cv.magnitude)


# every candidate order, and the one in which every color ascends
ALL_ORDERS = {**CANDIDATE_ORDERS, "all-asc": lambda m: frozenset(range(m))}


def value_key(m):
    """The value order written as a tuple sort key, a second statement of it
    for value_rank to agree with: a higher color is lower, and within a color
    the magnitudes ascend exactly when the color is in _ascending_colors(m)."""
    up = wreath._ascending_colors(m)
    return lambda v: (-v.color, v.magnitude if v.color in up else -v.magnitude)


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
        assert rank7(CV(2, 10)) < rank7(CV(1, 3))

    def test_within_color_larger_magnitude_is_lower(self):
        assert rank7(CV(0, 3)) < rank7(CV(0, 2))

    def test_reflexive_equality(self):
        assert CV(1, 4) == CV(1, 4)

    def test_plain_one_is_global_maximum(self):
        rank = value_rank(3, 5)
        values = [CV(c, x) for c in range(3) for x in range(1, 6)]
        assert max(values, key=lambda v: rank(v.color, v.magnitude)) == CV(0, 1)
        assert min(values, key=lambda v: rank(v.color, v.magnitude)) == CV(2, 5)

    def test_value_key_follows_the_ascending_colors(self, monkeypatch):
        # read in rank order, and sorted by the tuple key value_key(m), the
        # values of degree n form the blocks of colors m-1 down to 0, each
        # ascending exactly when its color is in _ascending_colors(m)
        for name, ascending in ALL_ORDERS.items():
            monkeypatch.setattr(wreath, "_ascending_colors", ascending)
            for m in range(1, 6):
                up, key = ascending(m), value_key(m)
                for n in range(1, 7):
                    rank = value_rank(m, n)
                    values = [CV(c, x) for c in range(m) for x in range(1, n + 1)]
                    blocks = [CV(c, x) for c in reversed(range(m))
                              for x in (range(1, n + 1) if c in up else range(n, 0, -1))]
                    assert sorted(values, key=key) == blocks, (name, m, n)
                    assert sorted(values, key=lambda v: rank(v.color, v.magnitude)) == blocks, (name, m, n)

    def test_value_rank_is_the_position_under_value_key(self, monkeypatch):
        # value_rank(m, n) is the position under value_key(m): sorted by the
        # tuple key, the m*n values of degree n have ranks 0, 1, ..., m*n-1
        for name, ascending in ALL_ORDERS.items():
            monkeypatch.setattr(wreath, "_ascending_colors", ascending)
            for m in range(1, 6):
                key = value_key(m)
                for n in range(1, 7):
                    rank = value_rank(m, n)
                    values = sorted((CV(c, x) for c in range(m) for x in range(1, n + 1)), key=key)
                    ranks = [rank(v.color, v.magnitude) for v in values]
                    assert ranks == list(range(m * n)), (name, m, n)

    def test_values_have_no_order_of_their_own(self):
        # the order needs the modulus, so a bare comparison has no meaning
        with pytest.raises(TypeError):
            CV(2, 10) < CV(1, 3)

    @given(colored_values, colored_values)
    def test_trichotomy(self, u, v):
        assert (rank7(u) < rank7(v)) + (u == v) + (rank7(v) < rank7(u)) == 1

    @given(colored_values, colored_values, colored_values)
    def test_transitivity(self, u, v, w):
        if rank7(u) < rank7(v) and rank7(v) < rank7(w):
            assert rank7(u) < rank7(w)


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


def as_lists(raw):
    return [v if isinstance(v, CV) else list(v) for v in raw]


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
    return [v if isinstance(v, CV) else CV(operator.index(v[0]), operator.index(v[1])) for v in raw]


def per_value_gen_perm(m, raw):
    image = tuple(coerced(raw))
    if not image:
        raise ValueError("degree must be positive")
    per_value_check(image, m, len(image), True)
    return image


def per_value_pin_set(m, n, raw):
    elements = coerced(raw)
    per_value_check(elements, m, n, False)
    rank = value_rank(m, n)
    return tuple(sorted(set(elements), key=lambda v: rank(v.color, v.magnitude)))


class TestValueChecks:
    # GenPerm and PinSet test their values inline and call check_value only to
    # raise; they must accept and reject exactly as a loop that checks value by
    # value does, with its exception and message, also when the values come
    # from a one-shot iterator or the plain pairs are [c, x] lists, unhashable

    @given(raw_values())
    def test_gen_perm_matches_the_per_value_loop(self, drawn):
        m, raw = drawn
        expected = outcome(lambda: per_value_gen_perm(m, raw))
        assert outcome(lambda: GenPerm(m, raw).image) == expected
        assert outcome(lambda: GenPerm(m, iter(raw)).image) == expected
        assert outcome(lambda: GenPerm(m, as_lists(raw)).image) == expected

    @given(raw_values(), st.integers(1, 5))
    def test_pin_set_matches_the_per_value_loop(self, drawn, n):
        m, raw = drawn
        expected = outcome(lambda: per_value_pin_set(m, n, raw))
        assert outcome(lambda: PinSet(m, n, raw).elements) == expected
        assert outcome(lambda: PinSet(m, n, iter(raw)).elements) == expected
        assert outcome(lambda: PinSet(m, n, as_lists(raw)).elements) == expected

    def test_pin_set_names_the_first_bad_value_in_input_order(self):
        # ranks depend on n, so values out of range can tie (xi^0(7) and
        # xi^2(1) both rank -1 at m = 2, n = 3); PinSet checks its values
        # before it sorts them, and xi^0(7) is not the lower of the two
        raw = ((0, 7), (2, 1))
        for elements in (raw, iter(raw), as_lists(raw), tuple(CV(c, x) for c, x in raw)):
            with pytest.raises(ValueError, match="^magnitude 7 out of range for degree 3$"):
                PinSet(2, 3, elements)
        with pytest.raises(ValueError, match="^color 2 out of range for modulus 2$"):
            PinSet(2, 3, raw[::-1])

    def test_plain_pairs_must_hold_integers(self):
        # a float or a string is neither truncated nor parsed
        for pair in [(0, 1.5), (0.0, 1), ("1", 2), (1, "2")]:
            with pytest.raises(TypeError):
                GenPerm(2, [pair])
            with pytest.raises(TypeError):
                PinSet(2, 3, [pair])
        import numpy as np

        assert PinSet(2, 3, [(np.int64(1), np.int8(2))]) == PinSet(2, 3, [(1, 2)])
        assert GenPerm(2, [(np.int64(1), np.uint16(1))]) == GenPerm(2, [(1, 1)])

    def test_ambient_parameters_must_be_integers(self):
        # m, p and n pass through operator.index as the pairs do: a float or a
        # string raises, and numpy integers are stored as Python ints
        for bad in (2.0, 2.5, "2"):
            for args in ((bad, 1, 2), (2, bad, 2), (2, 1, bad)):
                with pytest.raises(TypeError):
                    GroupParams(*args)
            with pytest.raises(TypeError):
                PinSet(bad, 3, [(0, 1)])
            with pytest.raises(TypeError):
                PinSet(2, bad, [(0, 1)])
            with pytest.raises(TypeError):
                GenPerm(bad, [(0, 1)])
        import numpy as np

        g = GroupParams(np.int64(2), np.int8(1), np.uint16(3))
        assert g == GroupParams(2, 1, 3) and type(g.order) is int
        assert type(PinSet(np.int64(2), np.int64(3), [(0, 1)]).n) is int
        assert type(GenPerm(np.int64(2), [(0, 1)]).m) is int

    def test_budget_caps_must_be_integers(self):
        # checked when the budget is built, not first inside OracleBudget.check
        # or a parallel scan's range
        for bad in (2.5e6, 2.0, "2"):
            with pytest.raises(TypeError):
                OracleBudget(max_order=bad)
            with pytest.raises(TypeError):
                OracleBudget(partitions=bad)
        import numpy as np

        budget = OracleBudget(max_order=np.int64(1000), partitions=np.int8(2))
        assert budget == OracleBudget(1000, 2)
        assert type(budget.max_order) is int and type(budget.partitions) is int


W = GenPerm(2, ((1, 2), (0, 1)))
W_TEXT = ("GenPerm(m=2, image=(ColoredValue(color=1, magnitude=2), "
          "ColoredValue(color=0, magnitude=1)))")

# each value type of the package: a value, its repr as the dataclass version
# printed it, a value of the same class that differs in one field, and the
# field names in order
VALUES = [
    pytest.param(value, text, other, names, id=type(value).__name__)
    for value, text, other, names in [
        (CV(1, 3), "ColoredValue(color=1, magnitude=3)", CV(1, 2), ("color", "magnitude")),
        (W, W_TEXT, GenPerm(2, ((0, 2), (0, 1))), ("m", "image")),
        (GroupParams(4, 2, 3), "GroupParams(m=4, p=2, n=3)", GroupParams(4, 2, 2), ("m", "p", "n")),
        (
            PinSet(3, 10, ((0, 5), (1, 3))),
            "PinSet(m=3, n=10, elements=(ColoredValue(color=1, magnitude=3), "
            "ColoredValue(color=0, magnitude=5)))",
            PinSet(3, 11, ((0, 5), (1, 3))),
            ("m", "n", "elements"),
        ),
        (
            Admissibility(True, witness=W),
            f"Admissibility(admissible=True, code=None, reason=None, witness={W_TEXT})",
            Admissibility(True),
            ("admissible", "code", "reason", "witness"),
        ),
        (
            OracleBudget(max_order=50, partitions=2),
            "OracleBudget(max_order=50, partitions=2)",
            OracleBudget(50),
            ("max_order", "partitions"),
        ),
        (
            PinStats(3, ((0, 1), (2, 2))),
            "PinStats(witness_count=3, eps_histogram=((0, 1), (2, 2)))",
            PinStats(3, ((0, 1), (2, 1))),
            ("witness_count", "eps_histogram"),
        ),
        (
            OracleReport(GroupParams(1, 1, 2), {PinSet(1, 2): PinStats(2, ((0, 2),))}, 2),
            "OracleReport(params=GroupParams(m=1, p=1, n=2), stats={PinSet(m=1, n=2, "
            "elements=()): PinStats(witness_count=2, eps_histogram=((0, 2),))}, scanned=2)",
            OracleReport(GroupParams(1, 1, 2), {}, 2),
            ("params", "stats", "scanned"),
        ),
        (ShiftParams(1, 2, 3), "ShiftParams(m=1, k=2, n=3)", ShiftParams(1, 0, 3), ("m", "k", "n")),
    ]
]
# a report's stats is a dict, so the report is the one value that is not hashable
HASHABLE = [case for case in VALUES if case.id != "OracleReport"]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


class TestValueSemantics:
    @pytest.mark.parametrize("value, text, other, names", VALUES)
    def test_fields_in_order(self, value, text, other, names):
        assert type(value).__match_args__ == names
        cls = type(value)
        assert cls(*fields(value)) == cls(**dict(zip(names, fields(value)))) == value

    @pytest.mark.parametrize("value, text, other, names", VALUES)
    def test_equal_by_fields_within_one_class(self, value, text, other, names):
        twin = type(value)(*fields(value))
        assert twin is not value and twin == value and not twin != value
        assert value != other and other != value
        assert value != fields(value) and fields(value) != value

    @pytest.mark.parametrize("value, text, other, names", HASHABLE)
    def test_hash_is_the_hash_of_the_fields(self, value, text, other, names):
        assert hash(type(value)(*fields(value))) == hash(value) == hash(fields(value))
        assert len({value, type(value)(*fields(value)), other}) == 2

    def test_unequal_across_classes(self):
        same_fields = [CV(5, 2), PinStats(5, 2), OracleBudget(5, 2)]
        for u, v in itertools.permutations(same_fields, 2):
            assert u != v
        assert GroupParams(4, 2, 3) != ShiftParams(4, 2, 3)
        assert len({*same_fields, GroupParams(4, 2, 3), ShiftParams(4, 2, 3)}) == 5

    @pytest.mark.parametrize("value, text, other, names", VALUES)
    def test_unordered(self, value, text, other, names):
        with pytest.raises(TypeError):
            value < other

    @pytest.mark.parametrize("value, text, other, names", VALUES)
    def test_repr_is_the_dataclass_text(self, value, text, other, names):
        assert repr(value) == text

    @pytest.mark.parametrize("value, text, other, names", VALUES)
    def test_fields_cannot_be_assigned_or_deleted(self, value, text, other, names):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text

    @pytest.mark.parametrize("value, text, other, names", VALUES)
    def test_pickle_and_deepcopy_round_trip(self, value, text, other, names):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*copies, copy.copy(value), copy.deepcopy(value)]:
            assert type(twin) is type(value) and twin == value and repr(twin) == text

    def test_keyword_construction_and_defaults(self):
        assert fields(OracleBudget()) == (DEFAULT_MAX_ORDER, 1)
        assert fields(Admissibility(True, witness=W)) == (True, None, None, W)
        assert fields(Admissibility(False, "no-witness")) == (False, "no-witness", None, None)
        assert PinSet(3, 10).elements == () and PinSet(m=3, n=10) == PinSet(3, 10, ())
        assert GroupParams(n=3, p=2, m=4) == GroupParams(4, 2, 3)
        assert CV(magnitude=3, color=1) == CV(1, 3)

    def test_match_reads_fields_in_order(self):
        match Admissibility(True, witness=W):
            case Admissibility(True, None, None, GenPerm(m, image)):
                assert (m, image) == (2, W.image)
            case _:
                pytest.fail("no match")

    def test_report_is_frozen_and_unhashable(self):
        report = OracleReport(GroupParams(1, 1, 2), {}, 2)
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(AttributeError):
            report.scanned = 3
        assert report == OracleReport(GroupParams(1, 1, 2), {}, 2)
