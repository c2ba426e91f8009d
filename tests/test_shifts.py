"""Color-shift embeddings and their interaction with witnesses."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinnacles.admissible import canonical_witness, is_admissible, max_pinnacles
from pinnacles.shifts import ShiftParams, shift_perm, shift_set
from pinnacles.wreath import ColoredValue, GenPerm, PinSet, color_sum

CV = ColoredValue


@st.composite
def perm_and_shift(draw, max_m=4, max_n=7, max_k=3):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_k))
    mags = draw(st.permutations(list(range(1, n + 1))))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return GenPerm(m, tuple(zip(colors, mags))), ShiftParams(m, k, n)


class TestSetShift:
    def test_empty(self):
        s = ShiftParams(2, 3, 6)
        assert shift_set(PinSet(2, 6), s) == PinSet(5, 6)

    def test_printed_pair(self):
        s = ShiftParams(5, 3, 5)
        P = PinSet(5, 5, ((4, 3), (3, 2)))
        assert shift_set(P, s) == PinSet(8, 5, ((7, 3), (6, 2)))

    def test_zero_shift_is_identity(self):
        P = PinSet(3, 6, ((2, 4), (0, 1)))
        assert shift_set(P, ShiftParams(3, 0, 6)) == P

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            shift_set(PinSet(3, 6), ShiftParams(2, 1, 6))

    def test_injective_and_size_preserving(self):
        s = ShiftParams(2, 2, 4)
        universe = [CV(c, x) for c in range(2) for x in range(1, 5)]
        seen = {}
        for size in range(3):
            for combo in itertools.combinations(universe, size):
                P = PinSet(2, 4, combo)
                Q = shift_set(P, s)
                assert len(Q) == len(P)
                assert Q not in seen
                seen[Q] = P


class TestPermShift:
    def test_printed_witness(self):
        s = ShiftParams(5, 3, 5)
        w = GenPerm.from_word(5, [(4, 5), (4, 3), (4, 4), (3, 2), (4, 1)])
        assert str(shift_perm(w, s)) == "xi^7(5) xi^7(3) xi^7(4) xi^6(2) xi^7(1)"

    def test_identity_keeps_empty_pinnacles(self):
        from pinnacles.wreath import pinnacle_set

        s = ShiftParams(2, 4, 5)
        shifted = shift_perm(GenPerm.identity(2, 5), s)
        assert all(v.color == 4 for v in shifted.image)
        assert pinnacle_set(shifted) == PinSet(6, 5)

    @given(perm_and_shift())
    def test_color_sum_grows_by_k_times_n(self, pair):
        w, s = pair
        assert color_sum(shift_perm(w, s)) == color_sum(w) + s.k * s.n

    @given(perm_and_shift())
    def test_shift_raises_each_color_by_k(self, pair):
        # position by position: xi^c(x) goes to xi^(c+k)(x), so w can be read back
        w, s = pair
        shifted = shift_perm(w, s)
        assert shifted.m == s.target_modulus
        for before, after in zip(w.image, shifted.image, strict=True):
            assert after == CV(before.color + s.k, before.magnitude)

    def test_mismatch_errors(self):
        s = ShiftParams(2, 1, 3)
        with pytest.raises(ValueError):
            shift_perm(GenPerm.identity(3, 3), s)

    def test_parameters_must_be_integers(self):
        # m, k and n pass through operator.index: a float or a string raises
        for args in ((2.0, 1, 3), (2, 1.0, 3), (2, 1, 3.0), (2, "1", 3)):
            with pytest.raises(TypeError):
                ShiftParams(*args)


def admissible_sets(m, n):
    universe = [CV(c, x) for c in range(m) for x in range(1, n + 1)]
    for size in range(max_pinnacles(n) + 1):
        for combo in itertools.combinations(universe, size):
            P = PinSet(m, n, combo)
            if is_admissible(P):
                yield P


class TestWitnessTransport:
    def test_shift_commutes_with_canonical_witness(self):
        for m, n in [(1, 5), (2, 4), (2, 5), (3, 4)]:
            for k in (1, 2):
                s = ShiftParams(m, k, n)
                for P in admissible_sets(m, n):
                    assert shift_perm(canonical_witness(P), s) == canonical_witness(
                        shift_set(P, s)
                    )

    def test_shift_image_characterization(self, reports):
        # shifted admissible sets are exactly the admissible sets of the larger
        # modulus avoiding the bottom k colors
        for m in (1, 2):
            for k in (0, 1, 2):
                for n in (3, 4, 5, 6):
                    s = ShiftParams(m, k, n)
                    source = set(reports(m, 1, n).stats)
                    target = set(reports(m + k, 1, n).stats)
                    for d in range(max_pinnacles(n) + 1):
                        image = {shift_set(P, s) for P in source if len(P) <= d}
                        expected = {
                            Q
                            for Q in target
                            if len(Q) <= d and all(cv.color >= k for cv in Q.elements)
                        }
                        assert image == expected, (m, k, n, d)

    def test_shift_filtration(self, reports):
        # raising the modulus never loses admissible sets
        for n in (5, 6):
            for d in range(max_pinnacles(n) + 1):
                chain = []
                for m in (1, 2, 3):
                    s = ShiftParams(m, 3 - m, n)
                    chain.append(
                        {shift_set(P, s) for P in reports(m, 1, n).stats if len(P) <= d}
                    )
                assert chain[0] <= chain[1] <= chain[2]
                assert chain[2] <= {P for P in reports(3, 1, n).stats if len(P) <= d}
