"""Deciding which candidate sets occur as pinnacle sets of some permutation.

Three characterizations give three deciders.  A, the production one: a set
is admissible exactly when the canonical witness built from it has the set
as its pinnacles, that is, when its peaks are the positions holding the
set's elements, a single O(n) scan.  A lays the witness out as the integer
ranks of its values (``wreath._value_rank``) and builds the GenPerm only
when it returns one, for an admissible set.  B, a counting inequality: the j
lowest elements find enough unused magnitudes below them for their j+1
neighbors.  C, a reduction: only the top-color slice can fail, so A decides
that slice alone.  B and C exist so the characterizations can be
cross-checked against each other and against brute force.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from . import wreath
from .wreath import ColoredValue, GenPerm, PinSet, _set, _Value, max_pinnacles


class AdmissibilityError(ValueError):
    """A candidate set violates a structural precondition."""

    code: str


class MultiplicityViolation(AdmissibilityError):
    """Two elements share a magnitude, so no witness can be a bijection."""

    code = "repeated-magnitude"


class CardinalityViolation(AdmissibilityError):
    """More than floor((n-1)/2) elements; there are not enough valley slots."""

    code = "too-many-pinnacles"


def _violation(P: PinSet) -> AdmissibilityError | None:
    # the preconditions every decider shares: distinct magnitudes, then the cap
    seen: set[int] = set()
    for cv in P.elements:
        if cv.magnitude in seen:
            return MultiplicityViolation(f"repeated magnitude {cv.magnitude}")
        seen.add(cv.magnitude)
    d, cap = len(P), max_pinnacles(P.n)
    if d > cap:
        return CardinalityViolation(f"{d} pinnacles exceed the maximum {cap} for degree {P.n}")
    return None


def _free_magnitudes(P: PinSet) -> list[int]:
    # the magnitudes P leaves unused, in the order the top color's values ascend
    used = P.magnitude_set()
    up = P.m - 1 in wreath._ascending_colors(P.m)
    return [x for x in (range(1, P.n + 1) if up else range(P.n, 0, -1)) if x not in used]


def _layout(fillers: list, elements) -> list:
    # the canonical witness's image, position 1 first, from its fillers and
    # P's elements, each ascending: the word interleaves them, then the fillers left
    image = [v for pair in zip(fillers, elements) for v in pair]
    image += fillers[len(elements) :]
    image.reverse()
    return image


def canonical_witness(P: PinSet) -> GenPerm:
    """The witness interleaving P with top-color fillers, both read ascending.

    Word layout (positions n down to 1), with xi^(m-1)(v_1) < xi^(m-1)(v_2)
    < ... the top-color values on the unused magnitudes and p_1 < p_2 < ...
    the elements of P, both ascending in the order ``wreath.value_key(P.m)``:

        xi^(m-1)(v_1)  p_1  xi^(m-1)(v_2)  p_2 ... p_d  xi^(m-1)(v_{d+1}) ...

    Among all witnesses of P this one maximizes the color sum.
    """
    violation = _violation(P)
    if violation is not None:
        raise violation
    top = P.m - 1
    return GenPerm(P.m, _layout([ColoredValue(top, x) for x in _free_magnitudes(P)], P.elements))


def _realized(P: PinSet) -> bool:
    # the canonical witness of a P that passes _violation, as the ranks of its
    # values: P's elements sit at positions n-1, n-3, ..., n-2d+1 and only
    # there, so it realizes P exactly when those positions are its peaks
    rank, top = wreath._value_rank(P.m, P.n), P.m - 1
    fillers = [rank(top, x) for x in _free_magnitudes(P)]
    image = _layout(fillers, [rank(cv.color, cv.magnitude) for cv in P.elements])
    return wreath._peak_positions(image) == frozenset(range(P.n - 1, P.n - 2 * len(P), -2))


class Admissibility(_Value):
    """Outcome of the witness test, with a machine-readable failure reason."""

    __slots__ = ("admissible", "code", "reason", "witness")

    def __init__(
        self,
        admissible: bool,
        code: str | None = None,
        reason: str | None = None,
        witness: GenPerm | None = None,
    ) -> None:
        _set(self, "admissible", admissible)
        _set(self, "code", code)
        _set(self, "reason", reason)
        _set(self, "witness", witness)


def admissibility(P: PinSet) -> Admissibility:
    """Witness decider with diagnostics; never raises on a valid PinSet.

    The verdict comes from the witness's ranks; the witness itself is built
    only for an admissible P, the one outcome that carries it.
    """
    violation = _violation(P)
    if violation is not None:
        return Admissibility(False, violation.code, str(violation))
    if not _realized(P):
        return Admissibility(False, "no-witness", "canonical witness does not realize the set")
    return Admissibility(True, witness=canonical_witness(P))


def is_admissible(P: PinSet) -> bool:
    """Decider A: the canonical witness realizes P.

    The witness is read as the ranks of its values under
    ``wreath._value_rank``; no GenPerm is built.
    """
    return _violation(P) is None and _realized(P)


def is_admissible_rec(P: PinSet) -> bool:
    """Decider B: enough unused magnitudes sit below each pinnacle.

    The j lowest pinnacles need j+1 distinct neighbors below them, each on a
    magnitude P does not use, and on any magnitude the top color gives the
    lowest value.  So P is admissible iff its magnitudes are distinct and, for
    every j, at least j+1 top-color values on unused magnitudes lie below the
    j-th smallest element of P.  A lower-color element has all n-d of them
    below it, and n-d > d, so only the top-color elements, the lowest ones,
    are counted: by bisection over the used magnitudes, on the side where the
    top color's values are lower, the smaller magnitudes exactly when the top
    color is among ``wreath._ascending_colors(m)``.  No witness is built.
    """
    if _violation(P) is not None:
        return False
    top = P.m - 1
    rising = top in wreath._ascending_colors(P.m)
    used = sorted(cv.magnitude for cv in P.elements)
    for j, cv in enumerate((cv for cv in P.elements if cv.color == top), start=1):
        x = cv.magnitude
        free = x - 1 - bisect_left(used, x) if rising else P.n - x - len(used) + bisect_right(used, x)
        if free <= j:
            return False
    return True


def is_admissible_top(P: PinSet) -> bool:
    """Decider C: only the top-color slice needs a nontrivial check.

    The order puts higher colors lower, so every lower-color element lies
    above all top-color values and has neighbors to spare.  The top-color
    slice, its magnitudes packed onto the ones the lower colors leave, is
    decided by decider A at the same modulus.
    """
    if _violation(P) is not None:
        return False
    top = P.m - 1
    lower = sorted(cv.magnitude for cv in P.elements if cv.color != top)
    packed = tuple(ColoredValue(top, cv.magnitude - bisect_left(lower, cv.magnitude))
                   for cv in P.elements if cv.color == top)
    return is_admissible(PinSet(P.m, P.n - len(lower), packed))
