"""Deciding which candidate sets occur as pinnacle sets of some permutation.

Three independent deciders are provided.  The canonical-witness test is the
production one: a set is admissible exactly when the canonical witness built
from it has the set as its pinnacles, which is a single O(n) scan.  The other
two re-derive the answer structurally, peeling off one color at a time or
jumping straight to the top color; they exist so the characterizations can be
cross-checked against each other and against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import wreath
from .wreath import ColoredValue, GenPerm, PinSet, pinnacle_set


class AdmissibilityError(ValueError):
    """A candidate set violates a structural precondition."""

    code: str


class MultiplicityViolation(AdmissibilityError):
    """Two elements share a magnitude, so no witness can be a bijection."""

    code = "repeated-magnitude"


class CardinalityViolation(AdmissibilityError):
    """More than floor((n-1)/2) elements; there are not enough valley slots."""

    code = "too-many-pinnacles"


def max_pinnacles(n: int) -> int:
    """The hard cap floor((n-1)/2) on the number of pinnacles in degree n."""
    return (n - 1) // 2


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
    used = P.magnitude_set()
    fillers = sorted((ColoredValue(P.m - 1, x) for x in range(1, P.n + 1) if x not in used),
                     key=wreath.value_key(P.m))
    word = [v for pair in zip(fillers, P.elements) for v in pair] + fillers[len(P) :]
    return GenPerm.from_word(P.m, word)


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the witness test, with a machine-readable failure reason."""

    admissible: bool
    code: str | None = None
    reason: str | None = None
    witness: GenPerm | None = None


def admissibility(P: PinSet) -> Admissibility:
    """Witness decider with diagnostics; never raises on a valid PinSet."""
    try:
        witness = canonical_witness(P)
    except AdmissibilityError as violation:
        return Admissibility(False, violation.code, str(violation))
    if pinnacle_set(witness) != P:
        return Admissibility(False, "no-witness", "canonical witness does not realize the set")
    return Admissibility(True, witness=witness)


def is_admissible(P: PinSet) -> bool:
    """Decider A: the canonical witness realizes P."""
    return admissibility(P).admissible


def _pack(alive: list[int]) -> dict[int, int]:
    # order-preserving relabeling of the surviving magnitudes onto 1..len(alive).
    # Deciders B and C rely on it: packing keeps the magnitude order and moving
    # colors keeps the color order, so the smaller problem is ordered like the
    # larger one while each moved color has the magnitude direction of the
    # color it lands on.
    return {x: i for i, x in enumerate(sorted(alive), start=1)}


def is_admissible_rec(P: PinSet) -> bool:
    """Decider B: peel the lower colors off one at a time, lowest first.

    P is admissible iff its cardinality is within the cap, its magnitudes are
    pairwise distinct, and the set left after peeling its lowest color (its
    magnitudes dropped, the survivors packed onto an initial segment, colors
    lowered by one) is admissible over modulus m-1.  One loop takes that step
    for each color P uses below the top, since peeling an unused color changes
    nothing but the modulus; the top-color slice is left over modulus 1, where
    the witness test decides it.
    """
    if _violation(P) is not None:
        return False
    n, top = P.n, P.m - 1
    pairs = [(cv.color, cv.magnitude) for cv in P.elements]
    for c in sorted({color for color, _ in pairs if color != top}):
        gone = {x for color, x in pairs if color == c}
        relabel = _pack([x for x in range(1, n + 1) if x not in gone])
        n -= len(gone)
        pairs = [(color, relabel[x]) for color, x in pairs if color != c]
    return is_admissible(PinSet(1, n, tuple(ColoredValue(0, x) for _, x in pairs)))


def is_admissible_top(P: PinSet) -> bool:
    """Decider C: only the top-color slice needs a nontrivial check.

    After removing the magnitudes used by the lower colors, the slice of
    color m-1 must be admissible as a plain (modulus 1) pinnacle set on the
    packed remaining magnitudes; that single base decision uses decider A.
    """
    if _violation(P) is not None:
        return False
    top = P.m - 1
    lower_mags = {cv.magnitude for cv in P.elements if cv.color != top}
    alive = [x for x in range(1, P.n + 1) if x not in lower_mags]
    relabel = _pack(alive)
    packed = tuple(
        ColoredValue(0, relabel[cv.magnitude]) for cv in P.elements if cv.color == top
    )
    return is_admissible(PinSet(1, len(alive), packed))


def colored_admissible_degree(P: PinSet) -> int:
    """Smallest-construction degree N = 2L+1 admitting a one-colored set.

    L is the largest magnitude in P, so all of P fits below the midpoint and
    the canonical witness ``canonical_witness(PinSet(P.m, N, P.elements))``,
    laid out in the order ``wreath.value_key(P.m)``, interleaves it in Z_m wr S_N.
    """
    if not P.elements:
        raise ValueError("empty set has no colored degree")
    colors = {cv.color for cv in P.elements}
    if len(colors) != 1:
        raise ValueError(f"set uses colors {sorted(colors)}; expected exactly one")
    return 2 * max(P.magnitude_set()) + 1
