"""Color-shift embeddings from modulus m into modulus m+k.

Each xi^a(x) goes to xi^(a+k)(x) over the larger modulus.  The set map is
injective and cardinality-preserving, the permutation map sends witnesses to
witnesses and canonical witnesses to canonical witnesses.  It is a plain
entrywise relabeling, not a group homomorphism, and no such law is assumed.
"""

from __future__ import annotations

from .wreath import ColoredValue, GenPerm, PinSet, _set, _Value


class ShiftParams(_Value):
    """Shift by k from modulus m into modulus m+k, at fixed degree n."""

    __slots__ = ("m", "k", "n")

    def __init__(self, m: int, k: int, n: int) -> None:
        _set(self, "m", m)
        _set(self, "k", k)
        _set(self, "n", n)
        if m < 1 or n < 1:
            raise ValueError(f"bad source (m={m}, n={n})")
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")

    @property
    def target_modulus(self) -> int:
        return self.m + self.k


def shift_set(P: PinSet, s: ShiftParams) -> PinSet:
    """Raise every color of P by s.k, landing in modulus m+k."""
    if P.m != s.m or P.n != s.n:
        raise ValueError(f"set over ({P.m},{P.n}) shifted with params ({s.m},{s.n})")
    return PinSet(
        s.target_modulus,
        s.n,
        tuple(ColoredValue(cv.color + s.k, cv.magnitude) for cv in P.elements),
    )


def shift_perm(w: GenPerm, s: ShiftParams) -> GenPerm:
    """Raise every color of w by s.k, landing in modulus m+k."""
    if w.m != s.m or w.n != s.n:
        raise ValueError(f"permutation over ({w.m},{w.n}) shifted with params ({s.m},{s.n})")
    return GenPerm(
        s.target_modulus,
        tuple(ColoredValue(cv.color + s.k, cv.magnitude) for cv in w.image),
    )

