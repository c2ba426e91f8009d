"""Colored permutations: the wreath products Z_m wr S_n and their pinnacles.

An element permutes the mn colored values xi^a(x) (color a in 0..m-1,
magnitude x in 1..n) color-equivariantly, so it is determined by where it
sends the plain magnitudes 1..n.  We store that image by position and never
evaluate xi as a complex number: every comparison and identity downstream
depends on the exponents alone.

The total order puts higher colors lower and orders each color's magnitudes
one way or the other.  It is defined once, by ``_ascending_colors(m)``, the
colors of modulus m whose magnitudes ascend; none do in the documented order:

    xi^(m-1)(n) < ... < xi^1(1) < xi^0(n) < ... < xi^0(2) < xi^0(1)

so the plain integers sit on top, reversed.  A pinnacle of w is a value
strictly above both word neighbors under this order.  Code that sorts or
compares values uses ``value_rank(m, n)``, the integer ranks 0..m*n-1 read
from that set; code that needs the order's shape reads the set.  Values
themselves are unordered: slots do not give ColoredValue an order.  GenPerm
coerces plain pairs only when some value is not already a ColoredValue;
PinSet coerces them all first.  Both check their values in input order in
one pass with ``check_value``'s comparisons inline, and call it only on the
first value that fails, so a rejection names that value.

Value semantics live in one private base, ``_Value``, which every value type
of the package derives from: fields named by ``__slots__``, equality and
hashing field by field within one class, no assignment after ``__init__``,
and a repr, ``__match_args__`` and pickling that follow the fields.
ColoredValue and PinSet, hashed and compared in the scans' inner loops,
spell out their own equality and hashing with the same meaning.

All types are immutable values and all operations are pure, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import math
import operator

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator

# how an __init__ sets a field, past the frozen __setattr__
_set = object.__setattr__


class _Value:
    """Field-wise value semantics for a class whose ``__slots__`` name its fields.

    A subclass has two or more fields and sets each in its ``__init__`` with
    ``_set``.  Values of one class are equal, and hash alike, when their
    fields are; assigning or deleting a field raises AttributeError; repr,
    ``__match_args__`` and pickling follow the fields in order, and unpickling
    calls the constructor.  Values are not ordered.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return self.__class__, self._fields(self)


class ColoredValue(_Value):
    """A symbolic xi^color(magnitude); compare values by ``value_rank(m, n)``."""

    __slots__ = ("color", "magnitude")

    def __init__(self, color: int, magnitude: int) -> None:
        _set_color(self, color)
        _set_magnitude(self, magnitude)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.color == other.color and self.magnitude == other.magnitude
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.color, self.magnitude))

    def __str__(self) -> str:
        return f"xi^{self.color}({self.magnitude})"


# the slot descriptors' setters, bound once: cheaper per value than _set's lookup by name
_set_color, _set_magnitude = ColoredValue.color.__set__, ColoredValue.magnitude.__set__


_NONE_ASCEND = frozenset()


def _ascending_colors(m: int) -> frozenset[int]:
    # the one definition of the order: the colors of modulus m whose magnitudes
    # ascend; none do in the documented order
    return _NONE_ASCEND


def value_rank(m: int, n: int) -> Callable[[int, int], int]:
    """The order of the colored values of modulus m and degree n, as ranks.

    ``rank(c, x)`` for ``rank = value_rank(m, n)`` is the position of xi^c(x)
    among the m*n values, 0 for the lowest, read from ``_ascending_colors(m)``:
    each color fills a block of n ranks, the top color's the lowest, and its
    magnitudes run up the block if it is among the ascending colors and down
    it if not.  Only values in range have ranks that mean anything.
    """
    up = _ascending_colors(m)
    if not up:
        return lambda c, x: (m - c) * n - x
    return lambda c, x: (m - 1 - c) * n + (x - 1 if c in up else n - x)


def check_value(cv: ColoredValue, m: int, n: int) -> None:
    """Raise ValueError unless 0 <= color < m and 1 <= magnitude <= n."""
    if not 0 <= cv.color < m:
        raise ValueError(f"color {cv.color} out of range for modulus {m}")
    if not 1 <= cv.magnitude <= n:
        raise ValueError(f"magnitude {cv.magnitude} out of range for degree {n}")


def _coerce_value(value) -> ColoredValue:
    # a plain (color, magnitude) pair; callers pass ColoredValues through unchanged
    # operator.index takes Python and numpy integers and rejects floats and strings
    color, magnitude = value
    return ColoredValue(operator.index(color), operator.index(magnitude))


class GenPerm(_Value):
    """A generalized permutation of Z_m wr S_n, stored by position.

    ``image[j-1]`` is the colored value w(j).  One-line (word) notation lists
    the images from position n down to 1, matching the usual display.
    """

    __slots__ = ("m", "image")

    def __init__(self, m: int, image: Iterable) -> None:
        image = tuple(image)
        if not all(map(ColoredValue.__instancecheck__, image)):
            image = tuple([v if isinstance(v, ColoredValue) else _coerce_value(v) for v in image])
        m = operator.index(m)
        _set(self, "m", m)
        _set(self, "image", image)
        n = len(image)
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        if n < 1:
            raise ValueError("degree must be positive")
        seen = 0
        for cv in image:
            x = cv.magnitude
            # check_value's tests and the repeat bit; check_value runs only to raise
            if not (0 <= cv.color < m and 1 <= x <= n) or seen & 1 << x:
                check_value(cv, m, n)
                raise ValueError(f"magnitude {x} repeated; not a bijection")
            seen |= 1 << x

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, m: int, n: int) -> "GenPerm":
        return cls(m, tuple(ColoredValue(0, j) for j in range(1, n + 1)))

    @classmethod
    def from_word(cls, m: int, word: Iterable) -> "GenPerm":
        """Build from one-line notation: values listed w(n), w(n-1), ..., w(1)."""
        return cls(m, tuple(word)[::-1])

    @property
    def word(self) -> tuple[ColoredValue, ...]:
        return tuple(reversed(self.image))

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.word)


def _check_same_group(w: GenPerm, u: GenPerm) -> None:
    if w.m != u.m or w.n != u.n:
        raise ValueError(
            f"mismatched groups: ({w.m},{w.n}) vs ({u.m},{u.n})"
        )


def multiply(w: GenPerm, u: GenPerm) -> GenPerm:
    """Compose as functions on the colored values, u acting first."""
    _check_same_group(w, u)
    m = w.m
    img = w.image
    out = []
    for f in u.image:
        base = img[f.magnitude - 1]
        out.append(ColoredValue((base.color + f.color) % m, base.magnitude))
    return GenPerm(m, tuple(out))


def inverse(w: GenPerm) -> GenPerm:
    out: list[ColoredValue | None] = [None] * w.n
    for j, cv in enumerate(w.image, start=1):
        out[cv.magnitude - 1] = ColoredValue((-cv.color) % w.m, j)
    return GenPerm(w.m, tuple(out))  # type: ignore[arg-type]


def _peak_positions(keys: Iterable) -> frozenset[int]:
    # one pass over the keys of positions 1, 2, ..., mid at position j; the
    # first key is its own left neighbor, never a peak
    keys = iter(keys)
    left = mid = next(keys)
    found = []
    for j, right in enumerate(keys, start=1):
        if left < mid > right:
            found.append(j)
        left, mid = mid, right
    return frozenset(found)


def peaks(w: GenPerm) -> frozenset[int]:
    """Positions j in 2..n-1 whose value sits strictly above both neighbors."""
    rank = value_rank(w.m, w.n)
    return _peak_positions([rank(cv.color, cv.magnitude) for cv in w.image])


def max_pinnacles(n: int) -> int:
    """The hard cap floor((n-1)/2) on the number of pinnacles in degree n."""
    return (n - 1) // 2


def color_sum(w: GenPerm) -> int:
    """The sum of all color exponents of w, an integer in [0, n(m-1)]."""
    return sum(cv.color for cv in w.image)


class GroupParams(_Value):
    """The triple (m, p, n) with p | m, naming the reflection group G(m,p,n)."""

    __slots__ = ("m", "p", "n")

    def __init__(self, m: int, p: int, n: int) -> None:
        m, p, n = operator.index(m), operator.index(p), operator.index(n)
        _set(self, "m", m)
        _set(self, "p", p)
        _set(self, "n", n)
        if m < 1 or p < 1 or n < 1:
            raise ValueError(f"m, p, n must be positive, got {self}")
        if m % p != 0:
            raise ValueError(f"p = {p} does not divide m = {m}")

    @property
    def order(self) -> int:
        return self.m**self.n * math.factorial(self.n) // self.p

    def __str__(self) -> str:
        return f"G({self.m},{self.p},{self.n})"


def in_subgroup(w: GenPerm, g: GroupParams) -> bool:
    """Whether w lies in G(m,p,n), i.e. its color sum is divisible by p."""
    if w.m != g.m or w.n != g.n:
        raise ValueError(f"permutation over ({w.m},{w.n}) tested against {g}")
    return color_sum(w) % g.p == 0


class PinSet(_Value):
    """A set of colored values over an ambient (m, n), kept sorted ascending.

    Candidate or certified pinnacle set; certification (distinct magnitudes,
    cardinality at most floor((n-1)/2)) is the deciders' business, not a
    construction invariant.
    """

    __slots__ = ("m", "n", "elements")

    def __init__(self, m: int, n: int, elements: Iterable = ()) -> None:
        m, n = operator.index(m), operator.index(n)
        elems = [v if isinstance(v, ColoredValue) else _coerce_value(v) for v in elements]
        if m < 1 or n < 1:
            raise ValueError(f"bad ambient (m={m}, n={n})")
        # each value is checked before it is ranked: in range, ranks are
        # distinct exactly when values are, so keying by rank drops repeats
        rank, by_rank = value_rank(m, n), {}
        for cv in elems:
            c, x = cv.color, cv.magnitude
            if not (0 <= c < m and 1 <= x <= n):
                check_value(cv, m, n)
            by_rank[rank(c, x)] = cv
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "elements", tuple([by_rank[r] for r in sorted(by_rank)]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.m == other.m and self.n == other.n and self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ColoredValue]:
        return iter(self.elements)

    def magnitude_set(self) -> frozenset[int]:
        """The plain magnitudes appearing in the set (multiplicity dropped)."""
        return frozenset(cv.magnitude for cv in self.elements)

    def __str__(self) -> str:
        if not self.elements:
            return "{}"
        return "{" + ", ".join(str(cv) for cv in self.elements) + "}"


def pinnacle_set(w: GenPerm) -> PinSet:
    """The values at the peak positions of w."""
    img = w.image
    return PinSet(w.m, w.n, tuple(img[j - 1] for j in peaks(w)))
