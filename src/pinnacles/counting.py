"""Exact counts of admissible pinnacle sets.

p(m, n, d) is the number of admissible pinnacle sets of cardinality at most d
in Z_m wr S_n, for 0 <= d <= floor((n-1)/2), the cap that
``wreath.max_pinnacles`` defines for every module.  Four routes compute
it: a recursion lowering the modulus, a recursion lowering the degree, an
alternating binomial sum, and an all-nonnegative binomial sum.  They must
agree exactly; ``method="all"`` enforces that on every call.  Each route
keeps its own formula and gets every binomial from its neighbour by an exact
integer ratio or by Pascal's rule, never by a fresh ``comb`` inside a loop:
the two closed forms take O(d) big-integer steps, the degree recursion
O(n*d), and the modulus recursion O(m*d^2) after a one-time table of
binomial coefficients.

The subgroups G(m,p,n) have the same counts, less L(p,r) of ``_setspace`` at
odd n = 2r+1 and cardinality r.  Every value is an exact Python integer.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import comb
from operator import index, mul

from .wreath import GroupParams, max_pinnacles

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .oracle import OracleBudget

def _validate(m: int, n: int, d: int) -> tuple[int, int, int]:
    # Python and numpy integers pass as Python ints; floats and strings raise TypeError
    m, n, d = index(m), index(n), index(d)
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    if not 0 <= d <= max_pinnacles(n):
        raise ValueError(
            f"d={d} outside the valid range 0..{max_pinnacles(n)} for degree n={n}"
        )
    return m, n, d


class NegativeCount(ArithmeticError):
    """A counting route produced a negative value: a fault in the program."""

    def __init__(self, method: str, m: int, n: int, d: int, value: int):
        self.method = method
        self.params = (m, n, d)
        self.value = value
        super().__init__(f"{method} gave the negative count {value} at (m={m}, n={n}, d={d})")


def _nonnegative(method: str, m: int, n: int, d: int, value: int) -> int:
    if value < 0:
        raise NegativeCount(method, m, n, d, value)
    return value


def count_recursion_m(m: int, n: int, d: int) -> int:
    """Recursion in the modulus, splitting on how many pinnacles use color 0."""
    m, n, d = _validate(m, n, d)
    # Every cell the recursion reaches is (m', n - d + e, e) with e <= d, since
    # each step lowers degree and cardinality together: one vector over e per
    # modulus holds them all, built up from m' = 1; the top needs only e = d.
    if m == 1 or d == 0:
        return comb(n - 1, d)
    base = n - d
    # coef[e][i] = C(base + e, i) for i <= e, built once by Pascal's rule with
    # the diagonal by ratio; the last row is C(n, i)
    coef = [[1]]
    for e in range(1, d + 1):
        prev = coef[-1]
        inner = [prev[i] + prev[i - 1] for i in range(1, e)]
        coef.append([1] + inner + [prev[-1] * (base + e) // e])
    # the m' = 1 vector C(base + e - 1, e), by Pascal's rule from the diagonal
    row = [1] + [coef[e][e] - coef[e - 1][e - 1] for e in range(1, d + 1)]
    for _ in range(m - 2):
        row = [sum(map(mul, c, reversed(row[: e + 1]))) for e, c in enumerate(coef)]
    return sum(map(mul, coef[d], reversed(row)))


def count_recursion_n(m: int, n: int, d: int) -> int:
    """Recursion in the degree: drop one letter, a pinnacle or not."""
    m, n, d = _validate(m, n, d)
    # Evaluated on the formal extension to every d >= 0: the degree recursion
    # momentarily steps past the cardinality cap of the smaller degree, where
    # the value is the same alternating partial sum continued.  Intermediate
    # values may be negative there; top-level queries never are.  row[j] is
    # the value at cardinality j of the current degree, advanced from 1 to n.
    if m == 1:
        return _nonnegative("recursion-in-n", m, n, d, comb(n - 1, d))
    row = [1] + [(m - 1) * (-1) ** (j + 1) for j in range(1, d + 1)]
    for _ in range(n - 1):
        row = [1] + [m * row[j - 1] + row[j] for j in range(1, d + 1)]
    return _nonnegative("recursion-in-n", m, n, d, row[d])


def count_closed_alternating(m: int, n: int, d: int) -> int:
    """Alternating partial binomial sum: sum_i C(n,i) m^i (-1)^(i+d)."""
    m, n, d = _validate(m, n, d)
    # from the top term C(n,d) m^d down, each C(n,i-1) m^(i-1) by exact ratio
    term = comb(n, d) * m**d
    value, sign = term, 1
    for i in range(d, 0, -1):
        term = term * i // ((n - i + 1) * m)
        sign = -sign
        value += sign * term
    return _nonnegative("closed-alternating", m, n, d, value)


def count_closed_positive(m: int, n: int, d: int) -> int:
    """All-nonnegative form: sum_k (m-1)^k C(n,k) C(n-k-1, d-k)."""
    m, n, d = _validate(m, n, d)
    # each term from the previous one by the exact ratio
    # (m-1)(n-k)(d-k) / ((k+1)(n-k-1)); every term is 0 once one is
    term = comb(n - 1, d)
    value = term
    for k in range(d):
        term = term * (m - 1) * (n - k) * (d - k) // ((k + 1) * (n - k - 1))
        if not term:
            break
        value += term
    return value


METHODS = {
    "recursion-in-m": count_recursion_m,
    "recursion-in-n": count_recursion_n,
    "closed-alternating": count_closed_alternating,
    "closed-positive": count_closed_positive,
}

METHOD_CHOICES = tuple(METHODS) + ("all",)

DEFAULT_METHOD = "closed-positive"


class CrossCheckMismatch(RuntimeError):
    """Counting routes disagreed, the four full counts or the two L(p,r); carries every value."""

    def __init__(self, m: int, n: int, d: int, values: dict[str, int]):
        self.params = (m, n, d)
        self.values = dict(values)
        per_method = ", ".join(f"{k}={v}" for k, v in values.items())
        super().__init__(f"count mismatch at (m={m}, n={n}, d={d}): {per_method}")


def count_pinnacle_sets(m: int, n: int, d: int | None = None, method: str = DEFAULT_METHOD) -> int:
    """Admissible pinnacle sets of size <= d in Z_m wr S_n (d defaults to the cap)."""
    if d is None:
        d = max_pinnacles(n)
    m, n, d = _validate(m, n, d)
    if method == "all":
        values = {name: fn(m, n, d) for name, fn in METHODS.items()}
        if len(set(values.values())) != 1:
            raise CrossCheckMismatch(m, n, d, values)
        return next(iter(values.values()))
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_CHOICES}")
    return METHODS[method](m, n, d)


def count_total(m: int, n: int, method: str = DEFAULT_METHOD) -> int:
    """All admissible pinnacle sets in Z_m wr S_n (n >= 2)."""
    if n < 2:
        raise ValueError(f"total counts need n >= 2, got n={n}")
    return count_pinnacle_sets(m, n, max_pinnacles(n), method)


def _sweep_partials(p: int, r: int):
    # the sweep's step estimate n (r+1)^3 p^min(r,3), built up factor by factor:
    # (r+1)^3 for its slot counters and Hall maxima per magnitude, and p for each
    # of its three color counters that r pinnacles can vary; on the grid measured,
    # up to p = 100 and r = 30, it lay 4 to 170 times above the steps taken
    factors = chain((2 * r + 1,), repeat(r + 1, 3), repeat(p, min(r, 3)))
    return accumulate(factors, mul)


def count_complex(
    g: GroupParams,
    d: int | None = None,
    method: str = DEFAULT_METHOD,
    budget: OracleBudget | None = None,
) -> int:
    """Admissible pinnacle sets of size <= d for the reflection group G(m,p,n).

    The full wreath-product count, routed by ``method``, less L(p,r) (see
    ``_setspace``) when n = 2r+1 and d = r.  That case counts L(p,r) by the
    sweep over magnitudes; ``method="all"`` also enumerates every candidate
    and raises CrossCheckMismatch when the two disagree.  Before it counts
    anything it refuses with a budget error when the sweep's estimated step
    count, or under ``"all"`` the enumeration's C(n,r) p^r (r+1) candidate
    slot tests, exceed ``budget.max_order``.
    """
    cap = max_pinnacles(g.n)
    if d is None:
        d = cap
    if g.p == 1 or g.n % 2 == 0 or g.n < 3 or d != cap:
        return count_pinnacle_sets(g.m, g.n, d, method)
    from .oracle import OracleBudget  # only this case reads a budget, so only it loads oracle
    p, n = g.p, g.n
    if method == "all":
        # C(n,d) p^d (d+1) built up as (d+1) p^i C(n-d+i, i) for i = 0..d; on
        # every p and r measured, the sweep took no more steps than these
        work = accumulate(range(1, d + 1), lambda t, i: t * p * (n - d + i) // i, initial=d + 1)
        what = "candidate slot test count"
    else:
        work, what = _sweep_partials(p, d), "estimated sweep step count"
    (budget or OracleBudget()).check(GroupParams(p, p, n), work, what)
    from . import _setspace  # past the budget checks, so a refusal loads no engine
    lost = _setspace.lost(p, n)
    if method == "all":
        values = {"lost by sweep": lost, "lost by enumeration": _setspace.lost_enumerated(p, n)}
        if len(set(values.values())) != 1:
            raise CrossCheckMismatch(p, n, d, values)
    return count_pinnacle_sets(g.m, g.n, d, method) - lost
