"""Brute-force ground truth by exhaustive scan of G(m,p,n).

Every group element is counted exactly once, its pinnacle set extracted, and
the results aggregated per set: how many witnesses it has and which color
sums they achieve.  Nothing here uses the counting formulas or the deciders,
so the reports are an independent check of both.

Two engines share one contract.  The reference engine visits every element
as a real permutation object and takes the normative pinnacle extraction.
The vectorized engine counts the elements as a product of two numpy
tallies.  An element is a magnitude word with a coloring, and whether slot
t is a pinnacle depends only on the word's two descent bits around t and on
three colors, so the pinnacle slots S of a coloring depend on the word only
through its descent pattern D.  Every (descent pattern, coloring) pair is
visited once and counted by (D, S, colors at S, color sum), and every word
once, in blocks of at most 1024 words, counted by (D, magnitudes at S).
A pinnacle set pairs the colors at S with the magnitudes at S, so the two
counts multiply: one exact int64 matrix product per size of S sums them
over D, and each set is keyed as a bitmap over the mn colored values.
Single-threaded on a 2-core Xeon, G(1,1,10), with one coloring per word,
scans at about 9 M elements/s, Z_2 wr S_8 at 300 M/s and Z_3 wr S_7 and
G(4,4,7) at 690-1,150 M/s.  Only a parallel scan splits the words, round
robin over their leftmost magnitude; partial tallies merge by summing
counts, so reports are identical whatever the block size and partitioning.

The vectorized engine's code is the private module _vectorized, which is
imported with numpy when a scan uses it, and the process pool only for a
parallel scan, so importing the package loads none of them.  A process that
has not imported numpy walks small groups instead, up to a total that costs
less than importing numpy (``_engine``).
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from collections import Counter

from .wreath import ColoredValue, GenPerm, GroupParams, PinSet, color_sum, max_pinnacles
from .wreath import pinnacle_set
from .wreath import _set, _Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator

DEFAULT_MAX_ORDER = 10_000_000

# the vectorized engine's lookup tables hold at most this many entries
_TABLE = 2**27

# A process without numpy walks groups of at most this many colored values
# in all (order * n, the values the walk builds) rather than import numpy for
# the vectorized engine; the next scan that would pass it imports numpy, so
# the walks never cost much more than one import.  One scan per fresh
# process, Python 3.11.7 without bytecode cache on a shared 2-vCPU Xeon, walk
# against vectorized: 45 against 107 ms at 1,536 values, 74 against 107 at
# 19,200, 96 against 108 at 35,280 and 124 against 109 at 48,600, whatever m;
# the walk is the slower one from about 40,000 values on.
_COLD_WALK = 20_000
# colored values walked so far instead of importing numpy; process-wide, like
# the import it stands in for (threads racing on it cost time, not results)
_cold_walked = 0


class BudgetExceeded(RuntimeError):
    """The requested work, a group to scan or an odd-maximal count, exceeds the budget."""

    def __init__(self, params: GroupParams, required: int, limit: int, what: str = "order"):
        self.params = params
        self.required = required  # exact, or a lower bound when 2**64 times past the limit
        self.limit = limit
        head = f"{params} has {what}"
        super().__init__(
            f"{head} at least 2**{required.bit_length() - 1}, far past the budget {limit}"
            if required > limit << 64
            else f"{head} {required}, exceeding the budget {limit}; "
            f"raise the budget to at least {required}"
        )


class OracleBudget(_Value):
    """Work limits: the cap on a scan's group order or a count's steps, and scan width.

    ``partitions`` splits only a parallel scan; a serial one, or 1 part, is one engine call.
    """

    __slots__ = ("max_order", "partitions")

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER, partitions: int = 1) -> None:
        max_order, partitions = operator.index(max_order), operator.index(partitions)
        _set(self, "max_order", max_order)
        _set(self, "partitions", partitions)
        if max_order < 1 or partitions < 1:
            raise ValueError("budget caps must be positive")

    def check(self, g: GroupParams, partials: Iterable[int], what: str = "order") -> None:
        """Refuse with BudgetExceeded when the work ``partials`` builds up exceeds the cap.

        Each partial value bounds the next from below and the last is exact, so
        reading stops once one is 2**64 times past the cap: refusals stay cheap.
        """
        for required in partials:
            if required > self.max_order << 64:
                break
        if required > self.max_order:
            raise BudgetExceeded(g, required, self.max_order, what)


def _order_partials(g: GroupParams) -> Iterator[int]:
    # m^n n!/p built up as m/p, times m for each further color, times 2..n
    factors = itertools.chain((g.m // g.p,), itertools.repeat(g.m, g.n - 1), range(2, g.n + 1))
    return itertools.accumulate(factors, operator.mul)


class PinStats(_Value):
    """Witness tally for one pinnacle set: count plus color-sum histogram."""

    __slots__ = ("witness_count", "eps_histogram")

    def __init__(self, witness_count: int, eps_histogram: tuple[tuple[int, int], ...]) -> None:
        _set(self, "witness_count", witness_count)
        _set(self, "eps_histogram", eps_histogram)

    @property
    def eps_min(self) -> int:
        return self.eps_histogram[0][0]

    @property
    def eps_max(self) -> int:
        return self.eps_histogram[-1][0]

    @property
    def eps_values(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.eps_histogram)

    @property
    def eps_is_interval(self) -> bool:
        values = self.eps_values
        return values == tuple(range(values[0], values[-1] + 1))


class OracleReport(_Value):
    """Everything the scan learned about G(m,p,n); frozen, but unhashable, as ``stats`` is a dict.

    ``stats`` is in print order: by cardinality, then by the bitmap, the sum of
    2**(c*n + x - 1) over the elements xi^c(x), so the element with the largest
    c*n + x decides first.  The order does not read ``wreath.value_key``.
    """

    __slots__ = ("params", "stats", "scanned")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, params: GroupParams, stats: dict[PinSet, PinStats], scanned: int) -> None:
        _set(self, "params", params)
        _set(self, "stats", stats)
        _set(self, "scanned", scanned)

    @property
    def total_admissible(self) -> int:
        return len(self.stats)

    def count_up_to(self, d: int) -> int:
        """How many admissible sets have cardinality at most d."""
        return sum(1 for P in self.stats if len(P) <= d)


def _word_stream(n: int, firsts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # magnitude words (position n down to 1) in lexicographic order, restricted
    # to a given set of leftmost magnitudes; the scan partitions on these
    for first in sorted(firsts):
        rest = [x for x in range(1, n + 1) if x != first]
        for tail in itertools.permutations(rest):
            yield (first,) + tail


def _elements(m: int, p: int, n: int, firsts: tuple[int, ...]) -> Iterator[GenPerm]:
    """Each element of G(m,p,n) with leftmost magnitude in ``firsts``, once, in the walk's order.

    The order is lexicographic on the magnitude word crossed with odometer
    order on the color word (rightmost color fastest), restricted to color
    sums divisible by p.  Only members are generated: the rightmost color
    steps by p from the value that completes the sum to a multiple of p.
    """
    # one shared ColoredValue per colored value the walk meets, values[x-1][c]
    # for xi^c(x): every color when n > 1, only the multiples of p when n = 1,
    # so the table never holds more values than the walk has elements
    colors = range(0, m, p if n == 1 else 1)
    values = [{c: ColoredValue(c, x) for c in colors} for x in range(1, n + 1)]
    for mags in _word_stream(n, firsts):
        column = [values[x - 1] for x in mags]
        for head in itertools.product(range(m), repeat=n - 1):
            for last in range(-sum(head) % p, m, p):
                yield GenPerm.from_word(m, [v[c] for v, c in zip(column, head + (last,))])


def _scan_reference(m: int, p: int, n: int, firsts: tuple[int, ...]) -> Counter:
    # drives the normative GenPerm/pinnacle_set path; slow but definitionally
    # correct, used for small grids, cross-checks, and as the fallback engine.
    # Keys are the vectorized engine's: (bitmap, color sum), bit c*n + x - 1 for xi^c(x)
    return Counter(
        (sum(1 << cv.color * n + cv.magnitude - 1 for cv in pinnacle_set(w)), color_sum(w))
        for w in _elements(m, p, n, firsts)
    )


def _values(bits: int, values: list[ColoredValue]) -> Iterator[ColoredValue]:
    # the colored values a report bitmap marks, values[i] for bit i
    while bits:
        low = bits & -bits
        yield values[low.bit_length() - 1]
        bits ^= low


def _fits(g: GroupParams) -> bool:
    """Whether the vectorized engine can scan g.

    Its report key (one bit per colored value, then the color sum) fits in 62
    bits, and its two lookup tables, indexed by the color side's base-(m+1)
    state and the word side's base-(n+1) code, stay below _TABLE entries.  Its
    other int64 values (the color side's cell, the word side's counter index
    and every count, which the group order bounds) then stay below 2**62 too;
    a test checks every group that passes.  The rule lives here, not in
    _vectorized, so that a scan that walks, because it falls back or because
    it is small in a process without numpy, never loads numpy.
    """
    m, n = g.m, g.n
    # checked first: it keeps m*n <= 61, and so both tables, small
    if m * n + (n * (m - 1) + 1).bit_length() > 62:
        return False
    if (m + 1) ** max(n - 2, 0) * max(n - 2, 1) > _TABLE:
        return False
    return (n + 1) ** max_pinnacles(n) <= _TABLE


def _engine(g: GroupParams, engine: str) -> Callable[..., Counter]:
    """The scan that ``collect_pinnacle_sets`` runs on g for ``engine``.

    "reference" always walks.  "auto" runs the vectorized engine where
    ``_fits`` holds and walks elsewhere.  While numpy is not imported in this
    process (or cannot be), "auto" also walks a group whose colored values,
    added to those it has walked so far for that reason, stay within
    _COLD_WALK, since those walks cost less than the import.
    """
    global _cold_walked
    if engine not in ("auto", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "reference" or not _fits(g):
        return _scan_reference
    values = g.order * g.n
    if sys.modules.get("numpy") is None and _cold_walked + values <= _COLD_WALK:
        _cold_walked += values
        return _scan_reference
    from ._vectorized import scan  # like numpy, loaded only when a scan uses it

    return scan


def collect_pinnacle_sets(
    g: GroupParams,
    budget: OracleBudget | None = None,
    engine: str = "auto",
    parallel: bool = False,
) -> OracleReport:
    """Scan all of G(m,p,n) and report every pinnacle set it realizes.

    ``engine`` is "auto" or "reference", and ``_engine`` picks the scan:
    the vectorized engine where ``_fits`` holds, unless small groups walk
    in a process without numpy, and the reference walk elsewhere (huge m
    with tiny n, or huge n).  Each engine builds only the members of
    G(m,p,n) and tallies those with leftmost magnitude in ``firsts`` by
    (bitmap of the pinnacle set, color sum), bit c*n + x - 1 marking xi^c(x).
    A serial scan, or a parallel one under the default budget, is one engine
    call; otherwise the leftmost magnitudes split round robin into
    ``min(budget.partitions, n)`` parts, one process each (at most 8), whose
    tallies merge by Counter.update.  Reports are identical either way.  The
    tally is grouped by bitmap; the bitmaps sorted by (cardinality, bitmap)
    are the print order, each histogram is sorted by color sum, and each set
    is read off one shared ColoredValue per bit, made only up to the highest
    bit any bitmap sets.
    """
    budget = budget or OracleBudget()
    budget.check(g, _order_partials(g))
    scan = _engine(g, engine)
    chunks = min(budget.partitions, g.n)
    if parallel and chunks > 1:
        from concurrent.futures import ProcessPoolExecutor

        parts = [tuple(range(i + 1, g.n + 1, chunks)) for i in range(chunks)]
        tally = Counter()
        with ProcessPoolExecutor(max_workers=min(chunks, 8)) as pool:
            for part in pool.map(functools.partial(scan, g.m, g.p, g.n), parts):
                tally.update(part)
    else:
        tally = scan(g.m, g.p, g.n, tuple(range(1, g.n + 1)))
    scanned = sum(tally.values())
    if scanned != g.order:
        raise RuntimeError(f"scanned {scanned} elements of {g}, expected {g.order}")
    hists: dict[int, list[tuple[int, int]]] = {}
    for (bits, eps), count in tally.items():
        hists.setdefault(bits, []).append((eps, count))
    # one shared value per bit, up to the highest bit any set marks
    values = [ColoredValue(i // g.n, i % g.n + 1) for i in range(max(hists).bit_length())]
    stats = {}
    for bits in sorted(hists, key=lambda b: (b.bit_count(), b)):
        hist = tuple(sorted(hists[bits]))
        stats[PinSet(g.m, g.n, _values(bits, values))] = PinStats(sum(c for _, c in hist), hist)
    return OracleReport(params=g, stats=stats, scanned=scanned)
