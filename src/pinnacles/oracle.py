"""Brute-force ground truth by exhaustive scan of G(m,p,n).

Every group element is visited exactly once, its pinnacle set extracted, and
the results aggregated per set: how many witnesses it has and which color
sums they achieve.  Nothing here uses the counting formulas or the deciders,
so the reports are an independent check of both.

Two engines share one contract.  The reference engine walks real permutation
objects through the normative pinnacle extraction; the vectorized engine
sweeps a block of magnitude words against all color vectors in one numpy
pass, encoding each pinnacle set as a bitmap over the mn colored values.
Blocks hold about 2**17 elements, so groups with few colorings per word do
not pay one Python iteration per word: single-threaded on a 2-core Xeon,
G(1,1,8) runs at about 0.8 M elements/s (one coloring per word) and
Z_2 wr S_8, Z_3 wr S_7 and G(4,4,7) at 23-39 M elements/s.  The scan is
embarrassingly parallel over the leftmost word magnitude; partial tallies
merge by summing counts, so reports are identical whatever the block size,
compaction point and partitioning.

numpy is imported by the vectorized engine when a scan runs, and the process
pool only for a parallel scan, so importing the package loads neither.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import wreath
from .wreath import ColoredValue, GenPerm, GroupParams, PinSet, color_sum, pinnacle_set

DEFAULT_MAX_ORDER = 10_000_000

# colored rows per vectorized block: words per block = _ROWS // colorings per word
_ROWS = 2**17
# the vectorized engine merges its per-block tallies once they hold this many keys
_COMPACT_AT = 2_000_000


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


@dataclass(frozen=True)
class OracleBudget:
    """Work limits: the cap on a scan's group order or a count's slot tests, and scan width."""

    max_order: int = DEFAULT_MAX_ORDER
    partitions: int = 1

    def __post_init__(self) -> None:
        if self.max_order < 1 or self.partitions < 1:
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


@dataclass(frozen=True)
class PinStats:
    """Witness tally for one pinnacle set: count plus color-sum histogram."""

    witness_count: int
    eps_histogram: tuple[tuple[int, int], ...]

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


@dataclass(eq=True)
class OracleReport:
    """Everything the scan learned about G(m,p,n).

    ``stats`` is in print order: by cardinality, then by the (color, magnitude)
    pairs of the elements, which PinSet keeps ascending under ``wreath.value_key``.
    """

    params: GroupParams
    stats: dict[PinSet, PinStats]
    scanned: int

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
    for mags in _word_stream(n, firsts):
        for head in itertools.product(range(m), repeat=n - 1):
            for last in range(-sum(head) % p, m, p):
                yield GenPerm.from_word(m, zip(head + (last,), mags))


def enumerate_group(g: GroupParams, budget: OracleBudget | None = None) -> Iterator[GenPerm]:
    """Iterate over each element of G(m,p,n) exactly once, in the canonical order.

    The order is lexicographic on the magnitude word crossed with odometer
    order on the color word (rightmost color fastest), restricted to color
    sums divisible by p.  Only members are generated: the rightmost color
    steps by p from the value that completes the sum to a multiple of p.
    The budget is checked at the call, before anything is iterated.
    """
    (budget or OracleBudget()).check(g, _order_partials(g))
    return _elements(g.m, g.p, g.n, tuple(range(1, g.n + 1)))


def witnesses_of(
    P: PinSet, g: GroupParams, budget: OracleBudget | None = None
) -> Iterator[GenPerm]:
    """All elements of G(m,p,n) whose pinnacle set is exactly P."""
    if P.m != g.m or P.n != g.n:
        raise ValueError(f"set over ({P.m},{P.n}) scanned in {g}")
    return (w for w in enumerate_group(g, budget) if pinnacle_set(w) == P)


def _scan_reference(m: int, p: int, n: int, firsts: tuple[int, ...]) -> Counter:
    # drives the normative GenPerm/pinnacle_set path; slow but definitionally
    # correct, used for small grids, cross-checks, and as the fallback engine
    return Counter(
        (tuple(sorted((cv.color, cv.magnitude) for cv in pinnacle_set(w).elements)), color_sum(w))
        for w in _elements(m, p, n, firsts)
    )


def _scan_vectorized(m: int, p: int, n: int, firsts: tuple[int, ...]) -> Counter:
    import numpy as np

    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    colors = (np.arange(m**n, dtype=np.int64)[:, None] // place) % m
    eps = colors.sum(axis=1)
    keep = eps % p == 0
    colors, eps = colors[keep], eps[keep]
    eps_width = n * (m - 1) + 1
    per_word = len(colors)
    # below[a][b]: slot b sits strictly below slot b+1, where a is the descent
    # bit of the word there.  The table reads wreath.value_key(m), which is
    # exact because the order compares different colors by color alone and
    # equal colors by magnitude, in a direction that depends only on the
    # color and m.  Slot t is a pinnacle when it is below[t-1] and not
    # below[t], so for the two descent bits a, b around it the pinnacle mask
    # is one of four word-independent vectors.
    order = wreath.value_key(m)
    lt = np.array([[[order(ColoredValue(c, 1 + a)) < order(ColoredValue(e, 2 - a))
                     for e in range(m)] for c in range(m)] for a in (0, 1)])
    below = tuple(lt[a][colors[:, :-1], colors[:, 1:]].T for a in (0, 1))
    # bit index of the colored value (c, x) is c*n + x - 1; a pinnacle set is
    # the OR of its members' bits, giving a sigma-independent integer key.
    # peak_cells[t-1][2a+b] holds bit c*n of slot t where it is a pinnacle
    # under descent bits a, b and 0 elsewhere; shifting by x - 1 adds x.
    cells = np.left_shift(np.int64(1), colors.T * n)
    peak_cells = [
        np.stack([cells[t] * (below[a][t - 1] & ~below[b][t]) for a in (0, 1) for b in (0, 1)])
        for t in range(1, n - 1)
    ]
    block = max(1, _ROWS // per_word)

    words = _word_stream(n, firsts)
    pending: list = []  # (keys, counts) per block, merged at _COMPACT_AT keys and at the end
    while True:
        # a block of magnitude words against every coloring: (B, per_word) keys
        W = np.array(list(itertools.islice(words, block)), dtype=np.int64).reshape(-1, n)
        if len(W):
            descent = (W[:, :-1] > W[:, 1:]).astype(np.intp)
            combo = 2 * descent[:, :-1] + descent[:, 1:]
            key = np.zeros((len(W), per_word), dtype=np.int64)
            for t in range(1, n - 1):
                key |= peak_cells[t - 1][combo[:, t - 1]] << (W[:, t, None] - 1)
            # named so that it outlives the block: freed at once, it let malloc trim the
            # heap each block, and refaulting doubled the G(2,1,8) scan (2-core Xeon)
            combined = key * eps_width + eps
            pending.append(np.unique(combined, return_counts=True))
        if len(pending) > 1 and (not len(W) or sum(len(k) for k, _ in pending) >= _COMPACT_AT):
            keys, inverse = np.unique(np.concatenate([k for k, _ in pending]), return_inverse=True)
            totals = np.zeros(len(keys), dtype=np.int64)
            np.add.at(totals, inverse, np.concatenate([c for _, c in pending]))
            pending = [(keys, totals)]
        if not len(W):
            break

    keys, totals = pending[0]
    tally: Counter = Counter()
    for combined_key, count in zip(keys.tolist(), totals.tolist()):
        bits, eps_value = divmod(combined_key, eps_width)
        pairs = []
        while bits:
            low = bits & -bits
            cell = low.bit_length() - 1
            color, mag = divmod(cell, n)
            pairs.append((color, mag + 1))
            bits ^= low
        tally[tuple(pairs), eps_value] = count
    return tally


# an engine tallies witnesses by (sorted (color, magnitude) pairs of the
# pinnacle set, color sum); partial tallies merge by Counter.update
ENGINES = {"vectorized": _scan_vectorized, "reference": _scan_reference}


def collect_pinnacle_sets(
    g: GroupParams,
    budget: OracleBudget | None = None,
    engine: str = "auto",
    parallel: bool = False,
) -> OracleReport:
    """Scan all of G(m,p,n) and report every pinnacle set it realizes.

    ``engine`` is "auto", "vectorized", or "reference".  Auto picks the numpy
    scan unless the bitmap key would overflow 62 bits (huge m with tiny n),
    then falls back to the reference walk.  With ``parallel=True`` the
    partitions run in separate processes; reports are identical either way.
    """
    budget = budget or OracleBudget()
    budget.check(g, _order_partials(g))
    # a key holds one bit per colored value, then the color sum below it
    fits = g.m * g.n + (g.n * (g.m - 1) + 1).bit_length() <= 62
    if engine == "auto":
        engine = "vectorized" if fits else "reference"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "vectorized" and not fits:
        raise ValueError(f"vectorized keys overflow for (m={g.m}, n={g.n}); use reference")
    scan = functools.partial(ENGINES[engine], g.m, g.p, g.n)
    chunks = min(budget.partitions, g.n)  # round robin over the leftmost magnitude
    parts = [tuple(range(i + 1, g.n + 1, chunks)) for i in range(chunks)]
    if parallel and len(parts) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(parts), 8)) as pool:
            partials = list(pool.map(scan, parts))
    else:
        partials = [scan(firsts) for firsts in parts]
    tally: Counter = Counter()
    for part in partials:
        tally.update(part)
    scanned = sum(tally.values())
    if scanned != g.order:
        raise RuntimeError(f"scanned {scanned} elements of {g}, expected {g.order}")
    by_set: dict[tuple, dict[int, int]] = {}
    for (key, eps), count in tally.items():
        by_set.setdefault(key, {})[eps] = count
    sets = [(PinSet(g.m, g.n, tuple(ColoredValue(c, x) for c, x in key)), hist)
            for key, hist in by_set.items()]
    sets.sort(key=lambda e: (len(e[0]), [(cv.color, cv.magnitude) for cv in e[0].elements]))
    stats = {P: PinStats(sum(hist.values()), tuple(sorted(hist.items()))) for P, hist in sets}
    return OracleReport(params=g, stats=stats, scanned=scanned)
