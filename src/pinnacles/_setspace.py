"""L(p,r), the maximal sets that G(p,p,2r+1) loses, counted in set space.

G(m,p,2r+1) loses their color shifts: the admissible candidates of Z_p wr S_n,
words V P V ... P V, with no multiple of p in their witness color-sum range.
The j smallest pinnacles always touch at least j+1 valley slots, so ascending
pinnacles give the highest slot thresholds p_1, p_1, p_2, ..., p_r.  Under
threshold (c, x) a filler y takes every color above c, and c when (c, y) is
below (c, x): the color sums fill an interval up to eps_max.  Cost-c matchings
form a transversal matroid, so matching the top-color slots (no color c+1)
first, ascending, gives a maximum matching that covers them if any does.
"""

from __future__ import annotations

from itertools import combinations, product

from . import wreath


def _augment(options: list[int], owner: dict[int, int], s: int) -> bool:
    # breadth-first search from slot s, through matched fillers, for a free one;
    # options[t] is slot t's filler bitmask, owner maps a matched bit to its slot
    came, via, frontier, seen = {}, {s: 0}, [s], 0
    for t in frontier:
        mask = options[t] & ~seen
        seen |= mask
        while mask:
            bit = mask & -mask
            mask ^= bit
            came[bit] = t
            if bit not in owner:
                while bit:  # each slot on the path takes the filler it reached
                    t = came[bit]
                    owner[bit], bit = t, via[t]
                return True
            via[owner[bit]] = bit
            frontier.append(owner[bit])
    return False


def _tables(m: int, n: int):
    # ranks under wreath.value_key(m); per rank, its color and the magnitudes lower in it
    values = sorted((wreath.ColoredValue(c, x) for c in range(m) for x in range(1, n + 1)),
                    key=wreath.value_key(m))
    rank = {(v.color, v.magnitude): i for i, v in enumerate(values)}
    cheap = [sum(1 << y for y in range(1, n + 1) if rank[v.color, y] < i)
             for i, v in enumerate(values)]
    return rank, [v.color for v in values], cheap


def _sum_range(color: list[int], cheap: list[int], pins: list[int], unused: int, top: int):
    # (eps_min, eps_max) of the maximal set of ascending ranks pins, or None if no witness
    slots, owner = [pins[0], *pins], {}
    options, lo = [cheap[i] & unused for i in slots], 0
    for s, i in enumerate(slots):
        matched = _augment(options, owner, s)
        if not matched and color[i] == top:
            return None
        lo += color[i] + (not matched)
    base = sum(map(color.__getitem__, pins))  # only admitted sets pay for it
    return base + lo, base + len(slots) * top


def _maximal_sets(p: int, n: int):
    rank, color, cheap = _tables(p, n)
    for mags in combinations(range(1, n + 1), n // 2):
        unused = (2 << n) - 2 - sum(1 << x for x in mags)  # bit x: x is not a pinnacle
        for colors in product(range(p), repeat=len(mags)):
            pins = sorted(rank[c, x] for c, x in zip(colors, mags))
            yield mags, colors, _sum_range(color, cheap, pins, unused, p - 1)


def lost(p: int, n: int) -> int:
    """L(p,r) for n = 2r+1: the maximal sets that G(p,p,n) loses."""
    return sum(s is not None and -s[0] % p > s[1] - s[0] for _, _, s in _maximal_sets(p, n))
