"""L(p,r), the maximal sets that G(p,p,2r+1) loses, counted in set space.

G(m,p,2r+1) loses their color shifts: the admissible candidates of Z_p wr S_n,
words V P V ... P V, with no multiple of p in their witness color-sum range.
Every order of ``wreath`` puts the colors in blocks, higher colors lower,
each ascending or descending in magnitude, so these facts hold for a
candidate with pinnacle color sum base:
- The j smallest pinnacles always touch at least j+1 valley slots, so the
  slots take the thresholds p_1, p_1, p_2, ..., p_r, pinnacles ascending.
- Under threshold (c, x) a filler y takes every color above c, and c when
  (c, y) is below (c, x): its cheap fillers, which lie on one side of x.
  The color sums fill an interval up to eps_max = base + (r+1)(p-1).
- A top-color slot (c = p-1) takes only cheap fillers, so a witness exists
  iff Hall's condition holds on the top-color slots alone.  Cost-c matchings
  form a transversal matroid, so matching the top-color slots first,
  ascending, gives a maximum matching that covers them if any does.
- Such a matching leaves delta slots without a cheap filler.  Along a sweep
  over the magnitudes in which the top color ascends, call a slot down when
  its cheap fillers come before it (every top-color slot is) and up when
  they come after it.  With D(<=a) the down slots at or before a, U(>=b) the
  up slots at or after b and F the fillers,
  delta = max(0, max_{a<b} [D(<=a) - F(<a)] + [U(>=b) - F(>b)]).
- eps_min = 2 base + c(p_1) + delta, and the set is lost iff
  -eps_min mod p > eps_max - eps_min.  That width is sum_s (p-1-c_s) - delta,
  at least sum_non-top (p-2-c_s), as only non-top slots go unmatched.

Two routes count the lost sets.  The enumeration (``lost_enumerated``, the
reference) lists every candidate and runs one matching for it
(``_sum_range``), C(n,r) p^r (r+1) slot tests in all; it works on the
ranks of ``wreath.value_rank(p, n)`` and builds no value.  The sweep
(``lost``) places the magnitudes in that order, each a filler or a pinnacle
of one color, and keeps per partial set only the counters the facts read,
so that partial sets with equal counters merge: the color of p_1, fixed up
front, and whether p_1 is placed; the pinnacles, top-color slots and up
slots placed; the running Hall maxima; the partial width; and eps_min -
delta mod p.  A partial width past p-2 is never lost, so it is dropped.
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
    # the ranks under wreath.value_rank(m, n); per rank, its color and the
    # magnitudes lower in it
    rank, color = wreath.value_rank(m, n), [0] * (m * n)
    for c in range(m):
        for x in range(1, n + 1):
            color[rank(c, x)] = c
    cheap = [sum(1 << y for y in range(1, n + 1) if rank(c, y) < i) for i, c in enumerate(color)]
    return rank, color, cheap


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
            pins = sorted(map(rank, colors, mags))
            yield mags, colors, _sum_range(color, cheap, pins, unused, p - 1)


def lost_enumerated(p: int, n: int) -> int:
    """L(p,r) for n = 2r+1, one matching per candidate: the reference route."""
    return sum(s is not None and -s[0] % p > s[1] - s[0] for _, _, s in _maximal_sets(p, n))


def lost(p: int, n: int) -> int:
    """L(p,r) for n = 2r+1 by the sweep over magnitudes, no candidate listed."""
    up, r, top = wreath._ascending_colors(p), n // 2, p - 1
    down = [(c in up) == (top in up) for c in range(p)]  # per color: are its slots down slots
    # a state: the color c1 of p_1, which no pinnacle's color exceeds; whether
    # p_1 is placed; pinnacles; top-color slots; up slots; hall, the running
    # max(0, D(<=a) - F(<a)); both, the running max over up slots b of hall
    # plus F(<b) - U(<b), with the up slots since added; the partial width,
    # sum of (p-2-c_s) over non-top slots; and (eps_min - delta) mod p
    states = {(c1, 0, 0, 0, 0, 0, 0, 0, 0): 1 for c1 in range(p)}
    for t in range(n):
        after: dict = {}
        for state, ways in states.items():
            c1, low, k, tops, ups, hall, both, width, res = state
            f = t - k  # the fillers so far
            if f <= r:
                after[state] = after.get(state, 0) + ways
            if k == r:
                continue
            # p_1 is the first pinnacle of color c1 along the sweep when its
            # slots are down slots, else the last; it takes two slots
            free = low or k < r - 1  # room for a pinnacle besides p_1
            moves = [(c, 1) for c in range(width, c1)] if free else []
            if down[c1]:
                moves.append((c1, 2 - low))
            elif not low:
                moves += [(c1, 1), (c1, 2)] if free else [(c1, 2)]
            for c, s in moves:
                w = width
                if c != top:
                    w += s * (p - 2 - c)
                    if w > p - 2:
                        continue  # never lost
                if down[c]:
                    n_tops = tops + s if c == top else tops
                    if n_tops > f:
                        continue  # Hall's condition fails on the top-color slots
                    key = (c1, low | s >> 1, k + 1, n_tops, ups,
                           max(hall, k + low + s - ups - f), both, w, (res + (s + 1) * c) % p)
                else:
                    key = (c1, low | s >> 1, k + 1, tops, ups + s,
                           hall, max(both, hall + f) + s, w, (res + (s + 1) * c) % p)
                after[key] = after.get(key, 0) + ways
        states = after
    total = 0
    for (c1, low, k, tops, ups, hall, both, width, res), ways in states.items():
        delta = max(hall, both - r - 1)
        if low and -(res + delta) % p > width + r + 1 - tops - delta:
            total += ways
    return total
