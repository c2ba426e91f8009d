"""The vectorized engine of the oracle: G(m,p,n) counted as a product of two tallies.

The oracle module describes the factorization and the report it feeds.
This module holds the numpy side of it, and the oracle imports it only when
a scan runs, as it does numpy: a process that never scans compiles and
loads neither, which matters to short CLI calls when bytecode is not cached.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator

import numpy as np

from . import wreath
from .wreath import ColoredValue

# words per block of the word side
_WORDS = 2**10
# the word side cuts its blocks from one table of the permutations of at most
# this many trailing magnitudes
_TAIL = 9


def _arrangements(n: int, k: int, dtype=None):
    # the k-permutations of range(n) as rows, in lexicographic order: the rows
    # that start with i are [i] ++ (P + (P >= i)), P the rows one size down
    first = np.arange(n, dtype=dtype or np.int64)[:, None, None]
    table = first[:n - k + 1, :, 0] if k else np.zeros((1, 0), dtype=first.dtype)
    for size in range(n - k + 2, n + 1):
        grown = np.empty((size, len(table), table.shape[1] + 1), dtype=first.dtype)
        grown[:, :, :1] = first[:size]
        np.add(table, table >= first[:size], out=grown[:, :, 1:])
        table = grown.reshape(-1, grown.shape[2])
    return table


def _word_blocks(n: int, firsts: tuple[int, ...]) -> Iterator:
    # the words of oracle._word_stream, magnitudes minus one and then a column of n,
    # in blocks of at most _WORDS rows.  A word is a head (its first n-tail
    # magnitudes) and a row of one table of the permutations of range(tail),
    # which picks from the magnitudes that the head leaves over, in order.
    tail = min(n - 1, _TAIL)
    heads = [(first - 1,) + head for first in sorted(firsts)
             for head in itertools.permutations(
                 [x for x in range(n) if x != first - 1], n - 1 - tail)]
    # a word indexes the row of its head: the head, what it leaves over, n
    spelled = np.array([[*head, *(x for x in range(n) if x not in head), n] for head in heads])
    perms = _arrangements(tail, tail, np.int8)  # n < 128 where oracle._fits holds
    table = np.empty((len(perms), n + 1), dtype=np.int8)
    table[:, n] = n
    table[:, :n - tail] = np.arange(n - tail)
    np.add(perms, n - tail, out=table[:, n - tail:n])
    per_block = max(1, _WORDS // len(table))
    for h in range(0, len(heads), per_block):
        for r in range(0, len(table), _WORDS):
            yield spelled[h:h + per_block][:, table[r:r + _WORDS]].reshape(-1, n + 1)


def scan(m: int, p: int, n: int, firsts: tuple[int, ...]) -> Counter:
    """Tally G(m,p,n) restricted to the given leftmost magnitudes, as an oracle engine does.

    The tally counts elements by (bitmap, color sum), where bit c*n + x - 1 of
    the bitmap marks xi^c(x) in the pinnacle set.  Like the reference walk, it
    builds only the colorings of G(m,p,n), and in the walk's order.
    """
    # every p-th odometer coloring, its last color raised to bring the sum to a multiple of p
    power = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    colors = (np.arange(0, m**n, p, dtype=np.int64)[:, None] // power) % m
    head = colors[:, :-1].sum(axis=1)
    colors[:, -1] += -head % p
    eps = head + colors[:, -1]
    eps_width = n * (m - 1) + 1
    patterns = 1 << (n - 1)  # descent patterns: bit t is set where the word falls from t to t+1
    # below[a, :, t]: slot t sits strictly below slot t+1 under descent bit a
    # there.  The table reads wreath.value_key(m), which is exact because the
    # order compares different colors by color alone and equal colors by
    # magnitude, in a direction that depends only on the color and m.  Slot t
    # is a pinnacle when it is below[a, :, t-1] and not below[b, :, t] for the
    # descent bits a, b around it, so the pinnacle slots of a coloring depend
    # on the word only through its descent pattern.
    order = wreath.value_key(m)
    key = [[order(ColoredValue(c, x)) for c in range(m)] for x in (1, 2)]
    lt = np.array([[[key[a][c] < key[1 - a][e] for e in range(m)] for c in range(m)]
                   for a in (0, 1)])
    below = lt[:, colors[:, :-1], colors[:, 1:]]

    # Color side.  A coloring's pinnacle slots and their colors form one
    # base-(m+1) number whose digit t-1 is 0, or 1 + the color of slot t when
    # slot t is a pinnacle.  Row D of `state` holds that number for every
    # coloring under pattern D; it grows one descent bit at a time, rows
    # 2**t..2**(t+1)-1 taking the patterns with bit t set.
    state = np.zeros((patterns, len(colors)), dtype=np.int64)
    # grow[a, b, :, t-1]: what slot t adds under descent bits a, b around it
    grow = np.where(below[:, None, :, :-1] & ~below[None, :, :, 1:],
                    (colors[:, 1:-1] + 1) * (m + 1) ** np.arange(n - 2), 0)
    for t in range(1, n - 1):
        # axes: bit t, bit t-1, the lower bits; the rows of bit t = 0 are
        # extended in place, so after the rows of bit t = 1 are made from them
        view = state[:4 << (t - 1)].reshape(2, 2, -1, len(colors))
        np.add(view[0], grow[:, 1, None, :, t - 1], out=view[1])
        view[0] += grow[:, 0, None, :, t - 1]
    # Cells: ordered by size, each pinnacle slot set S (no two slots adjacent)
    # owns m**|S| * eps_width cells from base[S], one per (colors at S, color
    # sum), the colors packed in base m with the leftmost slot least
    # significant.  Each pattern owns `span` cells, and `state` turns into
    # the cell of every (pattern, coloring) pair.
    digits = np.arange((m + 1) ** max(n - 2, 0))[:, None] // (m + 1) ** np.arange(n - 2) % (m + 1)
    on = digits > 0
    packed = (np.where(on, digits - 1, 0) * m ** (on.cumsum(axis=1) - on)).sum(axis=1)
    sets = sorted((s for s in range(0, patterns, 2) if not s & s >> 1),
                  key=lambda s: (bin(s).count("1"), s))
    sizes = [bin(s).count("1") for s in sets]
    starts = list(itertools.accumulate((m**k * eps_width for k in sizes), initial=0))
    base = np.zeros(patterns, dtype=np.int64)
    base[sets] = starts[:-1]
    state = (base[on @ (2 << np.arange(n - 2))] + packed * eps_width)[state]
    state += eps
    span = starts[-1]
    state += np.arange(0, patterns * span, span)[:, None]
    tally = np.bincount(state.ravel(), minlength=patterns * span).reshape(patterns, span)
    del state
    live = np.logical_or.reduceat(tally > 0, starts[:-1], axis=1)  # [pattern, slot set]

    # One product A @ B per size k.  B stacks the cells of each k-set S over
    # the patterns D under which some coloring has pinnacle slots exactly S,
    # S major.  A, a slice of `counted` from `offset`, counts the words by
    # the rank of their magnitudes at S among the k-permutations of range(n)
    # and by row[D, S], the row of (S, D) in B, or one past the last row
    # where no coloring has pinnacle slots S under D: that column is dropped.
    cap = sizes[-1]
    bounds = [sizes.index(k) for k in range(cap + 1)] + [len(sets)]  # of the k-sets in sets
    products, stored = [], 0
    for k in range(cap + 1):
        lo, hi = bounds[k], bounds[k + 1]
        block = tally[:, starts[lo]:starts[hi]].reshape(patterns, hi - lo, -1)
        B = block.transpose(1, 0, 2)[live[:, lo:hi].T]
        used = B.any(axis=0).nonzero()[0]
        products.append((stored, math.perm(n, k), B[:, used], used))
        stored += math.perm(n, k) * (len(B) + 1)
    del tally, block
    offsets, rows_of = np.array([(offset, len(B)) for offset, _, B, _ in products]).T
    before = rows_of.cumsum() - rows_of
    row = np.where(live.T, live.T.cumsum().reshape(len(sets), patterns) - 1 - before[sizes, None],
                   rows_of[sizes, None]).T
    # A word's magnitudes at S, padded with n up to cap, are a base-(n+1)
    # code, and place[code] is where their row of A starts in `counted`.  The
    # k-permutations are the k-prefixes of the rows of `arrangements`.
    arrangements = _arrangements(n, cap)
    radix = (n + 1) ** np.arange(cap, dtype=np.int64)
    prefix = np.zeros((len(arrangements), cap + 1), dtype=np.int64)
    (arrangements * radix).cumsum(axis=1, out=prefix[:, 1:])
    pad = (n + 1) ** cap - (n + 1) ** np.arange(cap + 1)  # n in each position past k
    stride = np.array([math.perm(n - k, cap - k) for k in range(cap + 1)])
    place = np.zeros((n + 1) ** cap, dtype=np.int64)
    place[prefix + pad] = offsets + np.arange(len(arrangements))[:, None] // stride * (rows_of + 1)
    # per pattern, its live slot sets first, as many as the most any pattern
    # has, by their slots padded with n
    at = np.array([[t for t in range(n) if s >> t & 1] + [n] * (cap - size)
                   for s, size in zip(sets, sizes)], dtype=np.int64).reshape(len(sets), cap)
    lead = (~live).argsort(axis=1, kind="stable")[:, :live.sum(axis=1).max()]
    at, row = at[lead], row[np.arange(patterns)[:, None], lead]

    # Word side, one block of words at a time
    counted = np.zeros(stored, dtype=np.int64)
    descent_bits = 1 << np.arange(n - 1, dtype=np.int64)
    for words in _word_blocks(n, firsts):
        pattern = (words[:, :n - 1] > words[:, 1:n]) @ descent_bits
        mags = at[pattern]
        mags += np.arange(0, words.size, n + 1)[:, None, None]  # where each word starts
        mags = words.ravel().take(mags)
        cell = place[mags @ radix] + row[pattern]
        np.add.at(counted, cell.ravel(), 1)

    # Product: for each k, the nonzero counts by (magnitudes at S, colors at
    # S, color sum), turned into report keys
    found = []
    for offset, rows_k, B, used in products:
        product = counted[offset:offset + rows_k * (len(B) + 1)].reshape(rows_k, -1)[:, :-1] @ B
        rank, cell = product.nonzero()
        found.append((rank, used[cell], product[rank, cell]))
    size = np.arange(cap + 1).repeat([len(rank) for rank, _, _ in found])
    rank, cell, counts = (np.concatenate(part) for part in zip(*found))
    packed_colors, eps_value = np.divmod(cell, eps_width)
    color = packed_colors[:, None] // m ** np.arange(cap) % m
    shift = color * n + arrangements[rank * stride[size]]
    bitmap = np.where(np.arange(cap) < size[:, None], np.left_shift(1, shift), 0).sum(axis=1)
    keys = bitmap * eps_width + eps_value
    # a set reached from different slot sets or slot orders has one key
    by_key = keys.argsort()
    keys = keys[by_key]
    first = np.concatenate([[True], keys[1:] != keys[:-1]]).nonzero()[0]
    totals = np.add.reduceat(counts[by_key], first)
    bits, eps_value = np.divmod(keys[first], eps_width)
    return Counter(dict(zip(zip(bits.tolist(), eps_value.tolist()), totals.tolist())))
