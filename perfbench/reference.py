"""Reference pinnacle sets computed apart from the program.

Nothing here imports ``pinnacles``.  The order on colored values is the one
the README documents: higher colors lower, and within one color larger
magnitudes lower,

    xi^(m-1)(n) < ... < xi^1(1) < xi^0(n) < ... < xi^0(2) < xi^0(1).

An element of G(m,p,n) is a word of n colored values with distinct
magnitudes whose color sum is divisible by p.  Whether a position is a
pinnacle depends only on the relative order of the values in the word, so
the scan is factored: every permutation of the ranks 0..n-1 is walked once
to tally which rank sets occur as pinnacle positions (and how often), and
every color assignment maps those rank sets onto colored values.  That visits
each group element exactly once; ``direct_scan`` walks the elements one by
one and ``--check`` confirms the two agree on small groups.

    python3 perfbench/reference.py            # regenerate perfbench/reference.json
    python3 perfbench/reference.py --check    # recompute and compare with the file
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# (m, p, n, keep_sets): groups whose sets, witness counts and color-sum
# ranges are stored; keep_sets False stores the total alone.
GROUPS = (
    [(m, 1, n, True) for m in (1, 2, 3) for n in range(1, 7)]
    + [
        (2, 2, 3, True), (2, 2, 5, True), (2, 2, 7, True),
        (4, 2, 3, True), (4, 2, 5, True), (3, 3, 5, True),
        # full groups of those subgroups, and the groups the workloads scan
        (4, 1, 3, True), (4, 1, 5, True),
        (2, 1, 7, True), (2, 1, 8, True), (1, 1, 7, True),
        (2, 2, 4, True), (2, 2, 6, True), (3, 3, 4, True), (4, 2, 4, True), (4, 4, 4, True),
        (5, 1, 3, True), (5, 1, 4, True), (5, 1, 5, True), (5, 1, 6, True),
        (4, 1, 4, True), (4, 1, 6, True), (6, 1, 5, True), (3, 3, 7, True),
        (4, 4, 7, True), (6, 2, 5, True), (6, 3, 5, True), (7, 1, 5, True),
        (4, 2, 6, True), (5, 5, 6, True), (4, 1, 7, True), (3, 1, 7, True),
        # totals behind the odd-maximal counts, and the published 14146
        (4, 2, 7, False), (6, 3, 7, False), (3, 1, 10, False),
    ]
)


def value_key(value: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a colored value (color, magnitude): ascending is the documented order."""
    color, magnitude = value
    return (-color, -magnitude)


def word_pinnacles(word) -> frozenset:
    """The values of a word (sequence of (color, magnitude)) above both neighbours."""
    keys = [value_key(v) for v in word]
    return frozenset(
        tuple(word[j]) for j in range(1, len(word) - 1)
        if keys[j - 1] < keys[j] > keys[j + 1]
    )


def rank_family(n: int) -> dict[tuple[int, ...], int]:
    """For every pinnacle rank set of S_n, how many permutations of 0..n-1 have it."""
    family: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        ranks = tuple(sorted(
            perm[j] for j in range(1, n - 1) if perm[j - 1] < perm[j] > perm[j + 1]
        ))
        family[ranks] = family.get(ranks, 0) + 1
    return family


def scan(m: int, p: int, n: int, keep_sets: bool = True):
    """Every pinnacle set of G(m,p,n) with its witness count and color-sum histogram.

    Returns {frozenset of (color, magnitude): {color sum: witnesses}} when
    keep_sets, else the set of pinnacle sets alone.
    """
    family = list(rank_family(n).items())
    stats: dict = {}
    seen: set = set()
    for colors in itertools.product(range(m), repeat=n):
        eps = sum(colors)
        if eps % p:
            continue
        ordered = sorted(((colors[x - 1], x) for x in range(1, n + 1)), key=value_key)
        for ranks, perms in family:
            P = frozenset(ordered[r] for r in ranks)
            if keep_sets:
                hist = stats.setdefault(P, {})
                hist[eps] = hist.get(eps, 0) + perms
            else:
                seen.add(P)
    return stats if keep_sets else seen


def direct_scan(m: int, p: int, n: int):
    """The same report as ``scan``, by walking every group element as a word."""
    stats: dict = {}
    for mags in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(m), repeat=n):
            eps = sum(colors)
            if eps % p:
                continue
            P = word_pinnacles(list(zip(colors, mags)))
            hist = stats.setdefault(P, {})
            hist[eps] = hist.get(eps, 0) + 1
    return stats


def group_order(m: int, p: int, n: int) -> int:
    return m**n * math.factorial(n) // p


def group_name(m: int, p: int, n: int) -> str:
    return f"G{m}_{p}_{n}"


def set_token(P) -> str:
    """Canonical text of a set: COLOR:MAGNITUDE pairs sorted by (color, magnitude)."""
    return ",".join(f"{c}:{x}" for c, x in sorted(P)) or "empty"


def parse_token(text: str) -> frozenset:
    if text == "empty":
        return frozenset()
    return frozenset(tuple(int(v) for v in pair.split(":")) for pair in text.split(","))


def build() -> dict:
    groups = {}
    for m, p, n, keep_sets in GROUPS:
        entry = {"m": m, "p": p, "n": n, "order": group_order(m, p, n)}
        result = scan(m, p, n, keep_sets)
        entry["total"] = len(result)
        if keep_sets:
            entry["sets"] = {
                set_token(P): [sum(h.values()), min(h), max(h)]
                for P, h in sorted(result.items(), key=lambda kv: set_token(kv[0]))
            }
        groups[group_name(m, p, n)] = entry
        print(f"{group_name(m, p, n)}: {entry['total']} sets", file=sys.stderr)
    return {
        "order": "xi^(m-1)(n) < ... < xi^1(1) < xi^0(n) < ... < xi^0(1)",
        "sets": "token -> [witnesses, min color sum, max color sum]",
        "groups": groups,
    }


def load() -> dict:
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)["groups"]


def check() -> int:
    """Recompute the file, test the factored scan against the direct one, and the published values."""
    failures = []
    for m, p, n in [(1, 1, 5), (2, 1, 5), (2, 2, 5), (3, 3, 4), (4, 2, 4), (3, 1, 4)]:
        if scan(m, p, n) != direct_scan(m, p, n):
            failures.append(f"factored and direct scans differ on {group_name(m, p, n)}")
    fresh = build()["groups"]
    stored = load()
    if fresh != stored:
        failures.append("reference.json differs from a fresh computation; regenerate it")
    for name, total in (("G2_2_7", 192), ("G4_2_5", 138), ("G3_1_10", 14146)):
        if fresh[name]["total"] != total:
            failures.append(f"{name} total {fresh[name]['total']}, published {total}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print("reference check: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the checked-in file")
    args = parser.parse_args()
    if args.check:
        return check()
    doc = build()
    with open(REFERENCE_FILE, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
