"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines live.
All checks are exact integer identities; the only tolerances are the stated
wall-clock limits.

Criterion 6 checks the odd-degree identity for p = 2 in its sign-corrected
form #APS(2,2,2r+1) = #APS(2,1,2r+1) - (1/2)#APS(1,1,2r+1), at r = 1, 2.  The
form quoted with a plus sign is a misprint: G(2,2,n) is a subgroup of
Z_2 wr S_n, so its admissible sets are a subset of the full group's, and the
plus form would give 6 > 5 at r = 1.

Beside criterion 6, an unnumbered test records where each candidate order on
the colored values stands on three facts from the paper: (a) that identity at
r = 3, (b) the odd-maximal reduction of G(6,3,5), and (c) the color-shift
embedding at n = 5.  It swaps ``wreath._ascending_colors`` alone, the
colors whose magnitudes ascend, so it also shows that both scan engines and
the set-space count read the order from there, and it checks the three
deciders against the scans under each order.
"""

import functools
import itertools
import random
import time

from pinnacles import counting, oracle, wreath
from pinnacles.admissible import (
    canonical_witness,
    is_admissible,
    is_admissible_rec,
    is_admissible_top,
    max_pinnacles,
)
from pinnacles.cli import run
from pinnacles.counting import count_complex, count_pinnacle_sets
from pinnacles.oracle import collect_pinnacle_sets
from pinnacles.shifts import ShiftParams, shift_perm, shift_set
from pinnacles.wreath import (
    ColoredValue,
    GenPerm,
    GroupParams,
    PinSet,
    color_sum,
    in_subgroup,
    inverse,
    multiply,
    pinnacle_set,
)

CV = ColoredValue

# the published 10x10 grid of total counts, m = 1..10 by n = 3..12, kept
# verbatim; the (m=8, n=3) cell prints 32 but every formula and the
# exhaustive scan give 23, so that single cell is asserted as a known typo
PUBLISHED_TOTALS = {
    1: [2, 3, 6, 10, 20, 35, 70, 126, 252, 462],
    2: [5, 7, 31, 49, 209, 351, 1471, 2561, 10625, 18943],
    3: [8, 11, 76, 118, 776, 1283, 8236, 14146, 89528, 157742],
    4: [11, 15, 141, 217, 1931, 3167, 27421, 46761, 398331, 697359],
    5: [14, 19, 226, 346, 3884, 6339, 69106, 117326, 1256804, 2191534],
    6: [17, 23, 331, 505, 6845, 11135, 146395, 247801, 3198557, 5562287],
    7: [20, 27, 456, 694, 11024, 17891, 275416, 465186, 7026480, 12194958],
    8: [32, 31, 601, 913, 16631, 26943, 475321, 801521, 13868183, 24033247],
    9: [26, 35, 766, 1162, 23876, 38627, 768286, 1293886, 25231436, 43674254],
    10: [29, 39, 951, 1441, 32969, 53279, 1179511, 1984401, 43059609, 74463519],
}


def _verdict(num, name, failures, elapsed=None, limit=None):
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.2f}s" + (f" < {limit:.0f}s limit)" if limit else ")")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}{timing}")
    assert not failures, f"criterion {num} {name}: " + "; ".join(str(f) for f in failures)
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_table_reproduction(capsys, tmp_path):
    target = tmp_path / "table.csv"
    start = time.perf_counter()
    code = run(["table", "--m", "1..10", "--n", "3..12", "--format", "csv",
                "--output", str(target)])
    elapsed = time.perf_counter() - start
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    lines = target.read_text().splitlines()
    cells = {(int(m), int(n)): int(v) for m, n, v in (row.split(",") for row in lines[1:])}
    for m in range(1, 11):
        for i, n in enumerate(range(3, 13)):
            printed = PUBLISHED_TOTALS[m][i]
            emitted = cells[(m, n)]
            if (m, n) == (8, 3):
                if emitted != 23:
                    failures.append(f"(8,3) emitted {emitted}, expected 23")
                if printed != 32:
                    failures.append("discrepancy record lost: printed cell should be 32")
            elif emitted != printed:
                failures.append(f"({m},{n}) emitted {emitted}, printed {printed}")
    with capsys.disabled():
        _verdict(1, "table-reproduction", failures, elapsed, 1.0)


def test_criterion_2_four_way_agreement(capsys):
    start = time.perf_counter()
    failures = []
    for m in range(1, 21):
        for n in range(1, 31):
            for d in range(max_pinnacles(n) + 1):
                values = {name: fn(m, n, d) for name, fn in counting.METHODS.items()}
                if len(set(values.values())) != 1:
                    failures.append((m, n, d, values))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(2, "four-way-formula-agreement", failures, elapsed, 10.0)


def test_criterion_3_oracle_count_equivalence(capsys, reports):
    grid = [(m, n) for m in (1, 2, 3) for n in range(1, 8)] + [(4, n) for n in range(1, 7)]
    start = time.perf_counter()
    failures = []
    for m, n in grid:
        rep = reports(m, 1, n)
        for d in range(max_pinnacles(n) + 1):
            got = rep.count_up_to(d)
            want = count_pinnacle_sets(m, n, d, method="all")
            if got != want:
                failures.append(f"(m={m},n={n},d={d}): oracle {got} vs formulas {want}")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(3, "oracle-count-equivalence", failures, elapsed, 600.0)


def test_criterion_4_oracle_membership_equivalence(capsys, reports):
    failures = []
    for m in (1, 2, 3):
        for n in range(1, 7):
            admissible_sets = set(reports(m, 1, n).stats)
            universe = [CV(c, x) for c in range(m) for x in range(1, n + 1)]
            for size in range(max_pinnacles(n) + 1):
                for combo in itertools.combinations(universe, size):
                    P = PinSet(m, n, combo)
                    expected = P in admissible_sets
                    got = (is_admissible(P), is_admissible_rec(P), is_admissible_top(P))
                    if got != (expected, expected, expected):
                        failures.append(f"(m={m},n={n}) {P}: deciders {got}, oracle {expected}")
    with capsys.disabled():
        _verdict(4, "oracle-membership-equivalence", failures)


def test_criterion_5_complex_group_equality(capsys, reports):
    failures = []
    for m in (1, 2, 3, 4):
        for p in range(1, m + 1):
            if m % p:
                continue
            for n in range(2, 7):
                rep = reports(m, p, n)
                strict_bound = -(-(n - 1) // 2)  # ceil((n-1)/2)
                for d in range(min(strict_bound, max_pinnacles(n) + 1)):
                    got = rep.count_up_to(d)
                    want = count_pinnacle_sets(m, n, d)
                    if got != want:
                        failures.append(f"APS_{d}({m},{p},{n}) = {got}, expected {want}")
                if n % 2 == 0:
                    got = rep.total_admissible
                    want = count_pinnacle_sets(m, n)
                    if got != want:
                        failures.append(f"APS({m},{p},{n}) total {got}, expected {want}")
    if reports(4, 2, 6).total_admissible != 217:
        failures.append("#APS(4,2,6) != 217")
    with capsys.disabled():
        _verdict(5, "complex-group-equality", failures)


def test_criterion_6_odd_maximal_pipeline(capsys, reports):
    # The identity is quoted with "+ (1/2)#APS(1,1,2r+1)"; that sign is a
    # misprint refuted by the subgroup inclusion (it would give 6 > 5 at r = 1).
    # The corrected form is asserted only at r = 1, 2: at r = 3 the documented
    # color order gives 192, not 209 - 10 (see README, known discrepancies).
    start = time.perf_counter()
    failures = []

    for r in (1, 2):
        n = 2 * r + 1
        sides = {}
        for m, p in [(2, 2), (2, 1), (1, 1)]:
            scanned = reports(m, p, n).total_admissible
            computed = count_complex(GroupParams(m, p, n))
            if computed != scanned:
                failures.append(f"#APS({m},{p},{n}): formulas {computed} vs scan {scanned}")
            sides[m, p] = scanned
        subgroup, full, plain = sides[2, 2], sides[2, 1], sides[1, 1]
        if 2 * subgroup != 2 * full - plain:
            failures.append(
                f"r={r}: #APS(2,2,{n}) = {subgroup}, corrected identity gives "
                f"{full} - {plain}/2"
            )

    if reports(4, 2, 3).total_admissible != 10:
        failures.append(f"#APS(4,2,3) expected 10, scan gives {reports(4, 2, 3).total_admissible}")
    for m, p, n in [(4, 2, 3), (4, 2, 5)]:
        reduced = count_complex(GroupParams(m, p, n))
        scanned = reports(m, p, n).total_admissible
        if reduced != scanned:
            failures.append(f"#APS({m},{p},{n}): reduction {reduced} vs direct scan {scanned}")

    for m, p, n in [(2, 2, 3), (2, 2, 5), (4, 2, 3), (4, 2, 5)]:
        if not set(reports(m, p, n).stats) <= set(reports(m, 1, n).stats):
            failures.append(f"APS({m},{p},{n}) is not a subset of APS({m},1,{n})")

    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(6, "odd-maximal-pipeline", failures, elapsed, 60.0)


# candidate orders on the colored values, as stand-ins for
# wreath._ascending_colors: each keeps higher colors lower and names, for a
# modulus m, the colors whose magnitudes ascend; the documented order has none
CANDIDATE_ORDERS = {
    "documented": lambda m: frozenset(),
    "color0-asc": lambda m: frozenset({0}),
    "odd-asc": lambda m: frozenset(range(1, m, 2)),
    "even-asc": lambda m: frozenset(range(0, m, 2)),
    "top-asc": lambda m: frozenset({m - 1}),
}

# shifts (source modulus, k) checked by (c), at n = 5
STATUS_SHIFTS = ((1, 1), (2, 1), (2, 2), (1, 2))

# per order: #APS(2,2,7), (b) as (#APS(6,3,5), #APS(3,3,5) + correction),
# #APS(3,3,5), and for each of STATUS_SHIFTS (sets shift_set loses, sets)
ORDER_STATUS = {
    "documented": (192, (319, 319), 64, ((0, 6), (0, 31), (0, 31), (0, 6))),
    "color0-asc": (199, (319, 321), 66, ((4, 6), (0, 31), (0, 31), (4, 6))),
    "odd-asc": (199, (319, 319), 64, ((4, 6), (14, 31), (0, 31), (0, 6))),
    "even-asc": (199, (319, 319), 64, ((4, 6), (14, 31), (0, 31), (0, 6))),
    "top-asc": (199, (321, 321), 66, ((0, 6), (0, 31), (0, 31), (0, 6))),
}


def _distinct_magnitude_sets(m, n):
    # every candidate set of Z_m wr S_n with distinct magnitudes, up to the cap
    for size in range(max_pinnacles(n) + 1):
        for mags in itertools.combinations(range(1, n + 1), size):
            for colors in itertools.product(range(m), repeat=size):
                yield PinSet(m, n, tuple(zip(colors, mags)))


def test_candidate_order_status(capsys, monkeypatch):
    # (a) holds when 2 #APS(2,2,7) = 2 #APS(2,1,7) - #APS(1,1,7), that is at
    # 199; the session reports cache is never used, since it holds reports
    # computed under the documented order
    start = time.perf_counter()
    failures = []
    lines = []

    @functools.lru_cache(maxsize=None)
    def scan(m, p, n, engine="auto"):
        g = GroupParams(m, p, n)
        assert engine == "reference" or oracle._fits(g), g  # auto runs the vectorized engine
        return collect_pinnacle_sets(g, engine=engine)

    for name, ascending in CANDIDATE_ORDERS.items():
        monkeypatch.setattr(wreath, "_ascending_colors", ascending)
        scan.cache_clear()
        for m, p, n in [(2, 2, 5), (3, 3, 5), (2, 1, 5), (4, 2, 5), (3, 1, 4)]:
            if scan(m, p, n) != scan(m, p, n, "reference"):
                failures.append(f"{name}: engines disagree on G({m},{p},{n})")
        totals = [scan(m, p, 7).total_admissible for m, p in [(2, 1), (1, 1)]]
        if totals != [209, 20]:
            failures.append(f"{name}: #APS(2,1,7), #APS(1,1,7) = {totals}, expected 209, 20")
        subgroup = scan(2, 2, 7).total_admissible
        irreducible = scan(3, 3, 5).total_admissible
        # the set-space count follows the order too; asserted on G(p,p,n) only,
        # since for p < m the count also rests on (b), which some orders break
        engine = (count_complex(GroupParams(2, 2, 7)), count_complex(GroupParams(3, 3, 5)))
        if engine != (subgroup, irreducible):
            failures.append(f"{name}: count_complex G(2,2,7), G(3,3,5) = {engine}, "
                            f"scanned {(subgroup, irreducible)}")
        reduction = (
            scan(6, 3, 5).total_admissible,
            irreducible + count_pinnacle_sets(6, 5) - count_pinnacle_sets(3, 5),
        )
        lost = []
        for m, k in STATUS_SHIFTS:
            sets = scan(m, 1, 5).stats
            target = scan(m + k, 1, 5).stats
            shift = ShiftParams(m, k, 5)
            lost.append((sum(shift_set(P, shift) not in target for P in sets), len(sets)))
        # every decider holds under every order, checked on the full groups
        for m, n in [(1, 5), (2, 5), (3, 5), (4, 5), (2, 7)]:
            scanned = set(scan(m, 1, n).stats)
            for decider in (is_admissible, is_admissible_rec, is_admissible_top):
                wrong = sum(decider(P) != (P in scanned) for P in _distinct_magnitude_sets(m, n))
                if wrong:
                    failures.append(f"{name}: {decider.__name__} misjudges {wrong} sets "
                                    f"of G({m},1,{n})")
        status = (subgroup, reduction, irreducible, tuple(lost))
        if status != ORDER_STATUS[name]:
            failures.append(f"{name}: status {status}, expected {ORDER_STATUS[name]}")
        identity = "holds" if 2 * subgroup == 2 * totals[0] - totals[1] else "fails"
        lines.append(f"  {name}: G(2,2,7) {subgroup} (a) {identity}, (b) {reduction}, "
                     f"G(3,3,5) {irreducible}, (c) lost {lost}")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print("\n".join(lines))
        _verdict("-", "candidate-order-status", failures, elapsed)


def test_criterion_7_witness_properties(capsys, reports):
    failures = []
    for m in (1, 2, 3):
        for n in range(1, 6):
            for P, stats in reports(m, 1, n).stats.items():
                w = canonical_witness(P)
                if pinnacle_set(w) != P:
                    failures.append(f"canonical witness misses {P}")
                if stats.eps_max != color_sum(w):
                    failures.append(f"{P}: max color sum {stats.eps_max} != witness {color_sum(w)}")
                if not stats.eps_is_interval:
                    failures.append(f"{P}: color sums {stats.eps_values} not contiguous")
                for k in (1, 2):
                    s = ShiftParams(m, k, n)
                    if shift_perm(w, s) != canonical_witness(shift_set(P, s)):
                        failures.append(f"shift by {k} breaks canonical witness of {P}")
    with capsys.disabled():
        _verdict(7, "witness-properties", failures)


def test_criterion_8_structural_laws(capsys):
    failures = []

    def elements(m, n):
        for mags in itertools.permutations(range(1, n + 1)):
            for colors in itertools.product(range(m), repeat=n):
                yield GenPerm(m, tuple(zip(colors, mags)))

    for m in (1, 2):
        for n in (1, 2, 3):
            group = list(elements(m, n))
            e = GenPerm.identity(m, n)
            for w in group:
                if multiply(w, inverse(w)) != e or multiply(inverse(w), w) != e:
                    failures.append(f"inverse law fails at ({m},{n})")
                if multiply(e, w) != w or multiply(w, e) != w:
                    failures.append(f"identity law fails at ({m},{n})")
            for a, b in itertools.product(group, repeat=2):
                if color_sum(multiply(a, b)) % m != (color_sum(a) + color_sum(b)) % m:
                    failures.append(f"color-sum additivity fails at ({m},{n})")
            for a, b, c in itertools.product(group, repeat=3):
                if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
                    failures.append(f"associativity fails at ({m},{n})")
            for p in range(1, m + 1):
                if m % p:
                    continue
                g = GroupParams(m, p, n)
                members = [w for w in group if in_subgroup(w, g)]
                if len(members) != g.order:
                    failures.append(f"wrong subgroup size at {g}")
                for w in members:
                    if not in_subgroup(inverse(w), g):
                        failures.append(f"inverse escapes {g}")
                for a, b in itertools.product(members, repeat=2):
                    if not in_subgroup(multiply(a, b), g):
                        failures.append(f"product escapes {g}")

    rng = random.Random(8675309)
    for _ in range(10_000):
        m = rng.randint(1, 7)
        n = rng.randint(1, 9)
        mags = list(range(1, n + 1))
        perms = []
        for _ in range(3):
            rng.shuffle(mags)
            perms.append(GenPerm(m, tuple((rng.randrange(m), x) for x in mags)))
        a, b, c = perms
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            failures.append(f"random associativity fails at ({m},{n})")
        if multiply(a, inverse(a)) != GenPerm.identity(m, n):
            failures.append(f"random inverse fails at ({m},{n})")
        if color_sum(multiply(a, b)) % m != (color_sum(a) + color_sum(b)) % m:
            failures.append(f"random color-sum additivity fails at ({m},{n})")

    with capsys.disabled():
        _verdict(8, "structural-laws", failures[:10])
