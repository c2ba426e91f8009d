"""The four workloads: their operation lists, made from a seed, and their output checks.

An operation is one timed call into a layer of the program: a library call,
a batch of library calls over prepared inputs, or one ``python -m pinnacles``
process.  A workload is the fixed list of operations one round runs; every
round of a run repeats the same list.  Checks compare each output with
``reference.json`` (computed by ``reference.py`` without the program) or with
a property the method must have; they run after the timed call returns.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SCAN_BUDGET = 50_000_000


class CheckFailed(Exception):
    """An output differs from the reference value or breaks a required property."""


class OpFailed(Exception):
    """The call itself did not complete: an exception or a nonzero exit code."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str                      # span name, layer first
    call: Callable[[], Any]
    check: Callable[[Any], None] | None = None
    key: str | None = None         # where the round keeps the output for cross-op checks
    items: int = 1                 # units of work in the call: sets, perms, cells, elements
    metric: str | None = None      # per-layer metric fed by this span
    kind: str = "rate"             # rate: items/s; round_ms: ms per round; median_ms: per call


@dataclass
class Workload:
    ops: list[Op]
    before_round: Callable[[], None] = lambda: None
    after_round: Callable[[dict], None] = lambda results: None
    counters: dict = field(default_factory=dict)


def expected_count(m: int, n: int, d: int) -> int:
    """p(m,n,d), unrolled from p(m,n,0) = 1 and p(m,n,d) + p(m,n,d-1) = C(n,d) m^d."""
    value = 1
    for i in range(1, d + 1):
        value = math.comb(n, i) * m**i - value
    return value


def cap(n: int) -> int:
    return (n - 1) // 2


def pairs(P) -> frozenset:
    """A program PinSet (or iterable of ColoredValue) as a set of (color, magnitude)."""
    return frozenset((cv.color, cv.magnitude) for cv in P)


def word_pairs(text: str) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in tok.split(":")) for tok in text.split()]


def ref_sets(groups: dict, m: int, p: int, n: int) -> dict | None:
    entry = groups.get(ref.group_name(m, p, n))
    return None if entry is None or "sets" not in entry else entry["sets"]


def check_word(word: list[tuple[int, int]], m: int, n: int) -> None:
    require(len(word) == n, f"word of length {len(word)}, expected {n}")
    require(sorted(x for _, x in word) == list(range(1, n + 1)), "word is not a bijection")
    require(all(0 <= c < m for c, _ in word), "word color out of range")


# ---------------------------------------------------------------- inputs


KINDS = ["free"] * 6 + ["crowded"] * 2 + ["repeated", "oversized"]


def candidate_set(rng: random.Random, m: int, n: int, kind: str) -> tuple[str, tuple]:
    """A candidate set of the given kind, as (kind, (color, magnitude) pairs).

    free: distinct magnitudes, size uniform in 0..cap (mostly admissible);
    crowded: size cap (often not); repeated: two colors on one magnitude;
    oversized: more than cap distinct magnitudes.  Both of the last two must
    be rejected.  A kind impossible at (m, n) falls back to the next one.
    """
    if kind == "repeated" and (m < 2 or n < 3):
        kind = "oversized"
    if kind == "oversized" and cap(n) + 1 > n:
        kind = "free"
    if kind == "free":
        d = rng.randint(0, cap(n))
    elif kind == "crowded":
        d = cap(n)
    elif kind == "oversized":
        d = rng.randint(cap(n) + 1, min(n, cap(n) + 3))
    else:
        d = rng.randint(1, max(1, cap(n) - 1))
    chosen = [(rng.randrange(m), x) for x in rng.sample(range(1, n + 1), d)]
    if kind == "repeated":
        c, x = chosen[0]
        chosen.append(((c + 1 + rng.randrange(m - 1)) % m, x))
    return kind, tuple(chosen)


def random_word(rng: random.Random, m: int, n: int) -> list[tuple[int, int]]:
    mags = list(range(1, n + 1))
    rng.shuffle(mags)
    return [(rng.randrange(m), x) for x in mags]


# ---------------------------------------------------------------- exact


def exact(rng: random.Random, groups: dict, tiny: bool) -> Workload:
    import pinnacles as pn
    from pinnacles import counting

    ops: list[Op] = []
    checks: list[Callable[[dict], None]] = []
    r_counts = {"sets": 0, "admissible": 0}

    def count_op(route, m, n, d, key):
        ops.append(Op(
            f"counting.{route}", lambda: pn.count_pinnacle_sets(m, n, d, route),
            key=key, metric=f"counting.{route}_ms", kind="round_ms",
        ))

    # large-n counts: default route at d and d-1, closed-alternating at d
    for j, m in enumerate((2, 3, 5, 1)):
        n = rng.randrange(60, 70) if tiny else rng.randrange(1400, 1450)
        d = cap(n)
        count_op("closed-positive", m, n, d, f"big{j}")
        count_op("closed-positive", m, n, d - 1, f"big{j}-")
        if m > 1:
            count_op("closed-alternating", m, n, d, f"big{j}a")

        def big_check(r, j=j, m=m, n=n, d=d):
            require(r[f"big{j}"] + r[f"big{j}-"] == math.comb(n, d) * m**d,
                    f"p({m},{n},{d}) + p({m},{n},{d - 1}) != C(n,d) m^d")
            if m == 1:
                require(r[f"big{j}"] == math.comb(n - 1, d), f"p(1,{n},{d}) != C(n-1,d)")
            else:
                require(r[f"big{j}a"] == r[f"big{j}"], f"routes disagree at ({m},{n},{d})")
        checks.append(big_check)

    # the recursions and method="all", well below the recursion limit
    for j, m in enumerate((3, 4, 5, 4)):
        n = rng.randrange(20, 30) if tiny else rng.randrange(170, 180)
        d = cap(n) - rng.randrange(0, 3)
        if j < 3:
            for route in ("recursion-in-m", "recursion-in-n", "closed-positive"):
                count_op(route, m, n, d, f"rec{j}{route}")
        else:
            count_op("all", m, n, d, f"rec{j}all")
        count_op("closed-positive", m, n, d - 1, f"rec{j}-")

        def rec_check(r, j=j, m=m, n=n, d=d):
            values = {k: v for k, v in r.items() if k.startswith(f"rec{j}") and k != f"rec{j}-"}
            require(len(set(values.values())) == 1, f"routes disagree at ({m},{n},{d}): {values}")
            value = next(iter(values.values()))
            require(value + r[f"rec{j}-"] == math.comb(n, d) * m**d,
                    f"p({m},{n},{d}) + p({m},{n},{d - 1}) != C(n,d) m^d")
        checks.append(rec_check)

    # a grid of totals, as `table` computes it
    grid_m, grid_n = (range(1, 5), range(3, 12)) if tiny else (range(1, 21), range(3, 101))
    cells = [(m, n) for m in grid_m for n in grid_n]
    ops.append(Op(
        "counting.table", lambda: [pn.count_total(m, n) for m, n in cells], key="table",
        items=len(cells), metric="counting.table_cells_per_s",
    ))

    def table_check(r):
        for (m, n), value in zip(cells, r["table"]):
            require(value == expected_count(m, n, cap(n)), f"count_total({m},{n}) = {value}")
    checks.append(table_check)

    # odd-maximal counts for G(m,p,n), each an exhaustive scan of G(p,p,n) today
    odd = [(4, 2, 5), (2, 2, 5), (3, 3, 5)] if tiny else [(4, 2, 7), (6, 3, 7), (3, 3, 7)]
    rng.shuffle(odd)
    for m, p, n in odd:
        name = ref.group_name(m, p, n)
        total = groups[name]["total"]

        def odd_check(value, m=m, p=p, n=n, total=total):
            require(value == total, f"count_complex(G({m},{p},{n})) = {value}, reference {total}")
            require(value <= expected_count(m, n, cap(n)), f"G({m},{p},{n}) exceeds Z_{m} wr S_{n}")
        ops.append(Op(
            "counting.complex_odd_maximal",
            lambda g=pn.GroupParams(m, p, n): pn.count_complex(g),
            check=odd_check, metric="counting.complex_odd_maximal_ms", kind="median_ms",
        ))
    # count_complex away from the odd-maximal case equals the full group's count
    for m, p, n, d in [(6, 2, 8, None), (4, 4, 7, 2), (6, 3, 9, 3)]:
        want = expected_count(m, n, cap(n) if d is None else d)

        def complex_check(value, want=want, g=(m, p, n, d)):
            require(value == want, f"count_complex{g} = {value}, full group gives {want}")
        ops.append(Op(
            "counting.complex", lambda g=pn.GroupParams(m, p, n), d=d: pn.count_complex(g, d),
            check=complex_check,
        ))

    # decider batches: seeded candidate sets through all three deciders and the witness;
    # the first bracket draws (m, n) from the full groups the reference file holds
    brackets = ["reference", (10, 30), (30, 80), (80, 201)]
    small = [(m, n) for m in (2, 3, 4, 5) for n in range(5, 9)
             if ref_sets(groups, m, 1, n) is not None]
    per_batch = 20 if tiny else 120
    batches = 1 if tiny else 2
    deciders = [
        ("is_admissible", pn.is_admissible),
        ("is_admissible_rec", pn.is_admissible_rec),
        ("is_admissible_top", pn.is_admissible_top),
    ]
    for b in range(batches * len(brackets)):
        bracket = brackets[b % len(brackets)]
        batch = []
        for i in range(per_batch):
            if bracket == "reference":
                m, n = rng.choice(small)
            else:
                m, n = rng.randrange(2, 6), rng.randrange(*bracket)
            kind, chosen = candidate_set(rng, m, n, KINDS[i % len(KINDS)])
            batch.append((kind, pn.PinSet(m, n, chosen)))
        sets = [P for _, P in batch]
        for fname, fn in deciders:
            ops.append(Op(
                f"admissible.{fname}", lambda fn=fn, sets=sets: [fn(P) for P in sets],
                key=f"dec{b}{fname}", items=len(sets), metric=f"admissible.{fname}.sets_per_s",
            ))

        def witnesses(sets=sets):
            out = []
            for P in sets:
                try:
                    out.append(pn.canonical_witness(P))
                except pn.AdmissibilityError as exc:
                    out.append(type(exc).__name__)
            return out
        ops.append(Op(
            "admissible.canonical_witness", witnesses, key=f"dec{b}witness", items=len(sets),
            metric="admissible.canonical_witness.sets_per_s",
        ))

        def decider_check(r, b=b, batch=batch):
            verdicts = [r[f"dec{b}{fname}"] for fname, _ in deciders]
            require(verdicts[0] == verdicts[1] == verdicts[2], f"deciders disagree in batch {b}")
            for (kind, P), ok, w in zip(batch, verdicts[0], r[f"dec{b}witness"]):
                want = pairs(P)
                if kind == "repeated":
                    require(not ok and w == "MultiplicityViolation", f"repeated magnitude {P} not rejected")
                elif kind == "oversized":
                    require(not ok and w == "CardinalityViolation", f"oversized {P} not rejected")
                else:
                    require(not isinstance(w, str), f"no witness built for {P}")
                    word = [(cv.color, cv.magnitude) for cv in w.word]
                    check_word(word, P.m, P.n)
                    realized = ref.word_pinnacles(word) == want
                    require(realized == ok, f"verdict {ok} on {P}, witness realizes it: {realized}")
                known = ref_sets(groups, P.m, 1, P.n)
                if known is not None:
                    require(ok == (ref.set_token(want) in known), f"verdict {ok} on {P} against reference")
            r_counts["sets"] += len(batch)
            r_counts["admissible"] += sum(verdicts[0])
        checks.append(decider_check)

    # colored permutations: build from words, extract pinnacles
    words = []
    for _ in range(20 if tiny else 300):
        m, n = rng.randrange(2, 6), rng.randrange(10, 101)
        words.append((m, random_word(rng, m, n)))
    perms = [pn.GenPerm.from_word(m, w) for m, w in words]
    ops.append(Op(
        "wreath.from_word", lambda: [pn.GenPerm.from_word(m, w) for m, w in words],
        key="from_word", items=len(words), metric="wreath.from_word.perms_per_s",
    ))
    ops.append(Op(
        "wreath.pinnacle_set", lambda: [pn.pinnacle_set(w) for w in perms],
        key="pinnacle_set", items=len(perms), metric="wreath.pinnacle_set.perms_per_s",
    ))

    def wreath_check(r):
        for (m, word), w, P in zip(words, r["from_word"], r["pinnacle_set"]):
            require([(cv.color, cv.magnitude) for cv in w.word] == word, "from_word changed the word")
            require(pairs(P) == ref.word_pinnacles(word), f"pinnacle_set wrong on {word}")
    checks.append(wreath_check)

    # color shifts of candidate sets
    shift_in = []
    for _ in range(20 if tiny else 300):
        m, n, k = rng.randrange(1, 6), rng.randrange(5, 60), rng.randrange(0, 4)
        P = pn.PinSet(m, n, candidate_set(rng, m, n, rng.choice(KINDS))[1])
        shift_in.append((P, pn.ShiftParams(m, k, n)))
    ops.append(Op(
        "shifts.shift_set", lambda: [pn.shift_set(P, s) for P, s in shift_in], key="shift",
        items=len(shift_in), metric="shifts.shift_set.per_s",
    ))

    def shift_check(r):
        for (P, s), Q in zip(shift_in, r["shift"]):
            require(Q.m == s.m + s.k and Q.n == s.n, "shift_set changed the ambient group")
            require(pairs(Q) == {(c + s.k, x) for c, x in pairs(P)}, f"shift_set wrong on {P}")
    checks.append(shift_check)

    def clear_memos():
        # every round does the same work, whatever earlier rounds left in the memos
        for value in vars(counting).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def after_round(results):
        for fn in checks:
            try:
                fn(results)
            except KeyError:
                pass  # an output is missing because its call failed, which is counted already

    return Workload(ops, clear_memos, after_round, r_counts)


# ---------------------------------------------------------------- scans


def scan_check(pn, groups: dict, m: int, p: int, n: int, engine: str):
    order = ref.group_order(m, p, n)
    known = ref_sets(groups, m, p, n)

    def check(report):
        where = f"{engine} scan of G({m},{p},{n})"
        require(report.scanned == order, f"{where} scanned {report.scanned}, order {order}")
        witnesses = 0
        got = {}
        for P, st in report.stats.items():
            hist = dict(st.eps_histogram)
            require(sum(hist.values()) == st.witness_count, f"{where}: histogram of {P} off")
            # witness color sums form an interval; the subgroup keeps its multiples of p
            require(sorted(hist) == list(range(min(hist), max(hist) + 1, p)),
                    f"{where}: color sums of {P} are no interval")
            require(pn.is_admissible(P), f"{where}: reported {P} is not admissible")
            witnesses += st.witness_count
            got[ref.set_token(pairs(P))] = [st.witness_count, st.eps_min, st.eps_max]
        require(witnesses == order, f"{where}: witness counts sum to {witnesses}")
        if p == 1 and n >= 2:
            require(report.total_admissible == pn.count_total(m, n), f"{where}: total != count_total")
        if known is not None:
            require(got == known, f"{where}: sets differ from the reference")
    return check


def scans(groups: dict, plan) -> Workload:
    """One scan per entry of plan: (m, p, n, engine, partitions)."""
    import pinnacles as pn

    ops = []
    for m, p, n, engine, partitions in plan:
        g = pn.GroupParams(m, p, n)
        budget = pn.OracleBudget(max_order=SCAN_BUDGET, partitions=partitions)
        name = ref.group_name(m, p, n)
        if engine == "reference":
            span, metric = f"oracle.reference.{name}", "oracle.reference.elements_per_s"
        elif partitions > 1:
            span, metric = f"oracle.partitioned.{name}", "oracle.partitioned.elements_per_s"
        else:
            span, metric = f"oracle.vectorized.{name}", f"oracle.vectorized.elements_per_s.{name}"
        engine_arg = "reference" if engine == "reference" else "auto"
        ops.append(Op(
            span, lambda g=g, b=budget, e=engine_arg: pn.collect_pinnacle_sets(g, b, engine=e),
            check=scan_check(pn, groups, m, p, n, engine), items=g.order, metric=metric,
        ))
    return Workload(ops)


# groups scanned one call each by the default engine; the rss probes use these too
WORD_GROUPS = [(2, 1, 8), (2, 1, 7), (2, 2, 7), (1, 1, 7)]
WORD_SMALL = [(2, 1, 6), (2, 2, 6), (1, 1, 6)]
COLOR_GROUPS = [(5, 1, 6), (4, 4, 7), (4, 1, 6), (6, 1, 5), (3, 3, 7)]
COLOR_SMALL = [(6, 2, 5), (6, 3, 5), (7, 1, 5), (4, 2, 6), (5, 5, 6)]
SMALL_REPEATS = {(6, 2, 5): 3, (6, 3, 5): 3}


def scanned_groups() -> list[tuple[int, int, int]]:
    return WORD_GROUPS + WORD_SMALL + COLOR_GROUPS + COLOR_SMALL


def scan_words(rng: random.Random, groups: dict, tiny: bool) -> Workload:
    if tiny:
        plan = [(2, 1, 5, "vectorized", 1), (2, 2, 5, "vectorized", 1),
                (2, 1, 5, "vectorized", rng.randrange(2, 6)), (2, 1, 4, "reference", 1)]
    else:
        plan = [(m, p, n, "vectorized", 1) for m, p, n in WORD_GROUPS]
        plan += [(m, p, n, "vectorized", 1) for m, p, n in WORD_SMALL for _ in range(10)]
        plan.append((2, 1, 7, "vectorized", rng.randrange(2, 8)))
        plan.append((2, 1, 5, "reference", rng.randrange(1, 6)))
    rng.shuffle(plan)
    return scans(groups, plan)


def scan_colors(rng: random.Random, groups: dict, tiny: bool) -> Workload:
    if tiny:
        plan = [(5, 1, 4, "vectorized", 1), (4, 4, 4, "vectorized", 1), (6, 2, 5, "vectorized", 1)]
    else:
        plan = [(m, p, n, "vectorized", 1) for m, p, n in COLOR_GROUPS]
        plan += [(m, p, n, "vectorized", 1) for m, p, n in COLOR_SMALL
                 for _ in range(SMALL_REPEATS.get((m, p, n), 2))]
    rng.shuffle(plan)
    return scans(groups, plan)


# ---------------------------------------------------------------- cli


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-m", "pinnacles", *argv],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise OpFailed(f"pinnacles {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def cli_op(argv: list[str], parse: Callable[[str], None]) -> Op:
    def check(proc):
        require(proc.stderr == "", f"pinnacles {' '.join(argv)} wrote to stderr: {proc.stderr!r}")
        parse(proc.stdout)  # unreadable output raises, and the worker reports it as wrong
    return Op(f"cli.{argv[0]}", lambda: run_cli(argv), check=check,
              metric=f"cli.call_ms.{argv[0]}", kind="median_ms")


def cli(rng: random.Random, groups: dict, tiny: bool) -> Workload:
    ops = []
    full = [entry for entry in groups.values() if entry["p"] == 1 and "sets" in entry
            and 3 <= entry["n"] <= 7 and entry["m"] >= 2]

    def known_set(admissible: bool):
        entry = rng.choice(full)
        m, n = entry["m"], entry["n"]
        for _ in range(10_000):
            _, chosen = candidate_set(rng, m, n, rng.choice(("free", "crowded")))
            token = ref.set_token(chosen)
            if (token in entry["sets"]) == admissible:
                return m, n, token
        raise ValueError(f"no {'admissible' if admissible else 'inadmissible'} set drawn in G{m}_1_{n}")

    # count: total, a capped json count, and G(m,p,n) away from the odd-maximal case
    for variant, (m, n, d) in [
        (None, (rng.randrange(2, 10), rng.randrange(8, 41), None)),
        ("json", (rng.randrange(2, 10), rng.randrange(8, 41), "d")),
        ("p2", (rng.choice((2, 4, 6)), rng.choice((6, 8, 10)), None)),
        ("p3", (rng.choice((3, 6)), rng.choice((7, 9)), "d")),
    ]:
        dd = cap(n) if d is None else rng.randrange(0, cap(n))
        args = ["count", "--m", str(m), "--n", str(n)]
        if d is not None:
            args += ["--d", str(dd)]
        if variant == "json":
            args += ["--format", "json"]
        elif variant is not None:
            args += ["--p", variant[1]]
        want = expected_count(m, n, dd)

        def parse(out, want=want, fmt=variant):
            value = int(json.loads(out)["value"]) if fmt == "json" else int(out)
            require(value == want, f"count printed {value}, expected {want}")
        ops.append(cli_op(args, parse))

    # check: admissible and inadmissible sets of small groups, and a repeated magnitude
    for admissible in (True, False, True):
        m, n, token = known_set(admissible)

        def parse(out, admissible=admissible, token=token):
            doc = json.loads(out)
            require(doc["admissible"] == admissible, f"check {token}: verdict {doc['admissible']}")
            require(len(set(doc["deciders"].values())) == 1, f"check {token}: deciders disagree")
        ops.append(cli_op(["check", "--m", str(m), "--n", str(n), "--set", token,
                           "--format", "json"], parse))
    m, n = rng.randrange(2, 6), rng.randrange(6, 30)
    x = rng.randrange(1, n + 1)
    ops.append(cli_op(["check", "--m", str(m), "--n", str(n), "--set", f"0:{x},1:{x}"],
                      lambda out: require(out.startswith("inadmissible"), "repeated magnitude accepted")))

    # witness: admissible sets; the witness word must have the set as its pinnacles
    for _ in range(3):
        m, n, token = known_set(True)

        def parse(out, m=m, n=n, token=token):
            doc = json.loads(out)
            word = word_pairs(doc["witness"])
            check_word(word, m, n)
            require(ref.word_pinnacles(word) == ref.parse_token(token), f"witness of {token} wrong")
            require(doc["realizes"] is True, f"witness of {token} not realizing")
        ops.append(cli_op(["witness", "--m", str(m), "--n", str(n), "--set", token,
                           "--format", "json"], parse))

    # pinnacles of random words
    for _ in range(3):
        p = rng.choice((1, 2, 3))
        m, n = p * rng.randrange(1, 3), rng.randrange(5, 13)
        word = random_word(rng, m, n)
        text = " ".join(f"{c}:{x}" for c, x in word)

        def parse(out, word=word, p=p):
            doc = json.loads(out)
            require(ref.parse_token(doc["pinnacles"]) == ref.word_pinnacles(word), "pinnacles wrong")
            eps = sum(c for c, _ in word)
            require(doc["color_sum"] == eps and doc["in_subgroup"] == (eps % p == 0), "color sum wrong")
        ops.append(cli_op(["pinnacles", "--m", str(m), "--p", str(p), "--n", str(n),
                           "--perm", text, "--format", "json"], parse))

    # shift: a set and a permutation
    m, n, k = rng.randrange(2, 6), rng.randrange(5, 12), rng.randrange(1, 4)
    _, chosen = candidate_set(rng, m, n, "free")
    token = ref.set_token(chosen)
    shifted = {(c + k, x) for c, x in chosen}
    ops.append(cli_op(
        ["shift", "--m", str(m), "--n", str(n), "--k", str(k), "--set", token, "--format", "json"],
        lambda out: require(ref.parse_token(json.loads(out)["result"]) == shifted, "shift --set wrong")))
    word = random_word(rng, m, n)
    ops.append(cli_op(
        ["shift", "--m", str(m), "--n", str(n), "--k", str(k), "--perm",
         " ".join(f"{c}:{x}" for c, x in word), "--format", "json"],
        lambda out: require(word_pairs(json.loads(out)["result"]) == [(c + k, x) for c, x in word],
                            "shift --perm wrong")))

    # table over a small grid
    for _ in range(2):
        m_hi, n_hi = rng.randrange(4, 11), rng.randrange(8, 16)

        def parse(out, m_hi=m_hi, n_hi=n_hi):
            lines = out.split()
            require(lines[0] == "m,n,count", "table header")
            cells = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
            require(len(cells) == m_hi * (n_hi - 2), "table has the wrong number of cells")
            for m, n, value in cells:
                require(value == expected_count(m, n, cap(n)), f"table cell ({m},{n}) = {value}")
        ops.append(cli_op(["table", "--m", f"1..{m_hi}", "--n", f"3..{n_hi}", "--format", "csv"],
                          parse))

    # oracle --diff on groups of a few thousand elements, against the reference sets
    small = [e for e in groups.values() if "sets" in e and 500 <= e["order"] <= 4000]
    for entry in rng.sample(small, 3):
        m, p, n = entry["m"], entry["p"], entry["n"]

        def parse(out, entry=entry):
            doc = json.loads(out)
            require(doc["scanned"] == entry["order"], "oracle scanned count")
            require(doc["total_admissible"] == entry["total"], "oracle total")
            got = {ref.set_token(ref.parse_token(s["set"])): [s["witnesses"], s["eps_min"], s["eps_max"]]
                   for s in doc["sets"]}
            require(got == entry["sets"], "oracle sets differ from the reference")
        ops.append(cli_op(["oracle", "--m", str(m), "--p", str(p), "--n", str(n), "--diff",
                           "--format", "json"], parse))

    rng.shuffle(ops)
    if tiny:
        seen, kept = set(), []
        for op in ops:
            if op.name not in seen:
                seen.add(op.name)
                kept.append(op)
        ops = kept
    return Workload(ops)


BUILDERS = {"cli": cli, "exact": exact, "scan_words": scan_words, "scan_colors": scan_colors}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, ref.load(), tiny)
