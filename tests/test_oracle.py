"""Exhaustive scans: engines, partitioning, budgets, and witness statistics."""

import itertools
import json
import math
import subprocess
import sys
import time
from collections import Counter

import pytest

from pinnacles import _vectorized, oracle, wreath
from pinnacles.admissible import canonical_witness, is_admissible, max_pinnacles
from pinnacles.oracle import BudgetExceeded, OracleBudget, collect_pinnacle_sets
from pinnacles.wreath import (
    ColoredValue,
    GenPerm,
    GroupParams,
    PinSet,
    color_sum,
    in_subgroup,
    pinnacle_set,
)
from test_acceptance import CANDIDATE_ORDERS

CV = ColoredValue


def _merged(scan, g, parts):
    # an engine's tallies over round-robin parts of the leftmost magnitudes, as a pool sums them
    tally = Counter()
    for i in range(parts):
        tally.update(scan(g.m, g.p, g.n, tuple(range(i + 1, g.n + 1, parts))))
    return tally


def walk(m, p, n):
    # every element of G(m,p,n) in the walk's order, as the reference engine visits them
    return list(oracle._elements(m, p, n, tuple(range(1, n + 1))))


class TestEnumeration:
    def test_orders(self):
        assert len(walk(1, 1, 3)) == 6
        assert len(walk(2, 2, 3)) == 24
        assert len(walk(3, 1, 2)) == 18

    def test_elements_unique_and_in_subgroup(self):
        for params in (GroupParams(2, 2, 3), GroupParams(3, 3, 3), GroupParams(4, 2, 2)):
            seen = set()
            for w in walk(params.m, params.p, params.n):
                assert in_subgroup(w, params)
                assert w not in seen
                seen.add(w)
            assert len(seen) == params.order

    def test_stream_equals_filtered_product(self):
        # the reference: every coloring of every word, in odometer order, kept
        # when its color sum is divisible by p
        for m, p, n in [(2, 2, 3), (4, 2, 3), (6, 3, 3), (3, 3, 4), (4, 4, 1), (6, 2, 2)]:
            expected = [
                GenPerm.from_word(m, zip(colors, mags))
                for mags in itertools.permutations(range(1, n + 1))
                for colors in itertools.product(range(m), repeat=n)
                if sum(colors) % p == 0
            ]
            assert walk(m, p, n) == expected, (m, p, n)

    def test_canonical_stream_order(self):
        stream = walk(2, 1, 2)
        # lexicographic words: magnitudes (1,2) before (2,1), colors odometer
        expected_head = [
            GenPerm.from_word(2, [(0, 1), (0, 2)]),
            GenPerm.from_word(2, [(0, 1), (1, 2)]),
            GenPerm.from_word(2, [(1, 1), (0, 2)]),
            GenPerm.from_word(2, [(1, 1), (1, 2)]),
        ]
        assert stream[:4] == expected_head

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded) as info:
            collect_pinnacle_sets(GroupParams(3, 1, 7), OracleBudget(max_order=100))
        assert info.value.required == 3**7 * 5040

    def test_budget_refusal_at_the_call(self, monkeypatch):
        # nothing is walked: the refusal comes before either engine runs
        monkeypatch.setattr(oracle, "_scan_reference", None)
        with pytest.raises(BudgetExceeded):
            collect_pinnacle_sets(GroupParams(9, 1, 12), OracleBudget(max_order=10), "reference")


class TestWitnessStreams:
    # the witnesses of a set: the report's tally of them, or the walk filtered by pinnacle set

    def test_degree_two_everything_witnesses_empty(self, reports):
        assert reports(1, 1, 2).stats[PinSet(1, 2)].witness_count == 2

    def test_inadmissible_set_has_no_witnesses(self, reports):
        # same repeated-magnitude shape as the degree-7 example, shrunk to a
        # scannable group; the full-size group is a budget refusal instead
        assert PinSet(4, 4, ((3, 3), (2, 3), (0, 1))) not in reports(4, 1, 4).stats
        with pytest.raises(BudgetExceeded):
            collect_pinnacle_sets(GroupParams(5, 1, 7))

    def test_witnesses_have_low_one_low_shape(self):
        P = PinSet(1, 3, ((0, 1),))
        found = [w for w in walk(1, 1, 3) if pinnacle_set(w) == P]
        assert canonical_witness(P) in found
        for w in found:
            assert w.image[1] == CV(0, 1)


class TestReports:
    def test_totals_match_published_counts(self, reports):
        assert reports(2, 1, 5).total_admissible == 31
        assert reports(3, 1, 3).total_admissible == 8
        assert reports(1, 1, 3).total_admissible == 2

    def test_small_symmetric_group_membership(self, reports):
        assert set(reports(1, 1, 3).stats) == {
            PinSet(1, 3),
            PinSet(1, 3, ((0, 1),)),
        }

    def test_every_set_obeys_structural_bounds(self, reports):
        for m, n in [(2, 6), (3, 5)]:
            rep = reports(m, 1, n)
            for P in rep.stats:
                assert len(P) <= max_pinnacles(n)
                assert len(P.magnitude_set()) == len(P)

    def test_witness_counts_sum_to_group_order(self, reports):
        for m, p, n in [(2, 1, 4), (3, 1, 4), (2, 2, 5), (3, 3, 4)]:
            rep = reports(m, p, n)
            assert sum(s.witness_count for s in rep.stats.values()) == rep.scanned
            assert rep.scanned == GroupParams(m, p, n).order

    def test_count_up_to_and_grouping(self, reports):
        rep = reports(2, 1, 5)
        sizes = [len(P) for P in rep.stats]
        assert sizes == sorted(sizes)
        assert sorted(set(sizes)) == [0, 1, 2]
        assert rep.count_up_to(0) == 1
        assert rep.count_up_to(1) == 1 + sizes.count(1)
        assert rep.count_up_to(2) == 31

    def test_eps_intervals_and_canonical_maximum(self, reports):
        # whole-group scans: every set's color sums fill an integer interval
        # whose right endpoint is the canonical witness's color sum
        for m, n in [(1, 5), (2, 5), (3, 5), (2, 4), (3, 4)]:
            for P, stats in reports(m, 1, n).stats.items():
                assert stats.eps_is_interval, str(P)
                assert stats.eps_max == color_sum(canonical_witness(P)), str(P)
                assert stats.witness_count == sum(c for _, c in stats.eps_histogram)

    def test_subgroup_membership_iff_interval_hits_residue(self, reports):
        # a full-group admissible set survives in G(m,p,n) exactly when its
        # color-sum interval contains a multiple of p
        for m, p, n in [(2, 2, 3), (2, 2, 5), (4, 2, 3), (4, 2, 5), (3, 3, 3), (4, 4, 5)]:
            sub = set(reports(m, p, n).stats)
            for P, stats in reports(m, 1, n).stats.items():
                hits = any(e % p == 0 for e in stats.eps_values)
                assert hits == (P in sub), (m, p, n, str(P))

    def test_low_color_sets_survive_in_subgroup(self, reports):
        # odd degree, m > p: a set using any color below m-p stays admissible
        for m, p, n in [(4, 2, 3), (4, 2, 5)]:
            sub = set(reports(m, p, n).stats)
            for P in reports(m, 1, n).stats:
                if any(cv.color < m - p for cv in P.elements):
                    assert P in sub

    def test_membership_matches_decider(self, reports):
        for m, n in [(2, 4), (2, 5), (3, 4)]:
            admissible_sets = set(reports(m, 1, n).stats)
            universe = [CV(c, x) for c in range(m) for x in range(1, n + 1)]
            for size in range(max_pinnacles(n) + 1):
                for combo in itertools.combinations(universe, size):
                    P = PinSet(m, n, combo)
                    assert is_admissible(P) == (P in admissible_sets)


# reference definition: the vectorized engine's width rule with all six
# checks; besides the report key and the two tables, it bounded the color
# side's cell, the word side's counter index and every count (by the order)
def six_check_fits(g):
    m, n = g.m, g.n
    eps_width = n * (m - 1) + 1
    if m * n + eps_width.bit_length() > 62:
        return False
    patterns = 1 << (n - 1)
    sets = [math.comb(n - 1 - k, k) for k in range((n - 1) // 2 + 1)]
    packed = (
        patterns * eps_width * sum(count * m**k for k, count in enumerate(sets)),
        sum(math.perm(n, k) * (count * patterns + 1) for k, count in enumerate(sets)),
        g.order,
    )
    tables = ((m + 1) ** max(n - 2, 0) * max(n - 2, 1), (n + 1) ** (len(sets) - 1))
    return max(packed) <= 1 << 62 and max(tables) <= oracle._TABLE


class TestEnginesAndPartitioning:
    GRIDS = [
        (1, 1, 4), (2, 1, 4), (2, 2, 4), (3, 1, 4), (2, 1, 5), (5, 1, 3), (4, 2, 4), (3, 3, 4),
        # one word, one coloring per word, p > 1, and words in several blocks
        (1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 1, 6), (2, 2, 6), (3, 3, 5), (2, 1, 6), (1, 1, 7),
        # p = 2, 3, 4 with m/p >= 2: the last color takes m/p values, every p-th
        # from the one that completes the color sum
        (6, 3, 4), (9, 3, 3), (8, 4, 3), (6, 2, 3),
    ]

    def test_reference_and_vectorized_agree(self):
        for m, p, n in self.GRIDS:
            g = GroupParams(m, p, n)
            assert oracle._engine(g, "auto") is _vectorized.scan, g
            assert collect_pinnacle_sets(g, engine="reference") == collect_pinnacle_sets(
                g, engine="auto"
            ), (m, p, n)

    def test_engines_read_the_order_only_through_ascending_colors(self, monkeypatch):
        # the vectorized engine's pattern tables must follow wreath._ascending_colors,
        # here swapped for the top-asc order: color m-1's magnitudes ascend
        monkeypatch.setattr(wreath, "_ascending_colors", CANDIDATE_ORDERS["top-asc"])
        for m, p, n in [(2, 2, 6), (3, 1, 5), (3, 3, 5)]:
            g = GroupParams(m, p, n)
            assert oracle._engine(g, "auto") is _vectorized.scan, g
            reference = collect_pinnacle_sets(g, engine="reference")
            vectorized = collect_pinnacle_sets(g, engine="auto")
            assert vectorized == reference, (m, p, n)
            assert list(vectorized.stats) == list(reference.stats)

    def test_listing_order_does_not_read_value_key(self, monkeypatch):
        # sets are listed by cardinality, then by the bitmap of bits c*n + x - 1,
        # whatever the value order; under top-asc a listing read in the value
        # order differs from that on these groups
        def size_and_bitmap(P):
            return len(P), sum(1 << cv.color * P.n + cv.magnitude - 1 for cv in P)

        monkeypatch.setattr(wreath, "_ascending_colors", CANDIDATE_ORDERS["top-asc"])
        for m, p, n in [(2, 1, 5), (2, 2, 6)]:
            assert oracle._engine(GroupParams(m, p, n), "auto") is _vectorized.scan
            for engine in ("reference", "auto"):
                listed = list(collect_pinnacle_sets(GroupParams(m, p, n), engine=engine).stats)
                assert listed == sorted(listed, key=size_and_bitmap), (m, p, n, engine)

    def test_partition_invariance(self):
        # a parallel scan sums engine calls on round-robin parts of the leftmost
        # magnitudes; each engine's merged tally must equal its one-call tally
        for g in (GroupParams(3, 1, 4), GroupParams(2, 2, 5)):
            for scan in (oracle._scan_reference, _vectorized.scan):
                whole = scan(g.m, g.p, g.n, tuple(range(1, g.n + 1)))
                for parts in (1, 4, g.n):
                    assert _merged(scan, g, parts) == whole, (g, scan, parts)

    def test_block_boundaries_do_not_change_reports(self, monkeypatch):
        # the vectorized engine counts words in blocks of at most _WORDS;
        # blocks of one word, and blocks of seven words, which split the 24
        # words of each leftmost magnitude unevenly, must give the reports of
        # the default block size, and so must words cut into a head of two
        # magnitudes and a table of the permutations of the last _TAIL = 3.
        # A head with only some leftmost magnitudes runs only inside a pool,
        # so the engine is also called here on round-robin parts directly
        for g in (GroupParams(2, 1, 5), GroupParams(3, 3, 5)):
            expected = collect_pinnacle_sets(g)
            whole = _vectorized.scan(g.m, g.p, g.n, tuple(range(1, g.n + 1)))
            for patch in ({"_WORDS": 1}, {"_WORDS": 7}, {"_WORDS": 7, "_TAIL": 3}):
                for name, value in patch.items():
                    monkeypatch.setattr(_vectorized, name, value)
                got = collect_pinnacle_sets(g)
                assert got == expected, (g, patch)
                assert list(got.stats) == list(expected.stats)
                for parts in (1, 4, g.n):
                    assert _merged(_vectorized.scan, g, parts) == whole, (g, patch, parts)
                monkeypatch.undo()

    def test_serial_scan_is_one_engine_call(self, monkeypatch):
        g = GroupParams(2, 1, 5)
        expected = collect_pinnacle_sets(g)
        calls = []
        scan = _vectorized.scan

        def recording(m, p, n, firsts):
            calls.append(firsts)
            return scan(m, p, n, firsts)

        monkeypatch.setattr(_vectorized, "scan", recording)
        # partitions split only a parallel scan
        assert collect_pinnacle_sets(g, OracleBudget(partitions=4)) == expected
        assert calls == [(1, 2, 3, 4, 5)]

    def test_parallel_matches_serial(self):
        # both engines in a pool: the reference engine forced, and as the
        # fallback that auto picks where the vectorized keys are too wide
        for g, engine, parts in (
            (GroupParams(2, 1, 5), "auto", 5),
            (GroupParams(3, 1, 4), "reference", 3),
            (GroupParams(19, 1, 3), "auto", 3),
        ):
            serial = collect_pinnacle_sets(g, engine=engine)
            budget = OracleBudget(partitions=parts)
            parallel = collect_pinnacle_sets(g, budget, engine=engine, parallel=True)
            assert parallel == serial, (g, engine)
            assert list(parallel.stats) == list(serial.stats)

    def test_report_decodes_tallies_by_the_sorted_groupby_rule(self):
        # the report built by sorting all (bitmap, color sum) entries, grouping
        # them by bitmap and building each element afresh from its bit
        def sorted_groupby(g, tally):
            stats = {}
            ordered = sorted(tally.items(), key=lambda e: (e[0][0].bit_count(), *e[0]))
            for bits, group in itertools.groupby(ordered, key=lambda e: e[0][0]):
                hist = tuple((eps, count) for (_, eps), count in group)
                elements = [CV(i // g.n, i % g.n + 1) for i in range(bits.bit_length()) if bits >> i & 1]
                stats[PinSet(g.m, g.n, elements)] = oracle.PinStats(sum(c for _, c in hist), hist)
            return list(stats.items())

        for m, p, n in self.GRIDS:
            g = GroupParams(m, p, n)
            assert oracle._engine(g, "auto") is _vectorized.scan, g
            for engine, scan in (("reference", oracle._scan_reference), ("auto", _vectorized.scan)):
                expected = sorted_groupby(g, scan(m, p, n, tuple(range(1, n + 1))))
                got = collect_pinnacle_sets(g, engine=engine).stats
                assert list(got.items()) == expected, (m, p, n, engine)

    def test_report_decodes_only_the_bits_it_meets(self):
        # G(10**7, 10**7, 1) has order 1 and one empty set; a table of all
        # m*n colored values up front would take seconds and gigabytes
        started = time.perf_counter()
        report = collect_pinnacle_sets(GroupParams(10**7, 10**7, 1))
        assert time.perf_counter() - started < 1.0
        assert report.stats == {PinSet(10**7, 1): oracle.PinStats(1, ((0, 1),))}

    def test_huge_modulus_falls_back_to_reference(self):
        g = GroupParams(25, 1, 3)  # bitmap keys would overflow; auto must cope
        rep = collect_pinnacle_sets(g)
        assert rep.scanned == g.order
        from pinnacles.counting import count_pinnacle_sets

        assert rep.total_admissible == count_pinnacle_sets(25, 3)
        assert not oracle._fits(g)
        # auto is the only way into the vectorized engine
        with pytest.raises(ValueError, match="unknown engine 'vectorized'"):
            collect_pinnacle_sets(g, engine="vectorized")

    def test_fits_rule_at_its_boundaries(self, monkeypatch):
        # the rule is arithmetic on (m, n), so nothing here scans: the report
        # key holds m*n bits and the color sum, and the word side's table of
        # base-(n+1) codes of the magnitudes at up to 7 slots outgrows _TABLE
        fits = oracle._fits
        assert fits(GroupParams(18, 1, 3)) and not fits(GroupParams(19, 1, 3))
        assert fits(GroupParams(1, 1, 14)) and not fits(GroupParams(1, 1, 15))
        assert not fits(GroupParams(1, 1, 33))
        assert not fits(GroupParams(10**9, 1, 10**6))  # decided without the order or 2**(m*n)
        with pytest.raises(ValueError, match="unknown engine 'vectorized'"):
            collect_pinnacle_sets(GroupParams(1, 1, 15), OracleBudget(max_order=10**13),
                                  engine="vectorized")
        # each check decides alone: the key at (19,1,3), the state table
        # (m+1)**(n-2)*(n-2) at (3,1,14) and (4,1,13), 2.0e8 and 5.4e8 entries,
        # and the code table (n+1)**max_pinnacles(n) at (1,1,15) and (2,1,16),
        # 2.7e8 and 4.1e8; all four fit past a larger _TABLE, which the key
        # check does not read
        by_table = [GroupParams(*g) for g in ((3, 1, 14), (4, 1, 13), (1, 1, 15), (2, 1, 16))]
        assert not any(map(fits, by_table))
        monkeypatch.setattr(oracle, "_TABLE", 2**30)
        assert all(map(fits, by_table))
        assert not fits(GroupParams(19, 1, 3))

    def test_fits_equals_the_six_check_rule(self):
        # arithmetic only, no scan: past m*n = 61 the key check alone refuses,
        # so this covers every group the vectorized engine scans
        groups = [
            GroupParams(m, p, n)
            for m in range(1, 81)
            for n in range(1, 80 // m + 1)
            for p in range(1, m + 1)
            if m % p == 0
        ]
        assert len(groups) == 1084
        for g in groups:
            assert oracle._fits(g) == six_check_fits(g), g

    def test_only_vectorized_scans_load_numpy(self):
        # a reference scan, an auto scan that falls back, and an auto scan of
        # a group under the walk bound in a process without numpy load neither
        # numpy nor the vectorized engine; an auto scan above the bound loads
        # both, and so does the fifth of five auto scans of G(1,1,6) (4,320
        # colored values each), which would take the walks past the bound
        script = """
import json, sys
from pinnacles.oracle import collect_pinnacle_sets
from pinnacles.wreath import GroupParams
heavy = ("numpy", "pinnacles._vectorized")
loaded = []
for g, engine in json.loads(sys.argv[1]):
    collect_pinnacle_sets(GroupParams(*g), engine=engine)
    loaded.append([mod for mod in heavy if mod in sys.modules])
print(json.dumps(loaded))
"""
        both = ["numpy", "pinnacles._vectorized"]
        runs = [
            ([((2, 1, 4), "reference"), ((19, 1, 3), "auto"), ((2, 1, 4), "auto"),
              ((2, 1, 6), "auto")], [[], [], [], both]),
            ([((1, 1, 6), "auto")] * 5, [[], [], [], [], both]),
        ]
        for scans, expected in runs:
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(scans)],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == expected, scans

    def test_engine_rule_at_the_walk_bound(self):
        # G(2,1,5) has 3840 * 5 = 19,200 colored values, the most of any group
        # under the bound that _fits admits; G(15,3,3), with 20,250, the fewest
        # above it.  With the bound moved to 19,200 and to 19,199, G(2,1,5)
        # sits at the bound and one value above it.  With numpy loaded, auto
        # runs the vectorized engine wherever _fits holds; in a fresh process
        # it walks while the values walked so far stay within the bound, until
        # numpy is imported; with numpy blocked the vectorized engine's import
        # fails.  "reference", and a group where _fits fails, walk in every
        # case and count nothing against the bound
        assert GroupParams(2, 1, 5).order * 5 == 19_200 <= oracle._COLD_WALK
        assert GroupParams(15, 3, 3).order * 3 == 20_250 > oracle._COLD_WALK
        assert GroupParams(1, 1, 6).order * 6 == 4_320
        assert not oracle._fits(GroupParams(19, 1, 3))
        script = """
import json, sys
if sys.argv[1] == "loaded":
    import numpy
elif sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # as if numpy were not installed
from pinnacles import oracle
from pinnacles.wreath import GroupParams
default, picked = oracle._COLD_WALK, []
for g, bound, spent, engine in json.loads(sys.argv[2]):
    oracle._COLD_WALK = default if bound is None else bound
    if spent is not None:
        oracle._cold_walked = spent
    try:
        scan = oracle._engine(GroupParams(*g), engine)
        picked.append(f"{scan.__module__}.{scan.__name__}")
    except ImportError:
        picked.append("error")
    picked.append(oracle._cold_walked)
print(json.dumps(picked))
"""
        cases = [  # group, bound (None: the module's), values walked before (None: as left), engine
            ((2, 1, 5), 19_200, 0, "auto"), ((2, 1, 5), None, 0, "auto"),
            ((2, 1, 5), None, None, "reference"), ((19, 1, 3), 10**9, None, "auto"),
            # four scans of 4,320 values walk, the fifth would pass the bound
            ((1, 1, 6), None, 0, "auto"), ((1, 1, 6), None, None, "auto"),
            ((1, 1, 6), None, None, "auto"), ((1, 1, 6), None, None, "auto"),
            ((1, 1, 6), None, None, "auto"),
            ((2, 1, 5), 19_199, 0, "auto"), ((15, 3, 3), None, 0, "auto"),
            ((2, 1, 5), None, 0, "auto"),  # after a vectorized scan has loaded numpy
        ]
        walk, vec = "pinnacles.oracle._scan_reference", "pinnacles._vectorized.scan"
        picks = {
            "loaded": [vec, 0, vec, 0, walk, 0, walk, 0, vec, 0, vec, 0, vec, 0, vec, 0,
                       vec, 0, vec, 0, vec, 0, vec, 0],
            "fresh": [walk, 19_200, walk, 19_200, walk, 19_200, walk, 19_200,
                      walk, 4_320, walk, 8_640, walk, 12_960, walk, 17_280, vec, 17_280,
                      vec, 0, vec, 0, vec, 0],
            "blocked": [walk, 19_200, walk, 19_200, walk, 19_200, walk, 19_200,
                        walk, 4_320, walk, 8_640, walk, 12_960, walk, 17_280,
                        "error", 17_280, "error", 0, "error", 0, walk, 19_200],
        }
        for mode, expected in picks.items():
            proc = subprocess.run([sys.executable, "-c", script, mode, json.dumps(cases)],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == expected, mode

    def test_engines_agree_on_every_group_a_fresh_process_walks(self):
        # the groups where _fits holds with at most _COLD_WALK colored values,
        # which auto walks in a process without numpy and scans vectorized in
        # one with it; _fits keeps m*n <= 61, so the grid below holds them all
        groups = [
            GroupParams(m, p, n)
            for m in range(1, 62)
            for n in range(1, 61 // m + 1)
            for p in range(1, m + 1)
            if m % p == 0
        ]
        walked = [g for g in groups if oracle._fits(g) and g.order * g.n <= oracle._COLD_WALK]
        assert len(walked) == 397
        assert sum(g.order * g.n for g in walked) == 365_178
        for g in walked:
            assert oracle._engine(g, "auto") is _vectorized.scan, g
            reference = collect_pinnacle_sets(g, engine="reference")
            vectorized = collect_pinnacle_sets(g, engine="auto")
            assert vectorized == reference, g
            assert list(vectorized.stats) == list(reference.stats), g

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            collect_pinnacle_sets(GroupParams(2, 1, 3), engine="magic")

    def test_budget_refusal_and_count_helper(self):
        with pytest.raises(BudgetExceeded):
            collect_pinnacle_sets(GroupParams(2, 1, 12))
        assert collect_pinnacle_sets(GroupParams(2, 2, 3)).total_admissible == 4


class TestAgainstFormulas:
    def test_grid_counts(self, reports):
        from pinnacles.counting import count_pinnacle_sets

        for m in (1, 2, 3):
            for n in range(2, 6):
                rep = reports(m, 1, n)
                for d in range(max_pinnacles(n) + 1):
                    assert rep.count_up_to(d) == count_pinnacle_sets(m, n, d), (m, n, d)

    def test_odd_degree_complement_bijection(self, reports):
        # the sets lost when passing to G(m,p,2r+1) are exactly the color
        # shift by m-p of the sets lost when passing to G(p,p,2r+1)
        from pinnacles.shifts import ShiftParams, shift_set

        for m, p, n in [(4, 2, 3), (4, 2, 5), (3, 3, 3), (4, 4, 3)]:
            lost_small = set(reports(p, 1, n).stats) - set(reports(p, p, n).stats)
            lost_large = set(reports(m, 1, n).stats) - set(reports(m, p, n).stats)
            s = ShiftParams(p, m - p, n)
            assert {shift_set(P, s) for P in lost_small} == lost_large, (m, p, n)
