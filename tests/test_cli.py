"""Command-line surface: grammar, formats, exit codes, determinism."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pinnacles import admissible, cli, counting, oracle
from pinnacles.cli import (
    EXIT_BUDGET,
    EXIT_CROSSCHECK,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    parse_colored_token,
    parse_perm,
    parse_set,
    perm_tokens,
    run,
    set_tokens,
)
from pinnacles.wreath import ColoredValue, GenPerm, GroupParams, PinSet


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrammar:
    def test_token_parses(self):
        assert parse_colored_token("1:3", 3, 10) == ColoredValue(1, 3)

    def test_color_out_of_range(self):
        with pytest.raises(CliError, match="color 4 out of range"):
            parse_colored_token("4:3", 3, 10)

    def test_magnitude_out_of_range(self):
        with pytest.raises(CliError, match="magnitude 11 out of range"):
            parse_colored_token("0:11", 3, 10)

    def test_malformed_tokens(self):
        for bad in ("", "1", "1:", ":3", "a:b", "1:2:3", "-1:2", "²:1", "1:³"):
            with pytest.raises(CliError, match="malformed colored value"):
                parse_colored_token(bad, 3, 10)

    def test_error_carries_position(self):
        with pytest.raises(CliError, match="set token 2"):
            parse_set("0:1,9:2", 3, 10)
        with pytest.raises(CliError, match="permutation token 3"):
            parse_perm("0:2 0:1 4:3", 3, 3)

    def test_empty_set_literal(self):
        assert parse_set("empty", 3, 10) == PinSet(3, 10)

    def test_perm_needs_full_word(self):
        with pytest.raises(CliError, match="expected degree"):
            parse_perm("0:1 0:2", 2, 3)
        with pytest.raises(CliError, match="repeated"):
            parse_perm("0:1 0:1 0:2", 2, 3)

    def test_token_round_trip(self):
        P = PinSet(3, 10, ((1, 3), (0, 5), (0, 2)))
        assert parse_set(set_tokens(P), 3, 10) == P
        assert set_tokens(PinSet(3, 10)) == "empty"
        w = GenPerm.from_word(3, [(2, 3), (0, 1), (1, 2)])
        assert parse_perm(perm_tokens(w), 3, 3) == w


class TestCountCommand:
    def test_text_value(self, capsys):
        code, out, err = capture(capsys, ["count", "--m", "3", "--n", "10"])
        assert code == EXIT_OK and out == "14146\n" and err == ""

    def test_json_value_is_decimal_string(self, capsys):
        code, out, _ = capture(
            capsys, ["count", "--m", "2", "--n", "12", "--method", "all", "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["value"] == "18943"
        assert doc["params"] == {"m": 2, "p": 1, "n": 12, "d": 5}

    def test_subgroup_count(self, capsys):
        code, out, _ = capture(capsys, ["count", "--m", "4", "--p", "2", "--n", "6"])
        assert code == EXIT_OK and out == "217\n"
        code, out, _ = capture(capsys, ["count", "--m", "2", "--p", "2", "--n", "3"])
        assert code == EXIT_OK and out == "4\n"

    def test_validation_exit(self, capsys):
        code, _, err = capture(capsys, ["count", "--m", "2", "--n", "5", "--d", "9"])
        assert code == EXIT_USAGE and "d=9" in err

    def test_fault_injection_hits_cross_check_exit(self, capsys, monkeypatch):
        monkeypatch.setitem(counting.METHODS, "recursion-in-n", lambda m, n, d: -7)
        # the second argv is odd-maximal: both of its full counts take the routes
        for argv in (
            ["count", "--m", "2", "--n", "5", "--method", "all"],
            ["count", "--m", "4", "--p", "2", "--n", "7", "--method", "all"],
        ):
            code, out, err = capture(capsys, argv)
            assert code == EXIT_CROSSCHECK, argv
            assert out == "" and "mismatch" in err, argv

    def test_negative_count_hits_cross_check_exit(self, capsys, monkeypatch):
        # at m = 1 the degree recursion is the binomial C(n-1, d)
        monkeypatch.setattr(counting, "comb", lambda a, b: -3)
        code, out, err = capture(
            capsys, ["count", "--m", "1", "--n", "5", "--method", "recursion-in-n"]
        )
        assert code == EXIT_CROSSCHECK
        assert out == "" and "negative count -3" in err

    @pytest.mark.parametrize(
        "m, n, method",
        [(2, 600, "recursion-in-n"), (2, 600, "all"), (400, 5, "recursion-in-m")],
    )
    def test_deep_recursions_finish(self, capsys, m, n, method):
        code, out, err = capture(
            capsys, ["count", "--m", str(m), "--n", str(n), "--method", method]
        )
        expected = counting.count_closed_positive(m, n, admissible.max_pinnacles(n))
        assert code == EXIT_OK and out == f"{expected}\n" and err == ""

    def test_counts_print_in_full_at_any_size(self, capsys):
        # 10,789 digits, past CPython's default 4,300-digit cap on int-to-str conversion
        argv = ["count", "--m", "3", "--n", "20000"]
        outputs = {fmt: capture(capsys, argv + ["--format", fmt]) for fmt in ("text", "json", "csv")}
        cap = admissible.max_pinnacles(20000)
        value = str(counting.count_closed_positive(3, 20000, cap))
        assert len(value) == 10789
        for code, _, err in outputs.values():
            assert code == EXIT_OK and err == ""
        assert outputs["text"][1] == f"{value}\n"
        assert json.loads(outputs["json"][1])["value"] == value
        assert outputs["csv"][1] == f"m,p,n,d,value\n3,1,20000,9999,{value}\n"

    def test_budget_refusal_exit(self, capsys):
        # the refusal names the budget and the value that would pass, in the
        # words of --budget, not of the library's OracleBudget.max_order
        code, out, err = capture(
            capsys,
            ["count", "--m", "4", "--p", "2", "--n", "9", "--budget", "1000", "--method", "all"],
        )
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == ("error: G(2,2,9) has candidate slot test count 10080, exceeding the "
                       "budget 1000; raise the budget to at least 10080\n")

    def test_sweep_budget_refusal_exit(self, capsys):
        # the default route counts the sweep's estimated steps, 9 * 5^3 * 2^3 here
        code, out, err = capture(
            capsys, ["count", "--m", "4", "--p", "2", "--n", "9", "--budget", "1000"]
        )
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == ("error: G(2,2,9) has estimated sweep step count 9000, exceeding the "
                       "budget 1000; raise the budget to at least 9000\n")

    def test_lost_count_cross_check_exit(self, capsys, monkeypatch):
        from pinnacles import _setspace

        sweep = _setspace.lost
        monkeypatch.setattr(_setspace, "lost", lambda p, n: sweep(p, n) + 1)
        code, out, err = capture(capsys, ["count", "--m", "2", "--p", "2", "--n", "7"])
        assert (code, out, err) == (EXIT_OK, "191\n", "")
        code, out, err = capture(capsys, ["count", "--m", "2", "--p", "2", "--n", "7", "--method", "all"])
        assert (code, out) == (EXIT_CROSSCHECK, "")
        assert err == ("error: count mismatch at (m=2, n=7, d=3): "
                       "lost by sweep=18, lost by enumeration=17\n")

    def test_env_var_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, "10")
        code, _, err = capture(capsys, ["count", "--m", "2", "--p", "2", "--n", "5"])
        assert code == EXIT_BUDGET
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, "notanumber")
        code, _, err = capture(capsys, ["count", "--m", "2", "--p", "2", "--n", "5"])
        assert code == EXIT_USAGE
        # every count validates its budget, whether or not it needs a scan
        code, out, err = capture(capsys, ["count", "--m", "3", "--n", "10"])
        assert code == EXIT_USAGE and out == "" and "notanumber" in err
        monkeypatch.delenv(cli.BUDGET_ENV_VAR)
        for p in ("1", "3"):
            code, out, err = capture(
                capsys, ["count", "--m", "3", "--p", p, "--n", "10", "--budget", "0"]
            )
            assert code == EXIT_USAGE and out == "" and "budget caps must be positive" in err


class TestCheckCommand:
    def test_repeated_magnitude_message(self, capsys):
        code, out, _ = capture(
            capsys, ["check", "--m", "5", "--n", "7", "--set", "4:3,2:3,0:1"]
        )
        assert code == EXIT_OK
        assert out == "inadmissible: repeated magnitude 3\n"

    def test_admissible_prints_witness(self, capsys):
        code, out, _ = capture(
            capsys, ["check", "--m", "3", "--n", "10", "--set", "1:3,0:5,0:2"]
        )
        assert code == EXIT_OK
        assert out.startswith("admissible\nwitness: xi^2(10) xi^1(3)")

    def test_huge_modulus_answers(self, capsys):
        code, out, err = capture(capsys, ["check", "--m", "1200", "--n", "5", "--set", "0:3"])
        assert code == EXIT_OK and err == ""
        assert out.startswith("admissible")

    def test_json_reports_all_deciders(self, capsys):
        code, out, _ = capture(
            capsys,
            ["check", "--m", "2", "--n", "4", "--set", "0:1,0:2", "--format", "json"],
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["admissible"] is False
        assert doc["deciders"] == {"witness": False, "recursive": False, "top": False}

    def test_decider_disagreement_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(admissible, "is_admissible_rec", lambda P: True)
        code, out, err = capture(
            capsys, ["check", "--m", "5", "--n", "7", "--set", "4:3,2:3,0:1"]
        )
        assert code == EXIT_CROSSCHECK and "disagreement" in err


class TestWitnessCommand:
    def test_text(self, capsys):
        code, out, _ = capture(
            capsys, ["witness", "--m", "5", "--n", "5", "--set", "4:3,3:2"]
        )
        assert code == EXIT_OK
        assert out == "xi^4(5) xi^4(3) xi^4(4) xi^3(2) xi^4(1)\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = capture(
            capsys,
            ["witness", "--m", "3", "--n", "10", "--set", "1:3,0:5,0:2", "--format", "json"],
        )
        doc = json.loads(out)
        assert code == EXIT_OK and doc["realizes"] is True
        w = parse_perm(doc["witness"], 3, 10)
        assert parse_set(doc["set"], 3, 10) == PinSet(3, 10, ((1, 3), (0, 5), (0, 2)))
        from pinnacles.wreath import pinnacle_set

        assert pinnacle_set(w) == PinSet(3, 10, ((1, 3), (0, 5), (0, 2)))

    def test_structural_violation_is_usage_error(self, capsys):
        code, _, err = capture(
            capsys, ["witness", "--m", "5", "--n", "7", "--set", "4:3,2:3"]
        )
        assert code == EXIT_USAGE and "repeated magnitude" in err


class TestPinnaclesCommand:
    def test_text_report(self, capsys):
        code, out, _ = capture(
            capsys,
            ["pinnacles", "--m", "2", "--p", "2", "--n", "5", "--perm", "1:5 0:4 1:3 0:2 1:1"],
        )
        assert code == EXIT_OK
        assert "pinnacles: {xi^0(4), xi^0(2)}" in out
        assert "peaks: 4, 2" in out
        assert "color sum: 3" in out
        assert "in G(2,2,5): no" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = capture(
            capsys,
            ["pinnacles", "--m", "3", "--n", "3", "--perm", "2:3 0:1 1:2", "--format", "json"],
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert parse_perm(doc["perm"], 3, 3) == GenPerm.from_word(3, [(2, 3), (0, 1), (1, 2)])
        assert doc["peaks"] == [2]
        assert parse_set(doc["pinnacles"], 3, 3) == PinSet(3, 3, ((0, 1),))


class TestTableCommand:
    def test_csv_schema_and_known_cells(self, capsys):
        code, out, _ = capture(
            capsys, ["table", "--m", "1..4", "--n", "3..6", "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "m,n,count"
        cells = {(int(m), int(n)): int(v) for m, n, v in (line.split(",") for line in lines[1:])}
        assert cells[(2, 5)] == 31 and cells[(4, 6)] == 217 and cells[(1, 3)] == 2
        assert len(cells) == 16

    def test_byte_identical_runs(self, capsys, tmp_path):
        argv = ["table", "--m", "1..10", "--n", "3..12", "--format", "csv"]
        _, first, _ = capture(capsys, argv)
        _, second, _ = capture(capsys, argv)
        assert first == second and first.endswith("\n")
        target = tmp_path / "table.csv"
        assert run(argv + ["--output", str(target)]) == EXIT_OK
        assert target.read_text() == first

    def test_single_cell_and_bad_range(self, capsys):
        code, out, _ = capture(capsys, ["table", "--m", "8", "--n", "3", "--format", "csv"])
        assert code == EXIT_OK and out == "m,n,count\n8,3,23\n"
        code, _, err = capture(capsys, ["table", "--m", "4..2", "--n", "3"])
        assert code == EXIT_USAGE and "range" in err

    def test_degree_one_refused_before_any_output(self, capsys):
        code, out, err = capture(capsys, ["table", "--m", "1..3", "--n", "1..4"])
        assert code == EXIT_USAGE and out == "" and "n >= 2" in err

    def test_text_grid_deterministic(self, capsys):
        _, one, _ = capture(capsys, ["table", "--m", "1..3", "--n", "3..5"])
        _, two, _ = capture(capsys, ["table", "--m", "1..3", "--n", "3..5"])
        assert one == two
        assert one.splitlines()[1].split()[-1] == "6"  # m=1, n=5


class TestOracleCommand:
    def test_json_report_round_trips(self, capsys):
        code, out, _ = capture(
            capsys, ["oracle", "--m", "2", "--p", "2", "--n", "3", "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["scanned"] == 24 and doc["total_admissible"] == 4
        for entry in doc["sets"]:
            P = parse_set(entry["set"], 2, 3)
            assert len(P) == entry["cardinality"]

    def test_diff_agrees(self, capsys):
        code, _, err = capture(capsys, ["oracle", "--m", "3", "--p", "1", "--n", "5", "--diff"])
        assert code == EXIT_OK and err == ""

    def test_diff_mismatch_reports_then_fails(self, capsys, monkeypatch):
        argv = ["oracle", "--m", "2", "--n", "5", "--format", "csv"]
        _, report, _ = capture(capsys, argv)
        count_complex = counting.count_complex
        expected = count_complex(GroupParams(2, 1, 5), 1)

        def off_by_one_at_1(params, d=None, *args, **kwargs):
            return count_complex(params, d, *args, **kwargs) + (d == 1)

        monkeypatch.setattr(counting, "count_complex", off_by_one_at_1)
        code, out, err = capture(capsys, argv + ["--diff"])
        assert code == EXIT_CROSSCHECK and out == report
        assert err == (
            f"error: oracle/formula mismatch at d=1: formulas say {expected + 1}, "
            f"scan found {expected}\n"
        )

    def test_parallel_flag(self, capsys):
        argv = ["oracle", "--m", "2", "--n", "4", "--format", "csv"]
        _, serial, _ = capture(capsys, argv)
        _, parallel, _ = capture(capsys, argv + ["--parallel"])
        assert serial == parallel

    def test_partitions_option_is_gone(self, capsys):
        # the part count of a parallel scan comes from the CPU count alone
        code, out, err = capture(capsys, ["oracle", "--m", "2", "--n", "4", "--partitions", "4"])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: unrecognized arguments: --partitions 4\n"

    def test_parallel_alone_partitions_by_cpu_count(self, capsys, monkeypatch):
        partitions = []
        collect = oracle.collect_pinnacle_sets

        def recording(params, budget=None, *args, **kwargs):
            partitions.append(budget.partitions)
            return collect(params, budget, *args, **kwargs)

        monkeypatch.setattr(oracle, "collect_pinnacle_sets", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        argv = ["oracle", "--m", "2", "--n", "4", "--format", "csv"]
        _, serial, _ = capture(capsys, argv)
        code, parallel, err = capture(capsys, argv + ["--parallel"])
        assert code == EXIT_OK and err == "" and parallel == serial
        # an odd-maximal count does not scan
        assert capture(capsys, ["count", "--m", "4", "--p", "2", "--n", "5"])[0] == EXIT_OK
        assert partitions == [1, 3]

    def test_diff_scans_the_group_once(self, capsys, monkeypatch):
        scanned = []
        collect = oracle.collect_pinnacle_sets

        def recording(params, *args, **kwargs):
            scanned.append(params)
            return collect(params, *args, **kwargs)

        monkeypatch.setattr(oracle, "collect_pinnacle_sets", recording)
        code, _, err = capture(capsys, ["oracle", "--m", "3", "--p", "3", "--n", "5", "--diff"])
        assert code == EXIT_OK and err == ""
        assert scanned == [GroupParams(3, 3, 5)]

    def test_budget_exit(self, capsys):
        code, out, err = capture(
            capsys, ["oracle", "--m", "3", "--n", "7", "--budget", "100"]
        )
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == ("error: G(3,1,7) has order 11022480, exceeding the budget 100; "
                       "raise the budget to at least 11022480\n")


class TestShiftCommand:
    def test_set_shift(self, capsys):
        code, out, _ = capture(
            capsys,
            ["shift", "--m", "5", "--n", "5", "--k", "3", "--set", "4:3,3:2", "--format", "json"],
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["params"]["target_modulus"] == 8
        assert parse_set(doc["result"], 8, 5) == PinSet(8, 5, ((7, 3), (6, 2)))

    def test_perm_shift_text(self, capsys):
        code, out, _ = capture(
            capsys,
            ["shift", "--m", "5", "--n", "5", "--k", "3", "--perm", "4:5 4:3 4:4 3:2 4:1"],
        )
        assert code == EXIT_OK
        assert out == "xi^7(5) xi^7(3) xi^7(4) xi^6(2) xi^7(1)\n"

    def test_needs_exactly_one_payload(self, capsys):
        code, _, err = capture(capsys, ["shift", "--m", "2", "--n", "3", "--k", "1"])
        assert code == EXIT_USAGE and "exactly one" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = capture(capsys, ["frobnicate"])
        assert code == EXIT_USAGE and err
        # csv is offered only by the commands that print rows
        for argv in (
            ["check", "--m", "3", "--n", "10", "--set", "1:3,0:5,0:2"],
            ["witness", "--m", "3", "--n", "10", "--set", "1:3"],
            ["pinnacles", "--m", "2", "--n", "3", "--perm", "0:1 0:3 0:2"],
            ["shift", "--m", "2", "--n", "3", "--k", "1", "--set", "0:1"],
        ):
            code, out, err = capture(capsys, argv + ["--format", "csv"])
            assert code == EXIT_USAGE and out == ""
            assert "invalid choice: 'csv'" in err

    def test_missing_required(self, capsys):
        code, _, err = capture(capsys, ["count", "--m", "3"])
        assert code == EXIT_USAGE

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        for target, reason in (
            (tmp_path, "Is a directory"),
            (tmp_path / "missing" / "x.csv", "No such file or directory"),
        ):
            code, out, err = capture(
                capsys, ["oracle", "--m", "2", "--n", "3", "--output", str(target)]
            )
            assert code == EXIT_USAGE and out == ""
            assert err == f"error: cannot write {target}: {reason}\n"

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "pinnacles", "count", "--m", "3", "--n", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "14146\n"
        proc = subprocess.run(
            [sys.executable, "-m", "pinnacles", "count", "--m", "3", "--n", "99", "--d", "99"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_refusal_far_past_the_budget_is_quick_and_short(self):
        # neither the group order nor the slot-test count is computed in full:
        # the refusal stops once the product is 2**64 times past the budget
        import subprocess
        import sys

        for argv, line in (
            (["oracle", "--m", "2", "--n", "1000000"],
             "G(2,1,1000000) has order at least 2**88, far past the budget 10000000"),
            (["count", "--m", "2", "--p", "2", "--n", "200001", "--budget", "10", "--method", "all"],
             "G(2,2,200001) has candidate slot test count at least 2**82, far past the budget 10"),
            (["count", "--m", "2", "--p", "2", "--n", "200001", "--budget", "10"],
             "G(2,2,200001) has estimated sweep step count at least 2**67, far past the budget 10"),
        ):
            proc = subprocess.run([sys.executable, "-m", "pinnacles", *argv],
                                  capture_output=True, text=True, timeout=20)
            assert (proc.returncode, proc.stdout) == (EXIT_BUDGET, "")
            assert proc.stderr == f"error: {line}\n"

    def test_help_shows_usage_not_internals(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.run(["--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert "Exit codes" in out and "3 budget refusal" in out and "Grammar:" in out
        assert "_emit" not in out and "Handlers" not in out

    def test_closed_stdout_pipe_is_one_error_line(self):
        import os
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes a byte
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pinnacles", "table", "--m", "1..60", "--n", "3..400"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_only_scans_load_numpy(self):
        # each command, as its own process, loads only the package modules it
        # runs; the set-space engine only with an odd-maximal count, numpy only
        # with a scan above the walk bound (G(2,1,4) has 1,536 colored values,
        # G(2,1,6) 276,480), the process pool with none of these, and
        # dataclasses and inspect with none, unless a bare interpreter (site, a
        # .pth file) or, for a scan, numpy's own import already loads them
        import subprocess
        import sys

        def importtime(*args):
            proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                                  capture_output=True, text=True)
            # -X importtime logs each module it loads on stderr as "import time: ... | name"
            log = proc.stderr.splitlines(keepends=True)
            loaded = {line.rsplit("|", 1)[1].strip() for line in log
                      if line.startswith("import time:")}
            err = "".join(line for line in log if not line.startswith("import time:"))
            return proc.returncode, err, loaded

        _, bare_err, bare = importtime("-c", "pass")
        _, numpy_err, with_numpy = importtime("-c", "import numpy")
        assert bare_err == numpy_err == ""
        base = ["pinnacles.cli", "pinnacles.wreath"]
        decide = [*base, "pinnacles.admissible"]
        count = [*decide, "pinnacles.counting", "pinnacles.oracle"]
        expected = {
            ("count", "--m", "3", "--n", "10"): count,
            ("count", "--m", "4", "--p", "2", "--n", "7"): [*count, "pinnacles._setspace"],
            ("check", "--m", "3", "--n", "10", "--set", "1:3,0:5,0:2"): decide,
            ("witness", "--m", "3", "--n", "10", "--set", "1:3"): decide,
            ("pinnacles", "--m", "2", "--n", "3", "--perm", "0:1 0:3 0:2"): base,
            ("shift", "--m", "2", "--n", "3", "--k", "1", "--set", "0:1"):
                [*base, "pinnacles.shifts"],
            ("table", "--m", "1..3", "--n", "3..5"): [*decide, "pinnacles.counting"],
            ("oracle", "--m", "2", "--n", "4"): [*decide, "pinnacles.oracle"],
            ("oracle", "--m", "2", "--n", "6"):
                [*decide, "pinnacles.oracle", "pinnacles._vectorized", "numpy"],
        }
        for argv, modules in expected.items():
            code, err, loaded = importtime("-m", "pinnacles", *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            got = [mod for mod in loaded
                   if mod.startswith("pinnacles.") or mod in ("numpy", "concurrent.futures")]
            assert sorted(got) == sorted(modules), argv
            baseline = with_numpy if "numpy" in modules else bare
            assert not {"dataclasses", "inspect"} & (loaded - baseline), argv

    def test_no_command_without_a_scan_imports_typing(self):
        # annotations are never evaluated, so typing is for type checkers only;
        # -S keeps site, and any .pth file it runs, from importing typing first
        import os
        import subprocess
        import sys

        import pinnacles

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pinnacles.__file__))}
        for argv in [
            ("count", "--m", "4", "--p", "2", "--n", "7"),
            ("check", "--m", "3", "--n", "10", "--set", "1:3,0:5,0:2"),
            ("witness", "--m", "3", "--n", "10", "--set", "1:3"),
            ("pinnacles", "--m", "2", "--n", "3", "--perm", "0:1 0:3 0:2"),
            ("shift", "--m", "2", "--n", "3", "--k", "1", "--set", "0:1"),
            ("table", "--m", "1..3", "--n", "3..5"),
        ]:
            proc = subprocess.run(
                [sys.executable, "-S", "-X", "importtime", "-m", "pinnacles", *argv],
                capture_output=True, text=True, env=env,
            )
            loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                      if line.startswith("import time:")}
            assert proc.returncode == EXIT_OK and "pinnacles.cli" in loaded, argv
            assert "typing" not in loaded, argv

    def test_missing_numpy_is_one_error_line(self, capsys):
        # only the vectorized engine imports numpy: without it, a scan that
        # auto sends there (above the walk bound) is one error line at exit 1,
        # and walk scans, small groups included, and every other command
        # print what they print with numpy
        import subprocess
        import sys

        script = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # as if numpy were not installed
from pinnacles import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""
        scans = [
            ["oracle", "--m", "2", "--n", "6"],
            ["oracle", "--m", "2", "--n", "6", "--parallel"],
            ["oracle", "--m", "6", "--p", "3", "--n", "4", "--diff", "--format", "json"],
        ]
        others = [
            ["oracle", "--m", "2", "--n", "4"],
            ["oracle", "--m", "2", "--n", "4", "--parallel"],
            ["oracle", "--m", "6", "--p", "3", "--n", "3", "--diff", "--format", "json"],
            ["oracle", "--m", "19", "--n", "3"],
            ["count", "--m", "3", "--n", "10"],
            ["count", "--m", "4", "--p", "2", "--n", "7"],
            ["check", "--m", "3", "--n", "10", "--set", "1:3,0:5,0:2"],
            ["witness", "--m", "3", "--n", "10", "--set", "1:3"],
            ["pinnacles", "--m", "2", "--n", "3", "--perm", "0:1 0:3 0:2"],
            ["table", "--m", "1..3", "--n", "3..5", "--format", "csv"],
            ["shift", "--m", "2", "--n", "3", "--k", "1", "--set", "0:1"],
        ]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(scans + others)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        line = "error: numpy is needed for this scan but cannot be imported\n"
        assert runs[:len(scans)] == [[EXIT_USAGE, "", line]] * len(scans)
        for argv, got in zip(others, runs[len(scans):]):
            assert got == list(capture(capsys, argv)), argv


# a bounded grammar over every subcommand: numbers in -2..7 (half of them from
# 1..7, so that many argvs get as far as the output), malformed tokens, bad
# formats and unwritable outputs, but no --parallel (no process pools)
NUMBER = st.one_of(
    st.integers(1, 7).map(str), st.sampled_from([str(i) for i in range(-2, 8)] + ["", "x", "2.5"])
)
RANGE = st.one_of(NUMBER, st.builds("{}..{}".format, NUMBER, NUMBER))
TOKEN = st.one_of(
    st.builds("{}:{}".format, NUMBER, NUMBER), st.sampled_from(["1", "1:2:3", "a"]),
)
SET = st.one_of(st.just("empty"), st.lists(TOKEN, max_size=4).map(",".join))
PERM = st.lists(TOKEN, max_size=8).map(" ".join)
SUBCOMMANDS = {
    # name: (required options, optional options)
    "count": ({"--m": NUMBER, "--n": NUMBER},
              {"--p": NUMBER, "--d": NUMBER, "--budget": NUMBER,
               "--method": st.sampled_from(counting.METHOD_CHOICES + ("bogus",))}),
    "check": ({"--m": NUMBER, "--n": NUMBER, "--set": SET}, {}),
    "witness": ({"--m": NUMBER, "--n": NUMBER, "--set": SET}, {}),
    "pinnacles": ({"--m": NUMBER, "--n": NUMBER, "--perm": PERM}, {"--p": NUMBER}),
    "table": ({"--m": RANGE, "--n": RANGE}, {}),
    "oracle": ({"--m": NUMBER, "--n": NUMBER},
               {"--p": NUMBER, "--budget": NUMBER, "--diff": None}),
    "shift": ({"--m": NUMBER, "--n": NUMBER, "--k": NUMBER}, {"--set": SET, "--perm": PERM}),
}


def _word(draw, m: str, n: str) -> str:
    # a valid word w(n)..w(1) when the drawn modulus and degree allow one
    if not (m.isdigit() and n.isdigit() and int(m) > 0 and int(n) > 0):
        return draw(PERM)
    mags = draw(st.permutations(range(1, int(n) + 1)))
    return " ".join(f"{draw(st.integers(0, int(m) - 1))}:{x}" for x in mags)


@st.composite
def cli_argv(draw, outputs):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    required, optional = SUBCOMMANDS[name]
    flags = [*required.items(), *[item for item in optional.items() if draw(st.booleans())]]
    argv = [name]
    for flag, values in flags:
        if values is None:
            argv.append(flag)
        elif values is PERM and draw(st.booleans()):
            argv += [flag, _word(draw, argv[2], argv[4])]
        else:
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "yaml"]))]
    output = draw(st.sampled_from([None, *outputs]))
    if output is not None:
        argv += ["--output", output]
    return argv


class TestFuzz:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_input_escapes_the_exit_codes(self, capsys, monkeypatch, tmp_path, data):
        monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
        outputs = [str(tmp_path / "out.txt"), str(tmp_path), str(tmp_path / "missing" / "x")]
        argv = data.draw(cli_argv(outputs))
        code, _, err = capture(capsys, argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_CROSSCHECK, EXIT_BUDGET)
        if code == EXIT_OK:
            assert err == ""
