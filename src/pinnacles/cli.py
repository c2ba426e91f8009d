"""Command-line front end.

Data goes to stdout (or ``--output``), diagnostics to stderr.  Exit codes:
0 success, 1 validation or usage error, 2 internal cross-check mismatch or
negative count, 3 budget refusal.

Grammar: a colored value is ``COLOR:MAGNITUDE`` with decimal integers; a set
is a comma-separated list of those or the literal ``empty``; a permutation is
a whitespace-separated list, written from position n down to 1.  Text output
renders colored values as ``xi^a(x)``; json and csv carry the token grammar,
and every emitted token string reparses to an equal value.  Only count, table
and oracle, which print rows, offer csv.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import wreath

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from . import oracle

# Handlers compute a record; ``_emit`` is the one output path (the only reader
# of ``--format`` and ``--output``) and ``run`` the one place that picks the
# exit code and writes to stderr.  Each handler imports the modules it calls,
# and the parser gives arguments only to the command named, so a process
# loads only what its command runs.

BUDGET_ENV_VAR = "PINNACLES_ORACLE_BUDGET"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CROSSCHECK = 2
EXIT_BUDGET = 3


class CliError(Exception):
    """Input rejected before dispatch; maps to exit code 1."""


class CrossCheckFailure(Exception):
    """Two independent routes inside a command disagree; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for cross-checks
        raise CliError(message)


def parse_colored_token(text: str, m: int, n: int, where: str = "token") -> wreath.ColoredValue:
    """Parse one COLOR:MAGNITUDE token, range-checked against the ambient (m, n)."""
    parts = text.split(":")
    if len(parts) != 2 or not all(part.isdecimal() for part in parts):
        raise CliError(f"{where}: malformed colored value {text!r}, expected COLOR:MAGNITUDE")
    cv = wreath.ColoredValue(int(parts[0]), int(parts[1]))
    try:
        wreath.check_value(cv, m, n)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from None
    return cv


def parse_set(text: str, m: int, n: int) -> wreath.PinSet:
    """Parse a comma-separated set of colored tokens, or the literal ``empty``."""
    text = text.strip()
    if text == "empty":
        return wreath.PinSet(m, n)
    values = [
        parse_colored_token(tok.strip(), m, n, where=f"set token {i}")
        for i, tok in enumerate(text.split(","), start=1)
    ]
    return wreath.PinSet(m, n, tuple(values))


def parse_perm(text: str, m: int, n: int) -> wreath.GenPerm:
    """Parse a whitespace-separated word w(n) ... w(1) of colored tokens."""
    tokens = text.split()
    if len(tokens) != n:
        raise CliError(f"permutation has {len(tokens)} entries, expected degree {n}")
    word = [
        parse_colored_token(tok, m, n, where=f"permutation token {i}")
        for i, tok in enumerate(tokens, start=1)
    ]
    try:
        return wreath.GenPerm.from_word(m, word)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def set_tokens(P: wreath.PinSet) -> str:
    if not P.elements:
        return "empty"
    return ",".join(f"{cv.color}:{cv.magnitude}" for cv in P.elements)


def perm_tokens(w: wreath.GenPerm) -> str:
    return " ".join(f"{cv.color}:{cv.magnitude}" for cv in w.word)


def _parse_range(text: str, what: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            start, stop = int(lo), int(hi)
        else:
            start = stop = int(text)
    except ValueError:
        raise CliError(f"bad {what} range {text!r}, expected INT or LO..HI") from None
    if start < 1 or stop < start:
        raise CliError(f"bad {what} range {text!r}")
    return range(start, stop + 1)


def _budget_from(args) -> oracle.OracleBudget:
    from . import oracle
    max_order = getattr(args, "budget", None)
    if max_order is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is not None:
            try:
                max_order = int(raw)
            except ValueError:
                raise CliError(f"{BUDGET_ENV_VAR}={raw!r} is not an integer") from None
    if max_order is None:
        max_order = oracle.DEFAULT_MAX_ORDER
    # only a parallel scan splits, one partition per CPU
    partitions = (os.cpu_count() or 1) if getattr(args, "parallel", False) else 1
    return oracle.OracleBudget(max_order=max_order, partitions=partitions)


def _emit(args, doc: dict, text: str, csv: str | None = None) -> None:
    """Render one record in the chosen ``--format`` and write it to stdout or ``--output``."""
    if args.format == "json":
        import json
        data = json.dumps(doc, sort_keys=True) + "\n"
    elif args.format == "csv":
        data = csv
    else:
        data = text
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(data)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.write(data)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
            raise CliError(f"cannot write stdout: {exc.strerror}") from None


def _cmd_count(args) -> None:
    from . import admissible, counting
    params = wreath.GroupParams(args.m, args.p, args.n)
    value = str(counting.count_complex(params, args.d, args.method, budget=_budget_from(args)))
    d = admissible.max_pinnacles(args.n) if args.d is None else args.d
    doc = {
        "params": {"m": args.m, "p": args.p, "n": args.n, "d": d},
        "method": args.method,
        "value": value,
    }
    _emit(args, doc, f"{value}\n", f"m,p,n,d,value\n{args.m},{args.p},{args.n},{d},{value}\n")


def _cmd_check(args) -> None:
    from . import admissible
    P = parse_set(args.set, args.m, args.n)
    result = admissible.admissibility(P)
    rec = admissible.is_admissible_rec(P)
    top = admissible.is_admissible_top(P)
    if not result.admissible == rec == top:
        raise CrossCheckFailure(
            f"decider disagreement on {set_tokens(P)}: "
            f"witness={result.admissible} recursive={rec} top={top}"
        )
    doc = {
        "params": {"m": args.m, "n": args.n},
        "set": set_tokens(P),
        "admissible": result.admissible,
        "reason": result.reason,
        "witness": perm_tokens(result.witness) if result.witness else None,
        "deciders": {"witness": result.admissible, "recursive": rec, "top": top},
    }
    if result.admissible:
        text = f"admissible\nwitness: {result.witness}\n"
    else:
        text = f"inadmissible: {result.reason}\n"
    _emit(args, doc, text)


def _cmd_witness(args) -> None:
    from . import admissible
    P = parse_set(args.set, args.m, args.n)
    w = admissible.canonical_witness(P)
    doc = {
        "params": {"m": args.m, "n": args.n},
        "set": set_tokens(P),
        "witness": perm_tokens(w),
        "realizes": wreath.pinnacle_set(w) == P,
    }
    _emit(args, doc, f"{w}\n")


def _cmd_pinnacles(args) -> None:
    w = parse_perm(args.perm, args.m, args.n)
    params = wreath.GroupParams(args.m, args.p, args.n)
    pins = wreath.pinnacle_set(w)
    peak_positions = sorted(wreath.peaks(w), reverse=True)
    eps = wreath.color_sum(w)
    member = wreath.in_subgroup(w, params)
    doc = {
        "params": {"m": args.m, "p": args.p, "n": args.n},
        "perm": perm_tokens(w),
        "pinnacles": set_tokens(pins),
        "peaks": peak_positions,
        "color_sum": eps,
        "in_subgroup": member,
    }
    _emit(args, doc, (
        f"pinnacles: {pins}\n"
        f"peaks: {', '.join(map(str, peak_positions)) if peak_positions else 'none'}\n"
        f"color sum: {eps}\n"
        f"in {params}: {'yes' if member else 'no'}\n"
    ))


def _cmd_table(args) -> None:
    from . import counting
    ms = _parse_range(args.m, "m")
    ns = _parse_range(args.n, "n")
    cells = [(m, n, str(counting.count_total(m, n, args.method))) for m in ms for n in ns]
    doc = {
        "method": args.method,
        "rows": [{"m": m, "n": n, "count": v} for m, n, v in cells],
    }
    csv = ["m,n,count"] + [f"{m},{n},{v}" for m, n, v in cells]
    grid = [["m\\n", *map(str, ns)]]
    grid += [[f"m={m}", *(v for _, _, v in cells[i:i + len(ns)])]
             for m, i in zip(ms, range(0, len(cells), len(ns)))]
    width = max(len(entry) for row in grid for entry in row)
    text = [" ".join(f"{entry:>{width}}" for entry in row) for row in grid]
    _emit(args, doc, "\n".join(text) + "\n", "\n".join(csv) + "\n")


def _cmd_oracle(args) -> None:
    from . import admissible, oracle
    if args.diff:  # before the scan: compiled on the heap the scan grew, it raised the peak RSS
        from . import counting
    params = wreath.GroupParams(args.m, args.p, args.n)
    budget = _budget_from(args)
    report = oracle.collect_pinnacle_sets(params, budget=budget, parallel=args.parallel)
    mismatches = []
    if args.diff:
        for d in range(admissible.max_pinnacles(args.n) + 1):
            expected = counting.count_complex(params, d, budget=budget)
            got = report.count_up_to(d)
            if expected != got:
                mismatches.append(
                    f"oracle/formula mismatch at d={d}: formulas say {expected}, scan found {got}"
                )
    rows = [(set_tokens(P), len(P), stats.witness_count, stats.eps_min, stats.eps_max)
            for P, stats in report.stats.items()]
    by_cardinality = Counter(str(len(P)) for P in report.stats)
    doc = {
        "params": {"m": args.m, "p": args.p, "n": args.n},
        "scanned": report.scanned,
        "total_admissible": report.total_admissible,
        "by_cardinality": by_cardinality,
        "sets": [
            {"set": s, "cardinality": d, "witnesses": w, "eps_min": lo, "eps_max": hi}
            for s, d, w, lo, hi in rows
        ],
    }
    csv = ["set,cardinality,witnesses,eps_min,eps_max"]
    csv += [f"\"{s}\",{d},{w},{lo},{hi}" for s, d, w, lo, hi in rows]
    text = [
        f"{params}: scanned {report.scanned} elements, "
        f"{report.total_admissible} admissible pinnacle sets"
    ]
    text += [f"cardinality {d}: {size} sets" for d, size in by_cardinality.items()]
    text += [f"  {s}  witnesses={w}  eps=[{lo},{hi}]" for s, d, w, lo, hi in rows]
    _emit(args, doc, "\n".join(text) + "\n", "\n".join(csv) + "\n")
    if mismatches:  # raised after the report is written, so the report shows what disagreed
        raise CrossCheckFailure("\n".join(mismatches))


def _cmd_shift(args) -> None:
    from . import shifts
    if (args.set is None) == (args.perm is None):
        raise CliError("shift needs exactly one of --set or --perm")
    params = shifts.ShiftParams(args.m, args.k, args.n)
    if args.set is not None:
        shifted = shifts.shift_set(parse_set(args.set, args.m, args.n), params)
        tokens = set_tokens(shifted)
    else:
        shifted = shifts.shift_perm(parse_perm(args.perm, args.m, args.n), params)
        tokens = perm_tokens(shifted)
    doc = {
        "params": {"m": args.m, "k": args.k, "n": args.n,
                   "target_modulus": params.target_modulus},
        "result": tokens,
    }
    _emit(args, doc, f"{shifted}\n")


def _add_common(sub, *, p: bool = False, d: bool = False, budget: str | None = None):
    sub.add_argument("--m", type=int, required=True, help="modulus m")
    sub.add_argument("--n", type=int, required=True, help="degree n")
    if p:
        sub.add_argument("--p", type=int, default=1, help="subgroup divisor p (default 1)")
    if d:
        sub.add_argument("--d", type=int, default=None,
                         help="cardinality cap d (default floor((n-1)/2))")
    if budget:
        from . import oracle
        sub.add_argument("--budget", type=int, default=None,
                         help=f"{budget} (default {BUDGET_ENV_VAR} or "
                              f"{oracle.DEFAULT_MAX_ORDER})")
    # the commands with a budget (count, oracle) print rows, so they offer csv
    formats = ("text", "json", "csv") if budget else ("text", "json")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--output", default=None, help="write data here instead of stdout")


def _count_arguments(sub) -> None:
    from . import counting
    _add_common(sub, p=True, d=True, budget="cap on the estimated sweep steps, "
                "n*(r+1)^3*p^min(r,3), of a count at odd n = 2r+1 and d = r; with "
                "--method all, on its C(n,r)*p^r*(r+1) candidate slot tests")
    sub.add_argument("--method", choices=counting.METHOD_CHOICES, default=counting.DEFAULT_METHOD)


def _check_arguments(sub) -> None:
    _add_common(sub)
    sub.add_argument("--set", required=True, help='e.g. "1:3,0:5,0:2" or "empty"')


def _witness_arguments(sub) -> None:
    _add_common(sub)
    sub.add_argument("--set", required=True)


def _pinnacles_arguments(sub) -> None:
    _add_common(sub, p=True)
    sub.add_argument("--perm", required=True, help='word w(n)..w(1), e.g. "1:5 0:4 1:3 0:2 1:1"')


def _table_arguments(sub) -> None:
    from . import counting
    sub.add_argument("--m", required=True, help="m range, INT or LO..HI")
    sub.add_argument("--n", required=True, help="n range, INT or LO..HI")
    sub.add_argument("--method", choices=counting.METHOD_CHOICES, default=counting.DEFAULT_METHOD)
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output", default=None)


def _oracle_arguments(sub) -> None:
    _add_common(sub, p=True, budget="oracle group-order cap")
    sub.add_argument("--diff", action="store_true",
                     help="compare scan counts against the formulas")
    sub.add_argument("--parallel", action="store_true",
                     help="split the scan over one process per CPU")


def _shift_arguments(sub) -> None:
    _add_common(sub)
    sub.add_argument("--k", type=int, required=True, help="shift amount k >= 0")
    sub.add_argument("--set", default=None)
    sub.add_argument("--perm", default=None)


# each command: its help line, what adds its arguments, and its handler, in help order
_COMMANDS = {
    "count": ("count admissible pinnacle sets", _count_arguments, _cmd_count),
    "check": ("decide admissibility of a set", _check_arguments, _cmd_check),
    "witness": ("canonical witness of a set", _witness_arguments, _cmd_witness),
    "pinnacles": ("pinnacles, peaks, color sum of a permutation", _pinnacles_arguments,
                  _cmd_pinnacles),
    "table": ("grid of total counts over m and n ranges", _table_arguments, _cmd_table),
    "oracle": ("exhaustive scan of G(m,p,n)", _oracle_arguments, _cmd_oracle),
    "shift": ("apply the color-shift embedding", _shift_arguments, _cmd_shift),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser; only the commands ``argv`` names get their arguments, all when it names none.

    argparse dispatches only to a command that argv names.  Building the other
    commands' arguments would load modules that the command never runs.
    """
    parser = _Parser(prog="pinnacles", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    named = _COMMANDS.keys() & set(argv or ())
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_line)
        if not named or name in named:
            add_arguments(sub)
        sub.set_defaults(handler=handler)
    return parser


def _loaded(module: str, *names: str) -> tuple[type, ...]:
    # a package module's named exception types, none if it never ran and so cannot raise
    loaded = sys.modules.get(f"{__package__}.{module}")
    return tuple(getattr(loaded, name) for name in names) if loaded else ()


def run(argv: list[str]) -> int:
    """Parse and dispatch; the one place that turns an outcome into the exit code."""
    if hasattr(sys, "set_int_max_str_digits"):  # counts are exact, so print every digit
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser(argv).parse_args(argv)
        args.handler(args)
        return EXIT_OK
    except (CrossCheckFailure, *_loaded("counting", "CrossCheckMismatch", "NegativeCount")) as exc:
        error, code = exc, EXIT_CROSSCHECK
    except _loaded("oracle", "BudgetExceeded") as exc:
        error, code = exc, EXIT_BUDGET
    except (CliError, ValueError) as exc:
        error, code = exc, EXIT_USAGE
    except ModuleNotFoundError as exc:  # numpy, which only the vectorized engine imports
        error, code = f"{exc.name} is needed for this scan but cannot be imported", EXIT_USAGE
    print(f"error: {error}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
