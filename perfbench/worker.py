"""One benchmark process: set up a workload, run whole rounds of it, report as JSON.

``run.py`` starts this file in a fresh interpreter for every measurement, with
``src`` on PYTHONPATH and the BLAS pools pinned to one thread.  The last line
of stdout is one JSON object.  Modes:

    worker.py --workload W --seed N --seconds S [--trace] [--min-rounds R] [--tiny]
    worker.py --workload W --seed N --setup-only     # set up, report when ready, exit
    worker.py --rss-probe G4_4_7                     # scan one group, report peak RSS

Set-up ends, and the ``ready`` clock reading is taken, just before the first
timed operation.  Each operation is timed alone (wall and CPU of this
process and its children); output checks run after the timer stops.  A
calibration (fixed work that does not touch the program) is timed before
every operation and after set-up; reported times are scaled by it to the
machine's nominal speed, see ``calibrated``.  With
``--trace`` every operation is also kept as a span (name, round, start, end,
work items) in memory, written to ``perfbench/out`` at the end, and folded
into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# a run holds at least this many operations, so that its p90 has ten samples beyond it
MIN_OPS = 100
# the calibration's median time on the reference machine of the README, in seconds:
# in this process, and as a child process
CAL_NOMINAL_S = {False: 0.0037, True: 0.056}
# an operation is scaled by the median of the calibrations of the 2 * CAL_HALF_WINDOW + 1
# operations around it, so that one slow calibration does not move it
CAL_HALF_WINDOW = 4
SETUP_CALS = 5
_cal_input = None


def clock() -> float:
    """CLOCK_MONOTONIC is shared by all processes, so run.py can subtract its own reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibration_seconds(in_child: bool) -> float:
    """Time of fixed work of the kind the operations do, that never calls the program.

    On a shared virtual machine the speed drifts by 20-35 % over tens of seconds,
    pure-Python code most (see the README); the calibration drifts with it.  In
    ``cli`` every operation is a program process, so the calibration is a bare
    interpreter process (``python -c pass``).  Elsewhere the operations run in
    this process, so the calibration is a pure-Python loop and a numpy sort here.
    """
    global _cal_input
    if in_child:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=workloads.ROOT, check=True)
        return time.perf_counter() - start
    import numpy as np

    if _cal_input is None:
        # distinct values in scrambled order; numpy.random would add 5 MB to the peak RSS
        _cal_input = np.arange(10_000, dtype=np.int64) * 7919 % 10_007
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(10_000):
        table[i & 1023] = acc
        acc += i * i % 7
    np.unique(_cal_input)
    return time.perf_counter() - start


def calibrated(seconds: list[float], cals: list[float], in_child: bool) -> list[float]:
    """Each time scaled by the nominal calibration over the median calibration around it."""
    h = CAL_HALF_WINDOW
    return [t * CAL_NOMINAL_S[in_child] / statistics.median(cals[max(0, i - h):i + h + 1])
            for i, t in enumerate(seconds)]


def setup_scale(in_child: bool) -> float:
    """Scale for the set-up time: the nominal calibration over the median of those right after it."""
    calibration_seconds(in_child)  # untimed: imports numpy, or reads the interpreter's files
    samples = [calibration_seconds(in_child) for _ in range(SETUP_CALS)]
    return CAL_NOMINAL_S[in_child] / statistics.median(samples)


def thread_count() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def warm_up_program() -> int:
    """Start one program process (compiling bytecode on a fresh checkout); return its thread count."""
    code = ("import pinnacles\n"
            "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])")
    out = subprocess.run([sys.executable, "-c", code], cwd=workloads.ROOT,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def layer_metrics(wl: workloads.Workload, spans: list, rounds: int) -> dict:
    """Fold the spans into the per-layer metrics named by the operations."""
    by_metric: dict[str, list] = {}
    kinds = {op.name: (op.metric, op.kind) for op in wl.ops if op.metric}
    for name, _, start, end, items in spans:
        if name in kinds:
            by_metric.setdefault(kinds[name], []).append((end - start, items))
    out = {}
    for (metric, kind), samples in by_metric.items():
        seconds = sum(s for s, _ in samples)
        if kind == "rate":
            out[metric] = sum(i for _, i in samples) / seconds
        elif kind == "round_ms":
            out[metric] = 1e3 * seconds / rounds
        else:
            out[metric] = 1e3 * statistics.median(s for s, _ in samples)
    if wl.counters.get("sets"):
        out["admissible.admissible_share"] = wl.counters["admissible"] / wl.counters["sets"]
    return out


def run(args) -> dict:
    wl = workloads.build(args.workload, args.seed, args.tiny)
    threads = warm_up_program() if args.workload == "cli" else None
    ready = clock()
    in_child = args.workload == "cli"
    scale = setup_scale(in_child)
    if args.setup_only:
        return {"ready": ready, "setup_scale": scale}

    min_rounds = args.min_rounds or math.ceil(MIN_OPS / len(wl.ops))
    rounds, op_seconds, op_cpu, cals, spans, errors = 0, [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        wl.before_round()
        results = {}
        round_start = time.perf_counter()
        for op in wl.ops:
            cals.append(calibration_seconds(in_child))
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                out, ok = op.call(), True
            except Exception as exc:  # a failed call is counted, not fatal
                out, ok = exc, False
            t1, c1 = time.perf_counter(), cpu_seconds()
            attempted += 1
            op_seconds.append(t1 - t0)
            op_cpu.append(c1 - c0)
            if args.trace:
                spans.append((op.name, rounds, t0, t1, op.items))
            if not ok:
                failed += 1
                errors.append(f"failed: {op.name}: {type(out).__name__}: {out}")
                continue
            if op.key is not None:
                results[op.key] = out
            if op.check is not None:
                try:
                    op.check(out)
                except Exception as exc:
                    errors.append(f"wrong: {op.name}: {type(exc).__name__}: {exc}")
        try:
            wl.after_round(results)
        except Exception as exc:
            errors.append(f"wrong: round {rounds}: {type(exc).__name__}: {exc}")
        if args.trace:
            spans.append(("round", rounds, round_start, time.perf_counter(), len(wl.ops)))
        rounds += 1

    if threads is None:
        threads = thread_count()
        who = resource.RUSAGE_SELF
    else:
        who = resource.RUSAGE_CHILDREN
    wrong = [e for e in errors if e.startswith("wrong")]
    if threads > len(os.sched_getaffinity(0)):
        wrong.append(f"wrong: a program process ran {threads} threads")
    result = {
        "ready": ready,
        "setup_scale": scale,
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "errors": (wrong + [e for e in errors if e.startswith("failed")])[:20],
        "rounds": rounds,
        "ops_per_round": len(wl.ops),
        "op_seconds": calibrated(op_seconds, cals, in_child),
        "op_cpu_seconds": calibrated(op_cpu, cals, in_child),
        "raw_op_seconds": op_seconds,
        "calibration_seconds": statistics.median(cals),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "threads": threads,
    }
    if args.trace:
        result["layer"] = layer_metrics(wl, spans, rounds)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w") as handle:
            json.dump({"fields": ["name", "round", "start", "end", "items"], "spans": spans}, handle)
    return result


def rss_probe(name: str) -> dict:
    import pinnacles as pn

    m, p, n = (int(v) for v in name[1:].split("_"))
    pn.collect_pinnacle_sets(pn.GroupParams(m, p, n),
                             pn.OracleBudget(max_order=workloads.SCAN_BUDGET))
    return {"group": name, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=None,
                        help=f"default: enough rounds for {MIN_OPS} operations")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--rss-probe", metavar="GROUP")
    args = parser.parse_args()
    if args.rss_probe:
        result = rss_probe(args.rss_probe)
    elif args.workload:
        result = run(args)
    else:
        parser.error("need --workload or --rss-probe")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
