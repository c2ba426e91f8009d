"""Benchmark of pinnacles: CLI start-up, exact counts and deciders, and both shapes of oracle scan.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Each measurement runs in a fresh process
(``worker.py``) with ``src`` on PYTHONPATH, since nothing is installed, and
with every BLAS/OpenMP pool pinned to one thread.  Processes run one at a
time.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import clock  # noqa: E402

# set-up is sampled this many times per run (probes plus the measured process)
SETUP_SAMPLES = 7
WORKER_TIMEOUT = 150
PROBE_TIMEOUT = 60


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's OpenBLAS pool would otherwise start one thread per core in every
    # process that imports pinnacles, although no BLAS routine is ever called
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run one process to its end; return its start clock and its last stdout line as JSON."""
    started = clock()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=pinned_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def worker(workload: str, seed: int, *extra: str, timeout: float = WORKER_TIMEOUT):
    return spawn([str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra],
                 timeout)


def setup_seconds(workload: str, seed: int, samples: int) -> list[float]:
    out = []
    for _ in range(samples):
        started, res = worker(workload, seed, "--setup-only", timeout=PROBE_TIMEOUT)
        out.append((res["ready"] - started) * res["setup_scale"])
    return out


def list_seconds(res: dict, key: str) -> float:
    """Time of the fixed operation list: each operation at its median over the run's rounds."""
    k = res["ops_per_round"]
    samples = res[key]
    return sum(statistics.median(samples[i::k]) for i in range(k))


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setups = setup_seconds(workload, seed, SETUP_SAMPLES - 1)
    started, res = worker(workload, seed, "--seconds", str(seconds))
    setups.append((res["ready"] - started) * res["setup_scale"])
    ops = res["op_seconds"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (list_seconds(res, "op_seconds"), "s"),
        "cpu_s": (list_seconds(res, "op_cpu_seconds"), "s"),
        "op_ms.p50": (1e3 * statistics.median(ops), "ms"),
        "op_ms.p90": (1e3 * statistics.quantiles(ops, n=10)[8], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, metrics


def interp_ms(samples: int = 5) -> float:
    """Wall time of a bare interpreter (``python -c pass``), median over samples."""
    times = []
    for _ in range(samples):
        started = clock()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=pinned_env(), check=True,
                       capture_output=True, timeout=PROBE_TIMEOUT)
        times.append(clock() - started)
    return 1e3 * statistics.median(times)


def import_ms(samples: int = 5) -> float:
    """Time of ``import pinnacles`` inside a fresh interpreter, median over samples."""
    code = ("import time; t = time.perf_counter(); import pinnacles; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=pinned_env(),
                              check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
        times.append(float(proc.stdout.split()[-1]))
    return 1e3 * statistics.median(times)


def per_layer(workload: str, seed: int, seconds: int) -> tuple[list, dict]:
    """The traced run: the named workload for the full time, one round of each other one, probes."""
    res = worker(workload, seed, "--seconds", str(seconds), "--trace")[1]
    layer = dict(res["layer"])
    layer["trace.wall_s"] = list_seconds(res, "op_seconds")
    layer["trace.raw_wall_s"] = list_seconds(res, "raw_op_seconds")
    runs = [res]
    for other in workloads.WORKLOADS:
        if other != workload:
            extra = worker(other, seed, "--trace", "--min-rounds", "1")[1]
            runs.append(extra)
            for name, value in extra["layer"].items():
                layer.setdefault(name, value)
    layer["cli.interp_ms"] = interp_ms()
    layer["cli.import_ms"] = import_ms()
    for m, p, n in workloads.scanned_groups():
        name = workloads.ref.group_name(m, p, n)
        probe = spawn([str(HERE / "worker.py"), "--rss-probe", name], PROBE_TIMEOUT)[1]
        layer[f"oracle.peak_rss_mb.{name}"] = probe["peak_rss_mb"]
    return runs, {name: (value, layer_unit(name)) for name, value in sorted(layer.items())}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s") or name.endswith(".per_s") or ".elements_per_s" in name:
        return "1/s"
    if name.endswith("_ms") or ".call_ms." in name:
        return "ms"
    if ".peak_rss_mb." in name:
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "s"


def self_check() -> int:
    """Every workload at a tiny size, one round, all output checks on."""
    bad = 0
    for name in workloads.WORKLOADS:
        res = worker(name, 0, "--tiny", "--min-rounds", "1")[1]
        ok = res["correct"] and res["failed"] == 0
        bad += not ok
        print(f"{name}: {res['attempted']} operations, {res['failed']} failed, "
              f"{'ok' if ok else 'WRONG'}")
        for line in res["errors"]:
            print(f"  {line}")
    print("self-check " + ("passed" if not bad else "FAILED"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size with all checks, then exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "pinnacles" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'pinnacles'} is missing",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.trace:
            runs, metrics = per_layer(args.workload, args.seed, args.seconds)
        else:
            res, metrics = end_to_end(args.workload, args.seed, args.seconds)
            runs = [res]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in runs:
        for line in res["errors"]:
            print(line, file=sys.stderr)
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as handle:
        json.dump(result, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
