"""tdmc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {s3-paper,klein-twists,d4-queries} \\
        --seed N --seconds S --trace 0|1

Closed loop, one client: measured processes (``worker.py``) run one after
another, never two at once.  Each is a fresh interpreter that imports
``tdmc``, sets the workload up and runs whole passes, so no in-process cache
or memory carries over from one process, or one workload, to the next.
With ``--trace 0`` three processes share ``--seconds``; each runs at least
one pass.  Operations are counted in whole passes, so the failed share of a
run does not depend on how many passes fit in it.

The first process checks the outputs of its first pass in full; every
later pass must reproduce them exactly.  An operation that raises, or whose
output fails either check, counts as failed.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, all times scaled to the reference speed of
``calibrate.py``: set-up (median over processes), ``wall_s`` (the sum over
a pass's operations of each operation's median time), ``op_p50_ms`` (median
over all operations) and peak RSS (median over processes).  The raw times,
the 90th-percentile latency and the failed share are printed, not gated.
With ``--trace 1``, processes of one pass alternate untraced and traced; the
result carries the per-layer metrics (medians over the traced processes)
and the tracing overhead, and the spans of each traced process are written
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170  # the whole run must end within 180 s
PROCESSES = 3  # measured processes of an untraced run; set-up is their median
# Report a 90th percentile only with at least ten samples beyond it; of the
# workloads only d4-queries (120 operations a pass) has that many.
P90_MIN_SAMPLES = 100


def _declared_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run_worker(args, traced: bool, gate: bool, spans: str, budget: float, passes: int,
                timeout: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--gate", str(int(gate)),
        "--budget", str(budget),
        "--passes", str(passes),
        "--spans", spans,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _failures(reports: list) -> tuple:
    """(attempted, failed, mismatching operations, error counts by type)."""
    first = reports[0]["digests"][0]
    gate = reports[0]["mismatches"]
    attempted = failed = mismatched = 0
    errors: dict = {}
    for rep in reports:
        for pass_errors, pass_digests in zip(rep["errors"], rep["digests"]):
            for i, (err, digest) in enumerate(zip(pass_errors, pass_digests)):
                wrong = bool(gate[i]) or digest != first[i]
                if err:
                    kind = err.split(":")[0]
                    errors[kind] = errors.get(kind, 0) + 1
                attempted += 1
                failed += bool(err) or wrong
                mismatched += wrong
    return attempted, failed, mismatched, errors


def _pass_time(latencies: list) -> float:
    """Sum over a pass's operations of each one's median over all passes."""
    return sum(statistics.median(op) for op in zip(*latencies))


def main() -> int:
    parser = argparse.ArgumentParser(description="tdmc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    load_start = os.getloadavg()
    units = _declared_units()[args.trace]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        for stale in glob.glob(os.path.join(OUT, f"spans-{args.workload}-*.csv")):
            os.remove(stale)

    reports, durations = [], []
    while True:
        elapsed = time.perf_counter() - start
        index = len(reports)
        if args.trace:
            # One-pass processes, untraced and traced in turn.
            if index >= 2 and elapsed + statistics.median(durations) / 2 > args.seconds:
                break
            traced, budget, passes = index % 2 == 1, 0.0, 1
        else:
            if index == PROCESSES:
                break
            traced, passes = False, 0
            budget = (args.seconds - elapsed) / (PROCESSES - index)
        spans = os.path.join(OUT, f"spans-{args.workload}-{index}.csv") if traced else ""
        t = time.perf_counter()
        rep = _run_worker(args, traced, index == 0, spans, budget, passes, DEADLINE_S - elapsed)
        rep["traced"] = traced
        durations.append(time.perf_counter() - t)
        reports.append(rep)

    plain = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    attempted, failed, mismatched, errors = _failures(reports)
    passes = [p for r in plain for p in r["latencies_s"]]
    raw_passes = [p for r in plain for p in r["latencies_raw_s"]]
    latencies = [x for p in passes for x in p]
    raw_latencies = [x for p in raw_passes for x in p]

    if args.trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in units
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(
            _pass_time(r["latencies_s"]) for r in traced
        ) - statistics.median(_pass_time(r["latencies_s"]) for r in plain)
        counts = {name: f"{len(traced)} traced processes" for name in metrics}
        raw = {}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": _pass_time(passes),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        raw = {
            "setup_s": statistics.median(r["setup_raw_s"] for r in plain),
            "wall_s": _pass_time(raw_passes),
            "op_p50_ms": statistics.median(raw_latencies) * 1e3,
        }
        per_process = f"{len(plain)} processes"
        counts = {
            "setup_s": per_process,
            "wall_s": f"{len(passes)} passes",
            "op_p50_ms": f"{len(latencies)} operations",
            "peak_rss_mb": per_process,
        }
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from those declared in BENCHMARK.json")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "processes": len(reports),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "errors": errors,
    }
    print("# " + json.dumps(meta))
    for name, value in metrics.items():
        line = f"{name:48s} {value:14.6f} {units[name]:6s} ({counts[name]}"
        if name in raw:
            line += f"; raw {raw[name]:.6f}"
        print(line + ")")
    if not args.trace and len(latencies) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
        p90_raw = statistics.quantiles(raw_latencies, n=10)[-1] * 1e3
        print(
            f"{'op_p90_ms':48s} {p90:14.6f} {'ms':6s} "
            f"({len(latencies)} operations; raw {p90_raw:.6f})"
        )
    print(
        f"{'fail_share':48s} {failed / attempted:14.6f} {'1':6s} "
        f"({failed} failed of {attempted} attempted, {mismatched} mismatched)"
    )
    for bad in reports[0]["mismatches"]:
        for line in bad:
            print(f"mismatch: {line}")
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
