"""One measured process: set up a workload, run whole passes, report JSON.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --gate 0|1 --budget SECONDS [--passes N] [--spans PATH]

Set-up time runs from just before ``import tdmc`` to the end of the
workload's set-up.  Passes follow until the next one would end past
``--budget`` seconds from the start of the process (at least one), or
exactly ``--passes`` of them.  Every operation is timed; one fails when it
raises (the d4-queries NotTrivializing reply is an answer, not a raise).
Set-up and every operation are also reported scaled to the reference speed
of ``calibrate.py``, which samples the machine's speed just before, during
and just after each of them.

After each operation, untimed, its output is reduced to a digest and
dropped.  With ``--gate 1`` the outputs of the first pass are checked in
full there too.  Later passes must reproduce the first one's digests.  The
only line on standard output is the JSON report; ``run.py`` starts these
processes one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--gate", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    start = time.perf_counter()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from calibrate import Probe, sample, scaled
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    for _ in range(10):
        sample()  # warm the loop up; its first runs are slower
    with Probe() as probe:
        t0 = time.perf_counter()
        import tdmc

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        items = workload.setup(tdmc, args.seed)
        setup_raw = time.perf_counter() - t0 - probe.spent
    cal = sample()
    setup_s = scaled(setup_raw, [*probe.samples, cal])

    errors, digests, mismatches, raw, norm = [], [], [[] for _ in items], [], []
    while True:
        t_pass = time.perf_counter()
        gate = args.gate and not raw
        pass_errors, pass_digests, pass_raw, pass_norm = [], [], [], []
        for op, item in enumerate(items, start=1):
            if tracer:
                tracer.op = op
            out = err = None
            with Probe() as probe:
                t = time.perf_counter()
                try:
                    out = workload.run(item)
                except Exception as exc:  # a failed operation; the pass goes on
                    err = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t - probe.spent
            after = sample()
            pass_raw.append(latency)
            pass_norm.append(scaled(latency, [cal, *probe.samples, after]))
            cal = after
            pass_errors.append(err)
            # Untimed: reduce the output to its digest and drop it, so that no
            # operation runs with earlier outputs alive.
            if err:
                pass_digests.append({"error": err.split(":")[0]})
            else:
                pass_digests.append(workload.digest(item, out))
                if gate:
                    mismatches[op - 1] = workload.check(item, out, pass_digests[-1])
            del out
        pass_s = time.perf_counter() - t_pass
        raw.append(pass_raw)
        norm.append(pass_norm)
        errors.append(pass_errors)
        digests.append(pass_digests)
        if args.passes:
            if len(raw) >= args.passes:
                break
        elif time.perf_counter() - start + pass_s > args.budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    import numpy

    report = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_s,
        "latencies_raw_s": raw,
        "latencies_s": norm,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "digests": digests,
        "mismatches": mismatches,
        "numpy": numpy.__version__,
    }
    if tracer:
        report["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
