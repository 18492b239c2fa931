"""Hot-path microbenchmark driver.

    python benchmarks/run_bench_perf.py
    python benchmarks/run_bench_perf.py --out results/BENCH_perf.json
    python benchmarks/run_bench_perf.py --baseline   # refresh the committed baseline
    python benchmarks/run_bench_perf.py --profile    # collapsed stacks for the suite

Runs the :mod:`repro.diagnostics.perfbench` suite — each bench times one
pipeline hot path with the performance layer on and off and checks the
two paths produce identical results — and writes a ``BENCH_perf.json``
document.  Gate a run against the committed baseline with::

    python -m repro.diagnostics.regress results/BENCH_perf_baseline.json \
        results/BENCH_perf.json

(timings gate at the CLI's ``--max-slowdown`` default of 1.3x; CI passes
``--max-slowdown 20`` because its hardware is not the baseline's).

Exits nonzero when any bench's optimized path diverged from its
reference path, so CI fails even before the regress gate runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.diagnostics.bench import write_bench_document
from repro.diagnostics.perfbench import run_suite

RESULTS_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "results")
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--out", default=None,
                        help="output path (default results/BENCH_perf.json)")
    parser.add_argument("--baseline", action="store_true",
                        help="write results/BENCH_perf_baseline.json instead")
    parser.add_argument("--profile", action="store_true",
                        help="attach the sampling profiler to the suite and "
                             "write perf-suite.stacks.txt / .profile.json "
                             "under results/telemetry/.  Samples this "
                             "(parent) process only — stacks inside any "
                             "process-pool workers a bench spawns are "
                             "merged only if that path uses the telemetry "
                             "trace-context layer")
    args = parser.parse_args(argv)

    out = args.out or os.path.join(
        RESULTS_DIR,
        "BENCH_perf_baseline.json" if args.baseline else "BENCH_perf.json",
    )
    if args.profile:
        from repro.telemetry.profiler import (
            SamplingProfiler,
            reset_active_profiler,
            set_active_profiler,
        )

        print(
            "warning: --profile samples the parent process only; "
            "pool-worker stacks merge in only via the trace-context layer",
            file=sys.stderr,
        )
        profile_base = os.path.join(RESULTS_DIR, "telemetry", "perf-suite")
        os.makedirs(os.path.dirname(profile_base), exist_ok=True)
        with SamplingProfiler() as profiler:
            # register as the context-active profiler so any traced pool
            # fan-out inside the suite folds its worker samples in
            token = set_active_profiler(profiler)
            try:
                doc = run_suite()
            finally:
                reset_active_profiler(token)
        paths = profiler.write(profile_base)
        print(f"profile: {paths['stacks']} {paths['profile']}")
    else:
        doc = run_suite()
    write_bench_document(out, doc)

    divergent = []
    for name, row in sorted(doc["benches"].items()):
        flag = "ok" if row["identical"] else "DIVERGED"
        print(
            f"{name:<18} optimized={row['seconds']:.3f}s "
            f"reference={row['reference_seconds']:.3f}s "
            f"speedup={row['speedup']}x  {flag}",
            flush=True,
        )
        if not row["identical"]:
            divergent.append(name)
    print(f"BENCH_perf document written to {out}")
    if divergent:
        print(f"DIVERGED benches: {', '.join(divergent)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
