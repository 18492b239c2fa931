#!/usr/bin/env python3
"""Certification benchmark for the SNBC pipeline.

Runs one workload through the public API and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``::

    python3 certbench/run.py --workload cegis-lowdim --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics.  Every item's output is checked; any failure makes the
exit code nonzero.  The run also writes its full record (environment,
seeds, items, metrics) and, when traced, its spans under
``certbench/.work/``.  See ``certbench/README.md`` for the metric
definitions and the layer predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")

#: set-ups per run; setup_s reports their median (plus the one import)
SETUP_REPEATS = 3


def tail(values, beyond: int = 10):
    """Highest order statistic with ``beyond`` samples above it, as
    ``(value, percentile, n)``; ``None`` when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * beyond:
        return None
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (service workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha():
    """HEAD's commit read from ``.git`` (no child process, so the peak
    RSS of children stays the program's); None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                with open(os.path.join(dirpath, filename), "rb") as fh:
                    digest.update(filename.encode() + fh.read())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def measure(workload, tracer, seconds: float):
    """Passes until another would overrun ``seconds`` (at least one)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass(tracer))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p.elapsed_s for p in passes) > seconds:
            return passes


def end_to_end(passes, setup_s: float) -> dict:
    items = [item for p in passes for item in p.items]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "item_s.p50": statistics.median(item.seconds for item in items),
        "ok_frac": 1.0 - sum(item.failed for item in items) / len(items),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"certbench: no program source under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"certbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import repro.benchmarks  # noqa: F401  (imports are part of set-up)
    import repro.cegis  # noqa: F401
    import repro.service  # noqa: F401
    import repro.soundness.scenarios  # noqa: F401
    import repro.verifier  # noqa: F401
    import_s = time.perf_counter() - t0
    from spans import Tracer, layer_metrics

    os.makedirs(WORK_DIR, exist_ok=True)
    workload = make_workload(args.workload, WORK_DIR)
    setup_times, controller_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        controller_times.append(getattr(workload, "controller_s", 0.0))
    setup_s = import_s + statistics.median(setup_times)
    env = environment(args.seed)
    print(f"certbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} items/pass={workload.items_per_pass()}", flush=True)
    print(f"  env: nproc={env['nproc']} blas={(env['blas'] or {}).get('name')} "
          f"threads={env['thread_env']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} git={env['git_sha']}", flush=True)

    spans_path = None
    if args.trace:
        baseline = measure(workload, Tracer(), 0.0)  # exactly one pass
        workload.rewind()  # the first traced pass repeats its inputs
        tracer = Tracer()
        with tracer.installed():
            traced = measure(workload, tracer, max(0.0, args.seconds - baseline[0].elapsed_s))
        traced_wall = sum(p.elapsed_s for p in traced)
        metrics = layer_metrics(tracer.spans, traced_wall, len(traced))
        metrics["setup.controller_s"] = statistics.median(controller_times)
        metrics["trace.overhead_frac"] = traced[0].wall_s / baseline[0].wall_s - 1.0
        metrics["trace.wall_s"] = traced_wall / len(traced)
        metrics["unaccounted_frac"] = metrics["unaccounted_s"] / metrics["trace.wall_s"]
        passes = baseline + traced
        declared = spec["per_layer"]
        spans_path = os.path.join(
            WORK_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"
        )
        tracer.write(spans_path)
    else:
        passes = measure(workload, Tracer(), args.seconds)
        metrics = end_to_end(passes, setup_s)
        declared = spec["end_to_end"]

    items = [item for p in passes for item in p.items]
    failed = sum(item.failed for item in items)
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }

    for m in declared:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        item_tail = tail([item.seconds for item in items])
        print(f"  {'item_s.p50':<28} "
              f"{statistics.median(item.seconds for item in items):>14.6g} s (ungated)")
        print(f"  {'item_s.tail':<28} " + (
            f"{item_tail[0]:>14.6g} s (p{item_tail[1]:.0f}, n={item_tail[2]}, ungated)"
            if item_tail else "not reported: 20 samples or fewer"))
        cold = [s for p in passes for s in p.cold_latency_s]
        if cold:
            # the service's cold batches: reported, not gated (see README)
            cold_tail = tail(cold)
            print(f"  {'cold_jobs_per_s':<28} "
                  f"{len(cold) / sum(p.cold_s for p in passes):>14.6g} 1/s (ungated)")
            print(f"  {'cold_job_s.p50':<28} {statistics.median(cold):>14.6g} s (ungated)")
            print(f"  {'cold_job_s.tail':<28} " + (
                f"{cold_tail[0]:>14.6g} s (p{cold_tail[1]:.0f}, n={cold_tail[2]}, ungated)"
                if cold_tail else "not reported: 20 samples or fewer"))
    print(f"  fail_frac {failed}/{len(items)}; passes={len(passes)}")
    for item in items:
        if item.failed:
            print(f"  FAILED {item.id}: {item.note}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "items": [vars(item) for p in passes for item in p.items],
        "passes": [
            {"wall_s": p.wall_s, "elapsed_s": p.elapsed_s, "cold_s": p.cold_s,
             "cold_latency_s": p.cold_latency_s}
            for p in passes
        ],
        "metrics": metrics,
        "spans": spans_path,
        "result": result,
    }
    record_path = os.path.join(
        WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
