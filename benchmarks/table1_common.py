"""Shared helpers for the Table 1 reproduction harness.

Scale control: set ``REPRO_BENCH_SCALE=paper`` for the full protocol
(all 14 systems, paper-size budgets) or leave the default ``smoke`` for a
laptop-/CI-friendly subset with reduced budgets.  Every bench prints the
rows it reproduces so the output can be compared against the paper's
table by eye.
"""

from __future__ import annotations

import dataclasses
import os
import time
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.benchmarks import BenchmarkSpec, get_benchmark
from repro.cegis import SNBC, SNBCResult
from repro.controllers import NNController, PolynomialInclusion, polynomial_inclusion
from repro.diagnostics import (
    audit_certificate,
    bench_entry,
    result_outcome,
    write_audit,
    write_bench,
)
from repro.telemetry import session as telemetry_session
from repro.telemetry.context import TraceContext
from repro.telemetry.profiler import (
    SamplingProfiler,
    reset_active_profiler,
    set_active_profiler,
)

#: every Table-1 run emits its trace + manifest here (overwritten per run)
TELEMETRY_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "results", "telemetry"
)
RESULTS_DIR = os.path.normpath(os.path.join(TELEMETRY_DIR, os.pardir))

#: trace byte bound per run so long sweeps cannot fill the disk silently;
#: override with REPRO_TRACE_MAX_BYTES (0 disables the bound)
DEFAULT_TRACE_MAX_BYTES = 64 * 1024 * 1024


def trace_max_bytes() -> Optional[int]:
    raw = os.environ.get("REPRO_TRACE_MAX_BYTES")
    if raw is None:
        return DEFAULT_TRACE_MAX_BYTES
    value = int(raw)
    return value if value > 0 else None

#: bench rows accumulated by :func:`run_snbc` this process, keyed by system
BENCH_ROWS: Dict[str, dict] = {}


def bench_scale() -> str:
    """Current harness scale: ``smoke`` (default) or ``paper``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    if scale not in ("smoke", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be smoke|paper, got {scale!r}")
    return scale


#: Table 1 rows exercised per scale.  The smoke subset spans every
#: dimension class (2, 3, 4, 5, 6, 7, 9, 12) while staying CI-friendly.
SMOKE_SYSTEMS = ["C1", "C3", "C6", "C7", "C8", "C9", "C10", "C12"]
PAPER_SYSTEMS = [f"C{i}" for i in range(1, 15)]


def systems_for_scale(scale: Optional[str] = None) -> List[str]:
    scale = scale or bench_scale()
    return PAPER_SYSTEMS if scale == "paper" else SMOKE_SYSTEMS


#: systems where interval/SMT-style verification is expected to blow up
#: (the paper's OT rows for FOSSIL start at n_x = 5)
SMT_FEASIBLE_SYSTEMS = {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"}


@lru_cache(maxsize=None)
def prepared(name: str) -> Tuple[BenchmarkSpec, object, NNController]:
    """Cache (spec, problem, trained controller) per system so the four
    per-tool benches attack identical instances."""
    spec = get_benchmark(name)
    problem = spec.make_problem()
    controller = spec.make_controller()
    return spec, problem, controller


@lru_cache(maxsize=None)
def prepared_inclusion(name: str) -> PolynomialInclusion:
    """Degree-2 polynomial inclusion shared by NNCChecker/SOSTOOLS benches."""
    spec, problem, controller = prepared(name)
    return polynomial_inclusion(
        controller,
        problem.psi,
        degree=spec.inclusion_degree,
        spacing=spec.inclusion_spacing,
        max_mesh_points=10_000,
        error_mode=spec.inclusion_error_mode,
    )


def run_snbc(
    name: str,
    scale: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    time_budget_s: Optional[float] = None,
    profile: bool = False,
    trace_ctx: Optional[TraceContext] = None,
    parallel_verify: Optional[bool] = None,
) -> SNBCResult:
    """One SNBC run with the spec's Table 1 configuration.

    Telemetry is on for every harness run: a JSONL span trace plus a run
    manifest land in ``results/telemetry/<name>-<scale>.jsonl`` /
    ``....manifest.json``, and a certificate audit artifact in
    ``....audit.json``; render all three with
    ``python -m repro.diagnostics.report results/telemetry/<name>-<scale>``
    (add ``--html PATH`` for the dashboard), or every run at once with
    ``python -m repro.diagnostics.report results/``.
    The run's BENCH row is accumulated in :data:`BENCH_ROWS` for
    :func:`emit_bench_document`.

    ``checkpoint_path``/``resume_from`` thread through to
    :meth:`SNBC.run` (see ``docs/robustness.md``); ``time_budget_s``
    arms the per-run deadline, so an overrun lands as a clean
    ``timeout`` row instead of an open-ended run.  ``profile=True``
    attaches the sampling profiler for the duration of the run and
    writes ``<base>.stacks.txt`` / ``<base>.profile.json`` next to the
    trace; the profiler is also registered as the context-active one, so
    samples from verifier pool workers fold into the same profile.

    ``trace_ctx`` (a parent process's
    :class:`~repro.telemetry.context.TraceContext`) makes this run a
    shard of the parent's trace: the session inherits the parent's
    ``trace_id`` and the parent merges this trace after the row
    completes.  ``parallel_verify`` (when not ``None``) overrides the
    spec's ``SNBCConfig.parallel_verify``.
    """
    scale = scale or bench_scale()
    spec, problem, controller = prepared(name)
    snbc_config = spec.snbc_config(scale)
    if checkpoint_path or time_budget_s:
        snbc_config = dataclasses.replace(
            snbc_config,
            checkpoint_path=checkpoint_path or snbc_config.checkpoint_path,
            time_budget_s=time_budget_s or snbc_config.time_budget_s,
        )
    if parallel_verify is not None:
        snbc_config = dataclasses.replace(
            snbc_config, parallel_verify=bool(parallel_verify)
        )
    learner_config = spec.learner_config()
    trace_path = os.path.join(
        os.path.normpath(TELEMETRY_DIR), f"{name}-{scale}.jsonl"
    )
    profiler = SamplingProfiler() if profile else None
    profiler_token = None
    try:
        if profiler is not None:
            profiler.start()
            profiler_token = set_active_profiler(profiler)
        with telemetry_session(
            trace_path,
            name=f"table1/{name}",
            config={
                "scale": scale,
                "snbc": snbc_config,
                "learner": learner_config,
            },
            seed=snbc_config.seed,
            max_bytes=trace_max_bytes(),
            trace_context=trace_ctx,
        ) as tel:
            snbc = SNBC(
                problem,
                controller=controller,
                learner_config=learner_config,
                config=snbc_config,
            )
            result = snbc.run(resume_from=resume_from)
            tel.manifest.finish(
                result_outcome(result),
                iterations=result.iterations,
                timings={
                    "inclusion": result.timings.inclusion,
                    "learning": result.timings.learning,
                    "counterexample": result.timings.counterexample,
                    "verification": result.timings.verification,
                    "total": result.timings.total,
                },
            )
    finally:
        if profiler_token is not None:
            reset_active_profiler(profiler_token)
        if profiler is not None:
            profiler.stop()
            paths = profiler.write(trace_path)
            print(f"[{name}] profile: {paths['stacks']} {paths['profile']}")
    # timeout/error runs may end before any candidate exists
    audit = (
        audit_certificate(result, problem)
        if result.barrier is not None
        else None
    )
    if audit is not None:
        write_audit(trace_path[: -len(".jsonl")] + ".audit.json", audit)
    BENCH_ROWS[name] = bench_entry(result, audit=audit)
    return result


def run_snbc_row(
    name: str,
    scale: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    time_budget_s: Optional[float] = None,
    profile: bool = False,
    trace_ctx: Optional[TraceContext] = None,
    submitted_at: Optional[float] = None,
    parallel_verify: Optional[bool] = None,
) -> Tuple[dict, bool, int, float]:
    """Process-pool entry point for parallel Table-1 rows: run one system
    and return its BENCH row plus the printable summary fields (the
    worker's module-global :data:`BENCH_ROWS` is not shared with the
    parent, so the row travels back in the return value).

    ``submitted_at`` (parent wall-clock at submit) yields the row's
    ``queue_wait_s`` — how long the row sat in the pool queue before a
    worker picked it up.  Keeping it separate stops queue wait from
    being conflated with run time in fleet throughput numbers; the
    regression gate ignores it (only the ``T_*`` timing keys gate).
    """
    queue_wait_s = (
        max(0.0, time.time() - submitted_at) if submitted_at is not None
        else None
    )
    result = run_snbc(
        name,
        scale,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
        time_budget_s=time_budget_s,
        profile=profile,
        trace_ctx=trace_ctx,
        parallel_verify=parallel_verify,
    )
    row = BENCH_ROWS[name]
    if queue_wait_s is not None:
        row["queue_wait_s"] = round(queue_wait_s, 6)
    return (
        row,
        bool(result.success),
        int(result.iterations),
        float(result.timings.total),
    )


def emit_bench_document(out_path: Optional[str] = None,
                        scale: Optional[str] = None) -> str:
    """Write the accumulated :data:`BENCH_ROWS` as ``BENCH_table1.json``.

    The document is the regression gate's input — compare two with
    ``python -m repro.diagnostics.regress OLD.json NEW.json``.
    """
    out_path = out_path or os.path.join(RESULTS_DIR, "BENCH_table1.json")
    write_bench(out_path, BENCH_ROWS, scale or bench_scale())
    return out_path
