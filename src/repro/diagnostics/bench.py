"""The BENCH document codec: one envelope, one writer, one loader.

Every benchmark driver reduces its run to one flat JSON document of the
same shape — a shared envelope around a kind-specific body — and two
such documents are compared by ``python -m repro.diagnostics.regress``,
which is how the repo detects outcome/perf regressions against a
committed baseline.  The envelope (schema version 1)::

    {
      "schema_version": 1,
      "kind": "BENCH_table1" | "BENCH_perf" | "BENCH_scenarios"
              | "BENCH_service",
      "scale": "<smoke | paper | sweep | chaos | ...>",
      "generated_at": "<iso8601>",
      "git_sha": "<sha or null>",
      "platform": {...},
      ...body
    }

:data:`BENCH_KINDS` names the mapping fields each kind's body must
carry; :func:`load_bench_document` checks them.  The bodies:

* ``BENCH_table1`` (``benchmarks/run_bench_table1.py``) — ``systems``:
  one row per Table 1 system from :func:`bench_entry`::

      "C1": {
        "outcome": "success" | "failure" | "timeout" | "error",
        "iterations": 1,
        "stalled": false,
        "d_B": 2,
        "timings": {"T_l": ..., "T_c": ..., "T_v": ..., "T_e": ...,
                    "inclusion": ...},
        "audit": {"min_gram_eigenvalue": ..., "max_residual_bound": ...,
                  "max_sdp_gap": ..., "min_grid_margin": ...} | null,
        "soundness": {"ok": ..., "conditions": ...,
                      "min_certified_margin": ...,
                      "max_slack_shift": ...} | absent,
        "error": {"kind": ..., "message": ..., ...} | absent
      }

  ``timeout`` is the paper's OOT (deadline overrun ended the run
  cleanly); ``error`` records a typed unrecoverable failure — both
  carry the failure under ``error``.
* ``BENCH_perf`` (:mod:`repro.diagnostics.perfbench`) — ``benches``:
  ``{seconds, reference_seconds, speedup, identical, correctness}`` per
  microbench.
* ``BENCH_scenarios`` (``benchmarks/run_bench_scenarios.py``) — the
  body :func:`scenario_body` builds from factory rows: ``config``,
  ``scenarios`` (per seed: outcome, expected, n_obstacles, cells,
  psi_spec_key, soundness_ok, elapsed_seconds), ``counts``, ``timings``
  and ``invariants`` (all_terminal, no_soundness_failures,
  expectations_met).
* ``BENCH_service`` (``benchmarks/run_bench_service.py``) — ``config``,
  ``jobs`` (per key: status, attempts, redeliveries, from_cache,
  payload_sha256, serial_match), ``counts``, ``cache`` (hit_rate,
  evictions) and ``invariants`` (all_terminal, no_corrupt_served,
  serial_identical).

Additive fields keep the schema at version 1: documents written by
older revisions load unchanged.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry import collect_git_sha, platform_info, write_json_atomic

BENCH_SCHEMA_VERSION = 1

#: document kind -> the mapping fields its body must carry
BENCH_KINDS = {
    "BENCH_table1": ("systems",),
    "BENCH_perf": ("benches",),
    "BENCH_scenarios": ("scenarios", "counts", "invariants"),
    "BENCH_service": ("jobs", "counts", "invariants"),
}

#: scenario outcome classes a BENCH_scenarios document counts
SCENARIO_OUTCOMES = ("certified", "falsified", "unsound", "timeout", "error")

#: timing keys every entry carries (paper column names + phase 0)
TIMING_KEYS = ("T_l", "T_c", "T_v", "T_e", "inclusion")

#: SNBCResult.outcome -> bench row outcome
RESULT_OUTCOMES = {
    "verified": "success",
    "not_verified": "failure",
    "timeout": "timeout",
    "error": "error",
}


def result_outcome(result: Any) -> str:
    """Bench-row outcome string for an SNBCResult (duck-typed; results
    from revisions predating the ``outcome`` field map via ``success``)."""
    outcome = getattr(result, "outcome", "")
    if outcome in RESULT_OUTCOMES:
        return RESULT_OUTCOMES[outcome]
    return "success" if result.success else "failure"


def bench_entry(
    result: Any, audit: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One ``systems`` row from an :class:`~repro.cegis.snbc.SNBCResult`
    (duck-typed) and an optional audit artifact dict."""
    timings = result.timings
    entry = {
        "outcome": result_outcome(result),
        "iterations": int(result.iterations),
        "stalled": bool(getattr(result, "stalled", False)),
        "d_B": (
            int(result.barrier.degree) if result.barrier is not None else None
        ),
        "timings": {
            "T_l": round(float(timings.learning), 6),
            "T_c": round(float(timings.counterexample), 6),
            "T_v": round(float(timings.verification), 6),
            "T_e": round(float(timings.total), 6),
            "inclusion": round(float(timings.inclusion), 6),
        },
        "audit": dict(audit["summary"]) if audit else None,
    }
    soundness = getattr(result, "soundness", None)
    if soundness is not None:
        # additive key (schema stays v1): the exact recheck verdict plus
        # the smallest exactly-certified margin across the conditions
        entry["soundness"] = soundness.summary()
    error = getattr(result, "error", None)
    if error:
        entry["error"] = dict(error)
    return entry


def error_entry(exc: BaseException) -> Dict[str, Any]:
    """A ``systems`` row for a run that raised before producing a result
    (driver-level crash, dead pool worker): ``outcome == "error"`` with
    the exception class recorded, so the table keeps its full coverage
    and the regression gate sees the failure class."""
    try:
        from repro.resilience.errors import ReproError
    except ImportError:  # pragma: no cover - resilience always ships
        ReproError = ()  # type: ignore[assignment]
    if isinstance(exc, ReproError):
        error = exc.to_dict()
    else:
        error = {"kind": type(exc).__name__, "message": str(exc)}
    return {
        "outcome": "error",
        "iterations": 0,
        "stalled": False,
        "d_B": None,
        "timings": {key: 0.0 for key in TIMING_KEYS},
        "audit": None,
        "error": error,
    }


def scenario_body(
    config: Dict[str, Any], rows: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The ``BENCH_scenarios`` body from scenario-factory result rows:
    per-seed entries, outcome counts, verify timings and the batch
    invariants."""
    from repro.soundness.scenarios import batch_invariants

    scenarios: Dict[str, Dict[str, Any]] = {}
    per_condition: Dict[str, List[float]] = {}
    for row in rows:
        entry: Dict[str, Any] = {
            "outcome": row.get("outcome"),
            "expected": row.get("expected"),
            "n_obstacles": int(row.get("params", {}).get("n_obstacles", 0)),
            "cells": dict(row.get("cells", {})),
            "psi_spec_key": row.get("psi_spec_key"),
            "soundness_ok": row.get("soundness_ok"),
            "elapsed_seconds": float(row.get("elapsed_seconds", 0.0)),
        }
        if row.get("error"):
            entry["error"] = dict(row["error"])
        scenarios[str(row["seed"])] = entry
        for cond in row.get("conditions", []):
            base = str(cond.get("name", "")).split("[", 1)[0]
            per_condition.setdefault(base, []).append(
                float(cond.get("elapsed_seconds", 0.0))
            )

    counts = {"total": len(rows)}
    for outcome in SCENARIO_OUTCOMES:
        counts[outcome] = sum(
            1 for row in rows if row.get("outcome") == outcome
        )
    elapsed = [float(row.get("elapsed_seconds", 0.0)) for row in rows]
    timings = {
        "total_seconds": round(sum(elapsed), 6),
        "mean_verify_seconds": round(
            sum(elapsed) / len(elapsed), 6
        ) if elapsed else 0.0,
        "max_verify_seconds": round(max(elapsed), 6) if elapsed else 0.0,
        "per_condition_mean": {
            name: round(sum(vals) / len(vals), 6)
            for name, vals in sorted(per_condition.items())
        },
    }
    return {
        "config": config,
        "scenarios": scenarios,
        "counts": counts,
        "timings": timings,
        "invariants": batch_invariants(rows),
    }


def bench_document(kind: str, scale: str, **body: Any) -> Dict[str, Any]:
    """Wrap a kind's ``body`` fields in the shared envelope."""
    if kind not in BENCH_KINDS:
        raise ValueError(f"unknown BENCH document kind {kind!r}")
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": kind,
        "scale": scale,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": collect_git_sha(),
        "platform": platform_info(),
        **body,
    }


def write_bench_document(path: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Atomically write a BENCH document as pretty JSON; returns it."""
    write_json_atomic(path, doc)
    return doc


def load_bench_document(path: str, kind: Optional[str] = None) -> Dict[str, Any]:
    """Read and schema-check a BENCH document of any kind — or, when
    ``kind`` is given, of that kind only."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found not in BENCH_KINDS or (kind is not None and found != kind):
        raise ValueError(
            f"{path}: not a {kind or 'BENCH'} document (kind {found!r})"
        )
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version "
            f"{doc.get('schema_version')!r} (expected {BENCH_SCHEMA_VERSION})"
        )
    for field in BENCH_KINDS[found]:
        if not isinstance(doc.get(field), dict):
            raise ValueError(f"{path}: missing/invalid {field!r}")
    return doc
