"""The report CLI: where did the time go, for one run or a results tree.

    python -m repro.diagnostics.report results/telemetry/C1-smoke
    python -m repro.diagnostics.report results/telemetry/C1-smoke.jsonl --format markdown
    python -m repro.diagnostics.report results/telemetry/C1-smoke --format json
    python -m repro.diagnostics.report results/telemetry/C1-smoke --html C1.html
    python -m repro.diagnostics.report results/ --format json > fleet_summary.json

TARGET names one run, by its extension-less ``<base>`` or its
``<base>.jsonl`` trace; the sibling ``<base>.manifest.json`` and
``<base>.audit.json`` are picked up when present (a missing or
unreadable one is a warning, not an error: a trace alone still yields
the convergence story and the time breakdown).  A directory TARGET gives
the fleet view over every run trace found under it.

One run, ``text`` / ``markdown``:

* **Run** — manifest fields, trace id, CEGIS iterations, resolved
  counterexamples, and the stall verdict when the run stalled;
* **Convergence** — per-iteration loss breakdown (L_I / L_U / L_D);
* **Counterexample lineage** — each counterexample batch and whether
  the final certificate resolves it;
* **Certificate audit** — per-condition Gram/SOS/IPM margins, dense-grid
  margins and the exact ℚ recheck;
* **Phases** — seconds per pipeline phase in pipeline order, the total,
  and (with a manifest) the manifest's elapsed time not charged to any
  phase as ``unaccounted`` (its share is of the elapsed time);
* **Spans** — the top span names by inclusive time, with self time;
* **Workers**, **IPM sub-phases**, **Metrics**, **Caches**,
  **Histograms** — when the trace has them.

``--format json`` emits the same aggregates as one JSON document (for a
directory: the :func:`~repro.telemetry.store.fleet_summary` document).
``--html PATH`` also writes the single-run dashboard, a self-contained
page (no external JS/CSS) safe to attach to CI artifacts.

Exit codes: 0 ok; 1 every trace line is malformed, or no run traces
under the directory; 2 trace unreadable, or ``--html`` for a directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.diagnostics.convergence import convergence_summary
from repro.diagnostics.html import render_dashboard
from repro.telemetry.report import (
    cache_rates,
    ipm_subphase_totals,
    metrics_summary,
    ordered_phases,
    phase_totals,
    span_aggregates,
    worker_lanes,
)
from repro.telemetry.store import fleet_summary, load_artifacts, scan_runs

#: span names listed before the "... N more span names" line
MAX_SPAN_ROWS = 20

#: manifest fields shown in the Run header, in order
RUN_FIELDS = ("name", "outcome", "seed", "git_sha", "started_at",
              "finished_at", "elapsed_seconds")


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------
def _fmt(x: Any, decimals: int = 3) -> str:
    """Compact number: ``-`` for missing, non-floats verbatim, floats in
    fixed point unless very small or very large."""
    if x is None:
        return "-"
    if not isinstance(x, float):
        return str(x)
    return f"{x:.4g}" if abs(x) < 1e-3 or abs(x) >= 1e5 else f"{x:.{decimals}f}"


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def _heading(title: str, markdown: bool) -> str:
    return f"## {title}" if markdown else f"== {title} =="


def _item(text: str, markdown: bool, depth: int = 0) -> str:
    return "  " * depth + ("- " if markdown else "  ") + text


def _table(
    header: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool
) -> List[str]:
    if markdown:
        out = ["| " + " | ".join(header) + " |",
               "|" + "|".join("---" for _ in header) + "|"]
        out += ["| " + " | ".join(r) + " |" for r in rows]
        return out
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    out = [line, "-" * len(line)]
    out += ["  ".join(r[i].ljust(widths[i]) for i in range(len(header))) for r in rows]
    return out


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _run_section(
    manifest: Optional[Dict[str, Any]], summary: Dict[str, Any]
) -> List[str]:
    fields = {k: (manifest or {}).get(k) for k in RUN_FIELDS}
    fields["outcome"] = fields["outcome"] or (
        "success" if summary.get("converged") else "unknown"
    )
    fields["trace_id"] = ((manifest or {}).get("extra") or {}).get("trace_id")
    lines = [f"- {k}: {v}" for k, v in fields.items() if v is not None]
    lines.append(
        f"- iterations: {summary.get('n_iterations', 0)}  "
        f"counterexamples: {summary.get('n_resolved', 0)}/"
        f"{summary.get('n_counterexamples', 0)} resolved"
    )
    stall = summary.get("stall")
    if stall:
        lines.append(
            f"- STALL: worst violation non-decreasing for "
            f"{stall.get('window')} iterations (at iter "
            f"{stall.get('iteration')})"
        )
    return lines


def _convergence_table(rows: Sequence[Dict[str, Any]], md: bool) -> List[str]:
    return _table(
        ["iter", "total", "L_I", "L_U", "L_D", "worst", "cex", "dataset", "ok"],
        [
            [str(r.get("iteration", "?")), _fmt(r.get("loss"), 4),
             _fmt(r.get("loss_init"), 4), _fmt(r.get("loss_unsafe"), 4),
             _fmt(r.get("loss_domain"), 4), _fmt(r.get("worst_violation"), 4),
             str(r.get("n_counterexamples", 0)),
             "/".join(str(s) for s in r.get("dataset_sizes") or []),
             "yes" if r.get("verified") else "no"]
            for r in rows
        ],
        md,
    )


def _lineage_items(records: Sequence[Dict[str, Any]], md: bool) -> List[str]:
    return [
        _item(
            f"iter {r.get('iteration')}: {r.get('condition')} "
            f"(condition {r.get('paper_condition')}), "
            f"violation {_fmt(r.get('worst_violation'), 4)}, "
            f"{r.get('n_points')} pts -> "
            f"{'resolved' if r.get('satisfied_by_final') else 'STILL VIOLATED'}"
            f" (final {_fmt(r.get('final_violation'), 4)})",
            md,
        )
        for r in records
    ]


def _audit_items(audit: Dict[str, Any], md: bool) -> List[str]:
    lines = []
    for c in audit.get("conditions", []):
        sdp = c.get("sdp", {})
        verdict = "ok" if c.get("feasible") and c.get("validated") else "FAILED"
        convergence = sdp.get("convergence") or "-"
        rung = sdp.get("recovery_rung") or ""
        if rung and rung != "base":
            convergence += f" (via {rung})"
        lines.append(_item(
            f"{c.get('name')} ({c.get('paper_condition')}): {verdict}  "
            f"min Gram eig {_fmt(c.get('min_gram_eigenvalue'), 4)}  "
            f"residual {_fmt(c.get('residual_bound'), 4)}  "
            f"SDP gap {_fmt(sdp.get('gap'), 4)}  "
            f"ipm {convergence}",
            md,
        ))
    for name, m in (audit.get("grid_margins") or {}).items():
        margin = m.get("margin")
        holds = margin is not None and float(margin) > 0
        lines.append(_item(
            f"grid {name}: margin {_fmt(margin, 4)} over "
            f"{m.get('n_points')} pts {'(holds)' if holds else '(VIOLATED)'}",
            md,
        ))
    soundness = audit.get("soundness")
    if soundness:
        verdict = "PROVEN over Q" if soundness.get("ok") else "REJECTED"
        lines.append(_item(f"exact recheck: {verdict}", md))
        for c in soundness.get("conditions", []):
            lines.append(_item(
                f"{c.get('name')}: {'ok' if c.get('ok') else 'FAILED'}  "
                f"certified margin {_fmt(c.get('certified_margin'), 4)}  "
                f"shift {_fmt(c.get('slack_shift'), 4)}"
                + (f"  ({c.get('message')})" if c.get("message") else ""),
                md, depth=1,
            ))
    return lines


def _phase_table(
    totals: Dict[str, float], manifest: Optional[Dict[str, Any]], md: bool
) -> List[str]:
    grand = sum(totals.values())
    rows = [
        [p, f"{totals[p]:.3f}", _share(totals[p], grand)]
        for p in ordered_phases(totals)
    ]
    rows.append(["total", f"{grand:.3f}", _share(grand, grand)])
    elapsed = (manifest or {}).get("elapsed_seconds")
    if isinstance(elapsed, (int, float)):
        rows.append(["unaccounted", f"{elapsed - grand:.3f}",
                     _share(elapsed - grand, elapsed)])
    return _table(["phase", "seconds", "share"], rows, md)


def render_report(
    events: Sequence[Dict[str, Any]],
    fmt: str = "text",
    manifest: Optional[Dict[str, Any]] = None,
    audit: Optional[Dict[str, Any]] = None,
) -> str:
    """The single-run report (``fmt``: ``text`` or ``markdown``)."""
    md = fmt == "markdown"
    summary = convergence_summary(events)
    sections: List[Tuple[str, List[str]]] = [
        ("Run", _run_section(manifest, summary))
    ]

    if summary["iterations"]:
        sections.append(
            ("Convergence", _convergence_table(summary["iterations"], md))
        )
    if summary["lineage"]:
        sections.append(
            ("Counterexample lineage", _lineage_items(summary["lineage"], md))
        )
    if audit:
        sections.append(("Certificate audit", _audit_items(audit, md)))

    totals = phase_totals(events)
    if totals:
        sections.append(("Phases", _phase_table(totals, manifest, md)))

    span_rows = span_aggregates(events)
    if span_rows:
        lines = _table(
            ["span", "count", "total s", "self s", "mean s", "max s"],
            [
                [name, str(count), f"{total:.3f}", f"{self_total:.3f}",
                 f"{mean:.4f}", f"{mx:.4f}"]
                for name, count, total, self_total, mean, mx
                in span_rows[:MAX_SPAN_ROWS]
            ],
            md,
        )
        if len(span_rows) > MAX_SPAN_ROWS:
            lines.append(f"... {len(span_rows) - MAX_SPAN_ROWS} more span names")
        sections.append(("Spans", lines))

    lanes = worker_lanes(events)
    if lanes:
        sections.append(("Workers", _table(
            ["shard", "pid", "spans", "busy s", "clock skew s"],
            [
                [str(lane["shard"]),
                 str(lane["pid"]) if lane["pid"] is not None else "-",
                 str(lane["spans"]), f"{lane['seconds']:.3f}",
                 f"{lane['clock_skew_s']:+.4f}"]
                for lane in lanes
            ],
            md,
        )))

    subphases = ipm_subphase_totals(events)
    if subphases:
        grand = sum(r["seconds"] for r in subphases)
        sections.append(("IPM sub-phases", _table(
            ["phase", "seconds", "iterations", "mean s/it", "share"],
            [
                [r["phase"], f"{r['seconds']:.3f}", str(r["iterations"]),
                 _fmt(r["mean_s"]), _share(r["seconds"], grand)]
                for r in subphases
            ],
            md,
        )))

    metrics = metrics_summary(events)
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    hists = metrics.get("histograms", {})
    if counters or gauges:
        rows = [[k, "counter", _fmt(v)] for k, v in sorted(counters.items())]
        rows += [[k, "gauge", _fmt(v)] for k, v in sorted(gauges.items())]
        sections.append(("Metrics", _table(["metric", "kind", "value"], rows, md)))
    caches = cache_rates(counters)
    if caches:
        sections.append(("Caches", _table(
            ["cache", "hits", "misses", "hit rate"],
            [[name, str(hits), str(misses), f"{100.0 * rate:.1f}%"]
             for name, hits, misses, rate in caches],
            md,
        )))
    if hists:
        sections.append(("Histograms", _table(
            ["metric", "count", "mean", "p50", "p95", "max"],
            [[k, str(int(s["count"])), _fmt(s["mean"]), _fmt(s["p50"]),
              _fmt(s["p95"]), _fmt(s["max"])]
             for k, s in sorted(hists.items())],
            md,
        )))

    lines: List[str] = []
    for title, body in sections:
        lines += [_heading(title, md), *body, ""]
    return "\n".join(lines).rstrip() + "\n"


def report_payload(
    events: Sequence[Dict[str, Any]],
    manifest: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Machine-readable single-run report: the trace aggregates of the
    text report plus the manifest."""
    summary = metrics_summary(events)
    return {
        "manifest": manifest,
        "phases": phase_totals(events),
        "spans": [
            {"name": name, "count": count, "total": total, "self": self_total,
             "mean": mean, "max": mx}
            for name, count, total, self_total, mean, mx
            in span_aggregates(events)
        ],
        "workers": worker_lanes(events),
        "ipm_subphases": ipm_subphase_totals(events),
        "metrics": summary,
        "caches": [
            {"name": name, "hits": hits, "misses": misses, "hit_rate": rate}
            for name, hits, misses, rate in cache_rates(
                summary.get("counters", {})
            )
        ],
    }


# ----------------------------------------------------------------------
# a results tree
# ----------------------------------------------------------------------
def render_fleet(summary: Dict[str, Any], fmt: str = "text") -> str:
    """Human-readable rendering of a fleet summary document."""
    md = fmt == "markdown"
    lines = [_heading(
        f"Fleet: {summary.get('n_runs', 0)} run(s) across "
        f"{summary.get('n_systems', 0)} system(s)", md,
    )]
    extras = []
    if summary.get("n_incomplete"):
        extras.append(f"incomplete={summary['n_incomplete']}")
    if summary.get("n_parent_traces"):
        extras.append(f"bench-parent traces={summary['n_parent_traces']}")
    if extras:
        lines.append("   " + "  ".join(extras))
    outcomes = summary.get("outcomes", {})
    if outcomes:
        lines.append(
            "outcomes: "
            + "  ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        )
    lines.append("")

    runs = summary.get("runs", [])
    if runs:
        lines.append(_heading("Runs", md))
        lines += _table(
            ["run", "system", "scale", "outcome", "iters", "elapsed s",
             "truncated"],
            [
                [r.get("base", "?"), r.get("system", "?"), r.get("scale", "?"),
                 r.get("outcome", "?"), _fmt(r.get("iterations")),
                 _fmt(r.get("elapsed_seconds")),
                 "yes" if r.get("truncated") else "no"]
                for r in runs
            ],
            md,
        )
        lines.append("")

    systems = summary.get("systems", {})
    if systems:
        rows = []
        for system, s in sorted(systems.items()):
            phases = s.get("phase_seconds", {})
            recovery = s.get("sdp_recovery", {})
            conv = s.get("convergence", {})
            rows.append([
                system,
                str(s.get("runs", 0)),
                _fmt(s.get("iterations", {}).get("mean")),
                _fmt((phases.get("learning") or {}).get("total")),
                _fmt((phases.get("verification") or {}).get("total")),
                _fmt(s.get("cache_hit_rate")),
                f"{recovery.get('engaged', 0)}/{recovery.get('successes', 0)}",
                " ".join(f"{k}={v}" for k, v in sorted(conv.items())) or "-",
            ])
        lines.append(_heading("Systems", md))
        lines += _table(
            ["system", "runs", "mean iters", "learn s", "verify s",
             "cache hit", "recov eng/succ", "ipm convergence"],
            rows, md,
        )
        lines.append("")

    convergence = summary.get("convergence", {})
    if convergence:
        lines.append(_heading("IPM convergence classes (all runs)", md))
        total = sum(convergence.values()) or 1
        for cls, n in sorted(convergence.items()):
            lines.append(
                _item(f"{cls:<16} {n:>6}  {100.0 * n / total:>5.1f}%", md)
            )
        lines.append("")

    caches = summary.get("caches", {})
    if caches:
        lines.append(_heading("Caches (all runs)", md))
        lines += _table(
            ["cache", "hits", "misses", "hit rate"],
            [[name, str(c.get("hits", 0)), str(c.get("misses", 0)),
              _fmt(c.get("rate"))]
             for name, c in sorted(caches.items())],
            md,
        )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnostics.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target", help="run base, its .jsonl trace, or a results directory"
    )
    parser.add_argument("--format", choices=["text", "markdown", "json"],
                        default="text")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="also write the run's HTML dashboard to PATH")
    args = parser.parse_args(argv)

    if os.path.isdir(args.target):
        if args.html:
            print("error: --html needs a single run, not a directory",
                  file=sys.stderr)
            return 2
        records = scan_runs(args.target)
        if not records:
            print(f"error: no run traces found under {args.target}",
                  file=sys.stderr)
            return 1
        summary = fleet_summary(records)
        if args.format == "json":
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_fleet(summary, args.format), end="")
        return 0

    try:
        run = load_artifacts(args.target)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if run.skipped and not run.events:
        print(
            f"error: all {run.skipped} line(s) of the trace are malformed",
            file=sys.stderr,
        )
        return 1
    if run.skipped:
        print(f"warning: skipped {run.skipped} malformed line(s)",
              file=sys.stderr)
    for warning in run.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    events = run.events
    if args.format == "json":
        print(json.dumps(report_payload(events, manifest=run.manifest),
                         indent=2, sort_keys=True))
    else:
        print(render_report(events, args.format, run.manifest, run.audit),
              end="")
    if args.html:
        title = (run.manifest or {}).get("name") or os.path.basename(run.base)
        page = render_dashboard(
            title, run.manifest, convergence_summary(events), run.audit,
            phase_totals(events), metrics_summary(events),
            workers=worker_lanes(events),
        )
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(page)
        print(f"dashboard written to {args.html}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
