"""Pure aggregations over a telemetry trace's events.

These fold the event list of one JSONL trace into the numbers every
report shows: per-phase totals, per-span-name aggregates with exclusive
(self) time, merged-trace worker lanes, IPM sub-phase timers, the
trailing metrics summary and cache hit rates.  They read nothing from
disk and print nothing; the fleet store (:mod:`repro.telemetry.store`)
and the report CLI (``python -m repro.diagnostics.report``) render them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

#: canonical pipeline order for the phase table
PHASE_ORDER = ["inclusion", "learning", "verification", "soundness",
               "counterexample"]


def phase_totals(events: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Sum span durations per ``phase`` attribute.

    Only spans that *carry* the attribute count, so nested helper spans
    (e.g. SDP solves inside a verification span) are not double-counted.
    """
    totals: Dict[str, float] = {}
    for e in events:
        if e.get("type") != "span":
            continue
        phase = e.get("attrs", {}).get("phase")
        if phase:
            totals[phase] = totals.get(phase, 0.0) + float(e.get("duration", 0.0))
    return totals


def span_self_times(events: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Exclusive (self) seconds per span id: duration minus the summed
    durations of its *direct* children, floored at 0 (clock jitter can
    make children sum past the parent by nanoseconds).

    Only children from the *same process shard* subtract (a merged trace
    stamps worker spans with a ``shard`` key; parent-process spans have
    none).  A worker root span linked under the parent's submission span
    ran in a different process — concurrently with the parent — so its
    duration is not time the parent span spent in children, and the
    merged trace's self-time totals stay equal to the sum of the
    per-process traces' totals.
    """
    by_id: Dict[int, Dict[str, Any]] = {
        e["span_id"]: e
        for e in events
        if e.get("type") == "span" and e.get("span_id") is not None
    }
    child_sum: Dict[int, float] = {}
    for e in by_id.values():
        parent = e.get("parent_id")
        if parent is None:
            continue
        parent_event = by_id.get(parent)
        if parent_event is not None and (
            parent_event.get("shard") != e.get("shard")
        ):
            continue
        child_sum[parent] = child_sum.get(parent, 0.0) + float(
            e.get("duration", 0.0)
        )
    return {
        span_id: max(
            0.0, float(e.get("duration", 0.0)) - child_sum.get(span_id, 0.0)
        )
        for span_id, e in by_id.items()
    }


def span_aggregates(
    events: Sequence[Dict[str, Any]],
) -> List[Tuple[str, int, float, float, float, float]]:
    """Per-name (count, total, self, mean, max) rows sorted by total desc.

    ``total`` is inclusive wall time; ``self`` excludes time attributed
    to child spans, so nested spans (``snbc.verification`` wrapping
    ``sdp.solve``) no longer double-count in a "where did the time go"
    reading.
    """
    selfs = span_self_times(events)
    acc: Dict[str, List[float]] = {}
    self_acc: Dict[str, float] = {}
    for e in events:
        if e.get("type") == "span":
            name = e["name"]
            acc.setdefault(name, []).append(float(e.get("duration", 0.0)))
            self_acc[name] = self_acc.get(name, 0.0) + selfs.get(
                e.get("span_id"), float(e.get("duration", 0.0))
            )
    rows = [
        (name, len(ds), sum(ds), self_acc.get(name, 0.0), sum(ds) / len(ds),
         max(ds))
        for name, ds in acc.items()
    ]
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def worker_lanes(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-shard rollup of a merged trace's worker-origin spans.

    ``seconds`` sums each lane's *root* spans (spans whose parent lives
    in another shard or the parent process), i.e. the wall time the lane
    was busy; ``clock_skew_s`` is the monotonic-clock shift the merge
    applied to that worker's timestamps.  Single-process traces have no
    ``shard``-stamped spans and return an empty list.
    """
    by_id: Dict[int, Dict[str, Any]] = {
        e["span_id"]: e
        for e in events
        if e.get("type") == "span" and e.get("span_id") is not None
    }
    lanes: Dict[Any, Dict[str, Any]] = {}
    for e in by_id.values():
        shard = e.get("shard")
        if shard is None:
            continue
        lane = lanes.setdefault(shard, {
            "shard": shard,
            "pid": e.get("pid"),
            "spans": 0,
            "seconds": 0.0,
            "clock_skew_s": float(e.get("clock_skew_s") or 0.0),
        })
        lane["spans"] += 1
        parent = by_id.get(e.get("parent_id"))
        if parent is None or parent.get("shard") != shard:
            lane["seconds"] += float(e.get("duration", 0.0))
    return sorted(lanes.values(), key=lambda lane: str(lane["shard"]))


#: solver sub-phase keys in per-iteration IPM trace records, in
#: iteration order (see :mod:`repro.sdp.trace`)
IPM_SUBPHASES = ("t_z_factor", "t_schur_assembly", "t_schur_factor",
                 "t_line_search")


def ipm_subphase_totals(
    events: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate solver sub-phase timers across all ``sdp.ipm_trace``
    events (one per solve, carrying per-iteration records).

    Returns one row per sub-phase with total seconds, the number of
    iterations that recorded the phase, and mean seconds per iteration —
    attributing time *inside* the IPM instead of to the solve span as a
    whole.  Empty when no solve emitted timed records (e.g. traces from
    before the timers existed).
    """
    totals = {k: 0.0 for k in IPM_SUBPHASES}
    counts = {k: 0 for k in IPM_SUBPHASES}
    for e in events:
        if e.get("type") != "sdp.ipm_trace":
            continue
        for rec in e.get("records") or []:
            for k in IPM_SUBPHASES:
                v = rec.get(k)
                if isinstance(v, (int, float)) and v == v:  # skip nan/None
                    totals[k] += float(v)
                    counts[k] += 1
    return [
        {
            "phase": k[2:],
            "seconds": totals[k],
            "iterations": counts[k],
            "mean_s": totals[k] / counts[k] if counts[k] else 0.0,
        }
        for k in IPM_SUBPHASES
        if counts[k]
    ]


def metrics_summary(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The last ``metrics`` event's summary (empty if none was emitted)."""
    summary: Dict[str, Any] = {}
    for e in events:
        if e.get("type") == "metrics":
            summary = e.get("summary", {})
    return summary


def cache_rates(counters: Dict[str, float]) -> List[Tuple[str, int, int, float]]:
    """Pair ``<name>.hits`` / ``<name>.misses`` counters into hit rates.

    A cache shows up as soon as either counter exists (a cold run has
    only misses); returns ``(name, hits, misses, rate)`` rows sorted by
    name.
    """
    names = {
        k[: -len(suffix)]
        for k in counters
        for suffix in (".hits", ".misses")
        if k.endswith(suffix)
    }
    rows = []
    for name in sorted(names):
        hits = int(counters.get(name + ".hits", 0))
        misses = int(counters.get(name + ".misses", 0))
        total = hits + misses
        rows.append((name, hits, misses, hits / total if total else 0.0))
    return rows
