"""In-memory span tracer wrapped around the program's public entry points.

The traced run patches each entry point as the program binds it, records
one span per call (name, start, end, parent, item id, attributes taken
from the returned objects) and restores every original on exit.  Nothing
under ``src/`` is modified.  Spans cover this process only: a service
worker's job execution shows up as the supervisor's ``service.run`` time
spent waiting for it, and the supervisor's own cache and journal calls.

Self time of a span is its duration minus the part of it covered by its
child spans; :func:`layer_metrics` charges self time to named layers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: span name -> layer whose self time it is charged to
SELF_LAYER = {
    "inclusion": "inclusion.s",
    "learner.fit": "learner.s",
    "learner.sample": "learner.s",
    "learner.candidate": "learner.s",
    "cex.generate": "cex.s",
    "verifier.verify": "verifier.s",
    "soundness.check_verification": "soundness.s",
    "soundness.check_certificate": "soundness.s",
    "service.submit": "service.submit_s",
    "service.run": "service.run_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "journal.append": "journal.append_s",
    # item roots: the benchmark's own span around one item or pass; its
    # self time is the code of that layer outside every wrapped call
    "item.snbc": "cegis.self_s",
    "item.scenario": "scenario.self_s",
    "item.service_pass": "service.client_s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs")

    def __init__(self, name: str, parent: Optional[int], item: Any) -> None:
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.item = item
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> Dict[str, Any]:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans for the calls made while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.item: Any = None
        self._stack: List[int] = []
        self._warn_registry: Dict[Any, int] = {}

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.item)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, entry: "Entry", fn: Callable):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with tracer.span(entry.name) as span:
                    result = await fn(*args, **kwargs)
                    if entry.after is not None:
                        entry.after(span.attrs, args, result, None)
                    return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(entry.name) as span:
                pre = entry.before(args) if entry.before is not None else None
                if entry.count_warnings:
                    result, span.attrs["overflow_warnings"] = (
                        tracer.count_overflow_warnings(fn, *args, **kwargs)
                    )
                else:
                    result = fn(*args, **kwargs)
                if entry.after is not None:
                    entry.after(span.attrs, args, result, pre)
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point; restore the originals on exit."""
        patched = []
        try:
            for entry in _entry_points():
                owner, attr = entry.owner, entry.attr
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = self._wrapper(entry, getattr(owner, attr))
                if isinstance(raw, classmethod):
                    # the bound classmethod is what gets wrapped
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                patched.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)

    # -- verifier warnings ---------------------------------------------------
    def count_overflow_warnings(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` recording every warning it raises, then re-emit each
        one through the normal filters, so what is displayed is unchanged;
        returns ``(result, number of IPM overflow RuntimeWarnings)``."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        overflows = 0
        for w in caught:
            if issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message):
                overflows += 1
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno,
                registry=self._warn_registry,
            )
        return result, overflows

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i), default=str) + "\n")


# -- entry points ------------------------------------------------------------
def _soundness_attrs(attrs: Dict[str, Any], bundle, report) -> None:
    """Counts from the checked bundle and its SoundnessReport."""
    if report is None:
        return
    dims = []
    if bundle is not None:
        for cert in bundle.conditions:
            dims.append(len(cert.slack_basis))
            dims.extend(len(m.basis) for m in cert.multipliers)
    attrs["conditions"] = len(report.conditions)
    attrs["shifted"] = sum(1 for c in report.conditions if c.slack_shift > 0)
    attrs["ok"] = bool(report.ok)
    attrs["elapsed_seconds"] = float(report.elapsed_seconds)
    attrs["gram_dim_max"] = max(dims, default=0)
    # computed, not measured: n^3/3 multiply-adds per LDL^T of each Gram
    # block (one unshifted pass; a shifted condition costs more passes)
    attrs["ldlt_ops"] = sum(n ** 3 / 3.0 for n in dims)


@dataclass
class Entry:
    """One wrapped entry point.  ``after(attrs, args, result, pre)`` fills
    span attributes from the returned object; ``before(args)`` captures
    state first; ``count_warnings`` counts IPM overflow warnings."""

    owner: Any
    attr: str
    name: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None
    count_warnings: bool = False


def _entry_points() -> List[Entry]:
    import repro.cegis.snbc as snbc_mod
    import repro.soundness as soundness_pkg
    from repro.cegis.counterexamples import CounterexampleGenerator
    from repro.learner import BarrierLearner, TrainingData
    from repro.service import CertificateCache, CertificationService, JobJournal
    from repro.verifier import SOSVerifier

    def inclusion_after(attrs, args, result, pre):
        attrs["mesh_points"] = int(result.n_mesh_points)

    def fit_before(args):
        return len(args[0].loss_history)

    def fit_after(attrs, args, result, pre):
        attrs["epochs"] = len(args[0].loss_history) - pre

    def cex_after(attrs, args, result, pre):
        attrs["points"] = sum(len(c.points) for c in result)

    def verify_after(attrs, args, result, pre):
        attrs["conditions"] = len(result.conditions)
        attrs["ok"] = bool(result.ok)
        attrs["sdp_iterations"] = sum(c.sdp_iterations for c in result.conditions)
        attrs["not_optimal"] = sum(
            1 for c in result.conditions if c.sdp_status != "optimal"
        )

    def check_verification_after(attrs, args, result, pre):
        _soundness_attrs(attrs, getattr(args[1], "certificate", None), result)

    def check_certificate_after(attrs, args, result, pre):
        _soundness_attrs(attrs, args[1], result)

    def run_after(attrs, args, result, pre):
        config = args[0].config
        counts = result["counts"]
        pooled = config.workers > 0 and not counts["serial_fallbacks"]
        attrs["workers_spawned"] = (
            (config.workers if pooled else 0) + counts["workers_respawned"]
        )
        for key in ("retries", "redeliveries", "cache_hits", "cache_misses"):
            attrs[key] = counts[key]
        attrs["evictions"] = len(result["cache_evictions"])
        attrs["job_latency_s"] = [
            row["latency_s"] for row in result["jobs"].values()
            if not row["from_cache"] and "latency_s" in row
        ]

    return [
        Entry(snbc_mod, "polynomial_inclusion", "inclusion", inclusion_after),
        Entry(snbc_mod, "check_verification", "soundness.check_verification",
              check_verification_after),
        # the scenario item and the cache's read-path recheck both import
        # check_certificate from the package at call time
        Entry(soundness_pkg, "check_certificate", "soundness.check_certificate",
              check_certificate_after),
        Entry(BarrierLearner, "fit", "learner.fit", fit_after, fit_before),
        Entry(BarrierLearner, "candidate", "learner.candidate"),
        Entry(TrainingData, "sample", "learner.sample"),
        Entry(CounterexampleGenerator, "generate", "cex.generate", cex_after),
        Entry(SOSVerifier, "verify", "verifier.verify", verify_after,
              count_warnings=True),
        Entry(CertificationService, "submit", "service.submit"),
        Entry(CertificationService, "run", "service.run", run_after),
        Entry(CertificateCache, "get", "cache.get"),
        Entry(CertificateCache, "put", "cache.put"),
        Entry(JobJournal, "append", "journal.append"),
    ]


# -- per-layer metrics ---------------------------------------------------------
def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def self_times(spans: List[Span]) -> List[float]:
    """Duration minus child coverage, per span (children never overlap:
    every traced call runs on the one benchmark thread)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - child[i] for i, span in enumerate(spans)]


#: metrics that are ratios or maxima; every other metric is a total,
#: reported per traced pass
NOT_PER_PASS = {
    "learner.s_per_epoch", "cegis.iterations_per_proof", "verifier.accept_frac",
    "sdp.s_per_iter", "soundness.shifted_frac", "soundness.gram_dim.max",
    "soundness.share", "service.job_s.p50", "ledger.untimed_frac",
}


def layer_metrics(spans: List[Span], traced_wall_s: float, passes: int) -> Dict[str, float]:
    """Self time per layer plus the counts the spans carry, per traced
    pass, and ``unaccounted_s``: traced wall minus all self time."""
    selfs = self_times(spans)
    out: Dict[str, float] = {key: 0.0 for key in set(SELF_LAYER.values())}
    for span, self_s in zip(spans, selfs):
        out[SELF_LAYER[span.name]] += self_s
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in by_name.get(name, ())))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    fits = by_name.get("learner.fit", [])
    verifies = by_name.get("verifier.verify", [])
    sound = by_name.get("soundness.check_verification", []) + by_name.get(
        "soundness.check_certificate", []
    )
    snbc_items = by_name.get("item.snbc", [])
    proofs = sum(1 for s in snbc_items if s.attrs.get("proven"))
    epochs = total("learner.fit", "epochs")
    sdp_iters = total("verifier.verify", "sdp_iterations")
    sound_conditions = float(sum(s.attrs.get("conditions", 0) for s in sound))
    out.update({
        "inclusion.mesh_points": total("inclusion", "mesh_points"),
        "learner.epochs": epochs,
        "learner.s_per_epoch": ratio(sum(s.duration for s in fits), epochs),
        "learner.recoveries": float(sum(1 for s in fits if "error" in s.attrs)),
        "cex.points": total("cex.generate", "points"),
        "cegis.iterations": total("item.snbc", "iterations"),
        "cegis.iterations_per_proof": ratio(total("item.snbc", "iterations"), proofs),
        "verifier.calls": float(len(verifies)),
        "verifier.conditions": total("verifier.verify", "conditions"),
        "verifier.accept_frac": ratio(
            sum(1 for s in verifies if s.attrs.get("ok")), len(verifies)
        ),
        "sdp.iterations": sdp_iters,
        "sdp.s_per_iter": ratio(sum(s.duration for s in verifies), sdp_iters),
        "sdp.not_optimal": total("verifier.verify", "not_optimal"),
        "sdp.overflow_warnings": total("verifier.verify", "overflow_warnings"),
        "soundness.calls": float(len(sound)),
        "soundness.conditions": sound_conditions,
        "soundness.shifted_frac": ratio(
            sum(s.attrs.get("shifted", 0) for s in sound), sound_conditions
        ),
        "soundness.gram_dim.max": float(
            max((s.attrs.get("gram_dim_max", 0) for s in sound), default=0)
        ),
        "soundness.ldlt_ops_computed": float(sum(s.attrs.get("ldlt_ops", 0.0) for s in sound)),
        "soundness.share": ratio(out["soundness.s"], traced_wall_s),
        "cache.recheck_s": sum(
            s.duration for s in sound
            if s.parent is not None and spans[s.parent].name == "cache.get"
        ),
        "service.job_s.p50": _median(
            [x for s in by_name.get("service.run", ()) for x in s.attrs.get("job_latency_s", ())]
        ),
        "service.workers_spawned": total("service.run", "workers_spawned"),
        "service.retries": total("service.run", "retries"),
        "service.redeliveries": total("service.run", "redeliveries"),
        "cache.hits": total("service.run", "cache_hits"),
        "cache.misses": total("service.run", "cache_misses"),
        "cache.evictions": total("service.run", "evictions"),
        "unaccounted_s": traced_wall_s - sum(selfs),
    })
    out.update(ledger_metrics(spans))
    return {k: v if k in NOT_PER_PASS else v / passes for k, v in out.items()}


def ledger_metrics(spans: List[Span]) -> Dict[str, float]:
    """Cross-check the program's own ledger against the traced spans:
    ``PhaseTimings`` per phase against the matching entry points, the
    recheck's ``SoundnessReport.elapsed_seconds`` against its span, and
    each SNBC item's wall against ``PhaseTimings.total`` (the recheck and
    the loop's own code are outside every phase).  Reported, never failed."""
    root: List[int] = []
    for i, span in enumerate(spans):  # a parent is recorded before its children
        root.append(i if span.parent is None else root[span.parent])
    by_name: Dict[str, List[Span]] = {}
    for i, span in enumerate(spans):
        if spans[root[i]].name == "item.snbc":
            by_name.setdefault(span.name, []).append(span)
    items = by_name.get("item.snbc", [])

    def phase(key: str) -> float:
        return sum(s.attrs.get("timings", {}).get(key, 0.0) for s in items)

    def traced(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    wall = sum(s.duration for s in items)
    untimed = wall - phase("total")
    return {
        "ledger.inclusion_gap_s": phase("inclusion") - traced("inclusion"),
        "ledger.learner_gap_s": phase("learning") - traced("learner.fit"),
        "ledger.cex_gap_s": phase("counterexample") - traced("cex.generate"),
        "ledger.verifier_gap_s": phase("verification") - traced("verifier.verify"),
        "ledger.soundness_gap_s": traced("soundness.check_verification")
        - sum(
            s.attrs.get("elapsed_seconds", 0.0)
            for s in by_name.get("soundness.check_verification", ())
        ),
        "ledger.untimed_s": untimed,
        "ledger.untimed_frac": untimed / wall if wall else 0.0,
    }
