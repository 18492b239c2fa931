"""Benchmark regression gate.

    python -m repro.diagnostics.regress OLD.json NEW.json --max-slowdown 1.3
    python -m repro.diagnostics.regress base.json new.json --systems C1,C3
    python -m repro.diagnostics.regress BENCH_perf_baseline.json BENCH_perf.json

Both files are BENCH documents (see :mod:`repro.diagnostics.bench`); NEW
must be of OLD's kind, and :data:`GATES` picks the comparison.  The gate
**exits nonzero** when NEW regressed against OLD.

For ``BENCH_table1.json`` documents the gate compares system by system:

* **outcome** — a system that succeeded in OLD but not in NEW, or one
  that ran to completion in OLD (``success``/``failure``) and now ends
  with ``timeout``/``error`` — a new failure class gates hard;
* **iterations** — any CEGIS iteration beyond OLD's count (the loop is
  seeded and deterministic, so an extra round is a real behavior
  change);
* **time** — any of ``T_l``/``T_c``/``T_v``/``T_e`` beyond
  ``--max-slowdown`` times the OLD value, ignoring OLD timings below
  :data:`MIN_SECONDS` (tiny phases are all noise);
* **coverage** — a system present in OLD but missing from NEW
  (``--allow-missing`` turns this into a warning).

Audit-margin changes (e.g. a grid margin flipping sign) are reported as
warnings but do not gate: margins move with every retrain and the hard
outcome check already covers soundness.

For ``BENCH_perf.json`` documents the gate is **loose on timings**
(``--max-slowdown``, wall-clocks are machine-dependent) but **hard on
correctness**: every bench's ``identical`` flag must hold in NEW, and
the e2e row's CEGIS outcome/iteration count must match OLD.

For ``BENCH_service.json`` documents the gate is hard on the chaos
invariants (every job terminal, zero corrupt cache entries served,
serial identity preserved), per-key outcome, and cache hit rate (it
must not fall below OLD's); retry/redelivery counts only warn.

For ``BENCH_scenarios.json`` documents the gate is hard on the sweep
invariants (every outcome terminal, zero rational-recheck failures,
minted expectations met), per-seed outcome (the factory is a pure
function of the seed), cell decomposition, and region-spec hash; verify
timings only report.

Exit codes: 0 no regression, 1 regression(s), 2 unreadable/invalid input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.diagnostics.bench import (
    SCENARIO_OUTCOMES,
    TIMING_KEYS,
    load_bench_document,
)

#: OLD timings below this many seconds are never gated (all noise)
MIN_SECONDS = 0.05
#: CEGIS iterations NEW may add over OLD (seeded + deterministic: none)
MAX_EXTRA_ITERATIONS = 0


# ----------------------------------------------------------------------
# BENCH_table1
# ----------------------------------------------------------------------
def compare_benches(
    old: Dict[str, Any],
    new: Dict[str, Any],
    max_slowdown: float,
    systems: Optional[Sequence[str]] = None,
    allow_missing: bool = False,
) -> Dict[str, List[str]]:
    """Pure comparison; returns ``{"regressions": [...], "warnings": [...]}``."""
    regressions: List[str] = []
    warnings: List[str] = []
    old_systems = old["systems"]
    new_systems = new["systems"]
    names = list(old_systems) if systems is None else [
        s for s in systems if s in old_systems
    ]
    if systems is not None:
        for s in systems:
            if s not in old_systems:
                warnings.append(f"{s}: not in OLD baseline; skipped")
    if old.get("scale") != new.get("scale"):
        warnings.append(
            f"scale mismatch: OLD={old.get('scale')!r} NEW={new.get('scale')!r}"
            " — timing comparison is apples-to-oranges"
        )

    for name in names:
        o = old_systems[name]
        n = new_systems.get(name)
        if n is None:
            (warnings if allow_missing else regressions).append(
                f"{name}: present in OLD but missing from NEW"
            )
            continue
        if o["outcome"] == "success" and n["outcome"] != "success":
            regressions.append(
                f"{name}: outcome regressed ({o['outcome']} -> {n['outcome']})"
            )
            continue  # timings of a failed run are not comparable
        if n["outcome"] in ("timeout", "error") and o["outcome"] not in (
            "timeout",
            "error",
        ):
            # a system that used to run to completion (even unsuccessfully)
            # now dies on a deadline or a typed failure: a new failure
            # class is a hard regression, not a tolerable flake
            regressions.append(
                f"{name}: new failure class "
                f"({o['outcome']} -> {n['outcome']}"
                + (
                    f", {n['error'].get('kind')}" if n.get("error") else ""
                )
                + ")"
            )
            continue
        if o["outcome"] == "success":
            extra = int(n["iterations"]) - int(o["iterations"])
            if extra > MAX_EXTRA_ITERATIONS:
                regressions.append(
                    f"{name}: iterations {o['iterations']} -> "
                    f"{n['iterations']} (+{extra} > "
                    f"allowed +{MAX_EXTRA_ITERATIONS})"
                )
        for key in TIMING_KEYS:
            t_old = float(o["timings"].get(key, 0.0))
            t_new = float(n["timings"].get(key, 0.0))
            if t_old < MIN_SECONDS:
                continue
            if t_new > t_old * max_slowdown:
                regressions.append(
                    f"{name}: {key} {t_old:.3f}s -> {t_new:.3f}s "
                    f"({t_new / t_old:.2f}x > {max_slowdown:.2f}x)"
                )
        o_audit, n_audit = o.get("audit"), n.get("audit")
        if o_audit and n_audit:
            o_m = o_audit.get("min_grid_margin")
            n_m = n_audit.get("min_grid_margin")
            if o_m is not None and n_m is not None and o_m > 0 >= n_m:
                warnings.append(
                    f"{name}: min grid margin flipped sign "
                    f"({o_m:.3e} -> {n_m:.3e})"
                )
    return {"regressions": regressions, "warnings": warnings}


def render_bench_table(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    header = f"{'system':<8}{'outcome':<20}{'iters':<12}{'T_e old':>10}{'T_e new':>10}{'ratio':>8}"
    lines = [header, "-" * len(header)]
    for name in sorted(set(old["systems"]) | set(new["systems"])):
        o = old["systems"].get(name)
        n = new["systems"].get(name)

        def fmt(entry, key):
            return "-" if entry is None else str(entry.get(key))

        t_old = float(o["timings"]["T_e"]) if o else float("nan")
        t_new = float(n["timings"]["T_e"]) if n else float("nan")
        ratio = t_new / t_old if o and n and t_old > 0 else float("nan")
        lines.append(
            f"{name:<8}"
            f"{fmt(o, 'outcome') + '->' + fmt(n, 'outcome'):<20}"
            f"{fmt(o, 'iterations') + '->' + fmt(n, 'iterations'):<12}"
            f"{t_old:>10.3f}{t_new:>10.3f}{ratio:>8.2f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# BENCH_perf
# ----------------------------------------------------------------------
def compare_perf_benches(
    old: Dict[str, Any],
    new: Dict[str, Any],
    max_slowdown: float,
    allow_missing: bool = False,
) -> Dict[str, List[str]]:
    """Gate two BENCH_perf documents.

    Timing checks are loose (``max_slowdown``: microbench wall-clocks
    swing with the machine); the ``identical`` flags and the e2e
    correctness row are hard.
    """
    regressions: List[str] = []
    warnings: List[str] = []
    for name, o in old["benches"].items():
        n = new["benches"].get(name)
        if n is None:
            (warnings if allow_missing else regressions).append(
                f"{name}: present in OLD but missing from NEW"
            )
            continue
        if not n.get("identical", False):
            regressions.append(
                f"{name}: optimized path diverged from the reference path"
            )
        o_corr, n_corr = o.get("correctness"), n.get("correctness")
        if o_corr and n_corr:
            if n_corr.get("outcome") != o_corr.get("outcome"):
                regressions.append(
                    f"{name}: outcome regressed "
                    f"({o_corr.get('outcome')} -> {n_corr.get('outcome')})"
                )
            elif n_corr.get("iterations") != o_corr.get("iterations"):
                regressions.append(
                    f"{name}: iterations {o_corr.get('iterations')} -> "
                    f"{n_corr.get('iterations')}"
                )
        t_old = float(o.get("seconds", 0.0))
        t_new = float(n.get("seconds", 0.0))
        if t_old >= MIN_SECONDS and t_new > t_old * max_slowdown:
            regressions.append(
                f"{name}: {t_old:.3f}s -> {t_new:.3f}s "
                f"({t_new / t_old:.2f}x > {max_slowdown:.2f}x)"
            )
    return {"regressions": regressions, "warnings": warnings}


def render_perf_table(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    header = (
        f"{'bench':<18}{'old s':>10}{'new s':>10}{'ratio':>8}"
        f"{'speedup':>9}{'identical':>11}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(set(old["benches"]) | set(new["benches"])):
        o = old["benches"].get(name)
        n = new["benches"].get(name)
        t_old = float(o["seconds"]) if o else float("nan")
        t_new = float(n["seconds"]) if n else float("nan")
        ratio = t_new / t_old if o and n and t_old > 0 else float("nan")
        speedup = n.get("speedup") if n else None
        lines.append(
            f"{name:<18}{t_old:>10.3f}{t_new:>10.3f}{ratio:>8.2f}"
            f"{(speedup if speedup is not None else float('nan')):>9.2f}"
            f"{str(bool(n.get('identical'))) if n else '-':>11}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# BENCH_scenarios
# ----------------------------------------------------------------------
def compare_scenario_benches(
    old: Dict[str, Any],
    new: Dict[str, Any],
    allow_missing: bool = False,
) -> Dict[str, List[str]]:
    """Gate two BENCH_scenarios documents.

    Hard: the NEW invariants (all outcomes terminal, no rational-recheck
    failure, expectations met), any per-seed outcome flip, any per-seed
    cell-count or region-spec-hash change, and coverage.  Soft: timings
    (reported via the table, never gated).
    """
    regressions: List[str] = []
    warnings: List[str] = []

    inv = new.get("invariants", {})
    if not inv.get("all_terminal", False):
        regressions.append(
            "invariant: not every scenario reached a terminal outcome"
        )
    if not inv.get("no_soundness_failures", False):
        regressions.append(
            "invariant: a certificate failed the exact rational recheck"
        )
    if not inv.get("expectations_met", False):
        regressions.append(
            "invariant: a scenario's outcome contradicts its minted "
            "expectation (certifiable<->infeasible flip)"
        )

    for seed, o in old.get("scenarios", {}).items():
        n = new.get("scenarios", {}).get(seed)
        if n is None:
            (warnings if allow_missing else regressions).append(
                f"seed {seed}: present in OLD but missing from NEW"
            )
            continue
        if n.get("outcome") != o.get("outcome"):
            regressions.append(
                f"seed {seed}: outcome flipped "
                f"({o.get('outcome')} -> {n.get('outcome')})"
            )
            continue
        if n.get("cells") != o.get("cells"):
            regressions.append(
                f"seed {seed}: cell decomposition changed "
                f"({o.get('cells')} -> {n.get('cells')})"
            )
        if n.get("psi_spec_key") != o.get("psi_spec_key"):
            regressions.append(
                f"seed {seed}: region spec hash changed "
                f"({o.get('psi_spec_key')} -> {n.get('psi_spec_key')})"
            )
    return {"regressions": regressions, "warnings": warnings}


def render_scenario_table(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    header = f"{'outcome':<12}{'old':>8}{'new':>8}"
    lines = [header, "-" * len(header)]
    for outcome in ("total",) + SCENARIO_OUTCOMES:
        lines.append(
            f"{outcome:<12}"
            f"{int(old.get('counts', {}).get(outcome, 0)):>8}"
            f"{int(new.get('counts', {}).get(outcome, 0)):>8}"
        )
    flips = [
        seed
        for seed, o in old.get("scenarios", {}).items()
        if (n := new.get("scenarios", {}).get(seed)) is not None
        and n.get("outcome") != o.get("outcome")
    ]
    lines.append(
        f"outcome flips: {len(flips)}"
        + (f" (seeds {', '.join(sorted(flips)[:10])})" if flips else "")
    )
    o_t = old.get("timings", {})
    n_t = new.get("timings", {})
    lines.append(
        f"mean verify: {float(o_t.get('mean_verify_seconds', 0)):.3f}s"
        f" -> {float(n_t.get('mean_verify_seconds', 0)):.3f}s"
        " (soft)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# BENCH_service
# ----------------------------------------------------------------------
def compare_service_benches(
    old: Dict[str, Any],
    new: Dict[str, Any],
    allow_missing: bool = False,
) -> Dict[str, List[str]]:
    """Gate two BENCH_service documents.

    Hard: invariants must hold in NEW, no per-key success→dead_letter
    flip, and the cache hit rate must not fall below OLD's.  Soft:
    retry/redelivery counts (chaos intensity is configuration, not
    behavior).
    """
    regressions: List[str] = []
    warnings: List[str] = []

    inv = new.get("invariants", {})
    if not inv.get("all_terminal", False):
        regressions.append("invariant: not every job reached a terminal state")
    if not inv.get("no_corrupt_served", False):
        regressions.append("invariant: a corrupt cache entry was served")
    old_inv = old.get("invariants", {})
    if old_inv.get("serial_identical") and not inv.get("serial_identical"):
        regressions.append(
            "invariant: payloads no longer bitwise-identical to the "
            "fault-free serial run"
        )

    for key, o in old.get("jobs", {}).items():
        n = new.get("jobs", {}).get(key)
        if n is None:
            (warnings if allow_missing else regressions).append(
                f"{key[:16]}: present in OLD but missing from NEW"
            )
            continue
        if o.get("status") == "success" and n.get("status") != "success":
            regressions.append(
                f"{key[:16]}: outcome regressed "
                f"({o.get('status')} -> {n.get('status')})"
            )

    old_rate = float(old.get("cache", {}).get("hit_rate", 0.0))
    new_rate = float(new.get("cache", {}).get("hit_rate", 0.0))
    if new_rate + 1e-9 < old_rate:
        regressions.append(
            f"cache hit rate fell: {old_rate:.2%} -> {new_rate:.2%} "
            f"(floor {old_rate:.2%})"
        )

    o_retries = int(old.get("counts", {}).get("retries", 0))
    n_retries = int(new.get("counts", {}).get("retries", 0))
    if n_retries != o_retries:
        warnings.append(f"retries changed: {o_retries} -> {n_retries}")
    o_redeliv = int(old.get("counts", {}).get("redeliveries", 0))
    n_redeliv = int(new.get("counts", {}).get("redeliveries", 0))
    if n_redeliv != o_redeliv:
        warnings.append(
            f"redeliveries changed: {o_redeliv} -> {n_redeliv}"
        )
    return {"regressions": regressions, "warnings": warnings}


def render_service_table(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    header = (
        f"{'job':<18}{'old status':<14}{'new status':<14}"
        f"{'att':>4}{'redel':>6}{'cache':>6}"
    )
    lines = [header, "-" * len(header)]
    for key in sorted(set(old.get("jobs", {})) | set(new.get("jobs", {}))):
        o = old.get("jobs", {}).get(key, {})
        n = new.get("jobs", {}).get(key, {})
        lines.append(
            f"{key[:16]:<18}{o.get('status', '-'):<14}"
            f"{n.get('status', '-'):<14}"
            f"{n.get('attempts', 0):>4}{n.get('redeliveries', 0):>6}"
            f"{str(bool(n.get('from_cache'))):>6}"
        )
    lines.append(
        f"cache hit rate: {float(old.get('cache', {}).get('hit_rate', 0)):.2%}"
        f" -> {float(new.get('cache', {}).get('hit_rate', 0)):.2%}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
#: document kind -> (compare(old, new, cli args), render(old, new))
GATES = {
    "BENCH_table1": (
        lambda old, new, args: compare_benches(
            old, new, args.max_slowdown, args.systems, args.allow_missing
        ),
        render_bench_table,
    ),
    "BENCH_perf": (
        lambda old, new, args: compare_perf_benches(
            old, new, args.max_slowdown, args.allow_missing
        ),
        render_perf_table,
    ),
    "BENCH_scenarios": (
        lambda old, new, args: compare_scenario_benches(
            old, new, args.allow_missing
        ),
        render_scenario_table,
    ),
    "BENCH_service": (
        lambda old, new, args: compare_service_benches(
            old, new, args.allow_missing
        ),
        render_service_table,
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnostics.regress", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("old", help="baseline BENCH document")
    parser.add_argument("new", help="candidate BENCH document of the same kind")
    parser.add_argument("--max-slowdown", type=float, default=1.3,
                        help="allowed per-timing ratio NEW/OLD (default 1.3)")
    parser.add_argument("--systems", default=None,
                        help="comma-separated subset to compare "
                             "(BENCH_table1)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="entries missing from NEW warn instead of fail")
    args = parser.parse_args(argv)
    args.systems = (
        [s.strip() for s in args.systems.split(",") if s.strip()]
        if args.systems
        else None
    )

    try:
        old = load_bench_document(args.old)
        new = load_bench_document(args.new, kind=old["kind"])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    compare, render = GATES[old["kind"]]
    outcome = compare(old, new, args)
    print(render(old, new))
    for w in outcome["warnings"]:
        print(f"warning: {w}")
    if outcome["regressions"]:
        print(f"\n{len(outcome['regressions'])} regression(s):")
        for r in outcome["regressions"]:
            print(f"  FAIL {r}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
