"""Tests for the fleet telemetry store (store.py) and the directory view
of the report CLI (``python -m repro.diagnostics.report <dir>``).

The committed fixtures under ``tests/data/fleet/`` are run artifact
families (the first two copied from real ``results/telemetry/`` runs):

* ``C1-smoke`` — written *after* IPM tracing landed (``sdp.ipm_trace``
  events, audit conditions carrying ``convergence``/``recovery_rung``).
* ``C3-smoke`` — an older-schema trace with none of those fields.
* ``C5-smoke`` — a partially-written family: manifest with no recorded
  outcome plus a stale ``.status.json`` heartbeat (a killed run).
* ``bench-smoke`` — a ``--jobs`` bench-parent trace (manifest
  ``extra.role == "bench_parent"``) holding merged copies of row spans;
  indexed but excluded from aggregates.

``tests/data/fleet_golden.json`` pins the exact ``fleet_summary``
aggregate over them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.diagnostics.report import main as report_main
from repro.diagnostics.report import render_fleet
from repro.telemetry import fleet_summary, load_run, scan_runs
from repro.telemetry.store import RunRecord, _system_and_scale

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(os.path.dirname(__file__), "data", "fleet")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fleet_golden.json")


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------
def test_system_and_scale_parsing():
    assert _system_and_scale("table1/C1", "results/C1-smoke") == ("C1", "smoke")
    assert _system_and_scale("table1/C7", "x/C7-paper") == ("C7", "paper")
    assert _system_and_scale("unknown", "runs/C3-smoke") == ("C3", "smoke")
    assert _system_and_scale("unknown", "runs/mystery") == ("mystery", "unknown")


# ----------------------------------------------------------------------
# load_run over committed fixtures
# ----------------------------------------------------------------------
def test_load_run_new_schema_fixture():
    rec = load_run(os.path.join(FIXTURES, "C1-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.base == "C1-smoke"
    assert rec.name == "table1/C1"
    assert rec.system == "C1"
    assert rec.scale == "smoke"
    assert rec.outcome == "success"
    assert rec.iterations == 2
    assert rec.n_events > 0
    assert not rec.truncated
    # IPM tracing fields present in the new schema
    assert rec.convergence
    assert sum(rec.convergence.values()) >= 1
    assert set(rec.convergence) <= {
        "healthy", "stalling", "diverging", "ill_conditioned", "unknown"
    }
    assert "verification" in rec.phases and "learning" in rec.phases


def test_load_run_old_schema_fixture_degrades_gracefully():
    rec = load_run(os.path.join(FIXTURES, "C3-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.system == "C3"
    assert rec.outcome == "success"
    # pre-tracing artifacts contribute no convergence classes — and that
    # must not break indexing
    assert rec.convergence == {}


def test_load_run_missing_file_returns_none(tmp_path):
    assert load_run(str(tmp_path / "nope.jsonl")) is None


def test_load_run_all_malformed_returns_none(tmp_path):
    p = tmp_path / "junk.jsonl"
    p.write_text("not json\n{broken\n")
    assert load_run(str(p)) is None


def test_load_run_without_manifest_still_indexes(tmp_path):
    p = tmp_path / "orphan-smoke.jsonl"
    p.write_text('{"type":"span","name":"x","span_id":1,"parent_id":null,'
                 '"duration":0.5,"attrs":{"phase":"learning"}}\n')
    rec = load_run(str(p), root=str(tmp_path))
    assert rec is not None
    assert rec.name == "unknown"
    # no manifest at all == partially-written family: explicit marker
    assert rec.outcome == "incomplete"
    assert rec.incomplete
    assert rec.system == "orphan"
    assert rec.scale == "smoke"
    assert rec.phases == {"learning": 0.5}


def test_load_run_flags_truncated_trace(tmp_path):
    p = tmp_path / "cut-smoke.jsonl"
    p.write_text('{"type":"span","name":"x","span_id":1,"parent_id":null,'
                 '"duration":0.1,"attrs":{}}\n'
                 '{"type":"trace_truncated","max_bytes":100,"dropped_events":7}\n')
    rec = load_run(str(p))
    assert rec is not None
    assert rec.truncated


# ----------------------------------------------------------------------
# scan + aggregate
# ----------------------------------------------------------------------
def test_scan_runs_finds_all_fixtures():
    records = scan_runs(FIXTURES)
    assert [r.base for r in records] == [
        "C1-smoke", "C3-smoke", "C5-smoke", "bench-smoke"
    ]


def test_load_run_partial_family_is_incomplete():
    rec = load_run(os.path.join(FIXTURES, "C5-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.name == "table1/C5"
    assert rec.outcome == "incomplete"
    assert rec.incomplete
    assert rec.elapsed_seconds is None
    assert "learning" in rec.phases  # partial trace still contributes


def test_load_run_bench_parent_role():
    rec = load_run(os.path.join(FIXTURES, "bench-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.role == "bench_parent"
    assert rec.outcome == "success"
    assert not rec.incomplete


def test_fleet_summary_aggregates_fixtures():
    summary = fleet_summary(scan_runs(FIXTURES))
    assert summary["kind"] == "fleet_summary"
    # bench-parent trace is listed but excluded from every aggregate
    assert summary["n_runs"] == 3
    assert summary["n_parent_traces"] == 1
    assert summary["n_incomplete"] == 1
    assert summary["n_systems"] == 3
    assert summary["outcomes"] == {"incomplete": 1, "success": 2}
    assert set(summary["systems"]) == {"C1", "C3", "C5"}
    assert len(summary["runs"]) == 4  # listing keeps the parent trace
    c1 = summary["systems"]["C1"]
    assert c1["runs"] == 1
    assert c1["scales"] == ["smoke"]
    assert c1["iterations"]["min"] == c1["iterations"]["max"] == 2
    assert c1["phase_seconds"]["verification"]["total"] > 0
    # the all-runs convergence histogram comes from the C1 trace alone
    assert summary["convergence"]
    assert summary["convergence"] == c1["convergence"]
    assert summary["systems"]["C3"]["convergence"] == {}


def test_fleet_summary_matches_committed_golden():
    summary = fleet_summary(scan_runs(FIXTURES))
    golden = json.load(open(GOLDEN))
    assert summary == golden


def test_fleet_summary_is_deterministic():
    a = fleet_summary(scan_runs(FIXTURES))
    b = fleet_summary(scan_runs(FIXTURES))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fleet_summary_empty_records():
    summary = fleet_summary([])
    assert summary["n_runs"] == 0
    assert summary["systems"] == {}
    assert summary["runs"] == []


def test_run_record_to_dict_rounds_and_sorts():
    rec = RunRecord(base="x", elapsed_seconds=1.23456789,
                    phases={"b": 0.2, "a": float("inf")},
                    convergence={"healthy": 2})
    d = rec.to_dict()
    assert d["elapsed_seconds"] == 1.234568
    assert list(d["phases"]) == ["a", "b"]
    assert d["phases"]["a"] is None  # non-finite scrubbed for JSON
    assert json.dumps(d)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_fleet_cli_text_output(capsys):
    assert report_main([FIXTURES]) == 0
    out = capsys.readouterr().out
    assert "3 run(s) across 3 system(s)" in out
    assert "incomplete=1" in out
    assert "bench-parent traces=1" in out
    assert "C1-smoke" in out and "C3-smoke" in out
    assert "== Systems ==" in out
    assert "IPM convergence classes" in out


def test_fleet_cli_json_matches_golden(capsys):
    assert report_main([FIXTURES, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.load(open(GOLDEN))


def test_fleet_cli_empty_root(tmp_path, capsys):
    assert report_main([str(tmp_path)]) == 1
    assert "no run traces" in capsys.readouterr().err


def test_fleet_cli_missing_root(tmp_path, capsys):
    # a missing TARGET is neither a directory nor a readable run
    assert report_main([str(tmp_path / "absent")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_fleet_cli_rejects_html_for_directory(tmp_path, capsys):
    assert report_main([FIXTURES, "--html", str(tmp_path / "x.html")]) == 2
    assert "single run" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_report_cli_torn_manifest_warns_without_traceback(tmp_path):
    """A manifest torn mid-write (the run was killed while ``session``
    rewrote it) is a warning: the run still reports, exit code 0.  Runs
    the real ``python -m`` entry point, with runpy warnings as errors."""
    root = tmp_path / "fleet"
    shutil.copytree(FIXTURES, root)
    manifest = root / "C1-smoke.manifest.json"
    manifest.write_text(manifest.read_text()[:300])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(REPO, "src"), env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.diagnostics.report", str(root / "C1-smoke")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "warning: unreadable manifest" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "== Phases ==" in proc.stdout
    assert "unaccounted" not in proc.stdout  # no manifest, no elapsed time


def test_fleet_round_trip_over_committed_results_tree():
    """The committed results/telemetry artifacts must index cleanly.

    Tolerant of extra uncommitted local runs in the tree — we only pin
    the committed C1-smoke family (CI runs tests before regenerating
    it), not the tree's total contents.
    """
    root = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    records = scan_runs(root)
    assert records, "committed results/ tree should contain run traces"
    by_base = {r.base: r for r in records}
    assert "telemetry/C1-smoke" in by_base
    c1 = by_base["telemetry/C1-smoke"]
    assert c1.name == "table1/C1"
    assert c1.outcome == "success"
    assert c1.iterations == 2
    summary = fleet_summary(records)
    n_parents = sum(1 for r in records if r.role == "bench_parent")
    assert summary["n_runs"] == len(records) - n_parents
    assert "C1" in summary["systems"]
    assert json.dumps(summary)  # JSON-clean end to end


# ----------------------------------------------------------------------
# partial / stale / empty results trees
# ----------------------------------------------------------------------
def test_scan_tolerates_stale_heartbeat_tree(tmp_path):
    """A tree holding only a mid-run family — trace plus a status
    heartbeat that stopped updating, no finalized manifest — indexes
    without crashing and flags the run ``incomplete``."""
    (tmp_path / "X1-smoke.jsonl").write_text(
        '{"type":"span","name":"snbc.learning","span_id":2,"parent_id":1,'
        '"duration":0.4,"attrs":{"phase":"learning"}}\n'
    )
    (tmp_path / "X1-smoke.status.json").write_text(json.dumps({
        "schema_version": 1, "name": "table1/X1", "pid": 999,
        "started_wall": 1786150000.0, "heartbeat_wall": 1786150002.0,
        "phase": "learning", "outcome": None, "workers": {},
    }))
    records = scan_runs(str(tmp_path))
    assert len(records) == 1  # the status sidecar is not its own run
    assert records[0].incomplete
    assert records[0].outcome == "incomplete"
    summary = fleet_summary(records)
    assert summary["n_incomplete"] == 1
    assert summary["outcomes"] == {"incomplete": 1}
    assert json.dumps(summary)


def test_scan_tolerates_torn_trailing_line(tmp_path):
    """A trace whose writer died mid-line (no trailing newline, torn
    JSON) still indexes from its complete prefix lines."""
    (tmp_path / "Y1-smoke.jsonl").write_text(
        '{"type":"span","name":"snbc.inclusion","span_id":2,"parent_id":1,'
        '"duration":0.2,"attrs":{"phase":"inclusion"}}\n'
        '{"type":"span","name":"snbc.lear'
    )
    records = scan_runs(str(tmp_path))
    assert len(records) == 1
    assert records[0].phases == {"inclusion": 0.2}
    assert records[0].incomplete


def test_fleet_summary_excludes_bench_parent_from_aggregates():
    records = scan_runs(FIXTURES)
    summary = fleet_summary(records)
    # the parent trace's merged span copies must not leak into any
    # per-system phase totals ("smoke" is what its name would parse to)
    assert "smoke" not in summary["systems"]
    listed_roles = {r["base"]: r["role"] for r in summary["runs"]}
    assert listed_roles["bench-smoke"] == "bench_parent"
    assert listed_roles["C1-smoke"] is None


def test_render_fleet_text_marks_truncated():
    rec = RunRecord(base="cut-smoke", system="C9", scale="smoke",
                    outcome="error", truncated=True)
    text = render_fleet(fleet_summary([rec]))
    row = next(l for l in text.splitlines() if l.startswith("cut-smoke"))
    assert "yes" in row


# ----------------------------------------------------------------------
# single-run view over the committed fixture
# ----------------------------------------------------------------------
def test_report_cli_single_run_sections_in_order(capsys):
    assert report_main([os.path.join(FIXTURES, "C1-smoke")]) == 0
    out = capsys.readouterr().out
    headings = [l for l in out.splitlines() if l.startswith("== ")]
    assert headings == [
        "== Run ==", "== Convergence ==", "== Counterexample lineage ==",
        "== Certificate audit ==", "== Phases ==", "== Spans ==",
        "== Metrics ==", "== Caches ==", "== Histograms ==",
    ]
    table = out.split("== Phases ==\n")[1].split("\n\n")[0].splitlines()
    phases = [l.split()[0] for l in table[2:]]  # past header and rule
    assert phases == ["inclusion", "learning", "verification", "soundness",
                      "counterexample", "total", "unaccounted"]
    # manifest elapsed 0.864 s minus the 0.858 s phase sum
    row = next(l for l in out.splitlines() if l.startswith("unaccounted"))
    assert row.split()[1:] == ["0.006", "0.7%"]


def test_report_cli_json_payload_has_no_unaccounted_row(capsys):
    assert report_main([os.path.join(FIXTURES, "C1-smoke.jsonl"),
                        "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "unaccounted" not in payload["phases"]
    assert payload["manifest"]["name"] == "table1/C1"
