"""Run manifests: the "what exactly ran" record next to each trace.

A manifest captures everything needed to interpret (and re-run) a trace:
the configuration echo, the seed, the git commit if available, platform
facts, start/end wall times, and the outcome.  It is deliberately a flat
JSON document so diffs between two runs are greppable.

:func:`write_json_atomic` is the one way a JSON artifact reaches disk,
here and across the repo (BENCH documents, audits, status heartbeats,
cache entries, checkpoints).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform as _platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Optional

MANIFEST_SCHEMA_VERSION = 1


def collect_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit hash, or ``None`` outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except Exception:
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def platform_info() -> Dict[str, str]:
    return {
        "python": sys.version.split()[0],
        "implementation": _platform.python_implementation(),
        "system": _platform.system(),
        "release": _platform.release(),
        "machine": _platform.machine(),
    }


def write_json_atomic(path: str, doc: Any, compact: bool = False) -> str:
    """Write ``doc`` as JSON to ``path`` atomically; returns the path.

    The dump goes to a temp file in the target directory (created when
    missing) and lands with ``os.replace``, so a reader or a crash sees
    the previous file or the new one, never a torn one; the temp file
    is removed on any failure.  Two formats: pretty (``indent=2``,
    sorted keys, trailing newline: the diffable results artifacts) and
    ``compact`` (no whitespace: heartbeats, cache entries, checkpoints).
    Values JSON cannot encode are written as their ``str``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if compact:
                json.dump(doc, fh, separators=(",", ":"), default=str)
            else:
                json.dump(doc, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return str(path)


def _config_echo(config: Any) -> Any:
    """Recursively convert dataclasses/tuples to JSON-friendly values."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            f.name: _config_echo(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
    if isinstance(config, dict):
        return {str(k): _config_echo(v) for k, v in config.items()}
    if isinstance(config, (list, tuple)):
        return [_config_echo(v) for v in config]
    if isinstance(config, (str, int, float, bool)) or config is None:
        return config
    if hasattr(config, "item"):  # numpy scalar
        return config.item()
    return repr(config)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    """Provenance record for one run; written next to its trace."""

    name: str
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    trace_path: Optional[str] = None
    git_sha: Optional[str] = field(default_factory=collect_git_sha)
    platform: Dict[str, str] = field(default_factory=platform_info)
    started_at: str = field(default_factory=_utc_now)
    finished_at: Optional[str] = None
    outcome: Optional[str] = None
    elapsed_seconds: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = MANIFEST_SCHEMA_VERSION
    _t0: float = field(default_factory=time.perf_counter, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        name: str,
        config: Any = None,
        seed: Optional[int] = None,
        trace_path: Optional[str] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Start a manifest, echoing ``config`` (dataclasses welcome)."""
        return cls(
            name=name,
            seed=seed,
            config=_config_echo(config) if config is not None else {},
            trace_path=str(trace_path) if trace_path else None,
            extra=dict(extra),
        )

    def finish(self, outcome: str, **extra: Any) -> "RunManifest":
        """Stamp the end time and outcome (e.g. ``success``/``failure``)."""
        self.finished_at = _utc_now()
        self.outcome = str(outcome)
        self.elapsed_seconds = time.perf_counter() - self._t0
        self.extra.update(extra)
        return self

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out.pop("_t0", None)
        return out

    def write(self, path: str) -> str:
        """Serialize to ``path`` as pretty JSON; returns the path.

        Atomic: ``session`` rewrites the manifest when the run finishes,
        and a process killed mid-dump must leave the previous manifest,
        not a torn one."""
        return write_json_atomic(path, self.to_dict())
