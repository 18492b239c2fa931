"""The asyncio supervision tree over the certification worker pool.

One :class:`CertificationService` owns a service *root* directory::

    <root>/journal.jsonl          write-ahead job journal
    <root>/cache/                 content-addressed certificate store
    <root>/work/                  per-job checkpoints (PR 4 protocol)
    <root>/service.status.json    supervisor heartbeat (tail --fleet)
    <root>/worker-<i>.status.json worker-lane heartbeats

and drives every submitted request to a terminal state:

* **cache first** — a verified hit (digest + exact recheck) is served
  without touching a worker and journaled as ``cache_hit``;
* **work-stealing pool** — one logical queue feeds however many process
  workers are alive; an idle worker takes the oldest ready job;
* **retry with backoff** — failures reported by a live worker are
  classified by the shared :class:`~repro.resilience.RetryPolicy`
  (transient → exponential backoff + deterministic jitter, terminal →
  fail fast to the dead-letter record);
* **dead/stalled workers** — a worker whose process died, or whose
  heartbeat aged past ``worker_stall_timeout_s`` while it held a job,
  is killed and respawned and its job requeued (``redeliver``), at most
  ``max_redeliveries`` times before the job dead-letters;
* **graceful degradation** — when the pool cannot be (re)built, the
  supervisor falls back to serial in-process execution of the same
  queue (same journal, cache, and retry policy);
* **crash-safe restart** — :meth:`recover` replays the journal:
  completed jobs are served from the verified cache (and **re-executed
  only if** their cache entry is gone or fails verification), everything
  else is requeued with its attempt/redelivery counts intact, so a
  SIGKILLed supervisor finishes its batch without running any job to
  completion twice.

Counters (``service.retries``, ``service.redeliveries``,
``service.cache.{hits,misses,evictions}``, ``service.dead_letters``,
``service.workers.respawned``) land in the active telemetry session,
and the supervisor's ``status.json`` carries a ``service`` block the
fleet board renders (queue depth, in-flight, retries, dead-letters).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.errors import BudgetExhausted, WorkerCrash
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.service.cache import CertificateCache
from repro.service.jobs import execute_job
from repro.service.journal import JobJournal, replay_journal
from repro.service.queue import Job, JobQueue, JobStatus
from repro.service.request import CertificationRequest
from repro.service.worker import error_payload, worker_main
from repro.telemetry import get_telemetry
from repro.telemetry.status import StatusWriter


@dataclass(frozen=True)
class ServiceConfig:
    """Supervision policy for one service run."""

    #: process workers; 0 selects serial in-process execution outright
    workers: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: worker deaths/stalls one job survives before dead-lettering
    max_redeliveries: int = 2
    #: heartbeat age after which a job-holding worker is presumed wedged
    #: and killed (requeue-on-deadline); generous by default — workers
    #: beat from a thread even while computing
    worker_stall_timeout_s: float = 60.0
    #: hard per-attempt wall bound enforced by the supervisor (fail fast
    #: to dead-letter, per the BudgetExhausted policy); None disables —
    #: certify jobs should prefer their internal ``time_budget_s``,
    #: which ends in a clean ``timeout`` payload instead
    job_deadline_s: Optional[float] = None
    tick_s: float = 0.02
    heartbeat_interval_s: float = 0.5
    serial_fallback: bool = True
    verify_cache_on_read: bool = True
    cache_max_denominator: Optional[int] = None
    #: serialized FaultSpec dicts armed inside workers (chaos testing)
    worker_faults: Tuple[Dict[str, Any], ...] = ()
    #: worker slots that receive ``worker_faults`` (initial spawn only
    #: when ``worker_faults_once`` — a respawned worker starts clean, so
    #: an injected kill cannot loop forever)
    worker_fault_slots: Tuple[int, ...] = (0,)
    worker_faults_once: bool = True
    #: multiprocessing start method (None = platform default)
    mp_start_method: Optional[str] = None
    compact_journal_on_finish: bool = True


class _WorkerHandle:
    """Supervisor-side view of one pool slot."""

    def __init__(self, slot: int, proc: Any, conn: Any,
                 heartbeat_path: str) -> None:
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.heartbeat_path = heartbeat_path
        #: key of the job this slot owns (set at dispatch, cleared on
        #: done/error — a dead worker with a key triggers redelivery)
        self.current_key: Optional[str] = None
        self.jobs_done = 0


class CertificationService:
    """Supervised async job engine over a service root directory."""

    def __init__(self, root: str, config: Optional[ServiceConfig] = None):
        self.root = str(root)
        self.config = config or ServiceConfig()
        os.makedirs(self.root, exist_ok=True)
        self.workdir = os.path.join(self.root, "work")
        os.makedirs(self.workdir, exist_ok=True)
        self.journal = JobJournal(os.path.join(self.root, "journal.jsonl"))
        self.cache = CertificateCache(
            os.path.join(self.root, "cache"),
            verify_on_read=self.config.verify_cache_on_read,
            max_denominator=self.config.cache_max_denominator,
        )
        self.queue = JobQueue()
        self.status = StatusWriter(
            os.path.join(self.root, "service.status.json"),
            name="service",
        )
        self.counts: Dict[str, int] = {
            "submitted": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "retries": 0,
            "redeliveries": 0,
            "dead_letters": 0,
            "workers_respawned": 0,
            "workers_killed_stalled": 0,
            "serial_fallbacks": 0,
        }
        self._workers: Dict[int, _WorkerHandle] = {}
        self._serial_mode = self.config.workers <= 0
        self._fault_generation = 0
        self._mp = (
            multiprocessing.get_context(self.config.mp_start_method)
            if self.config.mp_start_method
            else multiprocessing.get_context()
        )

    # -- intake ---------------------------------------------------------
    def submit(
        self, request: "CertificationRequest | Dict[str, Any]"
    ) -> Job:
        """Accept a request: journal it, then serve from cache or queue.

        Duplicate keys coalesce — within a batch and across restarts.
        """
        if not isinstance(request, CertificationRequest):
            request = CertificationRequest.from_dict(dict(request))
        job = self.queue.jobs.get(request.key())
        if job is not None:
            return job
        job = self.queue.submit(request, submitted_at=time.monotonic())
        self.counts["submitted"] += 1
        self.journal.append(
            "submit", job.key, request=request.manifest()
        )
        cached = self.cache.get(request)
        if cached is not None:
            self.counts["cache_hits"] += 1
            self.journal.append("cache_hit", job.key)
            self.queue.mark_done(
                job, cached, time.monotonic(), from_cache=True
            )
        else:
            self.counts["cache_misses"] += 1
        return job

    def recover(self) -> int:
        """Replay the journal into the queue (call before ``run`` on a
        restarted root).  Returns the number of jobs requeued."""
        state = replay_journal(self.journal.path)
        requeued = 0
        for key, record in state.jobs.items():
            manifest = record.get("request")
            if manifest is None:
                continue  # submit record lost to a torn write
            request = CertificationRequest.from_dict(dict(manifest))
            job = self.queue.submit(request, submitted_at=time.monotonic())
            job.attempts = int(record.get("attempts", 0))
            job.redeliveries = int(record.get("redeliveries", 0))
            status = record.get("status")
            if status == "complete":
                cached = self.cache.get(request)
                if cached is not None:
                    self.counts["cache_hits"] += 1
                    self.queue.mark_done(
                        job, cached, time.monotonic(), from_cache=True
                    )
                    continue
                # journal says done but the cache cannot prove it:
                # recompute (never serve an unverifiable claim)
                requeued += 1
            elif status == "dead_letter":
                self.queue.mark_dead_letter(
                    job, record.get("error"), time.monotonic()
                )
                continue
            else:
                requeued += 1
        return requeued

    # -- worker pool ----------------------------------------------------
    def _spawn_worker(self, slot: int) -> Optional[_WorkerHandle]:
        fault_point("service.pool_spawn")
        specs: List[Dict[str, Any]] = []
        if (
            self.config.worker_faults
            and slot in self.config.worker_fault_slots
            and not (self.config.worker_faults_once
                     and self._fault_generation > 0)
        ):
            specs = [dict(s) for s in self.config.worker_faults]
        parent_conn, child_conn = self._mp.Pipe()
        heartbeat_path = os.path.join(
            self.root, f"worker-{slot}.status.json"
        )
        proc = self._mp.Process(
            target=worker_main,
            args=(slot, child_conn, heartbeat_path, self.workdir, specs,
                  self.config.heartbeat_interval_s),
            daemon=True,
            name=f"repro-service-worker-{slot}",
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(slot, proc, parent_conn, heartbeat_path)

    def _build_pool(self) -> None:
        if self._serial_mode:
            return
        for slot in range(self.config.workers):
            try:
                handle = self._spawn_worker(slot)
            except Exception:
                handle = None
            if handle is not None:
                self._workers[slot] = handle
        self._fault_generation += 1
        if not self._workers and self.config.serial_fallback:
            self.counts["serial_fallbacks"] += 1
            self._serial_mode = True

    def _respawn(self, slot: int) -> None:
        try:
            handle = self._spawn_worker(slot)
        except Exception:
            handle = None
        if handle is not None:
            self._workers[slot] = handle
            self.counts["workers_respawned"] += 1
            get_telemetry().metrics.inc("service.workers.respawned")
            return
        self._workers.pop(slot, None)
        if not self._workers and self.config.serial_fallback:
            # the pool is gone and cannot come back: degrade, don't hang
            self.counts["serial_fallbacks"] += 1
            self._serial_mode = True

    def _stop_pool(self) -> None:
        for handle in self._workers.values():
            try:
                handle.conn.send({"op": "stop"})
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._workers.values():
            handle.proc.join(max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # -- failure handling ------------------------------------------------
    def _fail_job(self, job: Job, error: Dict[str, Any]) -> None:
        """Route a classified failure through the retry policy."""
        policy = self.config.retry
        if policy.should_retry_kind(error.get("kind"), job.attempts):
            delay = policy.delay_s(job.attempts, token=job.key)
            self.counts["retries"] += 1
            get_telemetry().metrics.inc("service.retries")
            self.journal.append(
                "retry", job.key, attempt=job.attempts,
                delay_s=round(delay, 6),
                error={k: v for k, v in error.items() if k != "traceback"},
            )
            self.queue.mark_retry(job, error, time.monotonic() + delay)
        else:
            self._dead_letter(job, error)

    def _dead_letter(self, job: Job, error: Dict[str, Any]) -> None:
        self.counts["dead_letters"] += 1
        get_telemetry().metrics.inc("service.dead_letters")
        self.journal.append(
            "dead_letter", job.key,
            error={k: v for k, v in error.items() if k != "traceback"},
        )
        self.queue.mark_dead_letter(job, error, time.monotonic())

    def _redeliver(self, job: Job, reason: str) -> None:
        """A worker died or stalled while holding ``job``."""
        crash = WorkerCrash(
            f"worker lost mid-job ({reason})", system=job.key[:16]
        ).to_dict()
        if job.redeliveries >= self.config.max_redeliveries:
            self._dead_letter(job, crash)
            return
        self.counts["redeliveries"] += 1
        get_telemetry().metrics.inc("service.redeliveries")
        delay = self.config.retry.delay_s(
            job.redeliveries + 1, token=job.key
        )
        self.journal.append(
            "redeliver", job.key, redeliveries=job.redeliveries + 1,
            reason=reason, delay_s=round(delay, 6),
        )
        self.queue.mark_redelivered(job, time.monotonic() + delay)

    def _complete_job(self, job: Job, payload: Dict[str, Any]) -> None:
        self.cache.put(job.request, payload)
        self.journal.append("complete", job.key)
        self.queue.mark_done(job, payload, time.monotonic())

    # -- pool event handling ---------------------------------------------
    def _drain_worker_messages(self) -> bool:
        progressed = False
        for handle in list(self._workers.values()):
            while True:
                try:
                    if not handle.conn.poll():
                        break
                    message = handle.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    break  # death handled by liveness check
                progressed = True
                op = message.get("op")
                key = message.get("key")
                job = self.queue.jobs.get(key) if key else None
                if op == "started" or job is None:
                    continue
                if op == "done":
                    handle.current_key = None
                    handle.jobs_done += 1
                    self._complete_job(job, message.get("payload") or {})
                    self.status.worker_update(
                        handle.slot, state="idle", job=None,
                        done=handle.jobs_done,
                    )
                elif op == "error":
                    handle.current_key = None
                    self._fail_job(job, message.get("error") or {})
                    self.status.worker_update(
                        handle.slot, state="idle", job=None,
                    )
        return progressed

    def _heartbeat_age(self, handle: _WorkerHandle, now_wall: float) -> float:
        from repro.telemetry.status import read_status

        status = read_status(handle.heartbeat_path)
        if not status:
            return 0.0  # just spawned: no file yet is not a stall
        beat = status.get("heartbeat_wall")
        if not isinstance(beat, (int, float)):
            return 0.0
        return max(0.0, now_wall - float(beat))

    def _check_worker_liveness(self) -> None:
        now_wall = time.time()
        now = time.monotonic()
        for slot, handle in list(self._workers.items()):
            if not handle.proc.is_alive():
                key = handle.current_key
                if key and key in self.queue.jobs:
                    self._redeliver(
                        self.queue.jobs[key],
                        f"worker {slot} died "
                        f"(exitcode={handle.proc.exitcode})",
                    )
                self.status.worker_update(slot, state="dead")
                self._respawn(slot)
                continue
            if handle.current_key:
                job = self.queue.jobs.get(handle.current_key)
                stalled = (
                    self._heartbeat_age(handle, now_wall)
                    > self.config.worker_stall_timeout_s
                )
                overdue = (
                    self.config.job_deadline_s is not None
                    and job is not None
                    and job.started_at is not None
                    and now - job.started_at > self.config.job_deadline_s
                )
                if not stalled and not overdue:
                    continue
                handle.proc.terminate()
                handle.proc.join(1.0)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(1.0)
                if overdue and job is not None:
                    # fail fast: a spent deadline is not retryable
                    self._dead_letter(
                        job,
                        BudgetExhausted(
                            "service job deadline "
                            f"({self.config.job_deadline_s}s) exceeded",
                            system=job.key[:16],
                        ).to_dict(),
                    )
                elif job is not None:
                    self.counts["workers_killed_stalled"] += 1
                    self._redeliver(job, f"worker {slot} stalled")
                self.status.worker_update(
                    slot, state="killed",
                    reason="deadline" if overdue else "stalled",
                )
                self._respawn(slot)

    def _dispatch(self) -> bool:
        progressed = False
        now = time.monotonic()
        for handle in self._workers.values():
            if handle.current_key is not None or not handle.proc.is_alive():
                continue
            job = self.queue.next_ready(now)
            if job is None:
                break
            self.queue.mark_running(job, handle.slot, now)
            handle.current_key = job.key
            self.journal.append(
                "start", job.key, attempt=job.attempts, worker=handle.slot
            )
            try:
                handle.conn.send({
                    "op": "job",
                    "key": job.key,
                    "attempt": job.attempts,
                    "request": job.request.manifest(),
                })
            except (OSError, ValueError, BrokenPipeError):
                # worker died between liveness check and send: requeue
                handle.current_key = None
                self._redeliver(job, f"worker {handle.slot} send failed")
                continue
            self.status.worker_update(
                handle.slot, state="running", job=job.key[:16],
                attempt=job.attempts,
            )
            progressed = True
        return progressed

    def _run_one_serial(self) -> bool:
        """Degraded mode: execute the next ready job in-process."""
        now = time.monotonic()
        job = self.queue.next_ready(now)
        if job is None:
            return False
        self.queue.mark_running(job, -1, now)
        self.journal.append(
            "start", job.key, attempt=job.attempts, worker=-1
        )
        try:
            payload = execute_job(
                job.request, workdir=self.workdir, attempt=job.attempts
            )
        except BaseException as exc:
            self._fail_job(job, error_payload(exc))
        else:
            self._complete_job(job, payload)
        return True

    # -- status ----------------------------------------------------------
    def _service_block(self) -> Dict[str, Any]:
        counts = self.queue.counts()
        return {
            "queue_depth": counts[JobStatus.PENDING]
            + counts[JobStatus.RETRY_WAIT],
            "in_flight": counts[JobStatus.RUNNING],
            "done": counts[JobStatus.DONE],
            "dead_letters": counts[JobStatus.DEAD_LETTER],
            "total": len(self.queue.jobs),
            "retries": self.counts["retries"],
            "redeliveries": self.counts["redeliveries"],
            "cache_hits": self.counts["cache_hits"],
            "cache_evictions": len(self.cache.eviction_log),
            "workers": len(self._workers),
            "serial_mode": self._serial_mode,
        }

    def _update_status(self, force: bool = False) -> None:
        self.status.update(
            force=force, phase="serving", service=self._service_block()
        )

    # -- main loop --------------------------------------------------------
    async def run(self) -> Dict[str, Any]:
        """Drive every submitted job to a terminal state; returns
        :meth:`results`.  Idempotent across restarts when :meth:`recover`
        was called first.  A batch served entirely from the cache forks
        no workers."""
        if not self.queue.all_terminal():
            self._build_pool()
        self._update_status(force=True)
        try:
            while not self.queue.all_terminal():
                progressed = False
                if self._workers:
                    progressed |= self._drain_worker_messages()
                    self._check_worker_liveness()
                    progressed |= self._dispatch()
                if self._serial_mode:
                    progressed |= self._run_one_serial()
                elif not self._workers:
                    # no pool and no serial fallback permitted: the
                    # remaining jobs can never run — dead-letter them
                    for job in list(self.queue.jobs.values()):
                        if not job.terminal:
                            self._dead_letter(
                                job,
                                WorkerCrash(
                                    "worker pool unavailable and serial "
                                    "fallback disabled",
                                ).to_dict(),
                            )
                self._update_status()
                if not progressed:
                    await asyncio.sleep(self.config.tick_s)
        finally:
            self._stop_pool()
            self.journal.sync()
            if self.config.compact_journal_on_finish:
                try:
                    self.journal.compact()
                except OSError:
                    pass
            outcome = (
                "success"
                if all(
                    j.status == JobStatus.DONE
                    for j in self.queue.jobs.values()
                )
                else "partial"
            )
            self.status.update(force=True, service=self._service_block())
            self.status.finish(outcome)
        return self.results()

    def close(self) -> None:
        self._stop_pool()
        self.journal.close()

    # -- results ----------------------------------------------------------
    def results(self) -> Dict[str, Any]:
        jobs = {}
        for key, job in self.queue.jobs.items():
            row = job.summary()
            if job.result is not None:
                row["outcome"] = job.result.get("outcome")
            jobs[key] = row
        return {
            "jobs": jobs,
            "counts": dict(self.counts),
            "cache_evictions": [
                {"key": k, "layer": layer, "message": msg}
                for k, layer, msg in self.cache.eviction_log
            ],
            "all_terminal": self.queue.all_terminal(),
        }

    def payload(self, key: str) -> Optional[Dict[str, Any]]:
        job = self.queue.jobs.get(key)
        return job.result if job is not None else None


def run_service(
    root: str,
    requests: List["CertificationRequest | Dict[str, Any]"],
    config: Optional[ServiceConfig] = None,
    recover: bool = True,
) -> Dict[str, Any]:
    """Synchronous convenience driver: recover the root, submit
    ``requests``, run to completion, return the results document."""
    service = CertificationService(root, config)
    try:
        if recover:
            service.recover()
        for request in requests:
            service.submit(request)
        return asyncio.run(service.run())
    finally:
        service.close()
