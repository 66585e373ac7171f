"""The service's job queue: bounded admission, one executor, live events.

Campaigns are CPU-bound and share one engine backend (possibly a
distributed worker fleet), so the service runs them **one at a time** from
a bounded FIFO queue.  Admission control is explicit backpressure: a full
queue raises :class:`QueueFull` carrying a ``retry_after`` hint, which the
HTTP layer turns into ``429`` + ``Retry-After`` — clients are told to come
back, never silently buffered into an unbounded backlog.

Each :class:`Job` owns an append-only event stream (state transitions,
per-run observations from the engine's progress callback, controller
decisions from the orchestrator's decision listener) guarded by a
condition variable, so any number of HTTP streamers can block on
:meth:`Job.wait_events` without polling.  Cancellation is cooperative: a
cancelled running job is interrupted at its next observation boundary.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from typing import Any

from repro.campaign import CampaignError, CampaignReport, run_campaign
from repro.engine.backends import BatchExecutor
from repro.engine.distributed import DistributedBackend
from repro.engine.progress import BatchProgress
from repro.service.schema import CampaignSubmission
from repro.service.tenants import TenantCacheStore

__all__ = ["Job", "JobCancelled", "JobManager", "QueueFull", "TERMINAL_STATES"]

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class QueueFull(RuntimeError):
    """The job queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobCancelled(Exception):
    """Raised inside the executor to unwind a cancelled running campaign."""


class Job:
    """One submitted campaign: state, event stream, eventual report."""

    def __init__(self, job_id: str, submission: CampaignSubmission) -> None:
        self.job_id = job_id
        self.submission = submission
        self.state = "queued"
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.report: CampaignReport | None = None
        self.error: str | None = None
        self._events: list[dict] = []
        self._cond = threading.Condition()
        self._cancel = threading.Event()
        self._seq = itertools.count()
        self.emit("state", state="queued")

    # -- event stream ---------------------------------------------------
    def emit(self, kind: str, **payload: Any) -> None:
        """Append one event and wake every waiting streamer."""
        with self._cond:
            self._events.append({"seq": next(self._seq), "kind": kind, **payload})
            self._cond.notify_all()

    def wait_events(self, since: int, timeout: float | None = None) -> tuple[list[dict], bool]:
        """Events with ``seq >= since`` (blocking) plus a terminal flag.

        Blocks until new events exist or the job reaches a terminal state;
        a ``timeout`` bounds the wait (returning possibly-empty slices so
        streamers can emit keep-alives).
        """
        with self._cond:
            self._cond.wait_for(
                lambda: len(self._events) > since or self.state in TERMINAL_STATES,
                timeout=timeout,
            )
            return list(self._events[since:]), self.state in TERMINAL_STATES

    # -- state ----------------------------------------------------------
    def transition(self, state: str, **payload: Any) -> None:
        with self._cond:
            self.state = state
            if state == "running":
                self.started_at = time.time()
            if state in TERMINAL_STATES:
                self.finished_at = time.time()
        self.emit("state", state=state, **payload)

    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def request_cancel(self) -> None:
        self._cancel.set()
        with self._cond:
            self._cond.notify_all()

    def snapshot(self) -> dict:
        """JSON-ready status view (no run streams — that is the report's job)."""
        with self._cond:
            out = {
                "job_id": self.job_id,
                "state": self.state,
                "tenant": self.submission.tenant,
                "controller": self.submission.controller,
                "dry_run": self.submission.dry_run,
                "stages": self.submission.stages,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "events": len(self._events),
                "error": self.error,
            }
            if self.report is not None:
                out["summary"] = self.report.summary()
            return out


class JobManager:
    """Bounded FIFO of campaign jobs drained by a single executor thread.

    Parameters
    ----------
    backend:
        Engine backend every campaign runs on.  Pass the process's one
        configured :class:`BatchExecutor`: a :class:`ProcessBackend` keeps
        its pool warm and a :class:`DistributedBackend` keeps its worker
        fleet connected across jobs, which is the point of the long-lived
        service.  The caller closes it.  A name (``"serial"`` …) or
        ``None`` is resolved afresh for each job.
    store:
        Multi-tenant observation cache; each job runs with its tenant's
        view.  ``None`` disables caching.
    max_queue:
        Admission bound: at most this many jobs queued *waiting* (the
        running job does not count).  Beyond it, :class:`QueueFull`.
    retry_after:
        The ``Retry-After`` hint (seconds) surfaced on backpressure.
    """

    def __init__(
        self,
        *,
        backend: str | BatchExecutor | None = None,
        store: TenantCacheStore | None = None,
        max_queue: int = 8,
        retry_after: float = 5.0,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.backend = backend
        self.store = store
        self.max_queue = max_queue
        self.retry_after = retry_after
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._accepting = True
        self._executor = threading.Thread(
            target=self._run_loop, name="campaign-executor", daemon=True
        )
        self._executor.start()

    # -- submission and lookup ------------------------------------------
    def submit(self, submission: CampaignSubmission) -> Job:
        with self._lock:
            if not self._accepting:
                raise QueueFull("service is shutting down", self.retry_after)
            queued = sum(1 for job in self._jobs.values() if job.state == "queued")
            if queued >= self.max_queue:
                raise QueueFull(
                    f"job queue is full ({queued}/{self.max_queue} queued)",
                    self.retry_after,
                )
            job = Job(uuid.uuid4().hex[:12], submission)
            self._jobs[job.job_id] = job
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict:
        with self._lock:
            out: dict[str, int] = {}
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation; queued jobs die immediately, running
        jobs at their next observation boundary."""
        job = self.get(job_id)
        if job is None:
            return None
        job.request_cancel()
        with job._cond:
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
        if job.state == "cancelled":
            job.emit("state", state="cancelled")
        return job

    # -- executor -------------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job.state != "queued":  # cancelled while waiting
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        job.transition("running")
        submission = job.submission
        start = time.perf_counter()

        def progress(event: BatchProgress) -> None:
            if job.cancel_requested():
                raise JobCancelled()
            job.emit(
                "observation",
                index=event.index,
                completed=event.completed,
                total=event.total,
                solved=bool(event.result.solved),
                iterations=int(event.result.iterations),
                runtime_seconds=float(event.result.runtime_seconds),
                elapsed_seconds=time.perf_counter() - start,
            )

        def on_decision(decision) -> None:
            # Nested, not splatted: a decision has its own "kind" field.
            job.emit("decision", decision=decision.as_dict())

        cache = None
        if self.store is not None:
            cache = self.store.tenant_cache(submission.tenant)
        try:
            report = run_campaign(
                submission.build_stages(),
                controller=submission.controller,
                backend=self.backend,
                progress=progress,
                cache=cache,
                dry_run=submission.dry_run,
                decision_listener=on_decision,
            )
        except JobCancelled:
            job.transition("cancelled")
            return
        except CampaignError as exc:
            job.report = exc.report
            job.error = str(exc)
            job.transition("failed", reason=str(exc), summary=exc.report.summary())
            return
        except Exception as exc:  # noqa: BLE001 - a broken job must not kill the service
            job.error = f"{type(exc).__name__}: {exc}"
            job.transition("failed", reason=job.error)
            return
        job.report = report
        job.transition("done", summary=report.summary())

    # -- lifecycle ------------------------------------------------------
    def stop(self, *, drain_seconds: float = 0.0) -> None:
        """Stop accepting jobs, cancel the backlog, unwind the executor.

        ``drain_seconds`` > 0 lets the *running* job finish (up to the
        deadline) before it is cancelled; it is also passed through to a
        :class:`DistributedBackend` shutdown so connected workers are not
        severed mid-unit.
        """
        with self._lock:
            self._accepting = False
            backlog = [job for job in self._jobs.values() if job.state == "queued"]
        for job in backlog:
            self.cancel(job.job_id)
        deadline = time.monotonic() + max(0.0, drain_seconds)
        while time.monotonic() < deadline:
            if all(job.state in TERMINAL_STATES for job in self.jobs()):
                break
            time.sleep(0.05)
        for job in self.jobs():
            if job.state not in TERMINAL_STATES:
                job.request_cancel()
        self._queue.put(None)
        self._executor.join(timeout=10.0)
        if isinstance(self.backend, DistributedBackend):
            self.backend.shutdown(drain_seconds=drain_seconds)
