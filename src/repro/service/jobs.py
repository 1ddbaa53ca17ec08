"""Job lifecycle for the service daemon: admission → batches → results.

A *job* is one client request — a single point (``POST /v1/run``) or a
config × workload sweep grid (``POST /v1/sweep``). Jobs never execute
anything themselves: every point is admitted into the single-flight
table (:mod:`repro.service.coalesce`) under its content-hash cache key,
and only flight *leaders* reach the execution queue. The executor loop
drains that queue in batches through the engine —
``run_points(strict=False)`` with the daemon's worker count, i.e. a
fleet of local worker sessions per batch — so concurrent jobs share one
pass over any shared points, and an injected worker crash surfaces as a
classified per-point error in the job report instead of a dead daemon.

Admission control is two-layered and enforced before any state is
created: a per-client token bucket (:mod:`repro.service.limits`) and a
bound on concurrently active jobs; both reject with ``429`` and a
``Retry-After``. A draining daemon rejects with ``503``.

Per-point progress streams through the engine's ``on_outcome``
async-submission hook: final outcomes hop from the dispatcher thread
onto the event loop, resolve their flight, and fan out to every
subscribed job's NDJSON event feed.

Durability and reliability plumbing (see ``docs/service.md``):

* every accepted job is write-ahead journaled in the
  :class:`~repro.service.store.JobStore` (submit → per-point outcome →
  terminal state) so a crashed daemon recovers it on restart;
* per-job deadlines (``X-Deadline-Ms`` / spec ``timeout_s``) ride on
  flights and propagate into the engine's ``run_points(deadline=...)``
  — an already-expired flight fails at dequeue without dispatching a
  worker;
* a :class:`~repro.service.breaker.PoisonBreaker` fails fast on points
  that crash-looped across jobs;
* finished jobs are garbage-collected after ``job_ttl`` seconds so the
  recovered job store survives millions of entries.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.exec import (
    DEADLINE_MESSAGE,
    PointError,
    PointOutcome,
    RetryPolicy,
    SweepPoint,
    get_disk_cache,
    point_key,
    resolve_jobs,
    run_points,
)
from repro.core.runner import ComparedConfig, sweep_results_payload
from repro.core.simulator import SimResult
from repro.service.breaker import PoisonBreaker
from repro.service.coalesce import Flight, SingleFlight
from repro.service.limits import ClientLimiter
from repro.service.metrics import ServiceMetrics
from repro.service.store import JobStore


class AdmissionError(RuntimeError):
    """A rejected submission: carries the HTTP status to send back."""

    def __init__(
        self, status: int, reason: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(reason)
        self.status = int(status)
        self.reason = reason
        self.retry_after = retry_after


def result_json(result: SimResult) -> dict:
    """Full JSONable view of one :class:`SimResult`."""
    return {
        "name": result.name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "branch_mpki": result.branch_mpki,
        "misfetch_pki": result.misfetch_pki,
        "stats": result.stats,
        "structure": result.structure,
    }


def outcome_json(outcome: PointOutcome) -> dict:
    """Compact JSONable view of one final :class:`PointOutcome`."""
    if outcome.ok:
        return {
            "status": "ok",
            "attempts": outcome.attempts,
            "duration_s": round(outcome.duration, 6),
            "resumed": outcome.resumed,
        }
    err = outcome.error
    return {
        "status": "error",
        "kind": err.kind if err else "exception",
        "message": err.message if err else "",
        "attempts": outcome.attempts,
    }


class Job:
    """One submitted request and its per-point bookkeeping.

    ``points``/``keys`` are positionally aligned; for sweep jobs the
    grid order is ``[baseline, *configs] × workloads`` — exactly the
    grid ``repro-sim sweep`` executes, so the finished job's ``result``
    document is byte-identical to ``sweep --out`` for the same inputs.
    """

    def __init__(
        self,
        job_id: str,
        kind: str,
        points: Sequence[SweepPoint],
        keys: Sequence[str],
        client: str,
        spec: dict,
        configs: Optional[Sequence[Any]] = None,
        workloads: Optional[Sequence[str]] = None,
        baseline_label: Optional[str] = None,
        deadline: Optional[float] = None,
        recovered: bool = False,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.points = list(points)
        self.keys = list(keys)
        self.client = client
        self.spec = spec
        self.configs = list(configs or [])
        self.workloads = list(workloads or [])
        self.baseline_label = baseline_label
        #: Absolute ``time.monotonic()`` instant the job must finish by
        #: (``None`` = unbounded); propagated down to ``run_points``.
        self.deadline = deadline
        #: ``True`` for jobs replayed from the write-ahead store after a
        #: daemon restart (both finished and re-executed ones).
        self.recovered = recovered
        self.status = "running"
        self.created = time.time()
        self.finished: Optional[float] = None
        self.coalesced = 0
        self.failed_points = 0
        self.pending = len(self.points)
        self.outcomes: List[Optional[dict]] = [None] * len(self.points)
        self.results: List[Optional[SimResult]] = [None] * len(self.points)
        self.result: Optional[dict] = None
        self.events: List[dict] = []
        self.done = asyncio.Event()

    # -- event feed ---------------------------------------------------------

    def _emit(self, event: str, **fields: Any) -> None:
        self.events.append(
            {"event": event, "ts": round(time.time(), 6), "job": self.id, **fields}
        )

    # -- lifecycle ----------------------------------------------------------

    def point_done(self, index: int, outcome: PointOutcome) -> bool:
        """Record one point's final outcome; ``True`` when it finished
        the job."""
        if self.outcomes[index] is not None:  # pragma: no cover - defensive
            return False
        view = outcome_json(outcome)
        self.outcomes[index] = view
        if outcome.ok:
            self.results[index] = outcome.result
        else:
            self.failed_points += 1
        self.pending -= 1
        point = self.points[index]
        self._emit(
            "point",
            index=index,
            key=self.keys[index][:16],
            config=point.config.label,
            workload=point.workload,
            **view,
        )
        if self.pending:
            return False
        self._finalize()
        return True

    def _finalize(self) -> None:
        self.finished = time.time()
        self.status = "failed" if self.failed_points else "done"
        if not self.failed_points:
            if self.kind == "run":
                self.result = result_json(self.results[0])
            else:
                self.result = self._sweep_payload()
        self._emit(
            "done",
            status=self.status,
            points=len(self.points),
            failed=self.failed_points,
            coalesced=self.coalesced,
            seconds=round(self.finished - self.created, 6),
        )
        self.done.set()

    def _sweep_payload(self) -> dict:
        """The ``sweep --out`` document for a completed sweep grid."""
        nw = len(self.workloads)
        base = self.results[0:nw]
        compared = []
        for ci, config in enumerate(self.configs):
            results = self.results[nw * (ci + 1) : nw * (ci + 2)]
            relative = [r.ipc / b.ipc for r, b in zip(results, base)]
            compared.append(
                ComparedConfig(
                    config=config, results=results, relative_ipc=relative
                )
            )
        return sweep_results_payload(compared, self.baseline_label)

    # -- views --------------------------------------------------------------

    def to_json(self, include_result: bool = True) -> dict:
        doc = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "client": self.client,
            "created": round(self.created, 6),
            "finished": round(self.finished, 6) if self.finished else None,
            "spec": self.spec,
            "points": len(self.points),
            "pending": self.pending,
            "failed": self.failed_points,
            "coalesced": self.coalesced,
            "recovered": self.recovered,
            "outcomes": self.outcomes,
        }
        if include_result:
            doc["result"] = self.result
        return doc

    def summary_json(self) -> dict:
        """Compact row for ``GET /v1/jobs`` (no outcomes, no result)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "client": self.client,
            "created": round(self.created, 6),
            "finished": round(self.finished, 6) if self.finished else None,
            "points": len(self.points),
            "pending": self.pending,
            "failed": self.failed_points,
            "recovered": self.recovered,
        }


class JobManager:
    """Admission control, the execution queue, and the executor loop."""

    def __init__(
        self,
        *,
        jobs: int = 2,
        queue_limit: int = 16,
        batch_max: int = 256,
        policy: Optional[RetryPolicy] = None,
        batch: Optional[int] = None,
        limiter: Optional[ClientLimiter] = None,
        metrics: Optional[ServiceMetrics] = None,
        cache_max_bytes: int = 0,
        history_limit: int = 256,
        store: Optional[JobStore] = None,
        breaker: Optional[PoisonBreaker] = None,
        job_ttl: float = 0.0,
        dispatch: Optional[str] = None,
    ) -> None:
        self.worker_jobs = resolve_jobs(jobs)
        #: "host:port" of a dist coordinator; when set, batches drain onto
        #: the remote worker fleet instead of local worker sessions.
        self.dispatch = dispatch
        self.queue_limit = int(queue_limit)
        self.batch_max = max(1, int(batch_max))
        self.policy = policy or RetryPolicy()
        self.batch = batch
        self.limiter = limiter or ClientLimiter(rate=0.0, burst=1.0)
        self.metrics = metrics or ServiceMetrics()
        self.cache_max_bytes = int(cache_max_bytes)
        self.history_limit = int(history_limit)
        self.store = store
        # `is not None`, not `or`: an empty PoisonBreaker is falsy
        # (it has __len__), and it must still be the one we were given.
        self.breaker = breaker if breaker is not None else PoisonBreaker()
        self.job_ttl = float(job_ttl)
        self.singleflight = SingleFlight()
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self.draining = False
        #: Wall-clock stamp of the executor's most recent sign of life
        #: (loop iteration or batch completion); readiness reports its age.
        self.last_heartbeat = time.time()
        self._pending: Deque = deque()
        self._inflight = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._work: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._gc_task: Optional[asyncio.Task] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-exec"
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind to the running loop and start the executor task."""
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._drained = asyncio.Event()
        self.last_heartbeat = time.time()
        self._task = self._loop.create_task(self._executor_loop())
        if self.job_ttl > 0:
            self._gc_task = self._loop.create_task(self._gc_loop())

    def begin_drain(self) -> None:
        """Stop admitting; the executor exits once the queue is dry."""
        self.draining = True
        if self._work is not None:
            self._work.set()

    async def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Wait for queued + in-flight work to finish; ``False`` on timeout."""
        if self._drained is None:  # pragma: no cover - drain before start
            return True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def abort_remaining(self) -> int:
        """Fail every unresolved flight (drain timeout): jobs finalize
        with ``worker-crash``-style errors instead of hanging forever."""

        def aborted(flight):
            return PointOutcome(
                index=0,
                point=flight.point,
                error=PointError(
                    kind="exception",
                    point_key=flight.key,
                    attempts=0,
                    message="service drained before this point completed",
                ),
            )

        self._pending.clear()
        return self.singleflight.abort_all(aborted)

    def shutdown(self) -> None:
        if self._task is not None:
            self._task.cancel()
        if self._gc_task is not None:
            self._gc_task.cancel()
        self._pool.shutdown(wait=False)

    # -- gauges -------------------------------------------------------------

    @property
    def active_jobs(self) -> int:
        return sum(1 for job in self.jobs.values() if job.status == "running")

    @property
    def queue_depth(self) -> int:
        return len(self._pending) + self._inflight

    @property
    def degraded(self) -> bool:
        """Storage-fault flag: the job store lost writability."""
        return self.store is not None and self.store.degraded

    @property
    def executor_alive(self) -> bool:
        """``False`` once the executor task died or was never started."""
        return self._task is not None and not self._task.done()

    # -- admission + submission ---------------------------------------------

    def _admit(self, client: str) -> None:
        if self.draining:
            self.metrics.bump("jobs_rejected_draining")
            raise AdmissionError(503, "service is draining")
        ok, retry_after = self.limiter.admit(client)
        if not ok:
            self.metrics.bump("jobs_rejected_rate_limited")
            raise AdmissionError(
                429, f"rate limit exceeded for client {client!r}", retry_after
            )
        if self.active_jobs >= self.queue_limit:
            self.metrics.bump("jobs_rejected_queue_full")
            raise AdmissionError(
                429,
                f"job queue full ({self.active_jobs} active, "
                f"limit {self.queue_limit})",
                retry_after=2.0,
            )

    def submit(
        self,
        kind: str,
        points: Sequence[SweepPoint],
        client: str,
        spec: dict,
        configs: Optional[Sequence[Any]] = None,
        workloads: Optional[Sequence[str]] = None,
        baseline_label: Optional[str] = None,
        deadline_s: Optional[float] = None,
        *,
        job_id: Optional[str] = None,
        created: Optional[float] = None,
        recovered: bool = False,
    ) -> Job:
        """Admit one job: coalesce its points and queue the leaders.

        Raises :class:`AdmissionError` when the daemon is draining, the
        client is over its rate limit, or the job queue is full.
        *deadline_s* is a relative budget in seconds, converted to an
        absolute monotonic deadline at admission. Recovery replays call
        with ``recovered=True`` (plus the original ``job_id``/*created*)
        which bypasses admission control and re-journaling — the job was
        already admitted, journaled and billed before the crash.
        """
        if not recovered:
            self._admit(client)
        keys = [point_key(point) for point in points]
        deadline = (
            time.monotonic() + max(0.0, float(deadline_s))
            if deadline_s is not None
            else None
        )
        job = Job(
            job_id=job_id or f"j{os.urandom(6).hex()}",
            kind=kind,
            points=points,
            keys=keys,
            client=client,
            spec=spec,
            configs=configs,
            workloads=workloads,
            baseline_label=baseline_label,
            deadline=deadline,
            recovered=recovered,
        )
        if created is not None:
            job.created = created
        self.jobs[job.id] = job
        self._trim_history()
        self.metrics.bump("jobs_recovered" if recovered else "jobs_submitted")
        self.metrics.bump("points_requested", len(points))
        if self.store is not None and not recovered:
            self.store.record_submit(job)
        fast_fails: List[Tuple[Flight, PointError]] = []
        for index, (key, point) in enumerate(zip(keys, points)):
            flight, leader = self.singleflight.admit(key, point)
            flight.subscribe(self._deliver, (job, index))
            if leader:
                flight.deadline = deadline
                blocked = self.breaker.check(key)
                if blocked is not None:
                    # Poison point with an open breaker: resolve the
                    # fresh flight immediately with the cached error —
                    # no queue entry, no worker. Deferred below so the
                    # "submitted" event still leads the job's feed.
                    fast_fails.append((flight, blocked))
                    self.metrics.bump("points_fast_failed")
                else:
                    self._pending.append(flight)
                    self.metrics.bump("points_scheduled")
            else:
                flight.widen_deadline(deadline)
                job.coalesced += 1
                self.metrics.bump("points_coalesced")
        job._emit(
            "submitted",
            kind=kind,
            points=len(points),
            coalesced=job.coalesced,
            client=client,
        )
        for flight, error in fast_fails:
            self._resolve_flight(
                flight.key,
                PointOutcome(index=0, point=flight.point, error=error),
                poison_evidence=False,
            )
        if self._work is not None:
            self._work.set()
        return job

    def adopt(self, job: Job) -> None:
        """Register a pre-built (recovered, already finished) job.

        Recovery replays journals oldest-first into an empty manager, so
        plain insertion preserves submission order.
        """
        self.jobs[job.id] = job
        self.metrics.bump("jobs_recovered")
        self._trim_history()

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def list_jobs(
        self,
        state: Optional[str] = None,
        after: Optional[str] = None,
        limit: int = 50,
    ) -> Tuple[List[Job], Optional[str]]:
        """One page of jobs, oldest first: ``(jobs, next_after_cursor)``.

        *state* filters on job status; *after* is the last job id of the
        previous page (jobs admitted before it are skipped). The cursor
        survives eviction of the cursor job itself: ids embed nothing,
        so a vanished cursor simply restarts from the oldest survivor —
        acceptable for a monotone listing.
        """
        limit = max(1, min(int(limit), 500))
        rows: List[Job] = []
        skipping = after is not None and after in self.jobs
        for jid, job in self.jobs.items():
            if skipping:
                if jid == after:
                    skipping = False
                continue
            if state is not None and job.status != state:
                continue
            rows.append(job)
            if len(rows) > limit:
                break
        next_after = None
        if len(rows) > limit:
            rows = rows[:limit]
            next_after = rows[-1].id
        return rows, next_after

    def _trim_history(self) -> None:
        """Drop the oldest *finished* jobs beyond the history bound."""
        excess = len(self.jobs) - self.history_limit
        if excess <= 0:
            return
        evicted = 0
        for job_id in [
            jid for jid, job in self.jobs.items() if job.status != "running"
        ][:excess]:
            del self.jobs[job_id]
            if self.store is not None:
                self.store.evict(job_id)
            evicted += 1
        if evicted:
            self.metrics.bump("jobs_evicted", evicted)

    def gc_jobs(self, now: Optional[float] = None) -> int:
        """Evict finished jobs older than ``job_ttl`` (memory + store)."""
        if self.job_ttl <= 0:
            return 0
        now = time.time() if now is None else now
        evicted = 0
        for jid, job in list(self.jobs.items()):
            if (
                job.status != "running"
                and job.finished is not None
                and now - job.finished >= self.job_ttl
            ):
                del self.jobs[jid]
                if self.store is not None:
                    self.store.evict(jid)
                evicted += 1
        if evicted:
            self.metrics.bump("jobs_evicted", evicted)
        return evicted

    async def _gc_loop(self) -> None:
        interval = max(1.0, min(self.job_ttl / 4.0, 30.0))
        while True:
            await asyncio.sleep(interval)
            self.gc_jobs()

    # -- execution ----------------------------------------------------------

    def _deliver(self, context: Tuple[Job, int], outcome: PointOutcome) -> None:
        job, index = context
        fresh = job.outcomes[index] is None
        finished = job.point_done(index, outcome)
        if self.store is not None and fresh and job.outcomes[index] is not None:
            self.store.record_point(job.id, index, job.outcomes[index])
        if finished:
            self.metrics.bump(
                "jobs_failed" if job.status == "failed" else "jobs_completed"
            )
            if self.store is not None:
                self.store.record_done(job)

    def _resolve_flight(
        self,
        key: str,
        outcome: PointOutcome,
        poison_evidence: bool = True,
    ) -> None:
        flight = self.singleflight.get(key)
        if flight is None or flight.resolved:
            return
        if poison_evidence:
            self.breaker.record(key, outcome)
        self.metrics.bump("points_ok" if outcome.ok else "points_failed")
        self.singleflight.resolve(key, outcome)

    def _expire_flight(self, flight: Flight) -> None:
        """Fail one flight whose deadline passed before dispatch.

        The required semantics of the deadline satellite: an expired
        deadline at dequeue time fails the point with a classified
        ``deadline-exceeded`` timeout **without dispatching any worker**
        (and without counting as poison evidence — the budget is the
        job's fault, not the point's).
        """
        self.metrics.bump("points_deadline_rejected")
        self._resolve_flight(
            flight.key,
            PointOutcome(
                index=0,
                point=flight.point,
                error=PointError(
                    kind="timeout",
                    point_key=flight.key,
                    attempts=0,
                    message=f"{DEADLINE_MESSAGE}: job deadline passed "
                    "before this point was dispatched",
                ),
            ),
            poison_evidence=False,
        )

    def _orphan_batch(self, flights, exc: BaseException) -> None:
        """Resolve a batch whose execution died without outcomes.

        The leader of each flight is gone (``run_points`` raised instead
        of returning a report); without this, every subscriber would
        wait forever. Twins receive the classified error and the flight
        retires — the orphaned-flight regression path.
        """
        self.metrics.bump("orphaned_flights", len(flights))
        print(
            f"repro-sim serve: batch execution died ({exc!r}); failing "
            f"{len(flights)} orphaned flight(s)",
            file=sys.stderr,
            flush=True,
        )
        for flight in flights:
            self._resolve_flight(
                flight.key,
                PointOutcome(
                    index=0,
                    point=flight.point,
                    error=PointError(
                        kind="exception",
                        point_key=flight.key,
                        attempts=0,
                        message=f"flight leader died: {exc}",
                    ),
                ),
                poison_evidence=False,
            )

    def _run_batch(self, flights, deadline: Optional[float] = None):
        """Execute one batch through the engine (worker thread).

        The ``on_outcome`` hook hops each final outcome onto the event
        loop as it streams in, so job event feeds update while the
        batch is still running. *deadline* (shared by every flight in
        the group) propagates into the engine's two-layer timeout
        machinery: past it, running workers are killed and their points
        classified, queued points fail without dispatch.
        """
        keys = [flight.key for flight in flights]

        def hook(outcome: PointOutcome) -> None:
            try:
                self._loop.call_soon_threadsafe(
                    self._resolve_flight, keys[outcome.index], outcome
                )
            except RuntimeError:  # pragma: no cover - loop closed mid-drain
                pass

        return run_points(
            [flight.point for flight in flights],
            jobs=self.worker_jobs,
            strict=False,
            policy=self.policy,
            batch=self.batch,
            on_outcome=hook,
            deadline=deadline,
            dispatch=self.dispatch,
        )

    def _collect_groups(self):
        """Pop one batch and split it into dispatchable deadline groups.

        Returns ``(groups, expired)``: *groups* maps a shared deadline
        (``None`` = unbounded, the common case — one group) to its
        flights; *expired* flights never reach a group.
        """
        batch = [
            self._pending.popleft()
            for _ in range(min(len(self._pending), self.batch_max))
        ]
        now = time.monotonic()
        groups: "OrderedDict[Optional[float], List[Flight]]" = OrderedDict()
        expired: List[Flight] = []
        for flight in batch:
            if flight.deadline is not None and now >= flight.deadline:
                expired.append(flight)
            else:
                groups.setdefault(flight.deadline, []).append(flight)
        return groups, expired

    async def _executor_loop(self) -> None:
        """Drain the leader queue in batches until told to drain.

        Batch failures never kill this task: a ``run_points`` that
        raises orphans its flights, which are resolved with classified
        errors so subscribers always get a terminal answer and the next
        batch still runs.
        """
        while True:
            await self._work.wait()
            self._work.clear()
            self.last_heartbeat = time.time()
            while self._pending:
                groups, expired = self._collect_groups()
                for flight in expired:
                    self._expire_flight(flight)
                for deadline, flights in groups.items():
                    self._inflight = len(flights)
                    try:
                        report = await self._loop.run_in_executor(
                            self._pool, self._run_batch, flights, deadline
                        )
                    except Exception as exc:
                        self._orphan_batch(flights, exc)
                        continue
                    finally:
                        self._inflight = 0
                        self.last_heartbeat = time.time()
                    self.metrics.bump("batches")
                    self.metrics.fold_resilience(report.counters)
                    # Safety net: resolve anything the streaming hook
                    # missed (it is best-effort by design).
                    for flight, outcome in zip(flights, report.outcomes):
                        self._resolve_flight(flight.key, outcome)
                await self._maybe_prune()
            if self.draining:
                break
        self._drained.set()

    async def _maybe_prune(self) -> None:
        """Enforce the result-store byte budget between batches."""
        disk = get_disk_cache()
        if not self.cache_max_bytes or disk is None:
            return
        pruned = await self._loop.run_in_executor(
            self._pool, disk.prune, self.cache_max_bytes
        )
        if pruned["evicted"]:
            self.metrics.bump("cache_evicted", pruned["evicted"])
            self.metrics.bump("cache_evicted_bytes", pruned["evicted_bytes"])
