"""The ``repro-sim serve`` HTTP front end (stdlib asyncio only).

A deliberately small HTTP/1.1 server over :func:`asyncio.start_server`
— no web framework, matching the repo's no-new-dependencies rule. Every
connection carries one request and is closed after the response
(``Connection: close``), which keeps framing trivial and lets the
NDJSON event stream end naturally at EOF.

Routes (see ``docs/service.md`` for the full API reference)::

    POST /v1/run              submit one (config, workload) point
    POST /v1/sweep            submit a sweep grid (baseline-normalized)
    GET  /v1/jobs             paginated job list (?state=&limit=&after=)
    GET  /v1/jobs/<id>        job status + outcomes (+ result when done)
    GET  /v1/jobs/<id>/events NDJSON live per-point progress
    GET  /v1/healthz          combined health document
    GET  /v1/healthz/live     liveness probe (200 while the process runs)
    GET  /v1/healthz/ready    readiness probe (503 draining/degraded/dead)
    GET  /v1/metrics          service + resilience + cache counters

Submissions may carry a deadline (``X-Deadline-Ms`` header or a
``timeout_s`` spec field) that propagates into the engine. On startup
the daemon replays its write-ahead job store
(:mod:`repro.service.store`): finished pre-crash jobs are served from
the journal, unfinished ones are re-admitted through the normal
executor path and marked ``recovered``.

SIGTERM/SIGINT trigger a graceful drain: new submissions get ``503``,
queued and in-flight points finish (their results are already in the
disk cache for the next process), then the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.core.config import IDEAL_IBTB16
from repro.core.exec import RetryPolicy, SweepPoint, get_disk_cache, point_key
from repro.corpus import is_corpus_workload
from repro.service.breaker import PoisonBreaker
from repro.service.jobs import AdmissionError, Job, JobManager
from repro.service.limits import ClientLimiter
from repro.service.metrics import ServiceMetrics
from repro.service.store import JobStore, StoredJob


class BadRequest(ValueError):
    """A 400: malformed body, unknown config spec or workload."""


@dataclass
class ServiceConfig:
    """Tunables for one daemon instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the actual port is printed + stored
    jobs: int = 2
    queue_limit: int = 16
    batch_max: int = 256
    rate: float = 0.0  # submissions/second per client; <=0 disables
    burst: float = 20.0
    max_retries: int = 2
    timeout: Optional[float] = None
    batch: Optional[int] = None
    cache_max_bytes: int = 0  # result-store budget; 0 = unbounded
    drain_timeout: float = 30.0
    max_body: int = 1 << 20
    history_limit: int = 256
    state_dir: Optional[str] = None  # write-ahead job store root; None = off
    job_ttl: float = 0.0  # evict finished jobs after N seconds; 0 = never
    breaker_threshold: int = 3  # crash/timeout outcomes before tripping
    breaker_cooldown: float = 60.0  # seconds open before a half-open trial
    #: Host a dist coordinator at "host:port" and drain sweep flights
    #: onto connected `repro-sim worker` fleets (docs/distributed.md).
    dist_listen: Optional[str] = None


class Service:
    """One daemon: listener + :class:`JobManager` + signal handling."""

    def __init__(
        self, config: Optional[ServiceConfig] = None, quiet: bool = False
    ) -> None:
        self.config = config or ServiceConfig()
        self.quiet = quiet
        self.metrics = ServiceMetrics()
        store = (
            JobStore(self.config.state_dir)
            if self.config.state_dir
            else None
        )
        self.manager = JobManager(
            jobs=self.config.jobs,
            queue_limit=self.config.queue_limit,
            batch_max=self.config.batch_max,
            policy=RetryPolicy(
                max_retries=self.config.max_retries,
                timeout=self.config.timeout,
            ),
            batch=self.config.batch,
            limiter=ClientLimiter(self.config.rate, self.config.burst),
            metrics=self.metrics,
            cache_max_bytes=self.config.cache_max_bytes,
            history_limit=self.config.history_limit,
            store=store,
            breaker=PoisonBreaker(
                threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            ),
            job_ttl=self.config.job_ttl,
        )
        self.coordinator = None  # dist coordinator when --dist-listen is set
        self.port: Optional[int] = None
        self.aborted_on_drain = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def run(self, ready: Optional[asyncio.Event] = None) -> int:
        """Serve until drained; returns the process exit code."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self.config.dist_listen:
            # Start the coordinator before the executor/recovery so even
            # recovered jobs' batches drain onto the remote fleet.
            from repro.dist import get_coordinator

            self.coordinator = get_coordinator(self.config.dist_listen)
            self.manager.dispatch = (
                f"{self.coordinator.host}:{self.coordinator.port}"
            )
            if not self.quiet:
                print(
                    f"repro-sim serve: dist coordinator listening on "
                    f"tcp://{self.coordinator.address} "
                    f"({self.coordinator.workers_live()} worker(s) "
                    f"connected)",
                    flush=True,
                )
        self.manager.start()
        self._recover_jobs()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        if not self.quiet:
            print(
                f"repro-sim serve: listening on "
                f"http://{self.config.host}:{self.port} "
                f"(jobs={self.manager.worker_jobs}, "
                f"queue_limit={self.config.queue_limit})",
                flush=True,
            )
        if ready is not None:
            ready.set()
        await self._stop.wait()
        # Graceful drain: admission already rejects with 503; let the
        # executor finish queued + in-flight batches, then close.
        drained = await self.manager.wait_drained(self.config.drain_timeout)
        if not drained:
            self.aborted_on_drain = self.manager.abort_remaining()
            if not self.quiet:
                print(
                    f"repro-sim serve: drain timed out, aborted "
                    f"{self.aborted_on_drain} in-flight point(s)",
                    file=sys.stderr,
                    flush=True,
                )
        server.close()
        await server.wait_closed()
        self.manager.shutdown()
        if self.coordinator is not None:
            from repro.dist import shutdown_coordinators

            await asyncio.get_running_loop().run_in_executor(
                None, shutdown_coordinators
            )
            self.coordinator = None
        if not self.quiet:
            print("repro-sim serve: drained, bye", flush=True)
        return 0 if drained else 1

    def request_drain(self) -> None:
        """Begin graceful shutdown (call on the event-loop thread)."""
        self.manager.begin_drain()
        if self._stop is not None:
            self._stop.set()

    def request_drain_threadsafe(self) -> None:
        """Drain trigger for other threads (tests, embedding harnesses)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_drain)

    def _install_signal_handlers(self) -> None:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main-thread loops (tests) and platforms without
                # loop signal support fall back to request_drain().
                pass

    # -- crash recovery -----------------------------------------------------

    def _recover_jobs(self) -> None:
        """Replay the write-ahead job store into the manager.

        Runs on the loop thread before the listener opens, so every
        pre-crash job id answers ``GET /v1/jobs/<id>`` from the first
        accepted connection. Finished jobs are adopted verbatim (result
        document straight from the journal); unfinished ones re-enter
        through :meth:`JobManager.submit` with ``recovered=True`` — the
        normal executor path, where the disk cache satisfies every point
        that completed before the crash. Pre-crash deadlines are
        dropped: a budget granted against a dead wall-clock is
        meaningless after restart. Unparseable journals (e.g. a corpus
        workload since deleted) are evicted with a warning, never fatal.
        """
        store = self.manager.store
        if store is None:
            return
        for stored in store.load_all():
            try:
                job = self._recover_one(stored)
            except Exception as exc:
                self.metrics.bump("jobs_recovery_failed")
                store.evict(stored.job_id)
                if not self.quiet:
                    print(
                        f"repro-sim serve: dropped unrecoverable job "
                        f"{stored.job_id}: {exc}",
                        file=sys.stderr,
                        flush=True,
                    )
                continue
            if not self.quiet:
                print(
                    f"repro-sim serve: recovered job {job.id} "
                    f"({job.status}, {len(job.points)} point(s))",
                    flush=True,
                )

    def _recover_one(self, stored: StoredJob) -> Job:
        if stored.kind == "run":
            points, extras = _parse_run_spec(stored.spec)
        else:
            points, extras = _parse_sweep_spec(stored.spec)
        if not stored.terminal:
            return self.manager.submit(
                stored.kind,
                points,
                stored.client,
                stored.spec,
                **extras,
                job_id=stored.job_id,
                created=stored.created,
                recovered=True,
            )
        job = Job(
            job_id=stored.job_id,
            kind=stored.kind,
            points=points,
            keys=[point_key(point) for point in points],
            client=stored.client,
            spec=stored.spec,
            recovered=True,
            **extras,
        )
        job.created = stored.created
        job.finished = stored.finished
        job.status = stored.status
        job.failed_points = stored.failed
        job.result = stored.result
        job.pending = 0
        for index, view in stored.outcomes.items():
            if 0 <= index < len(job.outcomes):
                job.outcomes[index] = view
        job._emit("recovered", status=job.status, points=len(job.points))
        job.done.set()
        self.manager.adopt(job)
        return job

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # never let one request kill the daemon
            try:
                await self._respond(
                    writer, 500, {"error": f"internal error: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return
        parts = request_line.split()
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return
        method, target, _version = parts
        headers = await self._read_headers(reader)
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body:
            await self._respond(writer, 413, {"error": "body too large"})
            return
        if length:
            body = await reader.readexactly(length)
        client = headers.get("x-client-id") or self._peer(writer)
        await self._route(writer, method, target, headers, body, client)

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                return headers
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        retry_after: Optional[float] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {max(1, int(retry_after + 0.999))}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        client: str,
    ) -> None:
        path, _, query = target.partition("?")
        if path == "/v1/healthz" and method == "GET":
            await self._respond(writer, 200, self._healthz())
            return
        if path == "/v1/healthz/live" and method == "GET":
            await self._respond(writer, 200, self._liveness())
            return
        if path == "/v1/healthz/ready" and method == "GET":
            ready, doc = self._readiness()
            await self._respond(writer, 200 if ready else 503, doc)
            return
        if path == "/v1/metrics" and method == "GET":
            await self._respond(writer, 200, self._metrics_doc())
            return
        if path in ("/v1/run", "/v1/sweep"):
            if method != "POST":
                await self._respond(writer, 405, {"error": "POST required"})
                return
            await self._submit(writer, path, body, client, headers)
            return
        if path == "/v1/jobs" and method == "GET":
            await self._list_jobs(writer, query)
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job = self.manager.get(rest[: -len("/events")])
                if job is None:
                    await self._respond(writer, 404, {"error": "no such job"})
                    return
                await self._stream_events(writer, job)
                return
            job = self.manager.get(rest)
            if job is None:
                await self._respond(writer, 404, {"error": "no such job"})
                return
            await self._respond(writer, 200, job.to_json())
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    async def _submit(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        body: bytes,
        client: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        try:
            spec = json.loads(body.decode() or "{}")
            if not isinstance(spec, dict):
                raise BadRequest("request body must be a JSON object")
            deadline_s = _parse_deadline(spec, headers or {})
            if path == "/v1/run":
                points, extras = _parse_run_spec(spec)
                job = self.manager.submit(
                    "run", points, client, spec, deadline_s=deadline_s,
                    **extras
                )
            else:
                points, extras = _parse_sweep_spec(spec)
                job = self.manager.submit(
                    "sweep", points, client, spec, deadline_s=deadline_s,
                    **extras
                )
        except AdmissionError as exc:
            await self._respond(
                writer,
                exc.status,
                {"error": exc.reason, "retry_after": exc.retry_after},
                retry_after=exc.retry_after or 1.0,
            )
            return
        except (BadRequest, ValueError, TypeError, KeyError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        await self._respond(
            writer,
            202,
            {
                "job": job.id,
                "points": len(job.points),
                "coalesced": job.coalesced,
                "status_url": f"/v1/jobs/{job.id}",
                "events_url": f"/v1/jobs/{job.id}/events",
            },
        )

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """NDJSON live feed: one event per line, EOF when the job ends."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        await writer.drain()
        sent = 0
        while True:
            while sent < len(job.events):
                line = json.dumps(job.events[sent], sort_keys=True) + "\n"
                writer.write(line.encode())
                await writer.drain()
                self.metrics.bump("events_streamed")
                sent += 1
            if job.done.is_set() and sent >= len(job.events):
                return
            try:
                await asyncio.wait_for(job.done.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    async def _list_jobs(
        self, writer: asyncio.StreamWriter, query: str
    ) -> None:
        """``GET /v1/jobs``: paginated summaries, oldest first."""
        params = parse_qs(query)
        state = params.get("state", [None])[0]
        if state is not None and state not in ("running", "done", "failed"):
            await self._respond(
                writer,
                400,
                {"error": f"unknown state filter {state!r} "
                 "(running | done | failed)"},
            )
            return
        try:
            limit = int(params.get("limit", ["50"])[0])
        except ValueError:
            await self._respond(writer, 400, {"error": "limit must be an int"})
            return
        after = params.get("after", [None])[0]
        jobs, next_after = self.manager.list_jobs(state, after, limit)
        await self._respond(
            writer,
            200,
            {
                "jobs": [job.summary_json() for job in jobs],
                "next_after": next_after,
                "total": len(self.manager.jobs),
            },
        )

    # -- documents ----------------------------------------------------------

    def _healthz(self) -> dict:
        """Combined health document (back-compat `status` + both probes)."""
        ready, readiness = self._readiness()
        status = "ok"
        if self.manager.degraded:
            status = "degraded"
        elif self.manager.draining:
            status = "draining"
        return {
            "status": status,
            "ready": ready,
            "jobs_active": self.manager.active_jobs,
            "queue_depth": self.manager.queue_depth,
            "worker_jobs": self.manager.worker_jobs,
            "readiness": readiness,
        }

    def _liveness(self) -> dict:
        """The process is up and the loop answered — nothing else.

        Draining and degraded daemons stay *live* (they are finishing or
        serving read-only work); orchestrators must not kill them for it.
        """
        return {
            "status": "alive",
            "uptime_s": round(time.time() - self.metrics.started, 3),
        }

    def _readiness(self) -> Tuple[bool, dict]:
        """Should a load balancer route new work here?

        ``False`` while draining (shutting down), degraded (journal or
        cache storage faulted — read-only-cache mode), or with a dead
        executor task (no batch would ever run). The document carries
        the evidence: executor heartbeat age, journal writability, and
        the degraded reason when one exists.
        """
        manager = self.manager
        journal_writable = None
        if manager.store is not None:
            journal_writable = manager.store.probe()
        executor_alive = manager.executor_alive
        ready = (
            not manager.draining
            and not manager.degraded
            and executor_alive
        )
        doc = {
            "ready": ready,
            "draining": manager.draining,
            "degraded": manager.degraded,
            "executor_alive": executor_alive,
            "heartbeat_age_s": round(
                max(0.0, time.time() - manager.last_heartbeat), 3
            ),
            "journal_writable": journal_writable,
            "breaker_open_points": manager.breaker.counters()[
                "breaker_open_points"
            ],
        }
        if manager.degraded:
            doc["degraded_reason"] = manager.store.degraded_reason
        return ready, doc

    def _metrics_doc(self) -> dict:
        disk = get_disk_cache()
        manager = self.manager
        store_gauges = {}
        if manager.store is not None:
            store_gauges = {
                "store_appends": manager.store.appends,
                "store_degraded": int(manager.store.degraded),
            }
        return self.metrics.snapshot(
            disk.snapshot() if disk is not None else None,
            dist_counters=(
                self.coordinator.counters()
                if self.coordinator is not None
                else None
            ),
            queue_depth=manager.queue_depth,
            jobs_active=manager.active_jobs,
            flights_inflight=len(manager.singleflight),
            draining=int(manager.draining),
            **manager.breaker.counters(),
            **store_gauges,
        )


# -- request spec parsing ----------------------------------------------------


def _parse_common(spec: dict) -> Tuple[int, int, int]:
    length = int(spec.get("length", 160_000))
    if length <= 0:
        raise BadRequest("length must be positive")
    warmup = spec.get("warmup")
    warmup = length // 4 if warmup is None else int(warmup)
    if warmup < 0:
        raise BadRequest("warmup must be >= 0")
    seed = int(spec.get("seed", 7))
    return length, warmup, seed


def _check_workload(name: str) -> str:
    from repro.trace.workloads import SERVER_SUITE

    if not isinstance(name, str):
        raise BadRequest(f"workload must be a string, got {name!r}")
    if name in SERVER_SUITE or is_corpus_workload(name):
        return name
    raise BadRequest(
        f"unknown workload {name!r} (synthetic suite or corpus:<name>)"
    )


def _parse_deadline(spec: dict, headers: Dict[str, str]) -> Optional[float]:
    """The request deadline in seconds, or ``None`` for unbounded.

    ``X-Deadline-Ms`` (header, milliseconds) wins over ``timeout_s``
    (spec field, seconds); both must be non-negative numbers. ``0``
    means "already expired" — the job is admitted and every point fails
    fast with ``deadline-exceeded``, which is the cheapest way to probe
    what a sweep *would* schedule.
    """
    raw = headers.get("x-deadline-ms")
    if raw is not None:
        try:
            millis = float(raw)
        except ValueError:
            raise BadRequest(f"X-Deadline-Ms must be a number, got {raw!r}")
        if millis < 0:
            raise BadRequest("X-Deadline-Ms must be >= 0")
        return millis / 1000.0
    raw = spec.get("timeout_s")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BadRequest(f"timeout_s must be a number, got {raw!r}")
    if raw < 0:
        raise BadRequest("timeout_s must be >= 0")
    return float(raw)


def _parse_run_spec(spec: dict):
    """``/v1/run``: one point. ``{"config": "...", "workload": "..."}``."""
    from repro.cli import parse_config

    if "config" not in spec or "workload" not in spec:
        raise BadRequest("run spec needs 'config' and 'workload'")
    config = parse_config(str(spec["config"]))
    workload = _check_workload(spec["workload"])
    length, warmup, seed = _parse_common(spec)
    return [SweepPoint(config, workload, length, warmup, seed)], {}


def _parse_sweep_spec(spec: dict):
    """``/v1/sweep``: the CLI sweep grid ``[baseline, *configs] × workloads``."""
    from repro.cli import SWEEP_DEFAULT_SPECS, parse_config
    from repro.trace.workloads import SERVER_SUITE

    raw_configs = spec.get("configs") or SWEEP_DEFAULT_SPECS
    if not isinstance(raw_configs, (list, tuple)):
        raise BadRequest("'configs' must be a list of config specs")
    configs = [parse_config(str(s)) for s in raw_configs]
    raw_workloads = spec.get("workloads") or list(SERVER_SUITE)
    if not isinstance(raw_workloads, (list, tuple)):
        raise BadRequest("'workloads' must be a list of workload names")
    workloads = [_check_workload(name) for name in raw_workloads]
    length, warmup, seed = _parse_common(spec)
    points = [
        SweepPoint(config, name, length, warmup, seed)
        for config in [IDEAL_IBTB16, *configs]
        for name in workloads
    ]
    return points, {
        "configs": configs,
        "workloads": workloads,
        "baseline_label": IDEAL_IBTB16.label,
    }
