"""Work-stealing sweep coordinator (asyncio TCP, thread-hosted).

This is the one scheduler behind every parallel sweep: ``run_points``
with ``jobs > 1`` starts a private coordinator on loopback with that
many forked local sessions (:func:`run_local`), and ``dispatch=dist://``
or ``repro-sim serve --dist-listen`` drains onto ``repro-sim worker``
fleets (:func:`run_dist`). The coordinator owns the point queue of the
active sweep and records every decision through the engine's
:class:`~repro.core.exec.engine._SweepState` — retries, taxonomy
counters, journal checkpoints and report events. A dead or partitioned
worker has the first unreported point of its lease blamed
(``worker-crash``, consuming one attempt) and its lease-mates
re-dispatched blame-free; a lease that stays silent past
``policy.allowance()`` is a ``timeout_kill`` (an owned local session is
SIGKILLed, a remote one has its connection closed).

Dispatch is pull-based work stealing: idle workers request leases; when
the queue is empty but another worker still holds unstarted points, the
coordinator revokes the tail half of the victim's lease and hands it to
the thief. Workers stream one outcome frame per point, so progress is
never lost in batch granularity; each frame also carries the worker's
disk-cache counters, folded into this process's :class:`DiskCache`.

The asyncio event loop runs in a dedicated daemon thread; ``execute``
blocks the calling thread (the engine or the service executor) until
the sweep completes.
"""
from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional, Set, Tuple

from ..core.exec.engine import SweepPoint, get_disk_cache, point_key
from .protocol import (
    DIST_SCHEMA,
    ConnectionClosed,
    ProtocolError,
    parse_dist_url,
    point_to_wire,
    read_frame,
    result_from_wire,
    write_frame,
)

#: Seconds without any frame (heartbeats included) before a worker is
#: declared lost and its leased points are reassigned.
DEFAULT_HB_TIMEOUT = 20.0

#: Idle-poll hint (ms) handed to workers when no work is grantable.
IDLE_RETRY_MS = 200

#: Fleet counters always present in a snapshot (mirrors COUNTER_NAMES
#: discipline: consumers can rely on every key existing).
FLEET_COUNTER_NAMES = (
    "workers_total",
    "workers_lost",
    "leases",
    "points_leased",
    "steals",
    "points_stolen",
    "outcomes_ok",
    "outcomes_err",
    "outcomes_duplicate",
    "outcomes_dropped",
    "fetch_manifests",
    "fetch_shards",
    "fetch_plans",
    "shard_bytes_tx",
    "plan_bytes_tx",
)

#: Worker-side counters folded into the fleet snapshot (summed over
#: live workers' latest reports plus departed workers' final reports).
WORKER_COUNTER_NAMES = (
    "fetch_cache_hits",
    "shard_fetches",
    "shard_refetches",
    "shard_bytes_rx",
    "plan_bytes_rx",
    "points_ok",
    "points_err",
    "reconnects",
)


@dataclass
class _QueuedPoint:
    index: int
    point: SweepPoint
    not_before: float = 0.0  # state.now() instant of its earliest dispatch


def _group(point: SweepPoint) -> Tuple[str, int, int]:
    return (point.workload, point.length, point.seed)


@dataclass
class _Lease:
    lease_id: int
    run: "_Run"
    pairs: List[Tuple[int, SweepPoint]]
    reported: Set[int] = field(default_factory=set)
    #: ``time.monotonic()`` of the grant or of the lease's latest
    #: outcome; silence past ``policy.allowance()`` is a hang.
    last_progress: float = field(default_factory=time.monotonic)


@dataclass
class _Remote:
    worker_id: str
    writer: object
    wlock: asyncio.Lock
    last_msg: float
    caps: Dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    groups: Set[Tuple[str, int, int]] = field(default_factory=set)
    leases: Dict[int, _Lease] = field(default_factory=dict)
    closed: bool = False
    #: Per-session index (lowest free among connected workers): the
    #: ``slot`` of its report events, i.e. its ``worker-<slot>`` track.
    slot: int = 0
    #: Latest disk-cache counter snapshot the worker reported.
    disk: Dict[str, int] = field(default_factory=dict)


class _Run:
    """One sweep being drained onto the fleet."""

    def __init__(self, state, batch: Optional[int], fleet=None) -> None:
        self.state = state
        self.batch = batch
        #: The :class:`~repro.dist.worker.SessionFleet` this run owns
        #: (``None`` for a shared fleet of ``repro-sim worker``s).
        self.fleet = fleet
        self.pending: List[_QueuedPoint] = [
            _QueuedPoint(index, point) for index, point in state.pairs
        ]
        #: Points queued at the start: sizes every lease, so a trace
        #: group is split only when the whole sweep calls for it.
        self.total = len(self.pending)
        self.done = threading.Event()
        self.aborted = False

    def complete(self) -> bool:
        return len(self.state.outcomes) >= len(self.state.points)


class Coordinator:
    """One listening coordinator; host it with :func:`get_coordinator`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        hb_timeout: float = DEFAULT_HB_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port  # actual port after start() when 0 was asked
        self.hb_timeout = hb_timeout
        self._bind_port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._run_lock = threading.Lock()  # one sweep at a time
        self._run: Optional[_Run] = None
        self._workers: Dict[str, _Remote] = {}
        self._next_lease = 0
        self._next_client = 0
        self._counters: Dict[str, int] = {k: 0 for k in FLEET_COUNTER_NAMES}
        self._departed: Dict[str, int] = {}
        self._shard_index: Dict[str, object] = {}

    # -- lifecycle (caller threads) ------------------------------------------

    def start(self) -> "Coordinator":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-dist-coordinator", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError(
                f"coordinator failed to listen on {self.host}:{self._bind_port}: "
                f"{self._startup_error}"
            )
        if not self._ready.is_set():
            raise RuntimeError("coordinator event loop failed to start")
        return self

    def stop(self) -> None:
        loop = self._loop
        event = getattr(self, "_stop_event", None)
        if loop is None or event is None or self._thread is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass
        self._thread.join(timeout=10)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def workers_live(self) -> int:
        return len(self._workers)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until *count* workers are registered (benchmarks use this
        to measure a steady-state fleet, not connection latency)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self._workers) >= count:
                return True
            time.sleep(0.02)
        return len(self._workers) >= count

    def counters(self) -> Dict[str, int]:
        """Fleet counter snapshot (includes the ``workers_live`` gauge)."""
        snap = dict(self._counters)
        folded: Dict[str, int] = dict(self._departed)
        for remote in list(self._workers.values()):
            for key, value in remote.counters.items():
                folded[key] = folded.get(key, 0) + int(value)
        for key in WORKER_COUNTER_NAMES:
            snap[key] = folded.get(key, 0)
        snap["workers_live"] = len(self._workers)
        return snap

    def execute(self, state, batch: Optional[int] = None, fleet=None):
        """Drain *state*'s pending points onto the fleet; blocks until done.

        With *fleet* (a :class:`~repro.dist.worker.SessionFleet` aimed at
        this coordinator) the run owns those sessions: they are spawned
        after the run begins (so none idles through a "no run" grant),
        respawned if they die, and stopped when the run ends. A run that
        is already complete on arrival (an expired deadline) spawns
        nothing. Returns the assembled :class:`SweepReport` via
        ``state.finish()``. KeyboardInterrupt aborts the run (report
        marked interrupted), matching the serial path's contract.
        """
        self.start()
        with self._run_lock:
            run = _Run(state, batch, fleet)
            asyncio.run_coroutine_threadsafe(
                self._begin(run), self._loop
            ).result(timeout=30)
            try:
                if fleet is not None and not run.done.is_set():
                    fleet.start()
                while not run.done.wait(0.05):
                    if fleet is not None:
                        fleet.poll()
            except KeyboardInterrupt:
                try:
                    asyncio.run_coroutine_threadsafe(
                        self._abort(run), self._loop
                    ).result(timeout=10)
                except Exception:
                    pass
                state.report.interrupted = True
            finally:
                if fleet is not None:
                    fleet.stop()
            return state.finish()

    # -- event loop ----------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._client, self.host, self._bind_port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        monitor = asyncio.ensure_future(self._monitor())
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            monitor.cancel()
            # Connections first: from Python 3.12 wait_closed() also
            # waits for every open connection.
            for remote in list(self._workers.values()):
                self._close_remote(remote)
            server.close()
            await server.wait_closed()

    async def _monitor(self) -> None:
        """Declare silent workers lost, kill hung leases, enforce the
        sweep deadline."""
        tick = 0.25
        while True:
            await asyncio.sleep(tick)
            now = time.monotonic()
            for remote in list(self._workers.values()):
                if now - remote.last_msg > self.hb_timeout:
                    await self._lose_worker(
                        remote,
                        f"no frame for {self.hb_timeout:.0f}s (heartbeat timeout)",
                    )
            run = self._run
            if run is not None:
                self._enforce_deadline(run)
                self._enforce_allowance(run, now)
                self._maybe_finish(run)

    # -- run lifecycle (loop thread) -----------------------------------------

    async def _begin(self, run: _Run) -> None:
        self._run = run
        run.state.report.record(
            run.state.now(),
            "dist_begin",
            address=self.address,
            queued=len(run.pending),
            workers=len(self._workers),
        )
        self._enforce_deadline(run)
        self._maybe_finish(run)

    async def _abort(self, run: _Run) -> None:
        run.aborted = True
        run.pending.clear()
        if self._run is run:
            self._run = None
        run.done.set()

    def _maybe_finish(self, run: _Run) -> None:
        if run.done.is_set():
            return
        if run.complete():
            # Close the run's leases still open (their lease_done frames
            # may land after the last outcome) so every chunk_start has
            # its chunk_end.
            for remote in list(self._workers.values()):
                for lease in list(remote.leases.values()):
                    if lease.run is run:
                        self._end_lease(remote, lease)
            run.state.report.record(run.state.now(), "dist_end")
            if self._run is run:
                self._run = None
            run.done.set()

    def _enforce_deadline(self, run: _Run) -> None:
        """Past the sweep deadline, fail everything still open fast —
        queued points and unreported leased points alike. That completes
        the run, so an owned fleet is killed as ``execute`` returns; a
        remote worker cannot be killed, its late outcomes are ignored."""
        if run.done.is_set() or not run.state.deadline_expired():
            return
        for qp in run.pending:
            run.state.point_deadline(qp.index, qp.point)
        run.pending.clear()
        for remote in list(self._workers.values()):
            for lease in list(remote.leases.values()):
                if lease.run is not run:
                    continue
                for index, point in lease.pairs:
                    if index not in lease.reported:
                        run.state.point_deadline(index, point)

    def _enforce_allowance(self, run: _Run, now: float) -> None:
        """Kill leases silent past ``policy.allowance()``: the point at
        their head is hung. It is blamed as a ``timeout``; an owned
        session is SIGKILLed, a remote one has its connection closed
        (heartbeats keep a hung worker's connection alive, so only the
        lease's own outcomes count as progress)."""
        allowance = run.state.policy.allowance()
        if allowance is None or run.done.is_set():
            return
        for remote in list(self._workers.values()):
            for lease in list(remote.leases.values()):
                if lease.run is not run or now - lease.last_progress <= allowance:
                    continue
                self._blame_lease(
                    remote, lease, "timeout",
                    f"worker {remote.worker_id} killed after "
                    f"{allowance:.1f}s without an outcome",
                    "timeout_kill",
                )
                if run.fleet is None or not run.fleet.kill(remote.caps.get("pid")):
                    self._close_remote(remote)

    def _requeue(self, run: _Run, pairs, delay: float = 0.0) -> None:
        now = run.state.now()
        for index, point in pairs:
            if index in run.state.outcomes:
                continue
            run.pending.append(_QueuedPoint(index, point, now + delay))

    # -- client protocol -----------------------------------------------------

    async def _client(self, reader, writer) -> None:
        remote: Optional[_Remote] = None
        try:
            msg, _ = await asyncio.wait_for(read_frame(reader), timeout=30)
            if msg.get("t") != "hello":
                await write_frame(writer, {"t": "reject", "error": "expected hello"})
                return
            if msg.get("schema") != DIST_SCHEMA:
                await write_frame(
                    writer,
                    {
                        "t": "reject",
                        "error": f"protocol schema mismatch: coordinator "
                        f"{DIST_SCHEMA}, worker {msg.get('schema')}",
                    },
                )
                return
            self._next_client += 1
            worker_id = f"{msg.get('worker') or 'worker'}#{self._next_client}"
            taken = {other.slot for other in self._workers.values()}
            remote = _Remote(
                worker_id=worker_id,
                writer=writer,
                wlock=asyncio.Lock(),
                last_msg=time.monotonic(),
                caps=dict(msg.get("caps") or {}),
                slot=min(set(range(len(taken) + 1)) - taken),
            )
            self._workers[worker_id] = remote
            self._counters["workers_total"] += 1
            run = self._run
            if run is not None:
                run.state.report.record(
                    run.state.now(), "worker_join", worker=worker_id
                )
            await self._send(remote, {"t": "welcome", "schema": DIST_SCHEMA})
            while True:
                msg, _blob = await read_frame(reader)
                remote.last_msg = time.monotonic()
                t = msg.get("t")
                self._note_counters(remote, msg)
                if t == "lease":
                    await self._grant(remote, msg)
                elif t == "ok":
                    self._handle_ok(remote, msg)
                elif t == "err":
                    self._handle_err(remote, msg)
                elif t == "lease_done":
                    self._handle_lease_done(remote, msg)
                elif t == "hb":
                    pass  # liveness (and counters) only
                elif t == "fetch_manifest":
                    await self._serve_manifest(remote, msg)
                elif t == "fetch_shard":
                    await self._serve_shard(remote, msg)
                elif t == "fetch_plan":
                    await self._serve_plan(remote, msg)
                elif t == "bye":
                    await self._lose_worker(remote, "clean shutdown", clean=True)
                    remote = None
                    return
                else:
                    raise ProtocolError(f"unknown message type {t!r}")
        except (ConnectionClosed, ProtocolError, ConnectionError, OSError) as exc:
            if remote is not None:
                await self._lose_worker(remote, f"{type(exc).__name__}: {exc}")
                remote = None
        except asyncio.TimeoutError:
            pass
        except asyncio.CancelledError:
            # Only loop teardown cancels handler tasks (coordinator
            # stop); exit quietly — re-raising makes asyncio.streams'
            # done-callback log a spurious "Exception in callback".
            pass
        except Exception as exc:  # never let one client kill the loop
            if remote is not None:
                await self._lose_worker(remote, f"handler error: {exc}")
                remote = None
        finally:
            if remote is None:
                try:
                    writer.close()
                except Exception:
                    pass

    async def _send(self, remote: _Remote, msg: Dict, blob: bytes = b"") -> None:
        async with remote.wlock:
            await write_frame(remote.writer, msg, blob)

    def _note_counters(self, remote: _Remote, msg: Dict) -> None:
        """Adopt the counters a frame carries; fold the growth of the
        worker's disk-cache counters into this process's cache."""
        if msg.get("counters"):
            remote.counters = dict(msg["counters"])
        snap = msg.get("disk")
        if not snap:
            return
        disk = get_disk_cache()
        if disk is not None:
            disk.merge_counters(
                {k: int(v) - remote.disk.get(k, 0) for k, v in snap.items()}
            )
        remote.disk = {k: int(v) for k, v in snap.items()}

    def _close_remote(self, remote: _Remote) -> None:
        remote.closed = True
        try:
            remote.writer.close()
        except Exception:
            pass

    async def _lose_worker(
        self, remote: _Remote, reason: str, clean: bool = False
    ) -> None:
        """Unregister *remote* and reassign its leased points.

        A crash/partition blames the first unreported point of each lease
        (the one that was executing) exactly like a crashed local worker;
        a clean ``bye`` requeues everything blame-free.
        """
        if self._workers.get(remote.worker_id) is not remote:
            return  # already reaped (monitor/EOF race)
        del self._workers[remote.worker_id]
        if not clean:
            self._counters["workers_lost"] += 1
        for key, value in remote.counters.items():
            self._departed[key] = self._departed.get(key, 0) + int(value)
        run = self._run
        if run is not None:
            run.state.report.record(
                run.state.now(),
                "worker_lost" if not clean else "worker_bye",
                worker=remote.worker_id,
                reason=reason,
            )
        for lease in list(remote.leases.values()):
            if lease.run is not self._run or lease.run.done.is_set():
                remote.leases.pop(lease.lease_id, None)
            elif clean:
                self._end_lease(remote, lease)
                self._requeue(lease.run, self._unreported(lease))
            else:
                self._blame_lease(
                    remote, lease, "worker-crash",
                    f"worker {remote.worker_id} lost mid-point ({reason})",
                    "worker_crash",
                )
        self._close_remote(remote)
        if run is not None:
            self._enforce_deadline(run)
            self._maybe_finish(run)

    # -- lease endings ----------------------------------------------------------

    @staticmethod
    def _unreported(lease: _Lease) -> List[Tuple[int, SweepPoint]]:
        outcomes = lease.run.state.outcomes
        return [
            (index, point)
            for index, point in lease.pairs
            if index not in lease.reported and index not in outcomes
        ]

    def _end_lease(self, remote: _Remote, lease: _Lease) -> None:
        remote.leases.pop(lease.lease_id, None)
        lease.run.state.report.record(
            lease.run.state.now(), "chunk_end",
            slot=remote.slot, chunk=lease.lease_id,
        )

    def _blame_lease(
        self, remote: _Remote, lease: _Lease, kind: str, message: str,
        event: str,
    ) -> None:
        """End a lease whose worker died or hung mid-point.

        The first unreported point is the one that was executing: it is
        blamed (*kind*, consuming one attempt) and retried after backoff;
        the rest are requeued blame-free. Past the sweep deadline every
        unreported point fails as deadline-exceeded instead.
        """
        run = lease.run
        state = run.state
        self._end_lease(remote, lease)
        unreported = self._unreported(lease)
        if not unreported:
            return
        if state.deadline_expired():
            for index, point in unreported:
                state.point_deadline(index, point)
            return
        suspect_index, suspect_point = unreported[0]
        retrying = state.point_failed(suspect_index, suspect_point, kind, message)
        state.report.record(
            state.now(),
            event,
            worker=remote.worker_id,
            slot=remote.slot,
            chunk=lease.lease_id,
            index=suspect_index,
            attempt=state.attempts[suspect_index],
            final=not retrying,
        )
        if retrying:
            delay = state.policy.delay(state.attempts[suspect_index])
            state.report.record(
                state.now(), "retry", index=suspect_index, delay=round(delay, 3)
            )
            self._requeue(run, [(suspect_index, suspect_point)], delay)
        self._requeue(run, unreported[1:])

    # -- dispatch ------------------------------------------------------------

    async def _grant(self, remote: _Remote, msg: Dict) -> None:
        run = self._run
        if run is not None:
            self._enforce_deadline(run)
            self._maybe_finish(run)
        if run is None or run.done.is_set():
            await self._send(
                remote,
                {"t": "grant", "lease": None, "points": [],
                 "retry_ms": IDLE_RETRY_MS * 2, "active": False},
            )
            return
        state = run.state
        now = state.now()
        # Lazily prune queue copies of points that already resolved (a
        # duplicate outcome can finish a point while a requeued copy of
        # it waits out a backoff delay).
        run.pending = [
            qp for qp in run.pending if qp.index not in state.outcomes
        ]
        eligible = [qp for qp in run.pending if qp.not_before <= now]
        take: List[Tuple[int, SweepPoint]] = []
        if eligible:
            take = self._pick(run, remote, eligible, int(msg.get("max") or 0))
            taken = {index for index, _ in take}
            run.pending = [qp for qp in run.pending if qp.index not in taken]
        else:
            take = await self._steal(run, remote, msg)
        if not take:
            retry_ms = IDLE_RETRY_MS
            waiting = [qp.not_before for qp in run.pending]
            if waiting:
                retry_ms = max(
                    10, int((min(waiting) - state.now()) * 1000) + 10
                )
            await self._send(
                remote,
                {"t": "grant", "lease": None, "points": [],
                 "retry_ms": min(retry_ms, 1000), "active": True},
            )
            return
        self._next_lease += 1
        lease = _Lease(self._next_lease, run, take)
        remote.leases[lease.lease_id] = lease
        remote.groups.add(_group(take[0][1]))
        self._counters["leases"] += 1
        self._counters["points_leased"] += len(take)
        state.report.record(
            state.now(),
            "chunk_start",
            worker=remote.worker_id,
            slot=remote.slot,
            chunk=lease.lease_id,
            points=len(take),
        )
        await self._send(
            remote,
            {
                "t": "grant",
                "lease": lease.lease_id,
                "points": [
                    {"index": index, "point": point_to_wire(point)}
                    for index, point in take
                ],
                "corpus": self._corpus_map(take),
                "active": True,
            },
        )

    def _pick(
        self,
        run: _Run,
        remote: _Remote,
        eligible: List[_QueuedPoint],
        requested_max: int = 0,
    ) -> List[Tuple[int, SweepPoint]]:
        """Select one trace-group's worth of points for a lease.

        Points are ordered so configs sharing a batch-plan geometry land
        adjacent, leases never mix trace groups, and group affinity
        keeps each trace materialized on as few workers as possible
        (prefer a group this worker already holds, then a group no fleet
        member has touched, then anything). A lease holds at most
        ``batch`` points, else a quarter of the sweep's per-worker share.
        """
        if not eligible:
            return []
        eligible = sorted(
            eligible,
            key=lambda qp: (
                qp.point.workload,
                qp.point.length,
                qp.point.seed,
                qp.point.config.bp_size_kb,
                qp.index,
            ),
        )
        fleet_groups: Set[Tuple[str, int, int]] = set()
        for other in self._workers.values():
            fleet_groups |= other.groups
        groups_in_queue = []
        seen = set()
        for qp in eligible:
            g = _group(qp.point)
            if g not in seen:
                seen.add(g)
                groups_in_queue.append(g)
        group = next(
            (g for g in groups_in_queue if g in remote.groups),
            next(
                (g for g in groups_in_queue if g not in fleet_groups),
                groups_in_queue[0],
            ),
        )
        in_group = [qp for qp in eligible if _group(qp.point) == group]
        if run.batch is not None:
            bound = max(1, int(run.batch))
        else:
            live = max(1, len(self._workers), run.fleet.jobs if run.fleet else 0)
            bound = max(1, ceil(run.total / (live * 4)))
        if requested_max > 0:
            bound = min(bound, requested_max)
        return [(qp.index, qp.point) for qp in in_group[:bound]]

    async def _steal(
        self, run: _Run, thief: _Remote, msg: Dict
    ) -> List[Tuple[int, SweepPoint]]:
        """Revoke the tail half of the fattest lease's unstarted points.

        Only points the victim has surely not reached move: a lease is
        stolen from once it has reported an outcome (so its trace is
        already loaded and cached), and its first two unreported points
        stay (the head may be executing, and so may the next one while
        the head's outcome frame is still in flight). The victim learns
        via a ``revoke`` push and skips them.
        """
        best: Optional[Tuple[_Remote, _Lease, List[Tuple[int, SweepPoint]]]] = None
        for remote in self._workers.values():
            if remote is thief or remote.closed:
                continue
            for lease in remote.leases.values():
                if lease.run is not run:
                    continue
                if not lease.reported:
                    continue
                unstarted = self._unreported(lease)[2:]
                if not unstarted:
                    continue
                if best is None or len(unstarted) > len(best[2]):
                    best = (remote, lease, unstarted)
        if best is None:
            return []
        victim, lease, unstarted = best
        stolen = unstarted[len(unstarted) // 2:]
        if not stolen:
            return []
        stolen_ix = {index for index, _ in stolen}
        lease.pairs = [
            pair for pair in lease.pairs if pair[0] not in stolen_ix
        ]
        self._counters["steals"] += 1
        self._counters["points_stolen"] += len(stolen)
        run.state.report.record(
            run.state.now(),
            "steal",
            thief=thief.worker_id,
            victim=victim.worker_id,
            lease=lease.lease_id,
            points=len(stolen),
        )
        try:
            await self._send(
                victim,
                {
                    "t": "revoke",
                    "lease": lease.lease_id,
                    "indices": sorted(stolen_ix),
                },
            )
        except Exception:
            # Victim's pipe just died; the EOF/heartbeat path will reap
            # it. The stolen points are already ours to grant.
            pass
        return stolen

    def _corpus_map(self, pairs) -> Dict[str, str]:
        """{entry: content_hash} for the corpus workloads of a lease, so
        the worker can validate (or fetch) its local copies up front."""
        from ..core.exec.engine import CORPUS_PREFIX
        from ..corpus.resolve import get_store, split_corpus_workload

        out: Dict[str, str] = {}
        for _index, point in pairs:
            if not point.workload.startswith(CORPUS_PREFIX):
                continue
            entry, _spec = split_corpus_workload(point.workload)
            if entry in out:
                continue
            try:
                out[entry] = get_store().get(entry).content_hash
            except Exception:
                continue  # worker will fail the point with a clear error
        return out

    # -- outcome handling ----------------------------------------------------

    def _claim(self, remote: _Remote, msg: Dict):
        """``(lease, index, point)`` an outcome frame reports, or ``None``
        (counted as a duplicate) when the lease or point is no longer
        live — stolen, timed out, resolved elsewhere, or of a past run."""
        lease = remote.leases.get(msg.get("lease"))
        if lease is None or lease.run is not self._run:
            self._counters["outcomes_duplicate"] += 1
            return None
        index = int(msg["index"])
        lease.reported.add(index)
        lease.last_progress = time.monotonic()
        point = next((p for i, p in lease.pairs if i == index), None)
        if point is None or index in lease.run.state.outcomes:
            self._counters["outcomes_duplicate"] += 1
            return None
        return lease, index, point

    def _handle_ok(self, remote: _Remote, msg: Dict) -> None:
        claim = self._claim(remote, msg)
        if claim is None:
            return
        lease, index, point = claim
        state = lease.run.state
        result = result_from_wire(msg["result"])
        disk = get_disk_cache()
        if disk is not None:
            # Persist like a locally executed point: --resume and the
            # service result cache must not care where a point ran. A
            # worker sharing this cache has already written the entry.
            key = point_key(point)
            if not disk.result_path(key).exists():
                disk.store_result(key, result)
        state.point_succeeded(index, point, result, float(msg.get("seconds", 0.0)))
        self._counters["outcomes_ok"] += 1
        state.report.record(
            state.now(),
            "point_ok",
            index=index,
            worker=remote.worker_id,
            slot=remote.slot,
            attempt=state.attempts[index],
        )
        self._maybe_finish(lease.run)

    def _handle_err(self, remote: _Remote, msg: Dict) -> None:
        claim = self._claim(remote, msg)
        if claim is None:
            return
        lease, index, point = claim
        state = lease.run.state
        kind = str(msg.get("kind", "exception"))
        self._counters["outcomes_err"] += 1
        retrying = state.point_failed(
            index,
            point,
            kind,
            str(msg.get("message", "")),
            str(msg.get("traceback", "")),
        )
        state.report.record(
            state.now(),
            "point_error",
            index=index,
            worker=remote.worker_id,
            slot=remote.slot,
            error=kind,
            attempt=state.attempts[index],
            final=not retrying,
        )
        if retrying:
            delay = state.policy.delay(state.attempts[index])
            state.report.record(
                state.now(), "retry", index=index, delay=round(delay, 3)
            )
            self._requeue(lease.run, [(index, point)], delay)
        self._maybe_finish(lease.run)

    def _handle_lease_done(self, remote: _Remote, msg: Dict) -> None:
        lease = remote.leases.get(msg.get("lease"))
        if lease is None:
            return
        if lease.run is not self._run:
            remote.leases.pop(lease.lease_id, None)
            return
        run = lease.run
        state = run.state
        self._end_lease(remote, lease)
        dropped = self._unreported(lease)
        if dropped and not state.deadline_expired():
            # The worker finished its lease without reporting these
            # points (lost outcome frames): requeue blame-free.
            self._counters["outcomes_dropped"] += len(dropped)
            state.report.record(
                state.now(),
                "outcome_dropped",
                worker=remote.worker_id,
                lease=lease.lease_id,
                points=len(dropped),
            )
            self._requeue(run, dropped)
        elif dropped:
            for index, point in dropped:
                state.point_deadline(index, point)
        self._maybe_finish(run)

    # -- content fetch service ----------------------------------------------

    async def _serve_manifest(self, remote: _Remote, msg: Dict) -> None:
        from ..corpus.resolve import get_store
        from ..corpus.store import CorpusError

        entry = str(msg.get("entry", ""))
        self._counters["fetch_manifests"] += 1
        try:
            manifest = get_store().get(entry)
        except CorpusError as exc:
            await self._send(
                remote,
                {"t": "manifest", "entry": entry, "found": False,
                 "error": str(exc)},
            )
            return
        await self._send(
            remote,
            {"t": "manifest", "entry": entry, "found": True,
             "manifest": manifest.to_json()},
        )

    def _build_shard_index(self) -> None:
        from ..corpus.resolve import get_store

        store = get_store()
        index: Dict[str, object] = {}
        try:
            for manifest in store.manifests():
                shard_dir = store.shard_dir_path(manifest)
                for shard in manifest.shards:
                    index[shard.sha256] = shard_dir / shard.file
        except Exception:
            pass
        self._shard_index = index

    async def _serve_shard(self, remote: _Remote, msg: Dict) -> None:
        sha = str(msg.get("sha256", ""))
        self._counters["fetch_shards"] += 1
        path = self._shard_index.get(sha)
        if path is None:
            self._build_shard_index()
            path = self._shard_index.get(sha)
        blob = b""
        found = False
        if path is not None:
            try:
                blob = await asyncio.get_running_loop().run_in_executor(
                    None, path.read_bytes
                )
                found = hashlib.sha256(blob).hexdigest() == sha
            except OSError:
                found = False
        if not found:
            await self._send(
                remote, {"t": "blob", "sha256": sha, "found": False}
            )
            return
        self._counters["shard_bytes_tx"] += len(blob)
        await self._send(
            remote, {"t": "blob", "sha256": sha, "found": True}, blob
        )

    async def _serve_plan(self, remote: _Remote, msg: Dict) -> None:
        key = str(msg.get("key", ""))
        self._counters["fetch_plans"] += 1
        disk = get_disk_cache()
        blob = b""
        if disk is not None:
            path = disk.plan_path(key)
            try:
                blob = await asyncio.get_running_loop().run_in_executor(
                    None, path.read_bytes
                )
            except OSError:
                blob = b""
        if not blob:
            await self._send(remote, {"t": "plan", "key": key, "found": False})
            return
        self._counters["plan_bytes_tx"] += len(blob)
        await self._send(
            remote,
            {"t": "plan", "key": key, "found": True,
             "sha256": hashlib.sha256(blob).hexdigest()},
            blob,
        )


# -- process-wide registry -------------------------------------------------

_coordinators: Dict[Tuple[str, int], Coordinator] = {}
_registry_lock = threading.Lock()


def get_coordinator(url: str, hb_timeout: float = DEFAULT_HB_TIMEOUT) -> Coordinator:
    """The process-wide coordinator listening at *url*, started on demand.

    ``dist://host:port`` (or ``tcp://`` / bare ``host:port``); port ``0``
    binds an ephemeral port, re-registered under the actual port so the
    same URL keeps resolving to the same instance.
    """
    host, port = parse_dist_url(url)
    with _registry_lock:
        coord = _coordinators.get((host, port))
        if coord is not None:
            return coord
        coord = Coordinator(host, port, hb_timeout=hb_timeout)
        coord.start()
        _coordinators[(host, coord.port)] = coord
        if port != coord.port:  # ephemeral bind: alias the asked-for key
            _coordinators[(host, port)] = coord
        return coord


def shutdown_coordinators() -> None:
    """Stop every registry-held coordinator (test isolation)."""
    with _registry_lock:
        seen = set()
        for coord in _coordinators.values():
            if id(coord) in seen:
                continue
            seen.add(id(coord))
            coord.stop()
        _coordinators.clear()


def run_dist(state, url: str, batch: Optional[int] = None):
    """Engine entry point: drain *state* through the coordinator at *url*."""
    coord = get_coordinator(url)
    return coord.execute(state, batch=batch)


def run_local(state, jobs: int, batch: Optional[int] = None):
    """Engine entry point for ``run_points(jobs=N)``: drain *state*
    through a private loopback coordinator onto *jobs* forked sessions.

    The sessions inherit this process's disk cache root and shard flag
    (and, through the environment, its corpus root); they live for this
    one call.
    """
    from .worker import SessionFleet

    disk = get_disk_cache()
    coord = Coordinator("127.0.0.1", 0).start()
    fleet = SessionFleet(
        coord.address,
        jobs,
        "local",
        cache_root=str(disk.root) if disk is not None else None,
        cache_enabled=disk is not None,
        cache_shard=disk.shard if disk is not None else None,
    )
    try:
        return coord.execute(state, batch=batch, fleet=fleet)
    finally:
        coord.stop()
