"""The ``serve_mixed`` workload: a ``repro-sim serve --jobs 1`` daemon
under a closed loop of two clients.

Each client opens one connection at a time and, per request, submits
(``POST /v1/run`` or a small ``POST /v1/sweep``), waits on the job's
NDJSON event stream and fetches the result; latency is submit to result
fetched. The request sequence comes from :func:`grids.serve_plan`.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import grids
import tracer as tracing
from sweeps import ColdStateError, layer_metrics, percentile
from tracer import Tracer

HERE = Path(__file__).resolve().parent
CLIENTS = 2
BOOT_TIMEOUT = 60.0
SEED_WAVE = 8


def fetch(port: int, method: str, path: str, body=None, client="perfbench"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers={"X-Client-Id": client,
                              "Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def fetch_json(port, method, path, body=None, client="perfbench"):
    status, data = fetch(port, method, path, body, client)
    return status, json.loads(data) if data else None


class Daemon:
    """One daemon subprocess on its own cache directory."""

    def __init__(self, ctx, spans_path: Optional[Path] = None) -> None:
        self.cache = ctx.fresh_dir("serve-cache")
        self.log = self.cache.parent / f"{self.cache.name}.log"
        args = ["serve", "--port", "0", "--jobs", "1",
                "--cache-dir", str(self.cache), "--drain-timeout", "60"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "daemon.py"), str(spans_path),
                   *args]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, env=ctx.env, stdout=log,
                                         stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_banner()
            while fetch(self.port, "GET", "/v1/healthz/ready")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _wait_banner(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        marker = "listening on http://"
        while time.monotonic() < deadline:
            text = self.log.read_text()
            if marker in text:
                line = text.split(marker, 1)[1].split()[0]
                return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon did not start:\n{self.log.read_text()}")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return self.proc.wait()


def labels() -> Dict[str, str]:
    from repro.cli import parse_config

    return {spec: parse_config(spec).label for spec in grids.SERVE_SPECS}


def run_body(kind: str, item) -> dict:
    spec, workload, tseed = item
    common = {"length": grids.SERVE_LENGTH, "seed": tseed}
    if kind == "run":
        return {"config": spec, "workload": workload, **common}
    return {"configs": [spec], "workloads": [workload], **common}


@dataclass(frozen=True)
class Outcome:
    """One request: *first* marks a first touch, times are seconds."""

    ok: bool
    first: bool
    latency: float
    submit: float


class Loop:
    """The closed loop: clients take the next request of the sequence
    when their previous one completes, until the deadline."""

    def __init__(self, port, gate, warm, requests, tracer=None) -> None:
        self.port = port
        self.gate = gate
        self.requests = requests
        self.tracer = tracer
        self.labels = labels()
        self.touched = {("point", item) for item in warm}
        self.first_touches = 0
        self.outcomes: List[Outcome] = []
        self.error: Optional[BaseException] = None
        self._next = 0
        self._lock = threading.Lock()
        self.deadline = 0.0

    def take(self):
        with self._lock:
            if self.error is not None or time.perf_counter() >= self.deadline:
                return None
            if self._next >= len(self.requests):
                # Past the sequence's end no request would be a first
                # touch: an all-hit mix would flatter the run.
                raise ColdStateError(
                    f"serve_mixed: all {len(self.requests)} requests taken "
                    "before the deadline; the universe has no fresh points "
                    "left")
            kind, item = self.requests[self._next]
            self._next += 1
            fresh = [key for key in grids.request_points(kind, item)
                     if key not in self.touched]
            self.touched.update(fresh)
            self.first_touches += len(fresh)
            return kind, item, bool(fresh)

    def _span(self, name, point=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("client", name, point)

    def request(self, client: str, kind: str, item, first: bool) -> Outcome:
        """One request; refusals and transport errors count as failed."""
        spec, workload, tseed = item
        t0 = time.perf_counter()
        submit = latency = 0.0
        ok = False
        try:
            with self._span("request", f"{kind}:{spec}|{workload}|{tseed}"):
                with self._span("submit"):
                    status, doc = fetch_json(self.port, "POST", f"/v1/{kind}",
                                             run_body(kind, item), client)
                submit = time.perf_counter() - t0
                if status == 202:
                    job = doc["job"]
                    with self._span("wait"):
                        fetch(self.port, "GET", f"/v1/jobs/{job}/events",
                              client=client)
                    with self._span("fetch"):
                        status, doc = fetch_json(
                            self.port, "GET", f"/v1/jobs/{job}", client=client)
                    latency = time.perf_counter() - t0
                    ok = status == 200 and doc.get("status") == "done"
        except (OSError, http.client.HTTPException, ValueError):
            ok = False
        if ok:
            self.check(kind, item, doc["result"])
        return Outcome(ok, first, latency, submit)

    def check(self, kind: str, item, result: dict) -> None:
        spec, workload, tseed = item
        if kind == "run":
            self.gate.check(tseed, f"{spec}|{workload}", *grids.digests(
                result["name"], result["instructions"], result["cycles"],
                result["stats"], result["structure"]))
            return
        # A sweep document carries the compared config's rows; the
        # baseline only enters through relative_ipc, checked on its own.
        label = self.labels[spec]
        row = result["configs"][label][workload]
        self.gate.check(tseed, f"{spec}|{workload}", *grids.digests(
            workload, row["instructions"], row["cycles"], row["stats"]))
        self.gate.check_relative(tseed, f"{spec}|{workload}",
                                 result["relative_ipc"][label][workload])

    def client(self, index: int) -> None:
        name = f"client-{index}"
        try:
            while True:
                job = self.take()
                if job is None:
                    return
                outcome = self.request(name, *job)
                with self._lock:
                    self.outcomes.append(outcome)
        except BaseException as exc:  # re-raised by run() on the main thread
            with self._lock:
                self.error = exc

    def run(self, seconds: float) -> float:
        start = time.perf_counter()
        self.deadline = start + seconds
        threads = [threading.Thread(target=self.client, args=(i,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if self.error is not None:
            raise self.error
        return wall


def seed_warm(daemon: Daemon, gate, warm) -> None:
    """Populate the daemon's cache with the warm share, through the
    daemon, in waves that stay under its active-job limit."""
    loop = Loop(daemon.port, gate, [], [])
    for start in range(0, len(warm), SEED_WAVE):
        jobs = []
        for item in warm[start:start + SEED_WAVE]:
            status, doc = fetch_json(daemon.port, "POST", "/v1/run",
                                     run_body("run", item))
            if status != 202:
                raise RuntimeError(f"warm seeding refused: {status} {doc}")
            jobs.append((item, doc["job"]))
        for item, job in jobs:
            fetch(daemon.port, "GET", f"/v1/jobs/{job}/events")
            status, doc = fetch_json(daemon.port, "GET", f"/v1/jobs/{job}")
            if status != 200 or doc.get("status") != "done":
                raise RuntimeError(f"warm seeding failed: {doc}")
            loop.check("run", item, doc["result"])


def boot(ctx, gate, warm, spans_path=None):
    """One set-up: daemon boot to ready, then warm seeding."""
    t0 = time.perf_counter()
    daemon = Daemon(ctx, spans_path)
    try:
        seed_warm(daemon, gate, warm)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0


def counter_delta(before: dict, after: dict) -> Dict[str, float]:
    """``group.key -> after - before`` over the numeric metrics."""
    out = {}
    for group in ("service", "cache", "resilience"):
        for key, value in after.get(group, {}).items():
            if isinstance(value, (int, float)):
                out[f"{group}.{key}"] = value - before.get(group, {}).get(key, 0)
    return out


@dataclass
class Session:
    loop: Loop
    wall: float
    setups: List[float]
    delta: Dict[str, float]
    begin_ns: int
    end_ns: int
    spans_path: Optional[Path]

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.loop.outcomes if o.ok]

    def counts(self) -> dict:
        attempted = len(self.loop.outcomes)
        return {"attempted": attempted, "failed": attempted - len(self.ok)}


def session(ctx, seed: int, seconds: float, tracer=None) -> Session:
    """Three set-ups (the last daemon serves), then the timed phase."""
    gate = grids.Gate("serve_mixed", ctx.goldens)
    warm, requests = grids.serve_plan(seed)
    setups = []
    for _ in range(2):
        daemon, took = boot(ctx, gate, warm)
        setups.append(took)
        daemon.stop()
    spans_path = None
    if tracer is not None:
        spans_path = ctx.fresh_dir("daemon-spans") / "spans.json"
    daemon, took = boot(ctx, gate, warm, spans_path)
    setups.append(took)
    try:
        loop = Loop(daemon.port, gate, warm, requests, tracer)
        _status, before = fetch_json(daemon.port, "GET", "/v1/metrics")
        begin_ns = time.perf_counter_ns()
        wall = loop.run(seconds)
        end_ns = time.perf_counter_ns()
        _status, after = fetch_json(daemon.port, "GET", "/v1/metrics")
    finally:
        rc = daemon.stop()
    if rc != 0:
        raise RuntimeError(f"daemon exited {rc}:\n{daemon.log.read_text()}")
    delta = counter_delta(before, after)
    misses = delta.get("cache.result_misses")
    # A refused or failed request may leave its first touch unsimulated;
    # failures are counted, and the guard holds only on a clean run.
    clean = all(o.ok for o in loop.outcomes)
    if clean and misses != loop.first_touches:
        raise ColdStateError(
            f"serve_mixed: {misses} result misses in the timed phase, "
            f"expected {loop.first_touches} first touches")
    out = Session(loop, wall, setups, delta, begin_ns, end_ns, spans_path)
    ctx.note(f"serve_mixed: set-ups "
             + ", ".join(f"{s:.2f}s" for s in setups)
             + f"; {len(loop.outcomes)} requests in {wall:.2f}s, "
             f"{len(out.ok)} ok, {loop.first_touches} first-touch points, "
             f"{delta.get('service.points_coalesced', 0)} coalesced, "
             f"{gate.checked} results matched goldens")
    return out


def measure(ctx, seed: int, seconds: float) -> dict:
    s = session(ctx, seed, seconds)
    ok = s.ok
    # Cache hits simulate nothing: count only the points the timed
    # phase simulated, the first touches.
    simulated = s.delta.get("cache.result_misses", 0)
    latencies = [o.latency for o in ok]
    ctx.note(f"serve_mixed: {len(latencies)} latency samples, "
             f"{len(latencies) - int(len(latencies) * 0.95)} beyond p95")
    return {
        **s.counts(),
        "metrics": {
            "setup_s": statistics.median(s.setups),
            "sim_kips": simulated * grids.SERVE_LENGTH / s.wall / 1e3,
            "req_per_s": len(ok) / s.wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p95_ms": percentile(latencies, 95) * 1e3,
        },
    }


def traced(ctx, seed: int, seconds: float) -> dict:
    client = Tracer()
    s = session(ctx, seed, seconds, client)
    ok, wall, delta = s.ok, s.wall, s.delta
    with open(s.spans_path) as fh:
        spans = [span for span in Tracer.load(json.load(fh))
                 if span.start >= s.begin_ns and span.end <= s.end_ns]
    points = [sp.seconds for sp in spans
              if sp.layer == "engine" and sp.name == "execute_point"]
    engine = {
        "engine.busy_frac": sum(points) / wall,
        "engine.point_p50_s": statistics.median(points) if points else 0.0,
        "engine.point_max_s": max(points, default=0.0),
        "engine.retries": delta.get("resilience.retries", 0),
        "engine.failed": delta.get("resilience.failed", 0),
    }
    hits = [o.latency for o in ok if not o.first]
    misses = [o.latency for o in ok if o.first]
    service = {
        "service.submit_ms": statistics.median(o.submit for o in ok) * 1e3,
        "service.hit_ms": statistics.median(hits) * 1e3 if hits else 0.0,
        "service.miss_ms": statistics.median(misses) * 1e3 if misses else 0.0,
        "service.points_scheduled": delta.get("service.points_scheduled", 0),
        "service.points_coalesced": delta.get("service.points_coalesced", 0),
        "service.batches": delta.get("service.batches", 0),
        "service.rejected": sum(v for k, v in delta.items()
                                if k.startswith("service.jobs_rejected")),
        "store.appends": delta.get("service.store_appends", 0),
    }
    cache = {k.split(".", 1)[1]: v for k, v in delta.items()
             if k.startswith("cache.")}
    metrics = layer_metrics(spans, cache, engine, service)
    estimate = (tracing.span_cost_seconds()
                * (len(spans) + len(client.spans)) / wall)
    metrics.update({
        "tracing.wall_s": wall,
        "tracing.residual_frac": 1 - tracing.root_seconds(spans) / wall,
        "tracing.overhead_frac": estimate,
        "tracing.span_cost_frac": estimate,
    })
    ctx.write_chrome("serve_mixed", seed, tracing.chrome(
        [("perfbench serve_mixed clients", client.spans),
         ("repro-sim serve (traced)", spans)], s.begin_ns, ctx.env_record))
    for layer, seconds in sorted(tracing.layer_self_times(spans).items(),
                                 key=lambda kv: -kv[1]):
        ctx.note(f"  daemon self {layer:<10} {seconds:8.3f}s "
                 f"{seconds / wall * 100:5.1f}% of the timed phase")
    ctx.note("  tracing overhead is the calibrated per-span cost times "
             f"{len(spans) + len(client.spans)} spans")
    return {**s.counts(), "metrics": metrics}
