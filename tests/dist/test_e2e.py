"""End-to-end distributed sweeps: real coordinator, real worker processes.

The acceptance bar throughout: every dist-mode result — including under
injected worker SIGKILLs, dropped outcome frames, and abrupt
disconnects — is **bit-identical** to the serial local run of the same
points.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.config import ibtb, rbtb
from repro.core.exec import RetryPolicy, SweepPoint, run_points
from repro.corpus import configure_corpus
from repro.obs.export import sweep_chrome_trace
from repro.trace.external import save_trace_csv
from repro.trace.workloads import get_trace

from .conftest import wait_workers

LENGTH = 4_000
WARMUP = 1_000


def _points():
    return [
        SweepPoint(config, workload, LENGTH, WARMUP, 7)
        for config in (ibtb(16), rbtb(2))
        for workload in ("web_frontend", "kv_store", "db_oltp")
    ]


def _serial(points):
    return run_points(points)


def test_dist_results_bit_identical_to_serial(coordinator, spawn_worker):
    spawn_worker(coordinator, jobs=2)
    wait_workers(coordinator, 2)
    points = _points()

    got = run_points(points, dispatch=f"dist://127.0.0.1:{coordinator.port}")

    assert got == _serial(points)
    counters = coordinator.counters()
    assert counters["workers_total"] == 2
    assert counters["outcomes_ok"] == len(points)
    assert counters["points_leased"] >= len(points)
    assert counters["workers_lost"] == 0


def test_dist_report_mode_and_reuse(coordinator, spawn_worker):
    """strict=False returns a SweepReport; a second sweep reuses the
    same fleet and stays correct."""
    spawn_worker(coordinator, jobs=1)
    wait_workers(coordinator, 1)
    url = f"dist://127.0.0.1:{coordinator.port}"
    points = _points()[:3]

    report = run_points(points, strict=False, dispatch=url)
    assert not report.failures
    assert report.results == _serial(points)

    more = _points()[3:]
    assert run_points(more, dispatch=url) == _serial(more)


def test_worker_sigkill_is_blamed_and_retried(
    coordinator, spawn_worker, tmp_path
):
    """An injected SIGKILL takes down a session process mid-point; the
    supervisor respawns it, the coordinator blames exactly the in-flight
    point, and the retry converges to bit-identical results."""
    spawn_worker(
        coordinator,
        jobs=2,
        env={
            "REPRO_FAULT_SPEC": "kill:web_frontend:1",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        },
    )
    wait_workers(coordinator, 2)
    points = _points()

    report = run_points(
        points,
        strict=False,
        policy=RetryPolicy(max_retries=3, backoff=0.1),
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert not report.failures
    assert report.results == _serial(points)
    assert report.counters.get("worker_crashes", 0) >= 1
    assert report.counters.get("retries", 0) >= 1
    assert coordinator.counters()["workers_lost"] >= 1


def test_timeout_recovers_a_hang(coordinator, spawn_worker, tmp_path):
    """A session hung mid-point keeps heartbeating, so only its lease's
    silence can expose it: past ``policy.allowance()`` the coordinator
    blames the point as a timeout, closes the session's connection and
    retries the point elsewhere instead of waiting out the hang."""
    spawn_worker(
        coordinator,
        jobs=2,
        env={
            "REPRO_FAULT_SPEC": "hang:db_oltp:1",
            "REPRO_FAULT_HANG_S": "60",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        },
    )
    wait_workers(coordinator, 2)
    points = _points()[:3]  # one db_oltp point: one session hangs

    t0 = time.monotonic()
    report = run_points(
        points,
        strict=False,
        policy=RetryPolicy(timeout=1),
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert time.monotonic() - t0 < 30
    assert not report.failures
    assert report.results == _serial(points)
    assert report.counters["timeouts"] >= 1
    assert any(e["kind"] == "timeout_kill" for e in report.events)


def test_dist_chrome_trace_draws_worker_tracks(coordinator, spawn_worker):
    spawn_worker(coordinator, jobs=2)
    wait_workers(coordinator, 2)

    report = run_points(
        _points(), strict=False,
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    doc = sweep_chrome_trace(report)
    tracks = {
        e["tid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    slices = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"].startswith("chunk-")
    ]
    assert any(tracks[e["tid"]].startswith("worker-") for e in slices)


def test_drop_and_disconnect_faults_converge(
    coordinator, spawn_worker, tmp_path
):
    """Network chaos: one point's outcome frame is silently dropped
    (requeued blame-free at lease end) and another point's connection is
    cut before execution (blamed like a crash, worker reconnects). The
    sweep still converges bit-identically."""
    spawn_worker(
        coordinator,
        jobs=1,
        env={
            "REPRO_FAULT_SPEC": "drop:kv_store:1;disconnect:db_oltp:1",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        },
    )
    wait_workers(coordinator, 1)
    points = _points()

    report = run_points(
        points,
        strict=False,
        policy=RetryPolicy(max_retries=3, backoff=0.1),
        dispatch=f"dist://127.0.0.1:{coordinator.port}",
    )

    assert not report.failures
    assert report.results == _serial(points)
    counters = coordinator.counters()
    assert counters["outcomes_dropped"] >= 1
    assert counters["reconnects"] >= 1


def test_cold_worker_fetches_corpus_and_matches(
    coordinator, spawn_worker, tmp_path, monkeypatch
):
    """A worker with an empty corpus store fetches the trace shards it
    needs by content hash and produces results bit-identical to the
    local run against the populated store."""
    root = tmp_path / "coord-corpus"
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(root))
    store = configure_corpus(root)
    trace = get_trace("web_frontend", 9000)
    csv = tmp_path / "web_frontend.csv"
    save_trace_csv(trace, str(csv))
    store.ingest(str(csv), shard_insts=2000)

    worker_corpus = tmp_path / "worker-corpus"
    spawn_worker(
        coordinator,
        jobs=1,
        extra_args=("--corpus-dir", str(worker_corpus)),
    )
    wait_workers(coordinator, 1)
    points = [
        SweepPoint(config, "corpus:web_frontend", LENGTH, WARMUP, 7)
        for config in (ibtb(16), rbtb(2))
    ]

    got = run_points(points, dispatch=f"dist://127.0.0.1:{coordinator.port}")

    assert got == _serial(points)
    counters = coordinator.counters()
    assert counters["fetch_manifests"] >= 1
    assert counters["fetch_shards"] >= 1
    assert counters["shard_bytes_tx"] > 0
    assert counters["shard_bytes_rx"] > 0
    # The worker's store now holds the verified entry on disk.
    from repro.corpus import CorpusStore

    fetched = CorpusStore(worker_corpus)
    assert fetched.get("web_frontend").content_hash == store.get(
        "web_frontend"
    ).content_hash
    assert fetched.verify(["web_frontend"]) == []


def test_obs_points_are_rejected_by_dispatch(coordinator):
    point = SweepPoint(
        ibtb(16), "web_frontend", LENGTH, WARMUP, 7, obs={"capture": True}
    )
    with pytest.raises(ValueError, match="observability"):
        run_points(
            [point], dispatch=f"dist://127.0.0.1:{coordinator.port}"
        )
