"""Engine integration of batch plans and jobs=0.

Covers the sweep-engine side of docs/compiled_kernels.md: compiled
``run_points`` output is bit-identical to the serial interpreter, batch
plans round-trip through the disk cache's plans tier (with hit/miss
counters) behind a single-entry in-process memo, and ``jobs=0``
auto-detects the CPU count.
"""

import os

import pytest

from repro.core.config import bbtb, ibtb, mbbtb, rbtb
from repro.core.exec import (
    SweepPoint,
    clear_plan_memo,
    configure_disk_cache,
    fetch_batch_plan,
    fetch_trace,
    plan_key,
    resolve_jobs,
    run_points,
)
from repro.core.exec.faults import ENV_FAULT_DIR, ENV_FAULT_SPEC
from repro.core.passes.kernel import KERNEL_ENV, batch_geometry
from repro.core.runner import clear_cache

L, W = 2_500, 500


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


def _points():
    return [
        SweepPoint(config, name, L, W, 7)
        for config in [ibtb(16), ibtb(4), rbtb(3), bbtb(2), mbbtb(2, "allbr")]
        for name in ("web_frontend", "db_oltp")
    ]


# -- compiled engine through run_points --------------------------------------


def test_batched_run_points_bit_identical_to_interp_serial(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "interp")
    ref = run_points(_points(), jobs=1)
    clear_cache()
    monkeypatch.delenv(KERNEL_ENV)
    for jobs in (1, 2):
        clear_cache()
        got = run_points(_points(), jobs=jobs)
        for a, b in zip(ref, got):
            assert a.stats == b.stats
            assert a.cycles == b.cycles
            assert a.structure == b.structure


def test_plan_disk_cache_round_trip(monkeypatch, tmp_path):
    """A cold run stores one plan per (workload, geometry); a fresh
    process (simulated by clearing the memo) hits the disk."""
    cache = configure_disk_cache(True, tmp_path)
    pts = _points()
    cold = run_points(pts, jobs=1)
    assert cache.counters["plan_misses"] == 2  # one per workload
    # The serial run alternates workloads and the memo keeps only the
    # last plan, so every later point reloads its plan from disk.
    assert cache.counters["plan_hits"] == len(pts) - 2

    clear_cache()
    clear_plan_memo()
    import shutil

    shutil.rmtree(cache.results_dir)  # force re-simulation, keep plans
    cache2 = configure_disk_cache(True, tmp_path)
    warm = run_points(pts, jobs=1)
    assert cache2.counters["plan_hits"] == len(pts)
    assert cache2.counters["plan_misses"] == 0
    assert [r.stats for r in cold] == [r.stats for r in warm]


def test_corrupt_plan_entry_is_dropped_and_rebuilt(monkeypatch, tmp_path):
    cache = configure_disk_cache(True, tmp_path)
    point = _points()[0]
    trace = fetch_trace(point.workload, point.length, point.seed)
    fetch_batch_plan(point, trace)
    key = plan_key(point, batch_geometry(point.config))
    path = cache.plan_path(key)
    assert path.exists()
    path.write_bytes(b"not an npz")
    clear_plan_memo()
    plan = fetch_batch_plan(point, trace)  # corrupt entry: rebuilt
    assert len(plan.next_br) == len(trace)
    assert cache.counters["plan_misses"] == 2
    assert path.exists()  # re-stored


def test_plan_key_distinguishes_geometry_and_trace():
    a, b = _points()[0], _points()[2]  # same workload, different config
    geom = batch_geometry(a.config)
    assert plan_key(a, geom) == plan_key(b, geom)  # family-shared
    other = SweepPoint(a.config, "db_oltp", L, W, 7)
    assert plan_key(a, geom) != plan_key(other, geom)
    small = batch_geometry(ibtb(16, bp_size_kb=2))
    assert plan_key(a, small) != plan_key(a, geom)


def test_plan_memo_keeps_only_the_last_plan():
    """Two traces x two predictor sizes need four plans, yet the
    in-process memo holds just the last one (older plans come back from
    the disk cache or a rebuild, not from memory)."""
    from repro.core.exec import engine

    pts = [
        SweepPoint(ibtb(16, bp_size_kb=kb), name, L, W, 7)
        for kb in (8, 64)
        for name in ("web_frontend", "db_oltp")
    ]
    clear_plan_memo()
    run_points(pts, jobs=1)
    assert len(engine._plan_memo) == 1


# -- jobs auto-detection ------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(-3) == 1
    probe = getattr(os, "process_cpu_count", None) or os.cpu_count
    assert resolve_jobs(0) == max(1, probe() or 1)


def test_resolve_jobs_env_default(monkeypatch):
    """jobs=None consults $REPRO_JOBS; an explicit value always wins."""
    from repro.core.exec import ENV_JOBS

    monkeypatch.delenv(ENV_JOBS, raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv(ENV_JOBS, "6")
    assert resolve_jobs(None) == 6
    # Explicit values ignore the env var entirely...
    assert resolve_jobs(2) == 2
    # ...including explicit 0, which still means auto-detect the CPUs.
    probe = getattr(os, "process_cpu_count", None) or os.cpu_count
    assert resolve_jobs(0) == max(1, probe() or 1)
    # Env auto-detect and clamping mirror the explicit forms.
    monkeypatch.setenv(ENV_JOBS, "0")
    assert resolve_jobs(None) == max(1, probe() or 1)
    monkeypatch.setenv(ENV_JOBS, "-4")
    assert resolve_jobs(None) == 1
    # Unparsable env values fall back to serial rather than crashing.
    monkeypatch.setenv(ENV_JOBS, "many")
    assert resolve_jobs(None) == 1


def test_jobs_zero_runs_the_sweep(monkeypatch):
    pts = _points()[:2]
    ref = run_points(pts, jobs=1)
    clear_cache()
    got = run_points(pts, jobs=0)
    assert [r.stats for r in ref] == [r.stats for r in got]
