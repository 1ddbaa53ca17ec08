"""Tests for the sweep execution engine: parallelism + persistent cache."""

import json
from math import ceil

import pytest

from repro.core.config import bbtb, ibtb, mbbtb, rbtb
from repro.core.exec import (
    DiskCache,
    SweepPoint,
    configure_disk_cache,
    execute_point,
    get_disk_cache,
    point_key,
    run_points,
    trace_key,
)
from repro.core.runner import clear_cache, compare_to_baseline, run_one, run_suite
from repro.trace.workloads import WORKLOAD_SPECS

L, W = 4_000, 1_000
NAMES = ["web_frontend", "db_oltp", "kv_store"]
CONFIGS = [ibtb(16), rbtb(3), mbbtb(2, "allbr")]


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Every test starts and ends with no memo and no disk cache."""
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


def _points():
    return [
        SweepPoint(config, name, L, W, 7) for config in CONFIGS for name in NAMES
    ]


# -- parallel-vs-serial determinism -----------------------------------------


def test_parallel_results_bit_identical_to_serial():
    """jobs=4 must reproduce jobs=1 exactly: same stats dict, cycles and
    order for every (config, workload) point (3 configs x 3 workloads)."""
    serial = run_points(_points(), jobs=1)
    parallel = run_points(_points(), jobs=4)
    assert len(serial) == len(parallel) == 9
    for a, b in zip(serial, parallel):
        assert a.name == b.name
        assert a.instructions == b.instructions
        assert a.cycles == b.cycles
        assert a.stats == b.stats
        assert a.structure == b.structure


def test_run_suite_jobs_matches_serial():
    serial = run_suite(CONFIGS[0], NAMES, L, W)
    clear_cache()
    parallel = run_suite(CONFIGS[0], NAMES, L, W, jobs=4)
    assert [r.name for r in parallel] == NAMES
    assert [r.stats for r in serial] == [r.stats for r in parallel]


def test_compare_to_baseline_jobs_matches_serial():
    serial = compare_to_baseline(CONFIGS, ibtb(16), NAMES, L, W)
    clear_cache()
    parallel = compare_to_baseline(CONFIGS, ibtb(16), NAMES, L, W, jobs=4)
    assert [cc.relative_ipc for cc in serial] == [
        cc.relative_ipc for cc in parallel
    ]


# -- cache-key stability ------------------------------------------------------


def test_point_key_stable_across_rebuilt_configs():
    """Two independently constructed but identical configs share a key."""
    a = point_key(SweepPoint(mbbtb(2, "allbr"), "web_frontend", L, W, 7))
    b = point_key(SweepPoint(mbbtb(2, "allbr"), "web_frontend", L, W, 7))
    assert a == b


def test_point_key_changes_with_any_field():
    base = SweepPoint(ibtb(16), "web_frontend", L, W, 7)
    variants = [
        SweepPoint(ibtb(8), "web_frontend", L, W, 7),
        SweepPoint(ibtb(16, scale=0.5), "web_frontend", L, W, 7),
        SweepPoint(ibtb(16), "db_oltp", L, W, 7),
        SweepPoint(ibtb(16), "web_frontend", L + 1, W, 7),
        SweepPoint(ibtb(16), "web_frontend", L, W + 1, 7),
        SweepPoint(ibtb(16), "web_frontend", L, W, 8),
    ]
    keys = {point_key(v) for v in variants}
    assert point_key(base) not in keys
    assert len(keys) == len(variants)


def test_trace_key_depends_on_spec():
    spec = WORKLOAD_SPECS["web_frontend"]
    other = WORKLOAD_SPECS["db_oltp"]
    assert trace_key("web_frontend", spec, L, 7) == trace_key(
        "web_frontend", spec, L, 7
    )
    assert trace_key("web_frontend", spec, L, 7) != trace_key(
        "web_frontend", other, L, 7
    )


# -- persistent disk cache ----------------------------------------------------


def test_disk_cache_round_trip(tmp_path):
    cache = configure_disk_cache(True, tmp_path)
    point = SweepPoint(ibtb(16), "web_frontend", L, W, 7)
    cold = execute_point(point)
    assert cache.counters["result_misses"] == 1
    warm = execute_point(point)
    assert cache.counters["result_hits"] == 1
    assert warm is not cold
    assert warm.stats == cold.stats
    assert warm.cycles == cold.cycles
    assert warm.structure == cold.structure


def test_disk_cache_serves_across_processes_via_run_points(tmp_path):
    configure_disk_cache(True, tmp_path)
    cold = run_points(_points()[:3], jobs=2)
    clear_cache()
    warm = run_points(_points()[:3], jobs=1)
    assert [r.stats for r in cold] == [r.stats for r in warm]
    assert get_disk_cache().counters["result_hits"] >= 3


def test_parallel_cold_run_counts_one_miss_per_point_and_trace(tmp_path):
    """The cold-state guard: local sessions' disk-cache counters land in
    the caller's cache, and no point or trace is computed twice."""
    from repro.trace.workloads import SERVER_SUITE

    names = SERVER_SUITE[:8]
    pts = [
        SweepPoint(config, name, 2_500, 500, 7)
        for config in (ibtb(16), rbtb(3))
        for name in names
    ]
    cache = configure_disk_cache(True, tmp_path)
    run_points(pts, jobs=2)
    snap = cache.snapshot()
    assert snap["result_misses"] == len(pts)
    assert snap["trace_misses"] == len(names)


def test_observed_points_run_on_local_sessions(tmp_path):
    """An observed point executed by a worker session stores its
    artifact beside the cached result, as in-process execution does."""
    from repro.obs import ObsSpec

    cache = configure_disk_cache(True, tmp_path)
    observed = SweepPoint(
        ibtb(16), "web_frontend", L, W, 7, obs=ObsSpec(interval=500)
    )
    plain = SweepPoint(rbtb(3), "db_oltp", L, W, 7)
    got = run_points([observed, plain], jobs=2)
    assert got[0].stats == execute_point(observed).stats
    payload = cache.load_obs(point_key(observed))
    assert payload is not None and payload["instructions"] == L


def test_corrupted_result_file_falls_back_to_recompute(tmp_path):
    cache = configure_disk_cache(True, tmp_path)
    point = SweepPoint(ibtb(16), "web_frontend", L, W, 7)
    good = execute_point(point)
    path = cache.result_path(point_key(point))
    path.write_text("{ this is not json")
    again = execute_point(point)  # must not raise
    assert again.stats == good.stats
    # The corrupt entry was dropped and replaced by the recomputed one.
    assert json.loads(path.read_text())["cycles"] == good.cycles


def test_corrupted_trace_file_falls_back_to_resynthesis(tmp_path):
    cache = configure_disk_cache(True, tmp_path)
    spec = WORKLOAD_SPECS["web_frontend"]
    key = trace_key("web_frontend", spec, L, 7)
    path = cache.trace_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x00not-an-npz")
    result = execute_point(SweepPoint(ibtb(16), "web_frontend", L, W, 7))
    assert result.instructions == L - W
    assert cache.counters["trace_misses"] >= 1


def test_truncated_trace_npz_is_a_miss_and_resynthesized(tmp_path):
    """Trace-side mirror of the result-corruption tests: a genuinely
    cached .npz cut off mid-archive must be treated as a miss, dropped,
    and transparently re-synthesized (then re-stored intact)."""
    cache = configure_disk_cache(True, tmp_path)
    spec = WORKLOAD_SPECS["web_frontend"]
    key = trace_key("web_frontend", spec, L, 7)
    good = execute_point(SweepPoint(ibtb(16), "web_frontend", L, W, 7))
    path = cache.trace_path(key)
    assert path.exists()
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    # New config, same trace: misses the result cache, so the truncated
    # trace entry is actually consulted (memos cleared first).
    cache = configure_disk_cache(True, tmp_path)
    again = execute_point(SweepPoint(ibtb(8), "web_frontend", L, W, 7))
    assert again.instructions == good.instructions
    assert cache.counters["trace_misses"] >= 1
    # The broken entry was replaced by a fresh, loadable copy.
    assert cache.load_trace(key) is not None


def test_truncated_result_payload_is_a_miss(tmp_path):
    cache = DiskCache(tmp_path)
    path = cache.result_path("deadbeef")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"name": "x"}')  # valid JSON, missing fields
    assert cache.load_result("deadbeef") is None
    assert not path.exists()


def test_sweep_point_obs_artifact_stored_alongside_result(tmp_path):
    """Observability opt-in: same cache key, artifact stored next to the
    result, cached results only reused once the artifact exists."""
    from repro.obs import ObsSpec

    cache = configure_disk_cache(True, tmp_path)
    plain = SweepPoint(ibtb(16), "web_frontend", L, W, 7)
    observed = SweepPoint(
        ibtb(16), "web_frontend", L, W, 7, obs=ObsSpec(interval=500)
    )
    # Observation does not participate in the cache key.
    key = point_key(plain)
    assert key == point_key(observed)

    base = execute_point(plain)
    assert cache.load_obs(key) is None
    # Cached result without artifact: point re-runs instrumented and is
    # still bit-identical (the golden-equivalence guarantee).
    again = execute_point(observed)
    assert again.stats == base.stats and again.cycles == base.cycles
    payload = cache.load_obs(key)
    assert payload is not None
    # The observation spans the whole run; warmup is recorded alongside.
    assert payload["instructions"] == L
    assert payload["warmup"] == W
    assert sum(payload["event_counts"].values()) > 0
    assert payload["meta"]["workload"] == "web_frontend"
    # Fully cached now: served without recomputing the artifact.
    hits_before = cache.counters["result_hits"]
    assert execute_point(observed).stats == base.stats
    assert cache.counters["result_hits"] == hits_before + 1


def test_corrupt_obs_artifact_is_dropped(tmp_path):
    from repro.obs import ObsSpec

    cache = configure_disk_cache(True, tmp_path)
    point = SweepPoint(
        ibtb(16), "web_frontend", L, W, 7, obs=ObsSpec(interval=500)
    )
    execute_point(point)
    key = point_key(point)
    cache.obs_path(key).write_text("{ nope")
    assert cache.load_obs(key) is None
    assert not cache.obs_path(key).exists()


def test_clear_cache_disk_purges_persistent_entries(tmp_path):
    cache = configure_disk_cache(True, tmp_path)
    point = SweepPoint(ibtb(16), "web_frontend", L, W, 7)
    execute_point(point)
    assert cache.result_path(point_key(point)).exists()
    clear_cache(disk=True)
    assert not cache.result_path(point_key(point)).exists()
    # And a fresh run repopulates without error.
    assert execute_point(point).cycles > 0


def test_run_one_uses_disk_cache_after_memory_clear(tmp_path):
    configure_disk_cache(True, tmp_path)
    a = run_one(bbtb(1), "web_frontend", L, W)
    clear_cache()  # memory only: disk survives
    b = run_one(bbtb(1), "web_frontend", L, W)
    assert a is not b
    assert a.stats == b.stats and a.cycles == b.cycles


# -- lease picking edge cases -----------------------------------------------


def _lease_all(points, workers):
    """Drain *points* through ``Coordinator._pick`` with *workers* idle
    sessions asking for leases in turn, recording each session's trace
    groups as a grant does; returns the leases in grant order."""
    from repro.core.exec import DEFAULT_POLICY
    from repro.core.exec.engine import _SweepState
    from repro.dist.coordinator import Coordinator, _group, _Remote, _Run

    coord = Coordinator()
    remotes = [_Remote(f"w{i}", None, None, 0.0) for i in range(workers)]
    coord._workers = {remote.worker_id: remote for remote in remotes}
    run = _Run(_SweepState(points, DEFAULT_POLICY, None, False), None)
    leases = []
    while True:
        remote = remotes[len(leases) % workers]
        lease = coord._pick(run, remote, run.pending)
        if not lease:
            return leases
        taken = {index for index, _ in lease}
        run.pending = [qp for qp in run.pending if qp.index not in taken]
        remote.groups.add(_group(lease[0][1]))
        leases.append(lease)


def _one_trace_group():
    # Eight configs over ONE workload: a single shared-trace group.
    return [SweepPoint(ibtb(2**i), "web_frontend", L, W, 7) for i in range(8)]


@pytest.mark.parametrize(
    "make, workers, sizes",
    [
        (lambda: [], 4, []),
        (lambda: _points()[:1], 8, [1]),
        (lambda: _points()[:3], 16, None),
        # With one worker the bound is ceil(8/4)=2, so the group is still
        # split for load balancing rather than leased in one piece.
        (_one_trace_group, 1, [2, 2, 2, 2]),
        (_points, 1, None),
        (_points, 2, None),
        (_points, 3, None),
        (_points, 8, None),
    ],
    ids=[
        "empty", "single-point", "more-workers-than-points",
        "one-group-bound", "mixed-1", "mixed-2", "mixed-3", "mixed-8",
    ],
)
def test_pick_leases(make, workers, sizes):
    pts = make()
    leases = _lease_all(pts, workers)
    if sizes is not None:
        assert [len(lease) for lease in leases] == sizes
    # Every point is leased exactly once, under its own index.
    flat = [pair for lease in leases for pair in lease]
    assert sorted(index for index, _ in flat) == list(range(len(pts)))
    assert all(pts[index] == point for index, point in flat)
    bound = ceil(len(pts) / (workers * 4))
    for lease in leases:
        assert 0 < len(lease) <= bound
        # Leases never mix trace groups.
        assert len({(p.workload, p.length, p.seed) for _, p in lease}) == 1
