"""Experiment runner: config × workload sweeps with layered caching.

The benchmark harness regenerates every figure by sweeping configs over
the workload suite. Many figures share points (e.g. the ideal I-BTB 16
baseline normalizes everything), so results go through two cache layers:

* an in-process memo keyed by (config, workload, length, warmup, seed) —
  all immutable — exactly as before;
* optionally, the persistent disk cache of :mod:`repro.core.exec`
  (results as JSON, synthesized traces as ``.npz``), so repeated
  *invocations* skip both simulation and trace synthesis.

``run_suite`` and ``compare_to_baseline`` accept ``jobs=N`` to fan the
independent (config, workload) points across worker processes; parallel
results are bit-identical to serial and come back in the same order
(see :func:`repro.core.exec.run_points`).

Workload names resolve through the engine: synthetic suite names come
from :mod:`repro.trace.workloads`, while ``corpus:<name>[@<slice>]``
names resolve against the trace corpus store (:mod:`repro.corpus`) and
are cache-keyed by the entry's content hash, so re-ingesting identical
trace content keeps every cached result valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.stats import BoxStats, geomean
from repro.core.config import MachineConfig
from repro.core.exec import (
    RetryPolicy,
    SweepError,
    SweepJournal,
    SweepPoint,
    SweepReport,
    clear_trace_memo,
    execute_point,
    get_disk_cache,
    run_points,
)
from repro.core.simulator import SimResult

#: Default per-trace lengths (instructions). The paper warms 50 M and
#: measures 50 M; we scale to what pure Python can sweep (DESIGN.md).
DEFAULT_LENGTH = 160_000
DEFAULT_WARMUP = 40_000

_cache: Dict[Tuple, SimResult] = {}


def run_one(
    config: MachineConfig,
    workload: str,
    length: int = DEFAULT_LENGTH,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 7,
) -> SimResult:
    """Simulate one (config, workload) point, memoized (and disk-cached
    when a persistent cache is configured)."""
    key = (config, workload, length, warmup, seed)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    result = execute_point(SweepPoint(config, workload, length, warmup, seed))
    _cache[key] = result
    return result


def run_suite(
    config: MachineConfig,
    workloads: Optional[Sequence[str]] = None,
    length: int = DEFAULT_LENGTH,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 7,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
) -> List[SimResult]:
    """Simulate *config* across the workload suite.

    ``jobs>1`` runs the missing points on worker processes; the returned
    list is ordered by workload regardless of *jobs* and bit-identical
    to the serial run. *policy* configures retries/timeouts for the
    fanned-out points (see ``docs/robustness.md``).
    """
    names = _suite_names(workloads)
    _run_missing(
        [(config, name, length, warmup, seed) for name in names], jobs, policy
    )
    return [run_one(config, name, length, warmup, seed) for name in names]


def clear_cache(disk: bool = False) -> None:
    """Drop memoized results (tests use this for isolation).

    Always clears the in-process result memo and the trace memo. With
    ``disk=True``, additionally purges the persistent on-disk cache (if
    one is configured) — every stored result and trace file is removed.

    Cache-invalidation rule: persistent entries are content-addressed by
    a hash that includes ``repro.core.exec.cachekey.CACHE_SCHEMA``. Any
    change to simulation semantics, trace synthesis, or the stored
    payload layout must bump that schema version; old entries then live
    under a stale ``v<N>/`` directory and can never be served. Calling
    ``clear_cache(disk=True)`` removes all schema versions' files.
    """
    _cache.clear()
    clear_trace_memo()
    if disk:
        cache = get_disk_cache()
        if cache is not None:
            cache.clear()


@dataclass
class ComparedConfig:
    """One config's suite results normalized to a baseline, per workload."""

    config: MachineConfig
    results: List[SimResult]
    relative_ipc: List[float]

    @property
    def box(self) -> BoxStats:
        return BoxStats.from_values(self.relative_ipc)

    @property
    def geomean_ipc(self) -> float:
        return geomean([r.ipc for r in self.results])

    @property
    def mean_fetch_pcs(self) -> float:
        vals = [r.fetch_pcs_per_access for r in self.results]
        return sum(vals) / len(vals) if vals else 0.0


def compare_to_baseline(
    configs: Iterable[MachineConfig],
    baseline: MachineConfig,
    workloads: Optional[Sequence[str]] = None,
    length: int = DEFAULT_LENGTH,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 7,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
) -> List[ComparedConfig]:
    """The paper's standard presentation: per-workload IPC of each config
    divided by the baseline's IPC on the same workload.

    With ``jobs>1`` every missing (config, workload) point — baseline
    included — is fanned out at once, maximizing worker utilization.
    """
    configs = list(configs)
    names = _suite_names(workloads)
    _run_missing(
        [
            (config, name, length, warmup, seed)
            for config in [baseline, *configs]
            for name in names
        ],
        jobs,
        policy,
    )
    base = run_suite(baseline, names, length, warmup, seed)
    base_ipc = [r.ipc for r in base]
    out = []
    for config in configs:
        results = run_suite(config, names, length, warmup, seed)
        rel = [r.ipc / b for r, b in zip(results, base_ipc)]
        out.append(ComparedConfig(config=config, results=results, relative_ipc=rel))
    return out


def sweep_compare(
    configs: Iterable[MachineConfig],
    baseline: MachineConfig,
    workloads: Optional[Sequence[str]] = None,
    length: int = DEFAULT_LENGTH,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 7,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[SweepJournal] = None,
    resume: bool = False,
    strict: bool = True,
    batch: Optional[int] = None,
    dispatch: Optional[str] = None,
) -> Tuple[List[ComparedConfig], SweepReport, List[str]]:
    """Fault-tolerant sweep + comparison: the ``repro-sim sweep`` engine.

    Runs every missing (config, workload) point — baseline included —
    through the resilient :func:`repro.core.exec.run_points` (even with
    ``jobs=1``, so retries, fault injection and checkpoint/resume apply
    to serial sweeps too), then builds the baseline-relative comparison.

    With ``strict=True`` a :class:`SweepError` propagates if any point
    still fails after retries (completed work stays memoized, cached and
    journaled). With ``strict=False`` the sweep degrades gracefully:
    workloads with a failed point (baseline included) are dropped from
    the comparison and returned in the third element, and the
    :class:`SweepReport` carries the classified failures.

    *dispatch* (``"dist://host:port"``) drains the missing points onto
    the distributed worker fleet instead of local processes — results
    and resilience semantics are identical (``docs/distributed.md``).
    """
    configs = list(configs)
    names = _suite_names(workloads)
    keys = [
        (config, name, length, warmup, seed)
        for config in [baseline, *configs]
        for name in names
    ]
    missing = [key for key in dict.fromkeys(keys) if key not in _cache]
    report = SweepReport()
    if missing:
        points = [SweepPoint(*key) for key in missing]
        report = run_points(
            points,
            jobs=jobs,
            strict=False,
            policy=policy,
            journal=journal,
            resume=resume,
            batch=batch,
            dispatch=dispatch,
        )
        for key, outcome in zip(missing, report.outcomes):
            if outcome.ok:
                _cache[key] = outcome.result
        if strict and report.interrupted:
            raise KeyboardInterrupt
        if strict and report.failures:
            raise SweepError(report)
    failed_names = sorted({o.point.workload for o in report.failures})
    good = [name for name in names if name not in failed_names]
    compared = (
        compare_to_baseline(configs, baseline, good, length, warmup, seed)
        if good
        else []
    )
    return compared, report, failed_names


def sweep_results_payload(
    compared: Sequence[ComparedConfig], baseline_label: str
) -> dict:
    """Deterministic per-point results document.

    Used by ``repro-sim sweep --out`` and by the service daemon's sweep
    jobs: fault-injected runs must produce byte-identical output to
    clean runs, and a coalesced service sweep must match the one-shot
    CLI, so everything is plain sorted JSON derived from SimResults.
    """
    configs = {}
    relative = {}
    for cc in compared:
        per_workload = {}
        for result in cc.results:
            per_workload[result.name] = {
                "instructions": result.instructions,
                "cycles": result.cycles,
                "ipc": result.ipc,
                "branch_mpki": result.branch_mpki,
                "misfetch_pki": result.misfetch_pki,
                "stats": result.stats,
            }
        configs[cc.config.label] = per_workload
        relative[cc.config.label] = {
            r.name: rel for r, rel in zip(cc.results, cc.relative_ipc)
        }
    return {
        "schema": 1,
        "baseline": baseline_label,
        "configs": configs,
        "relative_ipc": relative,
    }


# -- internals ---------------------------------------------------------------


def _suite_names(workloads: Optional[Sequence[str]]) -> List[str]:
    from repro.trace.workloads import SERVER_SUITE

    return list(workloads) if workloads is not None else list(SERVER_SUITE)


def _run_missing(
    keys: Sequence[Tuple], jobs: int, policy: Optional[RetryPolicy] = None
) -> None:
    """Execute the not-yet-memoized points (in parallel when jobs > 1)
    and fill the in-process memo."""
    missing = [key for key in dict.fromkeys(keys) if key not in _cache]
    if not missing or (jobs <= 1 and policy is None):
        return  # serial paths go through run_one's own memoization
    points = [SweepPoint(*key) for key in missing]
    for key, result in zip(
        missing, run_points(points, jobs=jobs, policy=policy)
    ):
        _cache[key] = result
