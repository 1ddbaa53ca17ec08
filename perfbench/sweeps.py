"""The two sweep workloads: ``fig_cold`` (pool) and ``bp_long`` (serial).

Each repetition starts cold: a fresh cache directory and every
in-process memo cleared *before* ``run_points`` forks its pool (forked
workers inherit the parent's memos). The cold state is then asserted
from the disk cache's own miss counters.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import grids
import tracer as tracing
from tracer import Tracer


@dataclass
class Spec:
    name: str
    jobs: int
    points: Callable  # trace seed -> [(tag, SweepPoint)]
    traces: int       # distinct traces per repetition (cold-guard count)


SPECS = {
    "fig_cold": Spec("fig_cold", grids.FIG_JOBS, grids.fig_points, 12),
    "bp_long": Spec("bp_long", 1, grids.bp_points, 1),
}


class ColdStateError(AssertionError):
    """A repetition that should have started cold did not."""


@dataclass
class Rep:
    wall: float
    instructions: int
    durations: List[float]
    attempted: int
    failed: int
    counters: Dict[str, int]
    resilience: Dict[str, int]


def cold_cache(ctx):
    """Fresh cache dir + cleared memos; returns the installed DiskCache."""
    from repro.core.exec import (clear_plan_memo, clear_trace_memo,
                                 configure_disk_cache)
    from repro.core.passes.kernel import kernel_cache_clear
    from repro.trace import workloads

    clear_trace_memo()
    clear_plan_memo()
    kernel_cache_clear()
    workloads.get_program.cache_clear()
    workloads.get_trace.cache_clear()
    root = ctx.fresh_dir("cache")
    return configure_disk_cache(True, root)


def run_rep(spec: Spec, ctx, tseed: int, jobs: int, gate) -> Rep:
    """One cold sweep through ``run_points``, checked against goldens."""
    from repro.core.exec import run_points

    tagged = spec.points(tseed)
    points = [point for _tag, point in tagged]
    disk = cold_cache(ctx)
    t0 = time.perf_counter()
    report = run_points(points, jobs=jobs, strict=False)
    wall = time.perf_counter() - t0
    counters = disk.snapshot()
    failed = 0
    for (tag, _point), outcome in zip(tagged, report.outcomes):
        if outcome.ok:
            gate.check(tseed, tag, *grids.result_digests(outcome.result))
        else:
            failed += 1
    misses = (counters["result_misses"], counters["trace_misses"])
    # A retried point looks its result up again, so the guard holds on
    # clean repetitions; failures and retries are counted instead.
    clean = not failed and not report.counters.get("retries")
    if clean and misses != (len(points), spec.traces):
        raise ColdStateError(
            f"{spec.name}: result/trace misses {misses}, expected "
            f"({len(points)}, {spec.traces}) from a cold start")
    shutil.rmtree(disk.root, ignore_errors=True)
    return Rep(
        wall=wall,
        instructions=sum(p.length for (_t, p), o in zip(tagged, report.outcomes)
                         if o.ok),
        durations=[o.duration for o in report.outcomes if o.ok],
        attempted=len(points),
        failed=failed,
        counters=counters,
        resilience=dict(report.counters),
    )


def import_seconds(ctx) -> float:
    """Wall time of a fresh interpreter importing the CLI package: what
    every ``repro-sim sweep`` pays before its first point."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], env=ctx.env,
                   check=True)
    return time.perf_counter() - t0


def setup(spec: Spec, ctx, tseed: int) -> float:
    """One set-up: interpreter start + imports, then the grid build."""
    seconds = import_seconds(ctx)
    t0 = time.perf_counter()
    spec.points(tseed)
    return seconds + time.perf_counter() - t0


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, ctx, seed: int, seconds: float) -> dict:
    """Untraced run: repetitions until *seconds* have passed."""
    spec = SPECS[name]
    gate = grids.Gate(name, ctx.goldens)
    setups = [setup(spec, ctx, grids.trace_seed(seed, i)) for i in range(3)]
    reps: List[Rep] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(spec, ctx, grids.trace_seed(seed, len(reps)),
                            spec.jobs, gate))
    durations = [d for rep in reps for d in rep.durations]
    kips = [rep.instructions / rep.wall / 1e3 for rep in reps]
    points = [len(rep.durations) / rep.wall for rep in reps]
    ctx.note(f"{name}: {len(reps)} cold repetitions, walls "
             + ", ".join(f"{rep.wall:.2f}s" for rep in reps)
             + f"; {len(durations)} point latencies; "
             f"{gate.checked} results matched goldens")
    return {
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {
            "setup_s": statistics.median(setups),
            "sim_kips": statistics.median(kips),
            "req_per_s": statistics.median(points),
            "latency_p50_ms": statistics.median(durations) * 1e3,
            "latency_p95_ms": percentile(durations, 95) * 1e3,
        },
    }


def traced(name: str, ctx, seed: int) -> dict:
    """Per-layer run: a serial replay with the tracer installed between
    two untraced ones (their mean is the overhead reference), after one
    untraced repetition as the workload runs it, for engine metrics."""
    spec = SPECS[name]
    gate = grids.Gate(name, ctx.goldens)
    tseed = grids.trace_seed(seed)
    first = run_rep(spec, ctx, tseed, spec.jobs, gate)
    before = first if spec.jobs == 1 else run_rep(spec, ctx, tseed, 1, gate)
    tracer = Tracer().install()
    try:
        rep = run_rep(spec, ctx, tseed, 1, gate)
    finally:
        tracer.uninstall()
    after = run_rep(spec, ctx, tseed, 1, gate)
    plain = [before, after]
    reps = [first, rep, after] + ([before] if before is not first else [])

    spans = tracer.spans
    residual = rep.wall - tracing.root_seconds(spans)
    untraced = statistics.mean(r.wall for r in plain)
    overhead = rep.wall / untraced - 1
    estimate = tracing.span_cost_seconds() * len(spans) / rep.wall
    ctx.write_chrome(name, seed, tracing.chrome(
        [(f"perfbench {name}", spans)], tracer.origin, ctx.env_record))
    ctx.note(f"{name} traced serial replay: wall {rep.wall:.3f}s; untraced "
             + ", ".join(f"{r.wall:.3f}s" for r in plain)
             + f"; overhead {overhead * 100:+.1f}% measured, "
             f"{estimate * 100:.3f}% from {len(spans)} spans at the "
             f"calibrated per-span cost")
    for layer, seconds in sorted(tracing.layer_self_times(spans).items(),
                                 key=lambda kv: -kv[1]):
        ctx.note(f"  self {layer:<10} {seconds:8.3f}s "
                 f"{seconds / rep.wall * 100:5.1f}%")
    ctx.note(f"  residual        {residual:8.3f}s "
             f"{residual / rep.wall * 100:5.1f}% (outside every span: "
             f"run_points bookkeeping)")
    metrics = layer_metrics(spans, rep.counters, engine_metrics(first, spec.jobs))
    metrics.update({
        "tracing.wall_s": rep.wall,
        "tracing.residual_frac": residual / rep.wall,
        "tracing.overhead_frac": overhead,
        "tracing.span_cost_frac": estimate,
    })
    return {
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": metrics,
    }


def engine_metrics(rep: Rep, jobs: int) -> Dict[str, float]:
    return {
        "engine.busy_frac": sum(rep.durations) / (jobs * rep.wall),
        "engine.point_p50_s": statistics.median(rep.durations),
        "engine.point_max_s": max(rep.durations),
        "engine.retries": rep.resilience.get("retries", 0),
        "engine.failed": rep.resilience.get("failed", 0),
    }


def layer_metrics(spans, cache, engine=None, service=None) -> Dict[str, float]:
    """The per-layer metric set every workload prints.

    *spans* are the traced calls, *cache* the disk cache's counters,
    *engine*/*service* the metrics those layers report themselves;
    a layer a workload never enters reads 0.
    """
    selfs = tracing.self_times(spans)
    counts = tracing.calls(spans)
    engine = engine or {}
    service = service or {}
    metrics = {
        "trace.cfg_build_s": selfs.get("trace.cfg_build", 0.0),
        "trace.synth_s": selfs.get("trace.synth", 0.0),
        "trace.synth_count": counts.get("trace.synth", 0),
        "simulator.run_s": selfs.get("simulator.run", 0.0),
        "simulator.build_s": selfs.get("simulator.build", 0.0),
        "simulator.host_ns_per_inst": tracing.host_ns_per_inst(spans),
        "passes.kernel_compile_s": selfs.get("passes.compile", 0.0),
        "passes.kernel_compiles": counts.get("passes.compile", 0),
        "columnar.plan_build_s": selfs.get("columnar.plan_build", 0.0),
        "columnar.plan_builds": counts.get("columnar.plan_build", 0),
        "diskcache.result_load_s": selfs.get("diskcache.result_load", 0.0),
        "diskcache.result_store_s": selfs.get("diskcache.result_store", 0.0),
        "diskcache.trace_store_s": selfs.get("diskcache.trace_store", 0.0),
        "diskcache.result_hits": cache.get("result_hits", 0),
        "diskcache.result_misses": cache.get("result_misses", 0),
        "diskcache.trace_misses": cache.get("trace_misses", 0),
        "engine.self_s": sum(v for k, v in selfs.items()
                             if k.startswith("engine.")),
        "service.self_s": sum(v for k, v in selfs.items()
                              if k.startswith("service.")),
        "store.append_s": selfs.get("store.append", 0.0),
    }
    for key in ENGINE_KEYS:
        metrics[key] = engine.get(key, 0)
    for key in SERVICE_KEYS:
        metrics[key] = service.get(key, 0)
    return metrics


ENGINE_KEYS = ("engine.busy_frac", "engine.point_p50_s", "engine.point_max_s",
               "engine.retries", "engine.failed")
SERVICE_KEYS = ("service.submit_ms", "service.hit_ms", "service.miss_ms",
                "service.points_scheduled", "service.points_coalesced",
                "service.batches", "service.rejected", "store.appends")
