"""Kernel engine benchmark: interpreter vs compiled kernel throughput.

Quantifies what the pass pipeline (repro.core.passes) buys per config
family: the same simulation run through the reference interpreter and
through the specialized compiled kernel, on the BENCH_sweep config
matrix. Every compiled kernel reads its predictions from a batch plan,
so each family reports two compiled columns:

* **cold** (K=1): the plan is built for this one config and its build
  time is charged to the run — what a lone ``Simulator.run`` or a sweep
  with one config per predictor geometry pays. ``speedup`` is this
  ratio, and it is what the CI perf guard gates.
* **warm**: the kernel run alone on an already built plan — what every
  further config of the same geometry pays in a sweep (``warm_speedup``).

Results must be bit-identical — the benchmark asserts it — so the
speedup columns are pure engine comparisons. Writes
``benchmarks/results/BENCH_kernel.json`` (linked from
docs/performance.md and docs/compiled_kernels.md) plus a text table.
"""

import json
import os
import time

from repro.analysis.report import format_table
from repro.core.config import (
    IDEAL_IBTB16,
    bbtb,
    build_simulator,
    ibtb,
    mbbtb,
    rbtb,
)
from repro.core.passes.kernel import (
    KERNEL_ENV,
    batch_geometry,
    get_kernel,
    kernel_cache_clear,
    kernel_cache_info,
)
from repro.trace.columnar import build_batch_plan
from repro.trace.workloads import get_trace

from benchmarks.conftest import RESULTS_DIR, emit, once

#: The BENCH_sweep config matrix: one representative per family.
KERNEL_CONFIGS = [
    IDEAL_IBTB16,
    ibtb(16),
    rbtb(3),
    bbtb(1, splitting=True),
    mbbtb(2, "allbr"),
]


def _timed_run(config, trace, warmup, mode, plan=None):
    """One engine-pinned run; returns (result, seconds)."""
    prior = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = mode
    try:
        sim = build_simulator(config, trace)
        assert sim.kernel_engine() == mode
        t0 = time.perf_counter()
        result = sim.run(warmup=warmup, batch_plan=plan)
        seconds = time.perf_counter() - t0
    finally:
        if prior is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = prior
    return result, seconds


def _geomean(values):
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def test_kernel_engine_throughput(benchmark, bench_env):
    suite, length, warmup = bench_env
    workload = suite[0]
    trace = get_trace(workload, length)
    measured = length - warmup

    def run():
        kernel_cache_clear()
        families = {}
        for config in KERNEL_CONFIGS:
            t0 = time.perf_counter()
            get_kernel(config)  # compile outside the timed sim run
            compile_seconds = time.perf_counter() - t0
            interp, interp_s = _timed_run(config, trace, warmup, "interp")
            t0 = time.perf_counter()
            plan = build_batch_plan(trace, batch_geometry(config))
            plan_s = time.perf_counter() - t0
            compiled, warm_s = _timed_run(
                config, trace, warmup, "compiled", plan=plan
            )
            cold_s = plan_s + warm_s
            assert interp.stats == compiled.stats, config.label
            assert interp.cycles == compiled.cycles, config.label
            families[config.label] = {
                "interp_seconds": round(interp_s, 4),
                "plan_seconds": round(plan_s, 4),
                "compiled_seconds": round(warm_s, 4),
                "cold_seconds": round(cold_s, 4),
                "interp_insts_per_sec": round(measured / max(interp_s, 1e-9)),
                "cold_insts_per_sec": round(measured / max(cold_s, 1e-9)),
                "warm_insts_per_sec": round(measured / max(warm_s, 1e-9)),
                "compile_seconds": round(compile_seconds, 4),
                "speedup": round(interp_s / max(cold_s, 1e-9), 2),
                "warm_speedup": round(interp_s / max(warm_s, 1e-9), 2),
                "identical": True,
            }
        return {
            "schema": 2,
            "workload": workload,
            "instructions": length,
            "warmup": warmup,
            "measured_instructions": measured,
            "families": families,
            "geomean_speedup": round(
                _geomean([f["speedup"] for f in families.values()]), 2
            ),
            "geomean_warm_speedup": round(
                _geomean([f["warm_speedup"] for f in families.values()]), 2
            ),
            "kernel_cache": kernel_cache_info(),
        }

    payload = once(benchmark, run)

    rows = [
        (
            label,
            f"{f['interp_insts_per_sec'] / 1e3:.0f}",
            f"{f['cold_insts_per_sec'] / 1e3:.0f}",
            f"{f['warm_insts_per_sec'] / 1e3:.0f}",
            f"{f['plan_seconds'] * 1e3:.0f}ms",
            f"{f['compile_seconds'] * 1e3:.0f}ms",
            f"{f['speedup']:.2f}x",
            f"{f['warm_speedup']:.2f}x",
        )
        for label, f in payload["families"].items()
    ]
    rows.append(
        (
            "geomean", "", "", "", "", "",
            f"{payload['geomean_speedup']:.2f}x",
            f"{payload['geomean_warm_speedup']:.2f}x",
        )
    )
    table = format_table(
        [
            "config", "interp KIPS", "cold KIPS", "warm KIPS", "plan",
            "compile", "cold speedup", "warm speedup",
        ],
        rows,
    )
    emit("bench_kernel", table)

    out = RESULTS_DIR / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    # Outputs must have been bit-identical, and the compiled engine must
    # beat the interpreter even when it pays for its own plan.
    assert all(f["identical"] for f in payload["families"].values())
    assert payload["geomean_speedup"] > 1.0
