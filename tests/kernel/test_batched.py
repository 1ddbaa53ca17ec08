"""Differential golden tests: compiled kernels on a shared batch plan.

Every compiled kernel reads its branch predictions from a
:class:`~repro.trace.columnar.BatchPlan`. A sweep hands one plan to
every config of a predictor geometry; a direct ``Simulator.run`` builds
its own (tests/kernel/test_differential.py). This module covers the
handed-plan side of the same interp-vs-compiled axis: the result is an
*exact* copy of the reference interpreter's, a plan built for another
geometry or trace slice is rejected, and configs the kernel does not
support fall back to the interpreter whatever plan they are handed.
"""

import pytest

from repro.core.config import build_simulator, hetero_btb, ibtb
from repro.core.passes.kernel import KERNEL_ENV, batch_geometry
from repro.trace.columnar import build_batch_plan, geometry_for
from repro.trace.trace import Trace
from repro.trace.workloads import get_trace

from tests.kernel.test_differential import CONFIGS, L, _assert_identical


@pytest.fixture(scope="module")
def trace():
    return get_trace("web_frontend", L)


@pytest.fixture(scope="module")
def plan(trace):
    # Every config in CONFIGS has the default predictor size, hence one
    # batch-plan geometry.
    return build_batch_plan(trace, batch_geometry(ibtb(16)))


def _run(config, trace, mode, monkeypatch, warmup=0, plan=None):
    monkeypatch.setenv(KERNEL_ENV, mode)
    sim = build_simulator(config, trace)
    engine = sim.kernel_engine()
    return engine, sim.run(warmup=warmup, batch_plan=plan)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_batched_matches_interp(config, trace, plan, monkeypatch):
    engine_i, interp = _run(config, trace, "interp", monkeypatch)
    engine_c, compiled = _run(config, trace, "compiled", monkeypatch, plan=plan)
    assert engine_i == "interp"
    assert engine_c == "compiled"
    _assert_identical(compiled, interp)


@pytest.mark.parametrize("config", CONFIGS[:4], ids=lambda c: c.label)
def test_batched_matches_interp_with_warmup(config, trace, plan, monkeypatch):
    _, interp = _run(config, trace, "interp", monkeypatch, warmup=L // 4)
    _, compiled = _run(
        config, trace, "compiled", monkeypatch, warmup=L // 4, plan=plan
    )
    _assert_identical(compiled, interp)


def test_compiled_without_plan_builds_its_own(trace, plan, monkeypatch):
    """No plan handed to ``run``: the kernel builds one for the config's
    geometry and matches both the interpreter and a handed-plan run."""
    config = ibtb(16)
    _, interp = _run(config, trace, "interp", monkeypatch)
    engine, own = _run(config, trace, "compiled", monkeypatch, plan=None)
    _, shared = _run(config, trace, "compiled", monkeypatch, plan=plan)
    assert engine == "compiled"
    _assert_identical(own, interp)
    _assert_identical(shared, own)


def test_batched_hetero_falls_back_to_interp(trace, plan, monkeypatch):
    config = hetero_btb(1, 2)
    engine_c, compiled = _run(config, trace, "compiled", monkeypatch, plan=plan)
    assert engine_c == "interp"
    _, interp = _run(config, trace, "interp", monkeypatch)
    _assert_identical(compiled, interp)


def test_geometry_mismatch_raises(trace, monkeypatch):
    """A plan built for a different predictor geometry is rejected by
    the kernel prelude instead of silently corrupting results."""
    wrong = build_batch_plan(trace.slice(0, 500), geometry_for(2))
    monkeypatch.setenv(KERNEL_ENV, "compiled")
    sim = build_simulator(ibtb(16), trace)
    with pytest.raises(RuntimeError, match="geometry"):
        sim.run(batch_plan=wrong)


def test_plan_length_mismatch_raises(trace, monkeypatch):
    """A plan built over a different trace slice is rejected too."""
    short = build_batch_plan(trace.slice(0, 500), batch_geometry(ibtb(16)))
    monkeypatch.setenv(KERNEL_ENV, "compiled")
    sim = build_simulator(ibtb(16), trace)
    with pytest.raises(RuntimeError, match="trace length"):
        sim.run(batch_plan=short)


# -- degenerate slices: every engine agrees exactly ---------------------------


def _tiny_trace(n):
    trace = Trace(name=f"tiny{n}")
    pc = 0x1000
    for _ in range(n):
        trace.append(pc)
        pc += 4
    return trace


#: (id, REPRO_KERNEL value, hand the run a prebuilt plan).
ENGINES = {
    "interp": ("interp", False),
    "compiled": ("compiled", False),
    "batched": ("compiled", True),
}


def _engine_run(engine, trace, monkeypatch, warmup):
    mode, handed = ENGINES[engine]
    config = ibtb(16)
    plan = build_batch_plan(trace, batch_geometry(config)) if handed else None
    return _run(config, trace, mode, monkeypatch, warmup=warmup, plan=plan)


@pytest.mark.parametrize("mode", list(ENGINES))
@pytest.mark.parametrize("n,warmup", [(0, 0), (1, 1), (5, 5), (5, 7)])
def test_warmup_not_below_trace_raises_everywhere(
    mode, n, warmup, monkeypatch
):
    """Zero-instruction and warmup-consumes-everything slices raise the
    same ValueError under every engine, with or without a handed plan
    (no div-by-zero, no divergence)."""
    with pytest.raises(ValueError, match="warmup"):
        _engine_run(mode, _tiny_trace(n), monkeypatch, warmup)


@pytest.mark.parametrize("n,warmup", [(1, 0), (8, 7)])
def test_warmup_only_slices_bit_identical(n, warmup, monkeypatch):
    """A measured region of a single instruction produces identical
    Stats under every engine (cycle clamp included)."""
    trace = _tiny_trace(n)
    results = {
        engine: _engine_run(engine, trace, monkeypatch, warmup)[1]
        for engine in ENGINES
    }
    _assert_identical(results["compiled"], results["interp"])
    _assert_identical(results["batched"], results["interp"])
    assert results["interp"].cycles >= 1
