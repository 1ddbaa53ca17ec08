"""Differential golden tests: compiled kernels vs the interpreter.

The pass pipeline's contract (docs/compiled_kernels.md): for every
supported configuration the compiled kernel is an *exact* semantic copy
of the reference interpreter — same SimResult, same Stats counters,
same obs event streams on the instrumented fallback path. These tests
run the fig-benchmark config families under both ``REPRO_KERNEL``
values and assert bit-identity, extending the tests/obs/test_golden.py
pattern to the engine axis. Here each compiled run builds its own batch
plan; tests/kernel/test_batched.py hands one shared plan to every
config.
"""

import pytest

from repro.core.config import (
    IDEAL_IBTB16,
    bbtb,
    build_simulator,
    hetero_btb,
    ibtb,
    ibtb_skp,
    mbbtb,
    rbtb,
)
from repro.core.passes.kernel import KERNEL_ENV
from repro.obs import Observer
from repro.obs.export import observation_to_json
from repro.trace.workloads import get_trace

L = 8_000

#: Every compiled config family exercised by the fig benchmarks.
CONFIGS = [
    ibtb(16),
    ibtb(4),
    ibtb_skp(),
    rbtb(3),
    rbtb(3, overflow=4),
    rbtb(2, interleaved=True),
    bbtb(1, splitting=True),
    bbtb(2),
    mbbtb(2, "allbr"),
    mbbtb(2, "uncond"),
    mbbtb(2, "calldir"),
    IDEAL_IBTB16,
    ibtb(16, ideal_backend=True),
    ibtb(16, early_resteer=True),
]


@pytest.fixture(scope="module")
def trace():
    return get_trace("web_frontend", L)


def _assert_identical(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.stats == b.stats
    assert a.structure == b.structure


def _run(config, trace, mode, monkeypatch, warmup=0, probe=None):
    """Build, snapshot the engine choice (pre-run: a finished run has
    populated stats, which disqualifies the kernel), then run."""
    monkeypatch.setenv(KERNEL_ENV, mode)
    sim = build_simulator(config, trace, probe=probe)
    engine = sim.kernel_engine()
    return engine, sim.run(warmup=warmup)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_compiled_matches_interp(config, trace, monkeypatch):
    engine_i, interp = _run(config, trace, "interp", monkeypatch)
    engine_c, compiled = _run(config, trace, "compiled", monkeypatch)
    assert engine_i == "interp"
    assert engine_c == "compiled"
    _assert_identical(compiled, interp)


@pytest.mark.parametrize("config", CONFIGS[:4], ids=lambda c: c.label)
def test_compiled_matches_interp_with_warmup(config, trace, monkeypatch):
    _, interp = _run(config, trace, "interp", monkeypatch, warmup=L // 4)
    _, compiled = _run(config, trace, "compiled", monkeypatch, warmup=L // 4)
    assert compiled.stats == interp.stats
    assert compiled.cycles == interp.cycles


def test_hetero_falls_back_to_interp(trace, monkeypatch):
    """Unsupported kinds run the reference engine even when compiled is
    requested — and still match an explicit interp run exactly."""
    config = hetero_btb(1, 2)
    engine_c, compiled = _run(config, trace, "compiled", monkeypatch)
    assert engine_c == "interp"
    _, interp = _run(config, trace, "interp", monkeypatch)
    assert compiled.stats == interp.stats
    assert compiled.cycles == interp.cycles


def test_obs_streams_identical_across_engines(trace, monkeypatch):
    """Instrumented runs force the interp fallback under both modes, so
    the obs event stream is engine-independent — and the probed result
    still equals the compiled uninstrumented run."""
    config = mbbtb(2, "allbr")
    payloads = {}
    for mode in ("interp", "compiled"):
        obs = Observer(events=True, interval=500)
        engine, result = _run(config, trace, mode, monkeypatch, probe=obs)
        assert engine == "interp"  # probe disables the kernel
        payloads[mode] = (result, observation_to_json(obs.observation()))
    result_i, obs_i = payloads["interp"]
    result_c, obs_c = payloads["compiled"]
    assert result_c.stats == result_i.stats
    assert obs_c == obs_i
    _, plain = _run(config, trace, "compiled", monkeypatch)
    assert plain.stats == result_i.stats


def test_warmup_validation_matches_interp(trace, monkeypatch):
    config = ibtb(16)
    for mode in ("interp", "compiled"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        sim = build_simulator(config, trace)
        with pytest.raises(ValueError, match="warmup"):
            sim.run(warmup=len(trace))
