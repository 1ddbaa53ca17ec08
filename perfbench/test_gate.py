"""Self-test of the benchmark's correctness gate and input generation.

    python3 -m pytest perfbench/test_gate.py -q

The end-to-end cases run ``run.py`` on ``fig_cold`` for one short
repetition: once against the recorded goldens (must pass) and once with
a single golden corrupted (must exit non-zero without a result line).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import grids  # noqa: E402


def run_bench(goldens):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0",
         "--goldens", str(goldens)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )


def test_digests_ignore_int_float_spelling():
    a = grids.digests("w", 10, 20, {"x": 3}, {"s": 1})
    b = grids.digests("w", 10, 20, {"x": 3.0}, {"s": 1.0})
    assert a == b
    assert grids.digests("w", 10, 20, {"x": 3})[1] == a[1]


def test_gate_rejects_a_changed_result(tmp_path):
    table = {"fig_cold": {"7": {"t": "aaaa:bbbb"}},
             grids.RELATIVE_IPC: {"7": {"t": grids.relative_digest(0.5)}}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(table))
    gate = grids.Gate("fig_cold", path)
    gate.check(7, "t", "aaaa", "bbbb")
    gate.check(7, "t", "", "bbbb")  # sweep documents carry the core only
    with pytest.raises(grids.GoldenMismatch):
        gate.check(7, "t", "aaaa", "cccc")
    with pytest.raises(grids.GoldenMismatch):
        gate.check(7, "t", "dddd", "bbbb")
    with pytest.raises(grids.GoldenMismatch):
        gate.check(8, "t", "aaaa", "bbbb")
    gate.check_relative(7, "t", 0.5)
    with pytest.raises(grids.GoldenMismatch):
        gate.check_relative(7, "t", 0.5000000001)
    with pytest.raises(grids.GoldenMismatch):
        gate.check_relative(8, "t", 0.5)


def test_goldens_cover_every_input():
    table = grids.load_goldens()
    for workload, grid in (("fig_cold", grids.fig_points),
                           ("bp_long", grids.bp_points),
                           ("serve_mixed", grids.serve_universe)):
        for tseed in grids.TRACE_SEEDS:
            tags = {tag for tag, _point in grid(tseed)}
            assert tags == set(table[workload][str(tseed)])
            if workload == "serve_mixed":
                assert tags == set(table[grids.RELATIVE_IPC][str(tseed)])


def test_serve_plan_is_seeded_and_mostly_warm():
    warm, requests = grids.serve_plan(3)
    assert grids.serve_plan(3) == (warm, requests)
    assert grids.serve_plan(4) != (warm, requests)
    touched = {("point", item) for item in warm}
    first = 0
    for kind, item in requests[:1000]:
        fresh = [k for k in grids.request_points(kind, item) if k not in touched]
        touched.update(fresh)
        first += bool(fresh)
    assert 0.05 < first / 1000 < 0.15
    # The sequence ends as the frontier reaches the universe's last point.
    universe = grids.SERVE_TRACE_SEEDS * len(grids.SERVE_SPECS) * len(
        grids.SERVE_WORKLOADS)
    assert len(requests) == (universe - grids.SERVE_WARM) * \
        grids.SERVE_REQS_PER_NEW_POINT


def test_clean_run_passes_the_gate():
    proc = run_bench(grids.GOLDENS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 60


def test_corrupted_golden_fails_the_run(tmp_path):
    table = grids.load_goldens()
    full, core = table["fig_cold"]["7"]["baseline|web_frontend"].split(":")
    table["fig_cold"]["7"]["baseline|web_frontend"] = f"{full}:{core[::-1]}"
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(table))
    proc = run_bench(corrupted)
    assert proc.returncode != 0
    assert "FAILED CHECK" in proc.stderr
    assert '"metrics"' not in proc.stdout
