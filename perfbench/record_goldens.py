"""Record ``goldens.json``: the result digest of every benchmark point.

    python3 perfbench/record_goldens.py

Simulates every point of every workload at every trace seed in
:data:`grids.TRACE_SEEDS` through ``run_points`` on an empty cache and
stores ``"<full>:<core>"`` digests (see :func:`grids.digests`). For
``serve_mixed`` it also simulates the sweep baseline (``IDEAL_IBTB16``)
and stores the digest of each point's ``relative_ipc`` as a
``/v1/sweep`` document carries it. Re-run it only when the simulated
semantics change on purpose; the benchmark's correctness gate compares
every run against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import grids  # noqa: E402

GRIDS = {
    "fig_cold": grids.fig_points,
    "bp_long": grids.bp_points,
    "serve_mixed": grids.serve_universe,
}


def relative_table(tagged, results, tseed: int, run_points) -> dict:
    """``tag -> relative_ipc digest`` of one serve universe, against the
    baseline the daemon's sweep jobs use."""
    from repro.core.config import IDEAL_IBTB16
    from repro.core.exec import SweepPoint

    base = {
        name: run_points([SweepPoint(IDEAL_IBTB16, name, grids.SERVE_LENGTH,
                                     grids.SERVE_LENGTH // 4, tseed)])[0]
        for name in grids.SERVE_WORKLOADS
    }
    return {
        tag: grids.relative_digest(result.ipc / base[point.workload].ipc)
        for (tag, point), result in zip(tagged, results)
    }


def main() -> int:
    from repro.core.exec import configure_disk_cache, run_points

    (HERE / "out").mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="record-", dir=HERE / "out")
    try:
        configure_disk_cache(True, root)
        table = {grids.RELATIVE_IPC: {}}
        for workload, grid in GRIDS.items():
            table[workload] = {}
            for tseed in grids.TRACE_SEEDS:
                tagged = grid(tseed)
                results = run_points([p for _t, p in tagged],
                                     jobs=grids.FIG_JOBS)
                table[workload][str(tseed)] = {
                    tag: ":".join(grids.result_digests(result))
                    for (tag, _p), result in zip(tagged, results)
                }
                if workload == "serve_mixed":
                    table[grids.RELATIVE_IPC][str(tseed)] = relative_table(
                        tagged, results, tseed, run_points)
                print(f"{workload} trace seed {tseed}: {len(tagged)} points",
                      flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    with open(grids.GOLDENS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {grids.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
