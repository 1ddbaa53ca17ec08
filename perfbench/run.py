"""End-to-end benchmark of the BTB simulator's sweep, long-trace and
daemon paths.

    python3 perfbench/run.py --workload fig_cold --seed 0 --seconds 30 --trace 0

Workloads: ``fig_cold`` (a cold figure sweep on the process pool),
``bp_long`` (Fig. 11b's predictor-size sweep, serial, one long trace)
and ``serve_mixed`` (a ``repro-sim serve`` daemon under a closed loop
of two clients). ``--trace 0`` prints the end-to-end metrics, measured
untraced; ``--trace 1`` prints the per-layer metrics of a traced run
and writes its Chrome trace under ``perfbench/out/``. Every simulated
result is checked against ``goldens.json``; a mismatch exits non-zero
without printing metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fig_cold", "bp_long", "serve_mixed")


def declared_metrics(trace: int) -> dict:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares for
    this mode: the end-to-end set untraced, the per-layer set traced."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class Context:
    """Paths, environment and output helpers shared by the workloads."""

    def __init__(self, goldens: Path) -> None:
        self.goldens = goldens
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env.pop("REPRO_DISK_CACHE", None)
        self.env.pop("REPRO_FAULT_SPEC", None)
        (HERE / "out").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE / "out"))
        self.env_record = environment()

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work))

    def note(self, line: str) -> None:
        print(line, flush=True)

    def write_chrome(self, workload: str, seed: int, doc: dict) -> None:
        path = HERE / "out" / f"trace_{workload}_seed{seed}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.note(f"wrote {path.relative_to(ROOT)} (open in ui.perfetto.dev)")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def commit() -> str:
    """The checkout's commit, when it is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """Content hash of the program's sources (stable without git)."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    from repro.core.passes.kernel import kernel_mode

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_mode": kernel_mode(),
        "start_method": multiprocessing.get_start_method(),
        "commit": commit(),
        "source_digest": source_digest(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=HERE / "goldens.json",
                        help="golden digests to check results against")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import grids
    import serve
    import sweeps

    ctx = Context(args.goldens)
    try:
        ctx.note("env: " + json.dumps(ctx.env_record, sort_keys=True))
        if args.workload == "serve_mixed":
            run = serve.traced if args.trace else serve.measure
            out = run(ctx, args.seed, args.seconds)
        elif args.trace:
            out = sweeps.traced(args.workload, ctx, args.seed)
        else:
            out = sweeps.measure(args.workload, ctx, args.seed, args.seconds)
    except (grids.GoldenMismatch, sweeps.ColdStateError) as exc:
        print(f"perfbench: FAILED CHECK: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.close()
    metrics = out["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    attempted, failed = out["attempted"], out["failed"]
    ctx.note(f"failed_frac: {failed / attempted:.6f} ({failed} of "
             f"{attempted} operations failed or were refused)")
    for name, value in metrics.items():
        ctx.note(f"  {name:<30} {value:14.6f} {units[name]}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
