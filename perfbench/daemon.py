"""Run ``repro-sim serve`` with the benchmark's layer tracer installed.

    python3 perfbench/daemon.py SPANS.json serve --port 0 ...

Patches the same call sites as the in-process traced replay (plus the
service's own), runs the CLI, and on exit — after the daemon drained —
writes every recorded span to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import SERVICE_TARGETS, TARGETS, Tracer  # noqa: E402


def main(argv) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer().install(TARGETS + SERVICE_TARGETS)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
