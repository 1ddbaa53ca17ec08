"""Workload inputs, result digests and the golden-result gate.

Every input the benchmark hands the program is a pure function of the
``--seed`` argument. Trace seeds (``SweepPoint.seed``) come from
:data:`TRACE_SEEDS`, the set for which ``goldens.json`` records the
digest of every point's result, so the correctness gate is exact on
every run, not only on the default seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
#: Table of ``goldens.json`` holding the digest of each serve universe
#: point's ``relative_ipc`` against the sweep baseline.
RELATIVE_IPC = "serve_mixed.relative_ipc"

#: Trace seeds with recorded goldens. 7 is ``SweepPoint``'s default
#: seed. ``--seed 15`` (starting at 22) is the held-out seed: develop a
#: change on other seeds, then re-check its claim on this one.
TRACE_SEEDS: Tuple[int, ...] = tuple(range(7, 23))

# fig_cold: the cold figure sweep (12 workloads x [baseline + defaults]).
FIG_LENGTH = 20_000
FIG_JOBS = 2

# bp_long: Fig. 11b's predictor-size sweep on one long trace.
BP_WORKLOAD = "web_frontend"
BP_LENGTH = 160_000
BP_SIZES_KB = (2, 4, 8, 16, 32, 64)

# serve_mixed: the daemon's request universe.
SERVE_LENGTH = 20_000
SERVE_SPECS = (
    "ibtb:16@ideal", "ibtb:16", "ibtb:8", "ibtb:16:skp",
    "rbtb:1", "rbtb:2", "rbtb:3", "rbtb:2:2l1",
    "bbtb:1", "bbtb:2", "bbtb:1:split", "bbtb:2:split",
    "mbbtb:1:allbr", "mbbtb:2:allbr", "mbbtb:2:calldir", "mbbtb:2:uncond",
)
SERVE_WORKLOADS = ("web_frontend", "db_oltp", "kv_store", "template_render")
#: Trace seeds one run's universe spans (16 configs x 4 workloads each):
#: all of :data:`TRACE_SEEDS`, 1024 points. At one new point per
#: :data:`SERVE_REQS_PER_NEW_POINT` requests that is 12096 requests, about
#: 400 req/s over a 30 s run before the sequence runs out; a run that
#: uses it up fails rather than go on without first touches.
SERVE_TRACE_SEEDS = len(TRACE_SEEDS)
#: Points seeded warm before the timed phase.
SERVE_WARM = 16
#: Requests drawn per new universe point: one request in this many is a
#: first touch (sweep baselines add a few more), so about 90% of requests
#: read a cached result. Each miss also queues the other client's request
#: behind it on the serial executor; at one first touch in five or seven,
#: misses plus queued requests came near half of all requests, the
#: median sat on the edge of the slow mode and jumped from run to run.
SERVE_REQS_PER_NEW_POINT = 12
#: Live window the uniform draws come from (older points leave it).
SERVE_WINDOW = 48
#: Share of requests that ask for the newest point, which is how two
#: clients come to ask for the same cold point at once (coalescing).
SERVE_NEWEST_SHARE = 0.3
SERVE_SWEEP_SHARE = 0.05

#: Spec of the sweep baseline (``IDEAL_IBTB16``): same simulation, so the
#: same golden, but its own cache key because the label differs.
BASELINE_SPEC = "ibtb:16@ideal"


def trace_seed(seed: int, rep: int = 0) -> int:
    """Trace seed of repetition *rep* of a run started with ``--seed``."""
    return TRACE_SEEDS[(seed + rep) % len(TRACE_SEEDS)]


# -- sweep grids ------------------------------------------------------------


def fig_points(tseed: int):
    """``[(tag, SweepPoint)]`` of one cold figure sweep, grid order."""
    from repro.cli import SWEEP_DEFAULT_SPECS, parse_config
    from repro.core.config import IDEAL_IBTB16
    from repro.core.exec import SweepPoint
    from repro.trace.workloads import SERVER_SUITE

    configs = [("baseline", IDEAL_IBTB16)] + [
        (spec, parse_config(spec)) for spec in SWEEP_DEFAULT_SPECS]
    return [
        (f"{tag}|{name}", SweepPoint(config, name, FIG_LENGTH,
                                     FIG_LENGTH // 4, tseed))
        for tag, config in configs for name in SERVER_SUITE
    ]


def bp_points(tseed: int):
    """``[(tag, SweepPoint)]`` of the Fig. 11b predictor-size sweep."""
    from repro.core.config import ibtb, mbbtb
    from repro.core.exec import SweepPoint

    out = []
    for kb in BP_SIZES_KB:
        for tag, config in (
            (f"ibtb:16@ideal/bp{kb}", ibtb(16, ideal_btb=True, bp_size_kb=kb)),
            (f"mbbtb:2:allbr:64@ideal/bp{kb}",
             mbbtb(2, "allbr", block_insts=64, ideal_btb=True, bp_size_kb=kb)),
        ):
            out.append((f"{tag}|{BP_WORKLOAD}", SweepPoint(
                config, BP_WORKLOAD, BP_LENGTH, BP_LENGTH // 4, tseed)))
    return out


def serve_universe(tseed: int):
    """``[(tag, SweepPoint)]`` of every point the daemon may be asked
    for at one trace seed."""
    from repro.cli import parse_config
    from repro.core.exec import SweepPoint

    return [
        (f"{spec}|{name}", SweepPoint(parse_config(spec), name, SERVE_LENGTH,
                                      SERVE_LENGTH // 4, tseed))
        for spec in SERVE_SPECS for name in SERVE_WORKLOADS
    ]


# -- serve_mixed request sequence --------------------------------------------

#: One universe point: (config spec, workload, trace seed).
Item = Tuple[str, str, int]


def serve_plan(seed: int):
    """``(warm, requests)`` for one serve_mixed run.

    The universe is one block of all specs x workloads per trace seed,
    :data:`SERVE_TRACE_SEEDS` blocks from ``trace_seed(seed)`` on, each
    shuffled by *seed*. A run works through the blocks in turn, so a
    first touch meets a new trace about as often as within one block
    (4 traces in 64 points), whichever block it falls in. The
    universe's first :data:`SERVE_WARM` points are seeded warm. Request *i* may
    touch the points before
    ``SERVE_WARM + 1 + i // SERVE_REQS_PER_NEW_POINT``, so the frontier
    advances at a steady rate and the first-touch share holds for the
    whole sequence, which ends when the frontier reaches the end of the
    universe. A request is a ``("run", item)`` or a small
    ``("sweep", item)`` whose grid is ``[baseline, item's config] x
    item's workload``.
    """
    rng = random.Random(f"serve_mixed:{seed}")
    universe: List[Item] = []
    for k in range(SERVE_TRACE_SEEDS):
        block = [(spec, name, trace_seed(seed, k))
                 for spec in SERVE_SPECS for name in SERVE_WORKLOADS]
        rng.shuffle(block)
        universe += block
    requests = []
    for i in range((len(universe) - SERVE_WARM) * SERVE_REQS_PER_NEW_POINT):
        front = SERVE_WARM + 1 + i // SERVE_REQS_PER_NEW_POINT
        if rng.random() < SERVE_NEWEST_SHARE:
            index = front - 1
        else:
            index = rng.randrange(max(0, front - SERVE_WINDOW), front)
        kind = "sweep" if rng.random() < SERVE_SWEEP_SHARE else "run"
        requests.append((kind, universe[index]))
    return universe[:SERVE_WARM], requests


def request_points(kind: str, item: Item) -> List[Tuple[str, Item]]:
    """Cache identities ``(role, item)`` one request touches."""
    if kind == "run":
        return [("point", item)]
    return [("baseline", (BASELINE_SPEC, item[1], item[2])), ("point", item)]


# -- digests and goldens ------------------------------------------------------


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(name, instructions, cycles, stats, structure=None) -> Tuple[str, str]:
    """``(full, core)`` digests of one result.

    *full* covers the disk cache's stored form (name, instructions,
    cycles, stats, structure, numbers as the cache reads them back);
    *core* covers what a ``sweep --out`` document carries per point
    (instructions, cycles, stats).
    """
    stats = {str(k): float(v) for k, v in stats.items()}
    core = _hash({"instructions": int(instructions), "cycles": int(cycles),
                  "stats": stats})
    if structure is None:
        return "", core
    full = _hash({
        "name": str(name), "instructions": int(instructions),
        "cycles": int(cycles), "stats": stats,
        "structure": {str(k): float(v) for k, v in structure.items()},
    })
    return full, core


def relative_digest(value: float) -> str:
    """Digest of one ``relative_ipc`` figure of a sweep document."""
    return _hash({"relative_ipc": float(value)})


def result_digests(result) -> Tuple[str, str]:
    return digests(result.name, result.instructions, result.cycles,
                   result.stats, result.structure)


def load_goldens(path=GOLDENS) -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(path) as fh:
        return json.load(fh)


class GoldenMismatch(AssertionError):
    """A simulated result differs from its recorded golden."""


class Gate:
    """Checks results against ``goldens[workload][trace seed][tag]``,
    each entry ``"<full>:<core>"``."""

    def __init__(self, workload: str, path=GOLDENS) -> None:
        goldens = load_goldens(path)
        self.table = goldens[workload]
        self.relative = goldens.get(RELATIVE_IPC, {})
        self.checked = 0

    def expect(self, tseed: int, tag: str) -> Tuple[str, str]:
        try:
            full, core = self.table[str(tseed)][tag].split(":")
        except KeyError:
            raise GoldenMismatch(
                f"no golden for {tag} at trace seed {tseed}") from None
        return full, core

    def check(self, tseed: int, tag: str, full: str, core: str) -> None:
        want_full, want_core = self.expect(tseed, tag)
        if core != want_core or (full and full != want_full):
            raise GoldenMismatch(
                f"{tag} at trace seed {tseed}: digest {full}:{core}, "
                f"golden {want_full}:{want_core}")
        self.checked += 1

    def check_relative(self, tseed: int, tag: str, value: float) -> None:
        """Check a sweep document's ``relative_ipc`` for *tag*, which
        also checks the baseline result it was divided by."""
        try:
            want = self.relative[str(tseed)][tag]
        except KeyError:
            raise GoldenMismatch(
                f"no relative_ipc golden for {tag} at trace seed {tseed}"
            ) from None
        got = relative_digest(value)
        if got != want:
            raise GoldenMismatch(
                f"{tag} at trace seed {tseed}: relative_ipc {value!r} "
                f"(digest {got}), golden {want}")
