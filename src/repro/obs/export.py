"""Exporters for :class:`~repro.obs.observer.Observation` artifacts.

Three formats:

* **Chrome ``trace_event`` JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`): loads directly in ``chrome://tracing``
  and https://ui.perfetto.dev. One simulated cycle maps to one
  microsecond of trace time. Pipeline events become instant events on
  one track per component; misfetch/mispredict windows are paired with
  their resteer into duration (``"ph": "X"``) slices on a dedicated
  ``stalls`` track; interval metrics become counter (``"ph": "C"``)
  tracks, which Perfetto renders as line charts.
* **CSV interval dump** (:func:`write_intervals_csv`): one row per
  interval, one column per metric, suitable for pandas/gnuplot.
* **JSON observation dump** (:func:`observation_to_json` /
  :func:`write_observation_json`): the full artifact — meta, exact event
  counts, buffered events and interval columns — for programmatic use.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List

from repro.obs.events import (
    COMPONENTS,
    EVENT_COMPONENT,
    MISFETCH,
    MISPREDICT,
    RESTEER,
    event_name,
)
from repro.obs.observer import Observation

#: Counter tracks exported to Chrome traces (name -> interval column).
CHROME_COUNTERS = (
    "ipc",
    "ftq_occupancy",
    "misfetch_pki",
    "branch_mpki",
    "l1_btb_hit_rate",
)

#: Extra thread track carrying paired stall slices.
STALL_TRACK = "stalls"


def _thread_ids() -> Dict[str, int]:
    tids = {name: i + 1 for i, name in enumerate(COMPONENTS)}
    tids[STALL_TRACK] = len(tids) + 1
    return tids


def chrome_trace(obs: Observation) -> Dict[str, Any]:
    """Render *obs* as a Chrome ``trace_event`` document (JSON object)."""
    tids = _thread_ids()
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro-sim {obs.name}"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )

    # Pair misfetch/mispredict emissions with their resteer to draw
    # stall windows; everything (pairs included) also appears as an
    # instant event on its component track.
    open_stalls: Dict[int, tuple] = {}
    stall_tid = tids[STALL_TRACK]
    for cycle, kind, a, b, c in obs.events:
        events.append(
            {
                "ph": "i",
                "ts": cycle,
                "pid": 0,
                "tid": tids.get(EVENT_COMPONENT.get(kind, "pcgen"), 1),
                "name": event_name(kind),
                "s": "t",
                "args": {"a": a, "b": b, "c": c},
            }
        )
        if kind in (MISFETCH, MISPREDICT):
            # One PC-generation stall is pending at a time; the resteer
            # names the trace index, which we do not have here, so key
            # the pending stall by kind class instead.
            open_stalls[0] = (cycle, kind, a)
        elif kind == RESTEER:
            start = open_stalls.pop(0, None)
            if start is not None and cycle >= start[0]:
                events.append(
                    {
                        "ph": "X",
                        "ts": start[0],
                        "dur": max(1, cycle - start[0]),
                        "pid": 0,
                        "tid": stall_tid,
                        "name": event_name(start[1]),
                        "args": {"pc": start[2], "trace_index": a},
                    }
                )

    cols = obs.intervals
    if cols:
        ends = cols.get("cycle_end")
        if ends is not None:
            for name in CHROME_COUNTERS:
                series = cols.get(name)
                if series is None:
                    continue
                for ts, value in zip(ends, series):
                    events.append(
                        {
                            "ph": "C",
                            "ts": int(ts),
                            "pid": 0,
                            "name": name,
                            "args": {name: round(float(value), 6)},
                        }
                    )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "workload": obs.name,
            "cycles": obs.cycles,
            "instructions": obs.instructions,
            "interval": obs.interval,
            "event_counts": obs.event_counts,
            "events_dropped": obs.dropped,
            "events_sampled_out": obs.sampled_out,
            **{str(k): v for k, v in obs.meta.items()},
        },
    }


def write_chrome_trace(obs: Observation, path: str) -> None:
    """Write the Chrome trace document of *obs* to *path*."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(obs), fh)
        fh.write("\n")


def write_intervals_csv(obs: Observation, path: str) -> None:
    """Write interval metrics as CSV (one row per interval)."""
    cols = obs.intervals
    names = sorted(cols)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        if names:
            rows = len(cols[names[0]])
            for i in range(rows):
                writer.writerow([f"{cols[name][i]:g}" for name in names])


def observation_to_json(obs: Observation) -> Dict[str, Any]:
    """The full observation as one JSON-serializable dict."""
    return {
        "schema": 1,
        "name": obs.name,
        "cycles": obs.cycles,
        "instructions": obs.instructions,
        "warmup": obs.warmup,
        "interval": obs.interval,
        "event_counts": obs.event_counts,
        "events_dropped": obs.dropped,
        "events_sampled_out": obs.sampled_out,
        "events": [list(rec) for rec in obs.events],
        "intervals": {k: [float(x) for x in v] for k, v in obs.intervals.items()},
        "meta": obs.meta,
    }


def write_observation_json(obs: Observation, path: str) -> None:
    """Write :func:`observation_to_json` output to *path*."""
    with open(path, "w") as fh:
        json.dump(observation_to_json(obs), fh)
        fh.write("\n")


# -- sweep-level scheduler traces --------------------------------------------

#: Sweep event kinds rendered as instant markers (vs. chunk slices).
SWEEP_INSTANT_KINDS = (
    "point_ok",
    "point_error",
    "retry",
    "worker_crash",
    "timeout_kill",
    "resume_skip",
    "cache_corrupt",
)


def sweep_chrome_trace(report) -> Dict[str, Any]:
    """Render a sweep's scheduler event log as a Chrome ``trace_event``
    document (one wall-clock second maps to one second of trace time).

    *report* is a :class:`~repro.core.exec.resilience.SweepReport`. One
    track per worker slot shows chunk occupancy as duration slices, with
    retry/failure/crash markers on a dedicated ``scheduler`` track and
    running completed/failed/retries counter tracks — so a Perfetto
    timeline shows exactly where a campaign lost and recovered time.
    """
    sched_events = list(report.events)
    slots = sorted({e["slot"] for e in sched_events if "slot" in e})
    tids = {f"worker-{slot}": i + 1 for i, slot in enumerate(slots)}
    slot_tid = {slot: tids[f"worker-{slot}"] for slot in slots}
    scheduler_tid = len(tids) + 1
    tids["scheduler"] = scheduler_tid

    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro-sim sweep"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )

    open_chunks: Dict[tuple, float] = {}
    completed = failed = retries = 0
    last_ts = 0.0
    for event in sched_events:
        ts = float(event["ts"])
        last_ts = max(last_ts, ts)
        us = int(ts * 1e6)
        kind = event["kind"]
        slot = event.get("slot")
        if kind == "chunk_start":
            open_chunks[(slot, event["chunk"])] = ts
        elif kind == "chunk_end":
            start = open_chunks.pop((slot, event["chunk"]), None)
            if start is not None:
                events.append(
                    {
                        "ph": "X",
                        "ts": int(start * 1e6),
                        "dur": max(1, us - int(start * 1e6)),
                        "pid": 0,
                        "tid": slot_tid.get(slot, scheduler_tid),
                        "name": f"chunk-{event['chunk']}",
                        "args": {"chunk": event["chunk"]},
                    }
                )
        elif kind in SWEEP_INSTANT_KINDS:
            events.append(
                {
                    "ph": "i",
                    "ts": us,
                    "pid": 0,
                    "tid": slot_tid.get(slot, scheduler_tid),
                    "name": kind,
                    "s": "t",
                    "args": {
                        k: v for k, v in event.items() if k not in ("ts", "kind")
                    },
                }
            )
        if kind == "point_ok":
            completed += 1
        elif kind in ("point_error", "worker_crash", "timeout_kill") and event.get(
            "final"
        ):
            failed += 1
        elif kind == "retry":
            retries += 1
        for name, value in (
            ("completed", completed),
            ("failed", failed),
            ("retries", retries),
        ):
            events.append(
                {
                    "ph": "C",
                    "ts": us,
                    "pid": 0,
                    "name": name,
                    "args": {name: value},
                }
            )
    # Close chunks left open by a crash/kill with the last known time.
    for (slot, chunk), start in open_chunks.items():
        events.append(
            {
                "ph": "X",
                "ts": int(start * 1e6),
                "dur": max(1, int((last_ts - start) * 1e6)),
                "pid": 0,
                "tid": slot_tid.get(slot, scheduler_tid),
                "name": f"chunk-{chunk} (unfinished)",
                "args": {"chunk": chunk},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": dict(report.counters),
            "interrupted": report.interrupted,
        },
    }


def write_sweep_chrome_trace(report, path: str) -> None:
    """Write the sweep scheduler trace of *report* to *path*."""
    with open(path, "w") as fh:
        json.dump(sweep_chrome_trace(report), fh)
        fh.write("\n")
