"""Fault-tolerance primitives for the sweep engine.

A sweep at paper scale (hundreds of (config x workload) points, hours of
wall-clock) must degrade gracefully: one point that raises, hangs or
OOM-kills its worker may not abort the campaign and discard completed
work. This module defines the shared vocabulary the engine uses to make
that happen (see ``docs/robustness.md``):

* :class:`PointError` — the structured error taxonomy. Every failure is
  one of four kinds: ``exception`` (the point raised), ``timeout`` (the
  point exceeded its wall-clock budget and its worker was killed),
  ``worker-crash`` (the worker process died without reporting — SIGKILL,
  OOM, segfault), ``cache-corrupt`` (a persisted artifact for the point
  could not be read back).
* :class:`PointOutcome` — per-point result wrapper: either a
  :class:`~repro.core.simulator.SimResult` or a :class:`PointError`,
  plus attempt count and bookkeeping. ``run_points(..., strict=False)``
  returns these instead of raising.
* :class:`RetryPolicy` — retry/backoff/timeout knobs.
* :class:`SweepReport` — everything a non-strict sweep returns: ordered
  outcomes, resilience counters, and a wall-clock event log that
  ``repro.obs.export.sweep_chrome_trace`` renders for Perfetto.
* :class:`SweepError` — raised by strict sweeps when failures remain
  after retries; carries the full report (completed work included).
* :class:`SweepJournal` — append-only JSONL checkpoint of completed
  point keys, enabling ``repro-sim sweep --resume`` after a SIGKILL.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.core.simulator import SimResult

#: The closed set of failure kinds (the error taxonomy).
ERROR_KINDS = ("exception", "timeout", "worker-crash", "cache-corrupt")


@dataclass(frozen=True)
class PointError:
    """One classified point failure.

    ``kind`` is always a member of :data:`ERROR_KINDS`; ``attempts`` is
    the number of execution attempts spent before giving up;
    ``traceback`` carries the worker-side formatted traceback when one
    exists (empty for crashes/timeouts, where there is no Python frame
    to unwind).
    """

    kind: str
    point_key: str
    attempts: int
    message: str = ""
    traceback: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(
                f"unknown PointError kind {self.kind!r}; "
                f"expected one of {ERROR_KINDS}"
            )


@dataclass
class PointOutcome:
    """The outcome of one sweep point: a result or a classified error."""

    index: int
    point: Any  # SweepPoint (kept loose to avoid an import cycle)
    result: Optional[SimResult] = None
    error: Optional[PointError] = None
    attempts: int = 0
    resumed: bool = False
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout policy for resilient sweeps.

    ``max_retries`` bounds *re*-tries: a point is attempted at most
    ``max_retries + 1`` times. ``timeout`` is the per-point wall-clock
    budget in seconds (``None`` disables it entirely): the coordinator
    kills a worker whose lease reports no outcome for :meth:`allowance`
    seconds. Retries are re-dispatched after exponential backoff:
    ``backoff * 2**(attempts-1)``, capped.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff: float = 0.25
    backoff_cap: float = 30.0

    def delay(self, attempts: int) -> float:
        """Backoff before re-dispatching a point that failed *attempts* times."""
        return min(self.backoff_cap, self.backoff * (2 ** max(0, attempts - 1)))

    def allowance(self) -> Optional[float]:
        """Lease silence budget before a worker is presumed hung."""
        if self.timeout is None:
            return None
        return self.timeout + max(2.0, self.timeout)


#: Policy used when the caller does not provide one. Fault-free sweeps
#: behave exactly as before under it (retries only trigger on failure).
DEFAULT_POLICY = RetryPolicy()

#: Resilience counters carried by every report (all start at zero).
COUNTER_NAMES = (
    "points",
    "executed",
    "ok",
    "failed",
    "retries",
    "exceptions",
    "timeouts",
    "worker_crashes",
    "cache_corrupt",
    "resumed",
    "deadline_exceeded",
)

#: Message prefix of every deadline failure (``PointError.kind`` stays
#: ``"timeout"`` — the taxonomy is closed — but callers that need to
#: distinguish "the sweep's deadline passed" from "one point overran its
#: budget" can match on this prefix, as the service daemon does).
DEADLINE_MESSAGE = "deadline-exceeded"


def _zero_counters() -> Dict[str, int]:
    return {name: 0 for name in COUNTER_NAMES}


@dataclass
class SweepReport:
    """Partial-results return value of ``run_points(..., strict=False)``.

    ``outcomes`` is positionally ordered like the input points.
    ``events`` is a wall-clock log of scheduler decisions (dispatches,
    retries, kills, resume skips) suitable for
    :func:`repro.obs.export.sweep_chrome_trace`.
    """

    outcomes: List[PointOutcome] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=_zero_counters)
    events: List[Dict[str, Any]] = field(default_factory=list)
    interrupted: bool = False

    @property
    def results(self) -> List[Optional[SimResult]]:
        """Per-point results (``None`` where the point failed)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> List[PointOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def record(self, ts: float, kind: str, **fields: Any) -> None:
        """Append one scheduler event at wall-clock offset *ts* seconds."""
        self.events.append({"ts": round(ts, 6), "kind": kind, **fields})


class SweepError(RuntimeError):
    """Raised by strict sweeps when points still fail after retries.

    Carries the full :class:`SweepReport` — completed results are not
    discarded, and anything cacheable was already persisted.
    """

    def __init__(self, report: SweepReport) -> None:
        self.report = report
        failures = report.failures
        if failures:
            first = failures[0]
            err = first.error
            msg = (
                f"{len(failures)} of {len(report.outcomes)} sweep points "
                f"failed; first: point #{first.index} "
                f"({err.kind} after {err.attempts} attempts): {err.message}"
            )
            if err.traceback:
                msg += "\n" + err.traceback.rstrip()
        else:  # pragma: no cover - defensive
            msg = "sweep failed"
        super().__init__(msg)


class SweepJournal:
    """Append-only JSONL checkpoint of completed point keys.

    One line per completed point: ``{"key": "<sha256>"}``. The file is
    flushed and fsynced per record, so a SIGKILLed sweep loses at most
    the in-flight point; a torn final line (kill mid-write) is tolerated
    on read. ``repro-sim sweep --resume`` loads the journal and skips
    every completed point whose cached result still loads.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None

    def completed(self) -> Set[str]:
        """Keys recorded so far (a torn trailing line is ignored)."""
        keys: Set[str] = set()
        try:
            text = self.path.read_text()
        except OSError:
            return keys
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                keys.add(str(payload["key"]))
            except (ValueError, KeyError, TypeError):
                continue  # torn/corrupt line: worth at most one re-run
        return keys

    def record(self, key: str) -> None:
        """Durably append one completed point key."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps({"key": key}) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def discard(self) -> None:
        """Close and delete the journal (fresh, non-resumed sweeps)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
