"""Decode-once columnar trace plans consumed by the compiled kernels.

A sweep runs the *same* workload trace through many machine configs, yet
every per-config engine walks the Python-object :class:`~repro.trace.trace.Trace`
from scratch: re-deriving cache-line indices, scanning forward for the
next branch one instruction at a time, and — most expensively — replaying
the prediction engine (hashed perceptron, folded global history, indirect
table, RAS) whose state provably never depends on the BTB organization
(it trains on trace outcomes only; see ``PredictionEngine.resolve``).

This module pays those costs once per workload:

* :class:`ColumnarTrace` lowers a ``Trace`` into typed numpy arrays —
  PCs, targets, taken bits, branch kinds, fall-through/next-PC — plus
  three derived plans computed with vectorized numpy ops:

  - ``next_br[i]``: index of the first branch at or after ``i`` (``n``
    when none remain), i.e. inter-branch instruction counts; lets a
    scan loop jump over non-branch runs instead of testing each one;
  - ``run_end[i]``: exclusive end of the cache-line run containing
    ``i``; replaces the per-instruction line-segmentation loop;
  - ``line_ix[i]``: per-instruction cache-line index
    (``pc // LINE_BYTES``), the input of ``run_end``. Kernels shift a
    segment's first PC to get its line, so plans do not carry it.

* :class:`PredictorPlan` replays the prediction engine once and records,
  per branch, exactly the values a per-config kernel needs:
  ``pt`` (perceptron direction prediction), ``ras_ok`` (RAS pop matched
  the return target) and ``ind_pred`` (raw indirect-table read, 0 when
  cold). The replica below mirrors ``PredictionEngine.resolve`` /
  ``HashedPerceptron`` / ``FoldedRegister`` operation-for-operation, so
  compiled kernels consuming the plan stay bit-identical to the
  interpreter (enforced by differential goldens in ``tests/kernel/``).

Plans are cached on disk as ``.npz`` through the :class:`DiskCache`
``plans`` tier, keyed by trace content hash (and predictor geometry for
:class:`PredictorPlan`), and pruned by ``repro-sim corpus gc`` when the
backing corpus entry disappears.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.branch.indirect import IndirectPredictor
from repro.branch.perceptron import HISTORY_LENGTHS
from repro.common.types import ILEN, LINE_BYTES

#: Version of the columnar/predictor-plan layout *and* of the replica
#: semantics. Bump whenever the derivation or the prediction engine
#: changes so stale cached plans become unreachable.
COLUMNAR_SCHEMA = 2


# ---------------------------------------------------------------------------
# Columnar lowering
# ---------------------------------------------------------------------------


@dataclass
class ColumnarTrace:
    """Typed-array view of a trace plus vectorized derived plans.

    All arrays have one entry per instruction. ``ops`` (operand tuples
    for the admit loop) and the plain-list views consumed by generated
    kernels are materialized lazily and memoized.
    """

    n: int
    pc: np.ndarray
    btype: np.ndarray
    taken: np.ndarray
    target: np.ndarray
    next_pc: np.ndarray
    next_br: np.ndarray
    run_end: np.ndarray
    line_ix: np.ndarray

    def __post_init__(self) -> None:
        self._lists: Optional[Dict[str, list]] = None

    def lists(self) -> Dict[str, list]:
        """Plain-list views for the generated kernels (list indexing is
        faster than numpy scalar indexing in CPython hot loops)."""
        if self._lists is None:
            self._lists = {
                "next_br": self.next_br.tolist(),
                "run_end": self.run_end.tolist(),
            }
        return self._lists


def _derive(pc: np.ndarray, btype: np.ndarray, taken: np.ndarray,
            target: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized next-branch / line-run / line-index derivations."""
    n = len(pc)
    line_ix = pc // LINE_BYTES
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), line_ix
    idx = np.arange(n, dtype=np.int64)
    # next_br[i] = min index j >= i with btype[j] != 0, else n.
    nb = np.where(btype != 0, idx, np.int64(n))
    next_br = np.minimum.accumulate(nb[::-1])[::-1]
    # run_end[i] = exclusive end of the cache-line run containing i.
    chg = np.nonzero(np.diff(line_ix))[0] + 1
    bounds = np.concatenate((chg, [n])).astype(np.int64)
    run_end = bounds[np.searchsorted(bounds, idx, side="right")]
    return next_br, run_end, line_ix


def lower_trace(trace) -> ColumnarTrace:
    """Lower a :class:`~repro.trace.trace.Trace` into columnar form."""
    pc = np.asarray(trace.pc, dtype=np.int64)
    btype = np.asarray(trace.btype, dtype=np.int64)
    taken = np.asarray(trace.taken, dtype=np.int64)
    target = np.asarray(trace.target, dtype=np.int64)
    next_pc = np.where(taken != 0, target, pc + ILEN)
    next_br, run_end, line_ix = _derive(pc, btype, taken, target)
    return ColumnarTrace(
        n=len(pc), pc=pc, btype=btype, taken=taken, target=target,
        next_pc=next_pc, next_br=next_br, run_end=run_end, line_ix=line_ix,
    )


# ---------------------------------------------------------------------------
# Predictor geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictorGeometry:
    """The structural knobs the prediction-engine replay depends on.

    Everything else about a :class:`MachineConfig` (BTB kind/geometry,
    backend, caches) is invisible to the prediction engine — its state
    evolves from trace outcomes only — so one plan serves every config
    sharing this geometry.
    """

    ptable_mask: int
    theta: int
    ind_mask: int
    ras_depth: int

    def key_fields(self) -> Dict[str, int]:
        return {
            "ptable_mask": self.ptable_mask,
            "theta": self.theta,
            "ind_mask": self.ind_mask,
            "ras_depth": self.ras_depth,
        }


def geometry_for(bp_size_kb: int, indirect_entries: int = 4096,
                 ras_depth: int = 64) -> PredictorGeometry:
    """Geometry of the predictors a config of this size elaborates
    (mirrors ``HashedPerceptron.__init__`` sizing)."""
    entries = (bp_size_kb * 1024) // len(HISTORY_LENGTHS)
    table_entries = 32
    while table_entries * 2 <= entries:
        table_entries *= 2
    theta = 2 * len(HISTORY_LENGTHS) + 14
    return PredictorGeometry(
        ptable_mask=table_entries - 1,
        theta=theta,
        ind_mask=indirect_entries - 1,
        ras_depth=ras_depth,
    )


# ---------------------------------------------------------------------------
# Predictor plan
# ---------------------------------------------------------------------------


@dataclass
class PredictorPlan:
    """Per-branch prediction outcomes shared by every config of one
    predictor geometry: ``pt[i]`` (cond direction prediction, 0/1),
    ``ras_ok[i]`` (return target matched the RAS pop, 0/1) and
    ``ind_pred[i]`` (raw indirect-table read at predict time; 0 = cold).
    Entries for non-branches (and for kinds a field does not apply to)
    are zero and never read."""

    geometry: PredictorGeometry
    pt: np.ndarray
    ras_ok: np.ndarray
    ind_pred: np.ndarray

    def __post_init__(self) -> None:
        self._lists: Optional[Dict[str, list]] = None

    def lists(self) -> Dict[str, list]:
        if self._lists is None:
            self._lists = {
                "pt": self.pt.tolist(),
                "ras_ok": self.ras_ok.tolist(),
                "ind_pred": self.ind_pred.tolist(),
            }
        return self._lists


def folded_histories(bits: np.ndarray, lengths, width: int) -> np.ndarray:
    """Every value of a folded-history register, for each of *lengths*.

    Row ``r`` holds, after each push of ``bits[j]``, the value a
    :class:`~repro.branch.history.FoldedRegister` of length
    ``lengths[r]`` and width *width* holds — the closed form of its CSR
    update::

        F[j] = XOR_{i < length} bits[j - i] << (i mod width)

    (bits before the first are zero). With the rotated prefix XOR
    ``H[j] = XOR_{i <= j} bits[i] << (-i mod width)`` every row is
    ``rotl(H[j] ^ H[j - length], j mod width)``, so the whole table costs
    a handful of array operations whatever the lengths.
    """
    m = len(bits)
    j = np.arange(m, dtype=np.int64)
    prefix = np.bitwise_xor.accumulate(bits.astype(np.int64) << (-j % width))
    rot = j % width
    wmask = (1 << width) - 1
    out = np.zeros((len(lengths), m), dtype=np.int64)
    for r, length in enumerate(lengths):
        if not length:
            continue
        win = prefix.copy()
        win[length:] ^= prefix[:-length]
        out[r] = ((win << rot) | (win >> (width - rot))) & wmask
    return out


def build_predictor_plan(col: ColumnarTrace,
                         geometry: PredictorGeometry) -> PredictorPlan:
    """Replay the prediction engine once over the trace.

    This reproduces ``PredictionEngine.resolve`` restricted to the state
    that evolves independently of the BTB: perceptron tables, folded
    global history, indirect table and RAS. Ordering subtleties
    preserved exactly:

    * conditional branches predict/update the perceptron *before* the
      history (and folds) advance;
    * every other branch kind pushes history *first*, so the indirect
      index is computed with the post-push fold;
    * the indirect table is read (plan value), then updated, and only
      then does an indirect call push the RAS.

    The history is pushed by every branch (the taken bit for
    conditionals, 1 otherwise) and by nothing else, so every fold and
    PC hash is computed vectorized up front (:func:`folded_histories`).
    The three remaining state machines share no state, so each runs as
    its own sequential loop over just the branches it sees: the
    perceptron over conditionals, the indirect table over indirect
    jumps/calls, the RAS over calls and returns.
    """
    n = col.n
    pt = np.zeros(n, dtype=np.uint8)
    ras_ok = np.zeros(n, dtype=np.uint8)
    ind_pred = np.zeros(n, dtype=np.int64)

    mask = geometry.ptable_mask
    theta = geometry.theta
    ind_mask = geometry.ind_mask
    index_width = (mask + 1).bit_length() - 1
    ind_width = (ind_mask + 1).bit_length() - 1

    branch_idx = np.nonzero(col.btype)[0]
    bt = col.btype[branch_idx]
    pc = col.pc[branch_idx]
    target = col.target[branch_idx]
    is_cond = bt == 1
    bits = np.where(is_cond, col.taken[branch_idx] != 0, 1)
    h = (np.uint64(0x9E3779B97F4A7C15) ^ pc.astype(np.uint64)) \
        * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(29))).astype(np.int64)

    # Perceptron: conditionals read the pre-push folds F[j - 1] (table 0
    # has zero history length: indexed by the PC hash alone). Indices
    # are flat into one weight list holding the 16 tables back to back.
    folds = folded_histories(bits, HISTORY_LENGTHS, index_width)
    pre = np.zeros_like(folds)
    pre[:, 1:] = folds[:, :-1]
    cond = np.nonzero(is_cond)[0]
    salt = np.arange(len(HISTORY_LENGTHS), dtype=np.int64)
    rows = ((h[cond, None] ^ pre[:, cond].T ^ (salt << 3)) & mask) \
        + salt * (mask + 1)
    weights = [0] * (len(HISTORY_LENGTHS) * (mask + 1))
    weight = weights.__getitem__
    preds = []
    predict = preds.append
    for row, took in zip(rows.tolist(), bits[cond].tolist()):
        total = sum(map(weight, row))
        predicted = total >= 0
        predict(predicted)
        # Classic margin rule on 8-bit weights; a step past the clamp
        # leaves the weight where it is.
        if predicted != took or -theta <= total <= theta:
            delta = 1 if took else -1
            for ix in row:
                w = weights[ix] + delta
                if -128 <= w <= 127:
                    weights[ix] = w
    pt[branch_idx[cond]] = preds

    # Indirect table: read with the post-push fold F[j], then updated.
    ind = np.nonzero((bt == 5) | (bt == 6))[0]
    jfold = folded_histories(bits, (IndirectPredictor.HISTORY_BITS,),
                             ind_width)[0]
    itab = [0] * (ind_mask + 1)
    reads = []
    read = reads.append
    for ii, tg in zip(((h[ind] ^ jfold[ind]) & ind_mask).tolist(),
                      target[ind].tolist()):
        read(itab[ii])
        itab[ii] = tg
    ind_pred[branch_idx[ind]] = reads

    # RAS: calls push their fall-through, returns pop; a full stack
    # drops its oldest entry and an empty one never matches.
    stack = np.nonzero((bt == 3) | (bt == 4) | (bt == 6))[0]
    ras: Deque[int] = deque(maxlen=geometry.ras_depth)
    push = ras.append
    pops = []
    for kind, link, tg in zip(bt[stack].tolist(),
                              (pc[stack] + ILEN).tolist(),
                              target[stack].tolist()):
        if kind == 4:
            pops.append(1 if ras and ras.pop() == tg else 0)
        else:
            push(link)
    ras_ok[branch_idx[stack[bt[stack] == 4]]] = pops

    return PredictorPlan(geometry=geometry, pt=pt, ras_ok=ras_ok,
                         ind_pred=ind_pred)


# ---------------------------------------------------------------------------
# Batch plan: what a compiled kernel binds in its prelude
# ---------------------------------------------------------------------------


class BatchPlan:
    """Bundle handed to a compiled kernel: the runtime arrays of a
    columnar trace + predictor plan, exposed as plain lists (list
    indexing beats numpy scalar indexing in CPython hot loops). Built
    once per (workload, geometry) and shared by every config in the
    batch; persistable as an ``.npz`` payload through the disk cache's
    ``plans`` tier."""

    __slots__ = ("geometry", "next_br", "run_end", "pt", "ras_ok",
                 "ind_pred")

    #: Arrays persisted per plan (everything a kernel reads from it).
    PAYLOAD_KEYS = ("next_br", "run_end", "pt", "ras_ok", "ind_pred")

    def __init__(self, geometry: PredictorGeometry, next_br, run_end, pt,
                 ras_ok, ind_pred) -> None:
        self.geometry = geometry
        self.next_br = next_br
        self.run_end = run_end
        self.pt = pt
        self.ras_ok = ras_ok
        self.ind_pred = ind_pred

    @classmethod
    def from_parts(cls, col: ColumnarTrace,
                   plan: PredictorPlan) -> "BatchPlan":
        cl = col.lists()
        pl = plan.lists()
        return cls(plan.geometry, cl["next_br"], cl["run_end"], pl["pt"],
                   pl["ras_ok"], pl["ind_pred"])

    @classmethod
    def from_payload(cls, geometry: PredictorGeometry,
                     arrays: Dict[str, np.ndarray]) -> "BatchPlan":
        cols = [np.asarray(arrays[k]).tolist() for k in cls.PAYLOAD_KEYS]
        return cls(geometry, *cols)

    def payload(self) -> Dict[str, np.ndarray]:
        dtypes = {"pt": np.uint8, "ras_ok": np.uint8}
        return {
            k: np.asarray(getattr(self, k), dtype=dtypes.get(k, np.int64))
            for k in self.PAYLOAD_KEYS
        }


def build_batch_plan(trace, geometry: PredictorGeometry) -> BatchPlan:
    """Lower *trace* and replay the predictors for *geometry*."""
    col = lower_trace(trace)
    return BatchPlan.from_parts(col, build_predictor_plan(col, geometry))
