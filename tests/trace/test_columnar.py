"""Property tests for the columnar trace lowering and predictor plans.

The contract (docs/compiled_kernels.md): :func:`lower_trace`'s derived
arrays round-trip *exactly* against reference iteration over the
:class:`Trace` — ``line_ix`` vs ``Trace.line_index``, ``next_pc`` vs
``Trace.next_pc``, ``next_br``/``run_end`` vs naive per-instruction
scans — for synthetic traces, for traces materialized from every corpus
ingestion format (CSV, ChampSim, CVP-1, gzip/xz-compressed), and for
empty/one-branch edge cases. :func:`build_predictor_plan` must match
the live :class:`PredictionEngine` decision-for-decision.
"""

import gzip
import lzma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.history import FoldedRegister
from repro.branch.indirect import IndirectPredictor
from repro.branch.perceptron import HISTORY_LENGTHS
from repro.common.types import ILEN, BranchType
from repro.corpus import configure_corpus, load_corpus_trace
from repro.frontend.engine import PredictionEngine
from repro.trace.columnar import (
    BatchPlan,
    build_batch_plan,
    build_predictor_plan,
    folded_histories,
    geometry_for,
    lower_trace,
)
from repro.trace.external import save_trace_csv
from repro.trace.trace import Trace
from repro.trace.workloads import get_trace


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated corpus store that ``corpus:`` names resolve against."""
    root = tmp_path / "corpus"
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(root))
    return configure_corpus(root)


@pytest.fixture
def trace_csv(tmp_path):
    trace = get_trace("web_frontend", 9_000)
    path = tmp_path / "web_frontend.csv"
    save_trace_csv(trace, str(path))
    return trace, str(path)


# -- reference derivations (naive per-instruction scans) ---------------------


def _ref_next_br(trace):
    n = len(trace)
    out = [n] * n
    nxt = n
    for i in range(n - 1, -1, -1):
        if trace.btype[i]:
            nxt = i
        out[i] = nxt
    return out


def _ref_run_end(trace):
    lines = trace.line_index()
    n = len(trace)
    out = [0] * n
    i = 0
    while i < n:
        j = i
        while j < n and lines[j] == lines[i]:
            j += 1
        for k in range(i, j):
            out[k] = j
        i = j
    return out


def _assert_roundtrip(trace):
    col = lower_trace(trace)
    n = len(trace)
    assert col.n == n
    assert col.line_ix.tolist() == trace.line_index()
    assert col.next_pc.tolist() == [trace.next_pc(i) for i in range(n)]
    assert col.next_br.tolist() == _ref_next_br(trace)
    assert col.run_end.tolist() == _ref_run_end(trace)
    assert col.pc.tolist() == list(trace.pc)
    assert col.btype.tolist() == list(trace.btype)
    assert col.taken.tolist() == list(trace.taken)
    assert col.target.tolist() == list(trace.target)


# -- synthetic workloads -----------------------------------------------------


@pytest.mark.parametrize("name", ["web_frontend", "db_oltp", "gc_runtime"])
def test_roundtrip_synthetic(name):
    _assert_roundtrip(get_trace(name, 8_000))


def test_roundtrip_empty_trace():
    _assert_roundtrip(Trace(name="empty"))


def test_roundtrip_single_instruction():
    trace = Trace(name="one")
    trace.append(0x1000)
    _assert_roundtrip(trace)


def test_roundtrip_single_branch():
    trace = Trace(name="onebr")
    trace.append(0x1000, btype=BranchType.UNCOND_DIRECT, taken=True,
                 target=0x2000)
    _assert_roundtrip(trace)
    col = lower_trace(trace)
    assert col.next_br.tolist() == [0]
    assert col.next_pc.tolist() == [0x2000]


def test_roundtrip_trailing_nonbranch_run():
    trace = Trace(name="tail")
    pc = 0x40  # crosses a line boundary mid-run
    for _ in range(20):
        trace.append(pc)
        pc += ILEN
    _assert_roundtrip(trace)
    col = lower_trace(trace)
    assert all(v == 20 for v in col.next_br.tolist())


# -- corpus ingestion formats ------------------------------------------------

CHAMPSIM_TEXT = (
    "0x100 N\n"
    "0x104 B 1 0x200\n"
    "0x200 J 1 0x300\n"
    "0x300 C 1 0x400\n"
    "0x400 R 1 0x304\n"
    "0x304 I 1 0x500\n"
    "0x500 X 1 0x600\n"
)

CVP1_TEXT = (
    "0x100 aluInstClass\n"
    "0x104 loadInstClass 0x9000\n"
    "0x108 condBranchInstClass 1 0x200\n"
    "0x200 uncondDirectBranchInstClass 1 0x300\n"
    "0x300 uncondIndirectBranchInstClass 1 0x400\n"
)


def _write(tmp_path, name, text, opener=None):
    path = tmp_path / name
    if opener is None:
        path.write_text(text)
    else:
        with opener(str(path), "wt") as fh:
            fh.write(text)
    return str(path)


@pytest.mark.parametrize(
    "name,text,opener",
    [
        ("t.champsim", CHAMPSIM_TEXT, None),
        ("t.champsim.gz", CHAMPSIM_TEXT, gzip.open),
        ("t.champsim.xz", CHAMPSIM_TEXT, lzma.open),
        ("t.cvp1", CVP1_TEXT, None),
        ("t.cvp1.xz", CVP1_TEXT, lzma.open),
    ],
)
def test_roundtrip_corpus_formats(store, tmp_path, name, text, opener):
    path = _write(tmp_path, name, text, opener)
    store.ingest(path, name="fmt")
    _assert_roundtrip(load_corpus_trace("corpus:fmt"))


def test_roundtrip_corpus_csv(store, trace_csv):
    _, path = trace_csv
    store.ingest(path, shard_insts=2_000)
    corpus = load_corpus_trace("corpus:web_frontend")
    _assert_roundtrip(corpus)


# -- predictor plan vs the live engine ---------------------------------------


def _reference_plan_values(trace, bp_size_kb):
    """Drive the real PredictionEngine sub-predictors in exactly the
    order ``PredictionEngine.resolve`` does, recording the decisions."""
    eng = PredictionEngine(bp_size_kb=bp_size_kb)
    n = len(trace)
    pt = [0] * n
    ras_ok = [0] * n
    ind_pred = [0] * n
    for i in range(n):
        bt = trace.btype[i]
        if not bt:
            continue
        pc, taken, target = trace.pc[i], bool(trace.taken[i]), trace.target[i]
        if bt == BranchType.COND_DIRECT:
            predicted, total, idxs = eng.perceptron.predict(pc)
            pt[i] = 1 if predicted else 0
            eng.perceptron.update(taken, total, idxs)
            eng.history.push(taken)
            continue
        eng.history.push(True)
        if bt in (BranchType.UNCOND_DIRECT, BranchType.CALL_DIRECT):
            if bt == BranchType.CALL_DIRECT:
                eng.ras.push(pc + ILEN)
        elif bt == BranchType.RETURN:
            ras_ok[i] = 1 if eng.ras.pop() == target else 0
        else:
            pred = eng.indirect.predict(pc)
            ind_pred[i] = pred if pred is not None else 0
            eng.indirect.update(pc, target)
            if bt == BranchType.CALL_INDIRECT:
                eng.ras.push(pc + ILEN)
    return pt, ras_ok, ind_pred


def _assert_plan_matches_live_engine(trace, size):
    plan = build_predictor_plan(lower_trace(trace), geometry_for(size))
    pt, ras_ok, ind_pred = _reference_plan_values(trace, size)
    assert plan.pt.tolist() == pt
    assert plan.ras_ok.tolist() == ras_ok
    assert plan.ind_pred.tolist() == ind_pred


# Every predictor size the figures use (2..64 KB); each has its own
# perceptron index width, hence its own fold width.
@pytest.mark.parametrize("name,size", [
    ("web_frontend", 64), ("db_oltp", 2), ("kv_store", 4),
    ("http_proxy", 8), ("gc_runtime", 16), ("ad_server", 32),
])
def test_predictor_plan_matches_live_engine(name, size):
    _assert_plan_matches_live_engine(get_trace(name, 8_000), size)


def _indirect_only_trace():
    """Indirect calls, indirect jumps and returns only (no conditional
    ever pushes a real taken bit). Each round nests 72 calls, past the
    RAS depth of 64, then returns 70 times, so the returns drain the
    stack past what it could keep; every third return goes somewhere no
    call linked."""
    trace = Trace(name="indirect_only")
    links = []
    pc = 0x4000
    for k in range(320):
        depth = k % 160
        if depth < 90:
            kind = BranchType.CALL_INDIRECT if k % 5 else BranchType.INDIRECT
            trace.append(pc=pc, btype=kind, taken=True,
                         target=0x8000 + 0x40 * (k % 7))
            if kind == BranchType.CALL_INDIRECT:
                links.append(pc + ILEN)
        else:
            link = links.pop() if links else 0x10
            trace.append(pc=pc, btype=BranchType.RETURN, taken=True,
                         target=link if k % 3 else 0x10)
        pc = 0x4000 + ILEN * ((k * 37) % 23)
    return trace


def _short_trace():
    """A real trace cut to fewer branches than the longest history."""
    trace = get_trace("db_oltp", 2_000)
    branches = [i for i, bt in enumerate(trace.btype) if bt]
    assert len(branches) > max(HISTORY_LENGTHS)
    return trace.slice(0, branches[max(HISTORY_LENGTHS) - 60])


@pytest.mark.parametrize("size", [2, 64])
@pytest.mark.parametrize("make", [Trace, _short_trace, _indirect_only_trace],
                         ids=["empty", "short", "indirect_only"])
def test_predictor_plan_edge_traces(make, size):
    _assert_plan_matches_live_engine(make(), size)


#: Every (length, width) pair the plan folds: perceptron tables at each
#: size's index width, and the indirect predictor's history.
_FOLD_PAIRS = sorted(
    {(length, (geometry_for(kb).ptable_mask + 1).bit_length() - 1)
     for kb in (2, 4, 8, 16, 32, 64) for length in HISTORY_LENGTHS if length}
    | {(IndirectPredictor.HISTORY_BITS,
        (geometry_for(64).ind_mask + 1).bit_length() - 1)}
)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=400))
def test_folded_histories_match_folded_register(bits):
    """The closed form equals the incremental CSR update after every push."""
    arr = np.asarray(bits, dtype=np.int64)
    for length, width in _FOLD_PAIRS:
        reg = FoldedRegister(length, width)
        history = 0
        want = []
        for bit in bits:
            reg.push(bit, (history >> (length - 1)) & 1)
            history = (history << 1) | bit
            want.append(reg.value)
        got = folded_histories(arr, (0, length), width)
        assert got[0].tolist() == [0] * len(bits)
        assert got[1].tolist() == want, (length, width)


def test_batch_plan_payload_roundtrip():
    trace = get_trace("web_frontend", 4_000)
    geom = geometry_for(64)
    plan = build_batch_plan(trace, geom)
    clone = BatchPlan.from_payload(geom, plan.payload())
    for key in BatchPlan.PAYLOAD_KEYS:
        assert getattr(clone, key) == getattr(plan, key)
    assert clone.geometry == geom
