"""Integration tests: corpus workloads through the simulator, the sweep
engine's disk cache, and checkpoint resume."""

import pytest

from repro.core.config import build_simulator, ibtb, mbbtb
from repro.core.exec import (
    SweepPoint,
    clear_trace_memo,
    configure_disk_cache,
    point_key,
    run_points,
)
from repro.core.runner import clear_cache
from repro.corpus import load_corpus_trace
from repro.trace.external import load_trace_csv

L, W = 9000, 2250


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    configure_disk_cache(False)
    yield
    clear_cache()
    configure_disk_cache(False)


@pytest.fixture
def ingested(store, trace_csv):
    """The fixture trace ingested as ``corpus:web_frontend`` (5 shards)."""
    _, path = trace_csv
    store.ingest(path, shard_insts=2000)
    return store, path


# -- bit-identity ------------------------------------------------------------


def test_corpus_simulation_bit_identical_to_direct_csv(ingested):
    """The acceptance bar: simulating an ingested (multi-shard) corpus
    trace must be bit-identical to simulating the CSV it came from."""
    _, path = ingested
    direct = load_trace_csv(path)
    corpus = load_corpus_trace("corpus:web_frontend")
    for config in (ibtb(16), mbbtb(2, "allbr")):
        a = build_simulator(config, direct).run(warmup=W)
        b = build_simulator(config, corpus).run(warmup=W)
        assert a.cycles == b.cycles
        assert a.stats == b.stats


def test_corpus_slice_and_length_are_deterministic(ingested):
    a = load_corpus_trace("corpus:web_frontend@skip=1000,measure=6000", 4000)
    b = load_corpus_trace("corpus:web_frontend@skip=1000,measure=6000", 4000)
    assert len(a) == 4000
    assert a.pc == b.pc and a.btype == b.btype


# -- engine + disk cache -----------------------------------------------------


def _point(workload="corpus:web_frontend", config=None):
    return SweepPoint(config or ibtb(16), workload, L, W, 7)


def test_run_points_on_corpus_workload(ingested):
    (result,) = run_points([_point()])
    assert result.instructions == L - W
    assert result.cycles > 0


def test_point_key_uses_content_hash_not_paths(ingested, tmp_path):
    """Identical content re-ingested (even from a different file) keeps
    the cache key; changed content invalidates it."""
    store, path = ingested
    key = point_key(_point())

    copy = tmp_path / "renamed.csv"
    copy.write_text(open(path).read())
    store.ingest(copy, name="web_frontend", shard_insts=3000)
    assert point_key(_point()) == key

    trimmed = tmp_path / "trimmed.csv"
    lines = open(path).read().splitlines(keepends=True)
    trimmed.write_text("".join(lines[:-1]))
    store.ingest(trimmed, name="web_frontend", shard_insts=3000)
    assert point_key(_point()) != key


def test_point_key_distinguishes_slices(ingested):
    plain = point_key(_point("corpus:web_frontend"))
    sliced = point_key(_point("corpus:web_frontend@skip=1000"))
    assert plain != sliced


def test_disk_cache_hits_across_runs(ingested, tmp_path):
    """A corpus sweep point computed once is served from the disk cache
    on the next 'invocation' (fresh memo), keyed by content hash."""
    cache = configure_disk_cache(True, tmp_path / "cache")
    first = run_points([_point()])
    clear_cache()
    clear_trace_memo()
    again = run_points([_point()])
    snap = cache.snapshot()
    assert snap["result_hits"] >= 1
    assert first[0].cycles == again[0].cycles
    assert first[0].stats == again[0].stats


def test_disk_cache_survives_reingest_of_identical_content(
    ingested, tmp_path
):
    store, path = ingested
    cache = configure_disk_cache(True, tmp_path / "cache")
    run_points([_point()])
    store.ingest(path, shard_insts=2000)  # byte-identical re-ingest
    clear_cache()
    clear_trace_memo()
    run_points([_point()])
    assert cache.snapshot()["result_hits"] >= 1


def test_sweep_resume_skips_checkpointed_corpus_points(ingested, tmp_path):
    """Corpus points recorded in a sweep journal are skipped on --resume,
    with results re-read from the disk cache."""
    from repro.core.exec import SweepJournal

    configure_disk_cache(True, tmp_path / "cache")
    points = [_point(), _point(config=mbbtb(2, "allbr"))]
    journal = SweepJournal(tmp_path / "journal.jsonl")
    try:
        first = run_points(points, journal=journal)
        clear_cache()
        clear_trace_memo()
        resumed = run_points(points, journal=journal, resume=True)
    finally:
        journal.close()
    assert [r.cycles for r in resumed] == [r.cycles for r in first]
    assert [r.stats for r in resumed] == [r.stats for r in first]


# -- batch plans over corpus workloads ---------------------------------------


def test_batched_corpus_point_bit_identical_and_plan_cached(
    ingested, tmp_path, monkeypatch
):
    """A corpus point runs bit-identically under the compiled engine, and
    its batch plan lands in the disk cache's plans tier keyed (and
    source-marked) by the corpus content hash."""
    from repro.core.exec import clear_plan_memo
    from repro.core.passes.kernel import KERNEL_ENV

    monkeypatch.setenv(KERNEL_ENV, "interp")
    ref = run_points([_point()])
    clear_cache()
    monkeypatch.delenv(KERNEL_ENV)
    cache = configure_disk_cache(True, tmp_path / "cache")
    got = run_points([_point()])
    assert ref[0].stats == got[0].stats
    assert ref[0].cycles == got[0].cycles
    plans = list(cache.iter_plans())
    assert len(plans) == 1
    _, meta = plans[0]
    store, _ = ingested
    assert meta["source"] == store.get("web_frontend").content_hash
    clear_plan_memo()


def test_corpus_gc_prunes_plans_of_removed_entries(
    ingested, tmp_path, monkeypatch
):
    """``corpus gc`` removes cached batch plans whose backing corpus
    entry is gone, while synthetic-trace plans survive."""
    from repro.cli import main
    from repro.core.exec import clear_plan_memo
    from repro.core.passes.kernel import KERNEL_ENV

    store, _ = ingested
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    cache_dir = tmp_path / "cache"
    cache = configure_disk_cache(True, cache_dir)
    run_points([_point()])  # corpus-backed plan
    run_points([SweepPoint(ibtb(16), "db_oltp", 4000, 1000, 7)])  # synth plan
    assert len(list(cache.iter_plans())) == 2

    store.remove("web_frontend")
    assert (
        main(
            [
                "corpus",
                "gc",
                "--corpus-dir",
                str(store.root),
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    remaining = [meta for _, meta in cache.iter_plans()]
    assert len(remaining) == 1
    assert remaining[0]["source"] == "synth"
    clear_plan_memo()
