"""The study layer's durable writes, pinned.

* Journal lines, store journals and the cache log's entry lines are
  byte-for-byte the two-dump encoding (the canonical data, then the
  ``{"crc", "data"}`` envelope encoded around it) that earlier builds
  wrote.
* A compacted store is one unindented line that parses to what the
  indented encoding held; indented stores still load.
* The fsync points, by the file each one covers: one per ``submit``,
  one per checkpoint (a simulated record, or a run of cache hits before
  a simulated cell) and none for a journal header, then the compacted
  store and its directory.  A hit/hit/miss/hit/hit pass checkpoints
  twice, in cell order, and lands its last two hits with the
  compaction; an all-hit pass fsyncs only the compacted store and its
  directory and creates no journal; a resume refuses another study's
  journal at its store path before writing anything, and a resume
  from a path is a ``TypeError`` that touches no file; ``progress``
  sees no record before the fsync covering it.  A daemon job compiles
  its spec once; a cache-served 3-cell job does 4 fsyncs and 1 rename,
  a fresh one 7 fsyncs.  A daemon job loads its store once per run,
  and a restarted daemon reports the counts of finished jobs.
* A record is memoized before its journal line: a study killed at its
  first cache write resumes to a cache that serves a renamed copy whole.
* Every crash point of the grouped writes replays to a consistent
  state: a store journal's header plus first record, a warm run's
  header plus the run of hits before its miss (resumed from the cache
  alone), and the daemon's ``submitted`` plus ``queued`` lines.  An
  all-hit run stopped before or after any durable call of its
  compaction, or with its temp file cut at any byte, resumes from the
  cache alone.  A daemon job killed right after any of its journal
  appends resumes to the uninterrupted store, and ``jobs.jsonl``'s
  header is durable with the first submit.
* The journal decoders, fuzzed: a line decodes to what was written; a
  damaged, cut or too deeply nested line, or a CRC-valid row that is no
  record, never raises; arbitrary bytes never raise; a record row
  decodes only from well-typed fields, to a record that encodes back to
  it, or not at all; and a reader of a journal cut at any byte sees
  exactly its whole lines.
* The cache log, fuzzed and cut: over entry and recency lines mixed
  with damaged, cut and glued lines, rows that are no entry and
  arbitrary bytes, a fresh cache serves each cell its key's latest
  intact entry or misses, never raising, and ``stats`` and ``gc`` never
  raise; cut at any byte, it serves the entries that end before the
  cut, and the two puts after the cut are readable.
* The append-only cache counters (``stats.jsonl`` plus a legacy
  ``stats.json``); threads appending whole lines; an instance whose log
  another process's ``gc`` replaced appending to the new log; files of
  the per-entry layout missed, counted by ``stats`` and removed by
  ``gc``; and ``/events`` skipping the store reload when its tail
  streamed every cell.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.serve import JobManager, ServeClient, StudyServer
from repro.serve import jobs as jobs_module
from repro.serve import protocol as proto
from repro.study import (
    ResultCache,
    StoreCorruptError,
    StudySpec,
    compile_study,
    journal_path,
    load_study_store,
    run_study,
)
from repro.study import compile as compile_module
from repro.study import runner as runner_module
from repro.study import store as store_module
from repro.study.cache import cache_key
from repro.study.runner import run_cells
from repro.study.store import (
    JournalReader,
    RunRecord,
    StudyStore,
    _encode_record,
    _journal_line,
    _parse_journal_line,
    _walk_journal,
)


def _two_dump_line(data) -> bytes:
    """A journal line as earlier builds encoded it: data, then envelope."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    envelope = json.dumps(
        {"crc": crc, "data": data}, sort_keys=True, separators=(",", ":")
    )
    return (envelope + "\n").encode("utf-8")


def _spec(name="durable writes", n=(24, 32, 48)):
    return StudySpec(
        name=name,
        seed=29,
        repetitions=2,
        axes={"process": ["3-majority"], "n": list(n), "rng_mode": ["per-replica"]},
    )


def _finish(manager, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while manager.state(job_id) not in proto.TERMINAL_STATES:
        assert time.monotonic() < deadline, f"job {job_id} never finished"
        time.sleep(0.01)
    return manager.view(job_id)


def _entry_line(cache, cell_id, row, stamp=0.0) -> bytes:
    """A cache entry line for ``cell_id`` holding any ``row``."""
    key = cache_key(cell_id, cache.package_version)
    return _journal_line({"key": key, "record": row, "t": stamp})


def _write_log(cache, raw: bytes) -> None:
    """Make ``raw`` the whole of ``cache``'s directory: its entry log."""
    shutil.rmtree(cache.root, ignore_errors=True)
    os.makedirs(cache.root)
    with open(cache.log_path, "wb") as handle:
        handle.write(raw)


# ---------------------------------------------------------------------------
# Byte-for-byte encodings
# ---------------------------------------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=12)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_RECORDS = st.builds(
    RunRecord,
    cell_id=st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
    index=st.integers(0, 10**6),
    seed=st.integers(0, 2**63 - 1),
    params=st.dictionaries(st.text(max_size=8), _JSON, max_size=4),
    resolved_backend=st.sampled_from(["agent", "counts", "ensemble-agent"]),
    unit=st.sampled_from(["rounds", "ticks"]),
    times=st.lists(st.integers(0, 10**9), max_size=5).map(
        lambda values: np.asarray(values, dtype=np.int64)
    ),
    stopped=st.lists(st.booleans(), max_size=5).map(
        lambda values: np.asarray(values, dtype=bool)
    ),
    wall_time_s=st.floats(0.0, 1e4),
    trajectory=st.none()
    | st.dictionaries(
        st.text(max_size=6), st.lists(st.floats(allow_nan=False), max_size=4),
        max_size=3,
    ),
    extras=st.none() | st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_JSON)
def test_journal_line_is_the_two_dump_encoding(data):
    assert _journal_line(data) == _two_dump_line(data)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_RECORDS)
def test_store_journal_and_cache_entry_bytes_are_unchanged(record):
    spec = _spec()
    with tempfile.TemporaryDirectory() as root:
        store = StudyStore(spec)
        path = os.path.join(root, "s.json")
        store.begin_journal(path)
        store.checkpoint(record)
        store._journal.close()
        with open(journal_path(path), "rb") as handle:
            journal = handle.read()
        cache = ResultCache(os.path.join(root, "cache"), package_version="pinned")
        assert cache.put(record)
        with open(cache.log_path, "rb") as handle:
            entry = handle.read()
    row = _encode_record(record)
    assert journal == (
        _two_dump_line(store._journal_header()) + _two_dump_line({"record": row})
    )
    row["cache_hit"] = False
    key = cache_key(record.cell_id, "pinned")
    stamp = _parse_journal_line(entry)["t"]
    assert entry == _two_dump_line({"key": key, "record": row, "t": stamp})


def test_compacted_store_is_one_line_with_the_indented_content(tmp_path):
    path = str(tmp_path / "s.json")
    store = run_study(_spec(), store_path=path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    indented = json.dumps(store.to_dict(), indent=2, sort_keys=True) + "\n"
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == json.loads(indented)
    assert load_study_store(path).results_equal(store)
    legacy = tmp_path / "indented.json"
    legacy.write_text(indented, encoding="utf-8")
    assert load_study_store(str(legacy)).results_equal(store)


# ---------------------------------------------------------------------------
# fsync points, compiles and renames
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _fsynced_paths(monkeypatch, root) -> list:
    """Stub ``os.fsync`` to record the path under ``root`` each call's
    descriptor is open on, relative to ``root`` (``"."`` for itself)."""
    paths = []

    def naming(fd):
        opened = os.fstat(fd)
        candidates = [root] + [
            os.path.join(dirpath, name)
            for dirpath, dirnames, filenames in os.walk(root)
            for name in dirnames + filenames
        ]
        (match,) = [
            os.path.relpath(path, root)
            for path in candidates
            if os.path.samestat(os.stat(path), opened)
        ]
        paths.append(match)

    monkeypatch.setattr(os, "fsync", naming)
    return paths


def test_one_fsync_per_checkpointed_record_none_for_the_header(
    tmp_path, monkeypatch
):
    fsyncs = _fsynced_paths(monkeypatch, str(tmp_path))
    spec = _spec()
    run_study(spec, store_path=str(tmp_path / "full.json"))
    # Three records, then the compacted store's file and directory.
    assert fsyncs == ["full.json.journal.jsonl"] * 3 + ["full.json.tmp", "."]
    part = str(tmp_path / "part.json")
    del fsyncs[:]
    run_study(spec, store_path=part, max_cells=1)
    assert fsyncs == ["part.json.journal.jsonl", "part.json.tmp", "."]
    del fsyncs[:]
    resumed = run_study(spec, store_path=part, resume=True)
    assert resumed.is_complete()
    assert fsyncs == ["part.json.journal.jsonl"] * 2 + ["part.json.tmp", "."]


def _hits_around_a_miss(tmp_path):
    """A 5-cell spec, its cold store, and a cache of every cell but the
    middle one: a warm pass over it goes hit, hit, miss, hit, hit."""
    spec = StudySpec(
        name="hits around a miss", seed=3, repetitions=1,
        axes={"process": ["voter"], "n": [4, 5, 6, 7, 8],
              "rng_mode": ["per-replica"]},
    )
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_study(spec)
    for record in cold.records():
        if record.index != 2:
            cache.put(record)
    return spec, cache, cold


def test_a_run_of_hits_lands_with_one_fsync_in_cell_order(
    tmp_path, monkeypatch
):
    spec, cache, cold = _hits_around_a_miss(tmp_path)
    lines = []
    real_compact = StudyStore.compact

    def compact_after_reading(self, path):
        with open(journal_path(path), "rb") as handle:
            lines.extend(handle.read().splitlines())
        real_compact(self, path)

    monkeypatch.setattr(StudyStore, "compact", compact_after_reading)
    fsyncs = _fsynced_paths(monkeypatch, str(tmp_path))
    path = str(tmp_path / "s.json")
    warm = run_study(spec, store_path=path, cache=cache)
    assert [r.cache_hit for r in warm.records()] == [True, True, False, True, True]
    assert warm.results_equal(cold)
    # Hits 0-1, the miss; then the compacted store, which lands hits 3-4.
    assert fsyncs == ["s.json.journal.jsonl"] * 2 + ["s.json.tmp", "."]
    rows = [json.loads(line)["data"]["record"] for line in lines[1:]]
    assert [row["index"] for row in rows] == [0, 1, 2]
    assert load_study_store(path).results_equal(cold)


def test_an_all_hit_run_fsyncs_only_its_compacted_store(tmp_path, monkeypatch):
    spec, cache, cold = _hits_around_a_miss(tmp_path)
    run_study(spec, cache=cache)  # cache the middle cell again
    adopted = _count_calls(monkeypatch, store_module, "_adopt_journal")
    removed = _count_calls(monkeypatch, os, "remove")
    fsyncs = _fsynced_paths(monkeypatch, str(tmp_path))
    path = str(tmp_path / "s.json")
    landed = []
    warm = run_study(
        spec, store_path=path, cache=cache,
        progress=lambda _cell, record: landed.append(record.index),
    )
    assert all(r.cache_hit for r in warm.records()) and warm.results_equal(cold)
    assert fsyncs == ["s.json.tmp", "."]
    # No journal is created, written or unlinked.
    assert adopted == [] and removed == []
    assert not os.path.exists(journal_path(path))
    assert landed == [0, 1, 2, 3, 4]
    assert load_study_store(path).results_equal(cold)


def _contents(*paths) -> dict:
    return {path: open(path, "rb").read() for path in paths}


@pytest.mark.parametrize("run", [run_study, repro.study], ids=["run_study", "api"])
def test_a_resume_path_is_refused_before_any_file_is_touched(tmp_path, run):
    """``resume`` is a bool.  A path, the form that loaded one store and
    then compacted over whatever sat at ``store_path`` (here another
    study's store), raises ``TypeError`` and leaves both stores
    byte-for-byte as they were."""
    spec, cache, _cold = _hits_around_a_miss(tmp_path)
    source = str(tmp_path / "source.json")
    run_study(spec, store_path=source, cache=cache, max_cells=1)
    other = StudySpec.from_dict({**spec.to_dict(), "seed": 4})
    path = str(tmp_path / "s.json")
    run_study(other, store_path=path, max_cells=1)
    before, listing = _contents(source, path), sorted(os.listdir(tmp_path))
    with pytest.raises(TypeError, match="resume must be a bool"):
        run(spec, store_path=path, resume=source, cache=cache)
    assert _contents(source, path) == before
    assert sorted(os.listdir(tmp_path)) == listing


@pytest.mark.parametrize(
    "base", [None, "this", "other"],
    ids=["no base file", "a base of this spec", "a base of the other spec"],
)
def test_resume_refuses_another_studys_crashed_journal_first(tmp_path, base):
    """``resume=True`` over the journal a crashed run of another study
    left at ``store_path`` raises before it writes anything, whether a
    compacted store sits beside that journal or not, and whoever's."""
    spec, cache, _cold = _hits_around_a_miss(tmp_path)
    other = StudySpec.from_dict({**spec.to_dict(), "seed": 4})
    path = str(tmp_path / "s.json")
    if base is not None:
        run_study(spec if base == "this" else other, store_path=path, max_cells=1)
    crashed = StudyStore(other)
    crashed.begin_journal(path)
    crashed.checkpoint(run_study(other, max_cells=1).records()[0])
    crashed._journal.close()
    files = [name for name in (path, journal_path(path)) if os.path.exists(name)]
    before, listing = _contents(*files), sorted(os.listdir(tmp_path))
    with pytest.raises(ValueError):
        run_study(spec, store_path=path, resume=True, cache=cache)
    assert _contents(*files) == before
    assert sorted(os.listdir(tmp_path)) == listing


def test_progress_sees_no_record_before_the_fsync_covering_it(
    tmp_path, monkeypatch
):
    spec, cache, _cold = _hits_around_a_miss(tmp_path)
    path = str(tmp_path / "s.json")
    jpath = journal_path(path)
    covered = {}  # index -> the first fsync that made it durable

    def fsync_noting_what_it_covers(fd):
        opened = os.fstat(fd)
        if os.path.exists(jpath) and os.path.samestat(opened, os.stat(jpath)):
            with open(jpath, "rb") as handle:
                lines = handle.read().splitlines()[1:]
            for line in lines:
                index = json.loads(line)["data"]["record"]["index"]
                covered.setdefault(index, "journal")
        elif os.path.samestat(opened, os.stat(str(tmp_path))):
            with open(path, "rb") as handle:  # renamed: the directory fsync
                for index in json.load(handle)["columns"]["index"]:
                    covered.setdefault(index, "directory")

    monkeypatch.setattr(os, "fsync", fsync_noting_what_it_covers)
    seen = []

    def progress(_cell, record):
        assert record.index in covered, (record.index, covered)
        seen.append(record.index)

    run_study(spec, store_path=path, cache=cache, progress=progress)
    assert seen == [0, 1, 2, 3, 4]
    # Hits 3 and 4 come after the last miss: the directory fsync covers them.
    assert covered == {0: "journal", 1: "journal", 2: "journal",
                       3: "directory", 4: "directory"}


def test_submit_journals_both_lines_with_one_fsync(tmp_path, monkeypatch):
    state = str(tmp_path / "state")
    manager = JobManager(state, cache=False)
    try:
        fsyncs = _count_calls(monkeypatch, os, "fsync")
        view = manager.submit(_spec().to_dict())
        assert len(fsyncs) == 1 and view["state"] == "queued"
        assert manager.submit(_spec().to_dict())["attached"]
        assert len(fsyncs) == 1  # attaching journals nothing
    finally:
        manager.close()
    with open(os.path.join(state, "jobs.jsonl"), "rb") as handle:
        lines = handle.read().splitlines()
    events = [json.loads(line)["data"] for line in lines[1:]]
    assert [event["event"] for event in events] == ["submitted", "state"]
    assert events[1]["state"] == "queued"


def test_the_jobs_journal_header_is_durable_with_the_first_submit(
    tmp_path, monkeypatch
):
    state = str(tmp_path / "state")
    synced = []

    def fsync_reading_the_journal(fd):
        with open(os.path.join(state, "jobs.jsonl"), "rb") as handle:
            synced.append(handle.read())

    monkeypatch.setattr(os, "fsync", fsync_reading_the_journal)
    manager = JobManager(state, cache=False)
    try:
        assert synced == []  # a fresh state dir: no fsync at start
        manager.submit(_spec().to_dict())
    finally:
        manager.close()
    (journal,) = synced
    header, *events = [json.loads(line)["data"] for line in journal.splitlines()]
    assert header["kind"] == "repro-serve-jobs"
    assert [event["event"] for event in events] == ["submitted", "state"]


def test_cache_served_job_compiles_once_four_fsyncs_one_rename(
    tmp_path, monkeypatch
):
    compiles = []
    real_compile = compile_module.compile_study

    def counting_compile(spec):
        compiles.append(spec.name)
        return real_compile(spec)

    for module in (compile_module, runner_module, jobs_module):
        monkeypatch.setattr(module, "compile_study", counting_compile)
    state = str(tmp_path / "state")
    manager = JobManager(state)  # cache in the state dir
    fsyncs = _fsynced_paths(monkeypatch, state)
    manager.start()
    try:
        cold = manager.submit(_spec(name="cold").to_dict())
        assert _finish(manager, cold["id"])["state"] == "done"
        assert compiles == ["cold"]
        cold_fsyncs = fsyncs[:]
        del fsyncs[:]
        renames = _count_calls(monkeypatch, os, "replace")
        warm = manager.submit(_spec(name="warm").to_dict())
        final = _finish(manager, warm["id"])
    finally:
        manager.close()
    assert final["state"] == "done" and final["counts"]["cached"] == 3
    assert compiles == ["cold", "warm"]
    # submit; each record; the compacted store's file and directory
    # (where the three hits land); done.  `running` is never fsync'd.
    cold_store = f"stores/{cold['id']}.store.json"
    assert cold_fsyncs == (
        ["jobs.jsonl"] + [f"{cold_store}.journal.jsonl"] * 3
        + [f"{cold_store}.tmp", "stores", "jobs.jsonl"]
    )
    warm_store = f"stores/{warm['id']}.store.json"
    assert fsyncs == ["jobs.jsonl", f"{warm_store}.tmp", "stores", "jobs.jsonl"]
    assert len(renames) == 1  # only compaction renames


def test_a_job_loads_its_store_once_and_a_restart_keeps_its_counts(
    tmp_path, monkeypatch
):
    loads = []
    real_load = jobs_module.load_study_store

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    for module in (jobs_module, runner_module):
        monkeypatch.setattr(module, "load_study_store", counting_load)
    state = str(tmp_path / "state")
    broken = StudySpec(
        name="one broken cell", seed=5, repetitions=2,
        axes={"process": ["3-majority"], "n": [24], "max_rounds": [40],
              "rng_mode": ["per-replica"], "faults": ["none", {"crash": 1.0}]},
    )
    manager = JobManager(state, cache=False)
    manager.start()
    try:
        done = manager.submit(_spec().to_dict())["id"]
        assert _finish(manager, done)["counts"]["ok"] == 3
        assert len(loads) == 1  # inside run_cells
        failed = manager.submit(broken.to_dict())["id"]
        assert _finish(manager, failed)["state"] == "failed"
        del loads[:]
        assert manager.submit(broken.to_dict())["state"] == "queued"
        final = _finish(manager, failed)
        assert len(loads) == 1  # a resubmitted job: run_cells again
    finally:
        manager.close()
    assert (final["counts"]["ok"], final["counts"]["failed"]) == (1, 1)
    restarted = JobManager(state, cache=False)
    try:
        assert restarted.view(done)["state"] == "done"
        assert restarted.view(done)["counts"]["ok"] == 3
        assert restarted.view(failed)["counts"] == final["counts"]
    finally:
        restarted.close()


# ---------------------------------------------------------------------------
# Every crash point of the grouped writes
# ---------------------------------------------------------------------------


def _first_journal_write(spec, path, cache=None) -> bytes:
    """Run ``spec`` into a store at ``path``; return its journal as the
    first ``progress`` call found it: the run's first write."""
    jpath = journal_path(path)
    written = []

    def first_write(_cell, _record):
        if not written:
            with open(jpath, "rb") as handle:
                written.append(handle.read())

    run_study(spec, store_path=path, cache=cache, progress=first_write)
    return written[0]


def test_every_crash_point_of_the_first_journal_write_resumes(
    tmp_path, monkeypatch
):
    """A kill inside the header-plus-first-record write leaves a prefix
    of those bytes; each must load and resume to the uninterrupted
    results.  (fsync is stubbed: what is under test is replay, and the
    ~1,200 resumes stay fast.)"""
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    spec = StudySpec(
        name="crash points", seed=3, repetitions=1,
        axes={"process": ["voter"], "n": [4, 6], "rng_mode": ["per-replica"]},
    )
    reference = run_study(spec)
    path = str(tmp_path / "s.json")
    jpath = journal_path(path)
    raw = _first_journal_write(spec, path)
    header_bytes = raw.index(b"\n") + 1
    assert raw.count(b"\n") == 2  # the header and the first record line
    cells = compile_study(spec)
    os.remove(path)
    for cut in range(len(raw) + 1):
        with open(jpath, "wb") as handle:
            handle.write(raw[:cut])
        try:
            loaded = load_study_store(path)
        except FileNotFoundError:
            assert cut < header_bytes, cut  # only a torn header holds nothing
        else:
            assert len(loaded) == (1 if cut == len(raw) else 0), cut
        resumed = run_cells(spec, cells, store_path=path, resume=True)
        assert resumed.results_equal(reference), cut
        assert not os.path.exists(jpath)
        os.remove(path)


def test_every_crash_point_of_a_run_of_hits_resumes_from_the_cache(
    tmp_path, monkeypatch
):
    """A kill inside a warm run's first write, its journal header plus
    the two hits before its miss, leaves a prefix of those bytes.  Each
    loads as the whole hit lines it holds (the resume lands only the
    other cells), and the resume over the same cache, which the warm run
    refilled with the missed cell, restores the cold results from hits
    alone: simulating any cell raises."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    spec, cache, cold = _hits_around_a_miss(tmp_path)
    path = str(tmp_path / "s.json")
    jpath = journal_path(path)
    raw = _first_journal_write(spec, path, cache)
    line_ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
    assert len(line_ends) == 3  # the header and hits 0 and 1

    def simulate(_plan):
        raise AssertionError("a resume simulated a cell")

    monkeypatch.setattr(runner_module, "execute", simulate)
    cells = compile_study(spec)
    os.remove(path)
    for cut in range(len(raw) + 1):
        with open(jpath, "wb") as handle:
            handle.write(raw[:cut])
        landed = []
        resumed = run_cells(
            spec, cells, store_path=path, resume=True, cache=cache,
            progress=lambda _cell, record: landed.append(record.index),
        )
        kept = sum(end <= cut for end in line_ends[1:])
        assert landed == [0, 1, 2, 3, 4][kept:], cut
        assert resumed.results_equal(cold), cut
        assert all(r.cache_hit for r in resumed.records()), cut
        assert not os.path.exists(jpath), cut
        os.remove(path)


class _Stop(BaseException):
    """A process kill, raised from a durable-write call: no ``except
    Exception`` in the code under test can swallow it."""


@pytest.mark.parametrize("leftover", [False, True], ids=["fresh", "leftover journal"])
def test_an_all_hit_run_stopped_at_any_write_of_its_compaction_resumes(
    tmp_path, monkeypatch, leftover
):
    """Stop an all-hit run before and after each durable call of its
    compaction (the temp file's fsync, ``os.replace``, the directory
    fsync and, when a crashed run left a journal, its ``os.remove``),
    and cut its temp file at every byte: each resumes over the same
    cache to the cold results, simulating nothing, and leaves neither a
    journal nor a temp file."""
    spec = StudySpec(
        name="crash points of a compaction", seed=3, repetitions=1,
        axes={"process": ["voter"], "n": [4, 6], "rng_mode": ["per-replica"]},
    )
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_study(spec, cache=cache)
    cells = compile_study(spec)
    path = str(tmp_path / "s.json")
    jpath, tmp = journal_path(path), f"{path}.tmp"

    def simulate(_plan):
        raise AssertionError("a cell was simulated")

    monkeypatch.setattr(runner_module, "execute", simulate)
    calls = []
    stop_at = [None]  # (call index, "before" or "after")

    def durable(name):
        real = getattr(os, name)

        def call(*args):
            at = (len(calls), "before")
            calls.append(name)
            if stop_at[0] == at:
                raise _Stop(at)
            result = real(*args)
            if stop_at[0] == (at[0], "after"):
                raise _Stop(stop_at[0])
            return result

        monkeypatch.setattr(os, name, call)

    for name in ("fsync", "replace", "remove"):
        durable(name)

    crashed = b""
    if leftover:  # a crashed run's journal, holding cell 0
        store = StudyStore(spec)
        store.begin_journal(path)
        store.checkpoint(cold.records()[0])
        store._journal.close()
        with open(jpath, "rb") as handle:
            crashed = handle.read()

    def start():
        """The state a warm run starts from: nothing on disk, or the
        crashed run's journal."""
        for stale in (path, tmp, jpath):
            if os.path.exists(stale):
                os.unlink(stale)
        if crashed:
            with open(jpath, "wb") as handle:
                handle.write(crashed)
        del calls[:]

    def resumes(label):
        stop_at[0] = None
        resumed = run_cells(spec, cells, store_path=path, resume=True, cache=cache)
        assert resumed.results_equal(cold), label
        assert not os.path.exists(jpath) and not os.path.exists(tmp), label

    start()
    run_cells(spec, cells, store_path=path, resume=leftover, cache=cache)
    expected = ["fsync", "replace", "fsync"] + (["remove"] if leftover else [])
    assert calls == expected  # the temp file, the rename, the directory
    with open(path, "rb") as handle:
        written = handle.read()  # what the temp file held
    for index in range(len(expected)):
        for when in ("before", "after"):
            start()
            stop_at[0] = (index, when)
            with pytest.raises(_Stop):
                run_cells(spec, cells, store_path=path, resume=leftover, cache=cache)
            resumes((index, when))
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # keeps the cuts fast
    for cut in range(len(written) + 1):  # a kill inside the temp file's write
        start()
        with open(tmp, "wb") as handle:
            handle.write(written[:cut])
        resumes(cut)


def test_every_crash_point_of_the_submit_write_replays(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    state = str(tmp_path / "state")
    spec = _spec()
    manager = JobManager(state, cache=False)
    try:
        job_id = manager.submit(spec.to_dict())["id"]
    finally:
        manager.close()
    journal = os.path.join(state, "jobs.jsonl")
    with open(journal, "rb") as handle:
        raw = handle.read()
    header = raw[: raw.index(b"\n") + 1]
    merged = raw[len(header):]
    submitted_bytes = merged.index(b"\n") + 1
    assert merged.count(b"\n") == 2  # submitted + queued, one write
    for cut in range(len(merged) + 1):
        with open(journal, "wb") as handle:
            handle.write(header + merged[:cut])
        replayed = JobManager(state, cache=False)
        try:
            views = replayed.views()
        finally:
            replayed.close()
        if cut < submitted_bytes:
            assert views == [], cut
        else:
            assert [(v["id"], v["state"]) for v in views] == [(job_id, "queued")], cut


_KILL_AT_EACH_APPEND = """
import os, sys, time
from repro.serve import JobManager, jobs
from repro.serve.protocol import TERMINAL_STATES
from repro.study import store

real_append = store._append_journal


def run(kill_at, state):
    calls = []

    def append(*args, **kwargs):
        real_append(*args, **kwargs)
        calls.append(None)
        if len(calls) == kill_at:
            os._exit(3)

    store._append_journal = jobs._append_journal = append
    manager = JobManager(state)
    manager.start()
    job_id = manager.submit(SPEC)["id"]
    while manager.state(job_id) not in TERMINAL_STATES:
        time.sleep(0.002)
    os._exit(0)


# This process starts no thread, so forking it is safe; each child
# imports nothing, which keeps seven kill points within a second.
for kill_at, state in enumerate(sys.argv[1:], 1):
    child = os.fork()
    if child == 0:
        try:
            run(kill_at, state)
        finally:
            os._exit(1)
    print(os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]))
"""


def test_a_job_killed_at_any_journal_append_resumes_to_the_same_store(
    tmp_path, monkeypatch
):
    """Kill a daemon right after each journal append of a 3-cell job's
    life: a forked child ``os._exit``\\ s from the append, so nothing
    runs after it.  A fresh ``JobManager`` keeps the job (queued until
    its ``done`` landed), finishes it to the uninterrupted results and
    leaves ``jobs.jsonl`` valid to its last byte."""
    spec = _spec()
    reference = run_study(spec)
    appended = []
    real_append = jobs_module._append_journal

    def recording(handle, *data, sync=True):
        appended.append(os.path.relpath(handle.name, str(tmp_path / "life")))
        real_append(handle, *data, sync=sync)

    monkeypatch.setattr(jobs_module, "_append_journal", recording)
    monkeypatch.setattr(store_module, "_append_journal", recording)
    manager = JobManager(str(tmp_path / "life"))
    manager.start()
    try:
        job_id = manager.submit(spec.to_dict())["id"]
        assert _finish(manager, job_id)["state"] == "done"
    finally:
        manager.close()
    monkeypatch.undo()
    journal = f"stores/{job_id}.store.json.journal.jsonl"
    # submit, running, the three records, the cache counters, done
    assert appended == (
        ["jobs.jsonl"] * 2 + [journal] * 3 + ["cache/stats.jsonl", "jobs.jsonl"]
    )
    states = [str(tmp_path / f"kill{k}") for k in range(1, len(appended) + 1)]
    script = f"SPEC = {spec.to_dict()!r}\n" + _KILL_AT_EACH_APPEND
    killed = subprocess.run(
        [sys.executable, "-c", script, *states],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert killed.returncode == 0, killed.stderr
    assert killed.stdout.split() == ["3"] * len(states), killed.stderr
    for kill_at, state in enumerate(states, 1):
        survivor = JobManager(state)
        expected = "done" if kill_at == len(states) else "queued"
        assert [(v["id"], v["state"]) for v in survivor.views()] == [
            (job_id, expected)
        ], kill_at
        survivor.start()
        try:
            final = _finish(survivor, job_id)
        finally:
            survivor.close()
        assert final["state"] == "done", kill_at
        assert survivor.load_store(job_id).results_equal(reference), kill_at
        with open(os.path.join(state, "jobs.jsonl"), "rb") as handle:
            raw = handle.read()
        header, events, end = _walk_journal(
            raw, "repro-serve-jobs", decode=lambda event: event
        )
        assert header is not None and end == len(raw) and events, kill_at


# ---------------------------------------------------------------------------
# The journal decoders, fuzzed
# ---------------------------------------------------------------------------

_VALUES = st.recursive(
    st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner | st.none(), max_size=4)
    | st.dictionaries(st.text(max_size=8), inner | st.none(), max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_VALUES)
def test_a_journal_line_decodes_to_what_was_written(value):
    assert _parse_journal_line(_journal_line(value)) == value


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_VALUES, st.integers(1, 255))
@example("\u00e9", 0x20)  # \\u00e9 -> \\u00E9 decodes to the same value
@example(1e20, 0x20)  # 1e+20 -> 1E+20 too
def test_a_damaged_or_cut_line_decodes_to_none(value, flip):
    line = _journal_line(value)
    for at in range(len(line)):
        for mask in {flip, 0x01, 0x20, 0x80}:
            damaged = bytearray(line)
            damaged[at] ^= mask
            assert _parse_journal_line(bytes(damaged)) is None, (at, mask)
    for cut in range(len(line) - 1):
        assert _parse_journal_line(line[:cut]) is None, cut


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.binary(max_size=80))
def test_arbitrary_bytes_never_raise(payload):
    enveloped = b'{"crc":%d,"data":%s}\n' % (zlib.crc32(payload), payload)
    for raw in (payload, enveloped):
        _parse_journal_line(raw)
        _walk_journal(raw, "repro-study-journal")


def test_a_line_nested_past_the_recursion_limit_is_a_cache_miss(tmp_path):
    depth = 10 * sys.getrecursionlimit()
    data = b"[" * depth + b"]" * depth
    line = b'{"crc":%d,"data":%s}\n' % (zlib.crc32(data), data)
    assert _parse_journal_line(line) is None
    cache = ResultCache(str(tmp_path / "cache"), package_version="deep")
    key = cache_key("c" * 16, "deep").encode()
    data = b'{"key":"%s","record":%s,"t":0}' % (key, data)
    _write_log(cache, b'{"crc":%d,"data":%s}\n' % (zlib.crc32(data), data))
    with pytest.warns(RuntimeWarning, match="corrupt result-cache entry"):
        assert cache.get("c" * 16) is None
    assert (cache.hits, cache.misses) == (0, 1)


_HEADER = _journal_line(StudyStore(_spec())._journal_header())
_ROW = _encode_record(
    RunRecord("c" * 16, 0, 0, {}, "counts", "rounds", np.zeros(1), np.ones(1, bool))
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ROW)), _JSON)
@example("index", float("inf"))
@example("times", [2**70])
@example("wall_time_s", 2**1100)
def test_a_crc_valid_row_with_any_field_never_raises(
    tmp_path_factory, column, value
):
    """Replace one field of a record's row: the walk keeps the line or
    stops before it, and a cache entry holding the row is a hit or a
    miss."""
    row = {**_ROW, column: value}
    raw = _HEADER + _journal_line({"record": row})
    _header, records, end = _walk_journal(raw, "repro-study-journal")
    assert (end, len(records)) in ((len(_HEADER), 0), (len(raw), 1))
    cache = ResultCache(str(tmp_path_factory.getbasetemp() / "fuzz"))
    _write_log(cache, _entry_line(cache, _ROW["cell_id"], row))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cache.get(_ROW["cell_id"])


_OBJECTS = st.dictionaries(st.text(max_size=4), _JSON, max_size=2)
#: Each field of a record row, as a value of its own JSON type.
_ROW_FIELDS = {
    "cell_id": st.text(max_size=4),
    "index": st.integers(-(2**64), 2**64),
    "seed": st.integers(-(2**64), 2**64),
    "params": _OBJECTS,
    "resolved_backend": st.text(max_size=4),
    "unit": st.text(max_size=4),
    "times": st.lists(st.integers(-(2**64), 2**64), max_size=3),
    "stopped": st.lists(st.booleans(), max_size=3),
    "wall_time_s": st.integers(-(2**1100), 2**1100) | st.floats(),
}
_OPTIONAL_FIELDS = {
    "trajectory": st.none() | _OBJECTS,
    "extras": st.none() | _OBJECTS,
    "status": st.sampled_from(["ok", "failed", "timeout"]),
    "error": st.none() | _OBJECTS,
    "degraded_from": st.none() | st.text(max_size=4),
    "cache_hit": st.booleans(),
}
_ROW_DEFAULTS = {"trajectory": None, "extras": None, "status": "ok",
                 "error": None, "degraded_from": None, "cache_hit": False}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries(_ROW_FIELDS, optional=_OPTIONAL_FIELDS),
    st.dictionaries(
        st.sampled_from(sorted({**_ROW_FIELDS, **_OPTIONAL_FIELDS})), _JSON,
        max_size=2,
    ),
)
@example(_ROW, {"times": [1.5]})
@example(_ROW, {"index": 2.9})
@example(_ROW, {"stopped": [2]})
@example(_ROW, {"seed": True})
@example(_ROW, {"wall_time_s": "0.5"})
@example(_ROW, {"unit": 7})
def test_a_record_row_decodes_strictly_or_not_at_all(
    tmp_path_factory, fields, replaced
):
    """A CRC-valid record row (well-typed fields, up to two replaced by
    any JSON) either fails to decode with a declared error, and then the
    walk, the cache and a reader all stop before it, or it decodes to a
    record that encodes back to the row: decode → encode → decode is a
    fixed point."""
    line = _journal_line({"record": {**fields, **replaced}})
    data = _parse_journal_line(line)["record"]
    try:
        record = store_module._decode_record(data)
    except store_module._UNDECODABLE:
        record = None
    _header, records, end = _walk_journal(_HEADER + line, "repro-study-journal")
    root = tmp_path_factory.getbasetemp() / "strict"
    journal = str(root / "s.json.journal.jsonl")
    os.makedirs(root, exist_ok=True)
    with open(journal, "wb") as handle:
        handle.write(_HEADER + line)
    reader = JournalReader(journal)
    polled = reader.poll()
    if record is None:
        cache = ResultCache(str(root / "cache"))
        _write_log(cache, _entry_line(cache, "c" * 16, data))
        with pytest.warns(RuntimeWarning, match="corrupt result-cache entry"):
            assert cache.get("c" * 16) is None
        assert (end, records, polled) == (len(_HEADER), [], [])
        assert reader._offset == len(_HEADER)
        return
    assert end == len(_HEADER) + len(line) and len(records) == len(polled) == 1
    encoded = _encode_record(record)
    # json.dumps compares NaN with NaN; an int wall time reads as a float.
    expected = {**_ROW_DEFAULTS, **data, "wall_time_s": float(data["wall_time_s"])}
    assert json.dumps(encoded, sort_keys=True) == json.dumps(expected, sort_keys=True)
    again = _encode_record(store_module._decode_record(encoded))
    assert json.dumps(again, sort_keys=True) == json.dumps(encoded, sort_keys=True)


#: Three small cached cells, and the strategies of a damaged cache log.
_LOG_RECORDS = [
    RunRecord(f"{i:016x}", i, i, {}, "counts", "rounds",
              np.arange(2, dtype=np.int64), np.ones(2, bool))
    for i in range(3)
]
_LOG_ROWS = [{**_encode_record(r), "cache_hit": False} for r in _LOG_RECORDS]
_LOG_KEYS = [cache_key(r.cell_id, "log") for r in _LOG_RECORDS]
_CELL = st.integers(0, 2)
_LOG_PIECES = st.one_of(
    st.tuples(st.just("entry"), _CELL),
    st.tuples(st.just("used"), st.lists(_CELL, max_size=3)),
    st.tuples(st.just("damaged"), _CELL, st.integers(0, 10**4),
              st.integers(1, 255)),
    st.tuples(st.just("cut"), _CELL, st.integers(0, 10**4)),
    st.tuples(st.just("glued"), _CELL, _CELL),
    st.tuples(st.just("list"), st.lists(_JSON, max_size=3)),
    st.tuples(st.just("field"), _CELL, st.sampled_from(sorted(_ROW)), _JSON),
    st.tuples(st.just("deep"), _CELL),
    st.tuples(st.just("bytes"), st.binary(max_size=40)),
)


def _log_entry(cell, row=None, stamp=1.0) -> bytes:
    row = _LOG_ROWS[cell] if row is None else row
    return _journal_line({"key": _LOG_KEYS[cell], "record": row, "t": stamp})


def _log_piece(piece) -> bytes:
    kind, *args = piece
    if kind == "entry":
        return _log_entry(args[0])
    if kind == "used":
        return _journal_line({"t": 2.0, "used": [_LOG_KEYS[c] for c in args[0]]})
    if kind == "damaged":
        line = bytearray(_log_entry(args[0]))
        line[args[1] % (len(line) - 1)] ^= args[2]
        return bytes(line)
    if kind == "cut":  # a torn write: no newline, so it glues to what follows
        line = _log_entry(args[0])
        return line[: args[1] % len(line)]
    if kind == "glued":
        return _log_entry(args[0])[:-1] + _log_entry(args[1])
    if kind == "list":
        return _journal_line(args[0])
    if kind == "field":
        cell, column, value = args
        return _log_entry(cell, {**_LOG_ROWS[cell], column: value})
    if kind == "deep":
        depth = 10 * sys.getrecursionlimit()
        data = b'{"key":"%s","record":%s,"t":1}' % (
            _LOG_KEYS[args[0]].encode(), b"[" * depth + b"]" * depth
        )
        return b'{"crc":%d,"data":%s}\n' % (zlib.crc32(data), data)
    return args[0]


def _expected_hits(raw: bytes) -> list:
    """What a lookup of each cell must give: the record its key's latest
    intact entry line (CRC-valid, its data led by that key) decodes to,
    when that is the cell's, else ``None``."""
    latest = {}
    for line in raw.split(b"\n")[:-1]:
        data = store_module._line_data(line + b"\n")
        for key in _LOG_KEYS:
            if data is not None and data.startswith(b'{"key":"%s",' % key.encode()):
                latest[key] = data
    expected = []
    for key, record in zip(_LOG_KEYS, _LOG_RECORDS):
        try:
            decoded = store_module._decode_record(json.loads(latest[key])["record"])
        except (RecursionError, *store_module._UNDECODABLE):
            decoded = None
        if decoded is not None and decoded.cell_id != record.cell_id:
            decoded = None
        expected.append(decoded)
    return expected


def _lookups(root) -> list:
    cache = ResultCache(root, package_version="log")
    got = [cache.get(record.cell_id) for record in _LOG_RECORDS]
    cache.close()
    return [None if r is None else json.dumps(_encode_record(r), sort_keys=True)
            for r in got]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(_LOG_PIECES, max_size=8))
@example([("entry", 0), ("damaged", 0, 5, 1), ("cut", 1, 40), ("entry", 1),
          ("glued", 2, 2), ("used", [0, 1])])
@example([("entry", 0), ("deep", 0), ("entry", 1), ("field", 1, "times", [1.5]),
          ("entry", 2), ("list", [1, 2]), ("field", 2, "cell_id", "x")])
def test_a_damaged_cache_log_serves_each_cells_latest_intact_entry(
    tmp_path_factory, pieces
):
    """A log of entry and recency lines mixed with damaged, cut and glued
    lines, CRC-valid rows that are no entry, rows nested past the
    recursion limit and arbitrary bytes: a fresh cache returns, for each
    cell, the record its key's latest intact line decodes to when that
    is the cell's, and ``None`` otherwise.  It may warn, never raise;
    ``stats`` counts the keys whose latest line decodes, ``gc`` rewrites
    the log as one intact line per such key, and every lookup then gives
    what it gave before."""
    raw = b"".join(_log_piece(piece) for piece in pieces)
    root = str(tmp_path_factory.getbasetemp() / "log")
    _write_log(ResultCache(root, package_version="log"), raw)
    expected = [
        None if r is None else json.dumps(_encode_record(r), sort_keys=True)
        for r in _expected_hits(raw)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _lookups(root) == expected
        cache = ResultCache(root, package_version="log")
        entries = cache.stats()["entries"]
        assert entries >= sum(hit is not None for hit in expected)
        report = cache.gc()
        assert report["entries"] == entries and report["removed"] == 0
        with open(cache.log_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        assert len(lines) == entries  # one intact line per entry, no damage
        assert all(_parse_journal_line(line) is not None for line in lines)
        assert _lookups(root) == expected
        assert ResultCache(root, package_version="log").stats()["entries"] == entries


def test_a_cache_log_cut_at_any_byte_serves_the_lines_before_the_cut(tmp_path):
    """Cut a log of three entries at every byte: a fresh cache hits
    exactly the entries whose lines end at or before the cut, without a
    warning.  It then puts two more records; a put ends a torn tail with
    a newline first, so both are readable by a fresh cache."""
    raw = b"".join(_log_entry(cell) for cell in range(3))
    ends = np.cumsum([len(_log_entry(cell)) for cell in range(3)])
    more = [
        RunRecord(f"{i:016x}", i, i, {}, "counts", "rounds",
                  np.arange(2, dtype=np.int64), np.ones(2, bool))
        for i in (3, 4)
    ]
    root = str(tmp_path / "cache")
    for cut in range(len(raw) + 1):
        cache = ResultCache(root, package_version="log")
        _write_log(cache, raw[:cut])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = [cache.get(r.cell_id) is not None for r in _LOG_RECORDS]
        assert hits == [end <= cut for end in ends], cut
        assert all(cache.put(record) for record in more), cut
        cache.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the torn line
            fresh = ResultCache(root, package_version="log")
            assert all(fresh.get(r.cell_id) is not None for r in more), cut
            fresh.close()


#: The columns each older store format lacks (upgraded on load).
_LACKS = {
    1: ("status", "error", "degraded_from", "cache_hit"),
    2: ("degraded_from", "cache_hit"),
    3: ("cache_hit",),
    4: (),
}


def _columnar_payload() -> dict:
    store = StudyStore(_spec())
    for i in range(2):
        store.add(RunRecord(
            f"{i:016x}", i, i, {}, "counts", "rounds",
            np.arange(2, dtype=np.int64), np.ones(2, bool),
        ))
    return store.to_dict()


_COLUMNAR = json.dumps(_columnar_payload())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(_LACKS)),
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_columnar_payload()["columns"])),
            st.integers(0, 1),
            _JSON | st.integers(-(2**1100), 2**1100),
        ),
        max_size=2,
    ),
)
@example(4, [("wall_time_s", 0, 10**400)])
@example(4, [("times", 1, [2**70, 1])])
@example(1, [("seed", 0, 2**70), ("wall_time_s", 1, -(10**400))])
def test_a_columnar_store_loads_or_raises_a_declared_error(
    tmp_path_factory, version, cells
):
    """A v1-v4 columnar store with any JSON in up to two of its cells
    loads, or raises ``StoreCorruptError`` naming the file (or another
    ``ValueError``): never ``OverflowError``, ``RecursionError`` or any
    other type."""
    payload = json.loads(_COLUMNAR)
    payload["format_version"] = version
    for name in _LACKS[version]:
        del payload["columns"][name]
    for name, row, value in cells:
        if name in payload["columns"]:
            payload["columns"][name][row] = value
    path = str(tmp_path_factory.getbasetemp() / "columnar.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    try:
        store = load_study_store(path)
    except StoreCorruptError as exc:
        assert path in str(exc)
    except ValueError:
        pass
    else:
        assert len(store) == 2


def test_a_store_nested_past_the_recursion_limit_is_corrupt(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(StoreCorruptError, match=str(path)):
        load_study_store(str(path))


def test_a_reader_sees_exactly_the_lines_that_end_before_a_cut(tmp_path):
    """Cut a header and three records at every byte: a fresh reader
    returns the records whose lines end at or before the cut, and its
    next poll, once the rest landed, the others."""
    records = [
        RunRecord(f"{i:016x}", i, i, {}, "counts", "rounds", [i], [True])
        for i in range(3)
    ]
    lines = [_HEADER] + [
        _journal_line({"record": _encode_record(r)}) for r in records
    ]
    raw = b"".join(lines)
    ends = np.cumsum([len(line) for line in lines])[1:]
    path = str(tmp_path / "s.json.journal.jsonl")
    for cut in range(len(raw) + 1):
        with open(path, "wb") as handle:
            handle.write(raw[:cut])
        reader = JournalReader(path)
        kept = int(np.sum(ends <= cut))
        first = reader.poll()
        with open(path, "ab") as handle:
            handle.write(raw[cut:])
        polled = first + reader.poll()
        assert [r.index for r in first] == list(range(kept)), cut
        assert len(polled) == 3, cut
        assert all(a.same_results(b) for a, b in zip(polled, records)), cut


# ---------------------------------------------------------------------------
# The result cache: counters, concurrent writers, the old layout
# ---------------------------------------------------------------------------


def test_counters_append_lines_and_gc_clears_the_legacy_file(
    tmp_path, monkeypatch
):
    root = str(tmp_path / "cache")
    cache = ResultCache(root)
    cache.hits, cache.misses = 2, 1
    renames = _count_calls(monkeypatch, os, "replace")
    cache.flush()
    cache.hits, cache.misses = 1, 4
    cache.flush()
    assert renames == [] and (cache.hits, cache.misses) == (0, 0)
    with open(os.path.join(root, "stats.jsonl"), "rb") as handle:
        assert handle.read() == (
            _journal_line({"hits": 2, "misses": 1})
            + _journal_line({"hits": 1, "misses": 4})
        )
    legacy = os.path.join(root, "stats.json")
    with open(legacy, "wb") as handle:  # an older build's counters
        handle.write(_journal_line({"hits": 10, "misses": 20}))
    stats = ResultCache(root).stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (13, 25, 0)
    with open(legacy, "w", encoding="utf-8") as handle:  # pre-envelope
        json.dump({"hits": 100, "misses": 0}, handle)
    assert ResultCache(root).stats()["hits"] == 103
    ResultCache(root).gc()
    assert not os.path.exists(legacy)
    assert not os.path.exists(os.path.join(root, "stats.jsonl"))
    stats = ResultCache(root).stats()
    assert (stats["hits"], stats["misses"]) == (0, 0)


def test_threads_putting_one_cell_each_append_a_whole_line(tmp_path):
    """Four threads put one cell 300 times each, two through a shared
    instance and two through their own: every put lands as a whole
    line, the cell hits without a warning, and the directory holds the
    log alone."""
    root = str(tmp_path / "cache")
    shared = ResultCache(root, package_version="threads")
    (record, *_rest) = run_study(_spec(n=(24,))).records()
    errors = []

    def put_many(cache):
        try:
            for _ in range(300):
                assert cache.put(record)
        except Exception as exc:  # the test's verdict, re-checked below
            errors.append(exc)

    caches = [shared, shared] + [
        ResultCache(root, package_version="threads") for _ in range(2)
    ]
    threads = [threading.Thread(target=put_many, args=(c,)) for c in caches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside each put
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    with open(shared.log_path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    # A put that saw another's line half written ends it with a newline
    # of its own: an empty line, which readers skip.
    lines = [line for line in lines if line != b"\n"]
    assert len(lines) == 1200
    assert all(_parse_journal_line(line) is not None for line in lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a half-written entry would warn
        cached = ResultCache(root, package_version="threads").get(record.cell_id)
    assert cached is not None and cached.same_results(record)
    assert os.listdir(root) == ["entries.jsonl"]


@pytest.mark.parametrize("kill", ["before the write", "after the write"])
def test_a_kill_at_the_first_put_resumes_to_a_wholly_cached_rename(
    tmp_path, kill
):
    """Killed inside its first ``ResultCache.put``, a study resumes over
    the same cache to the uninterrupted results, and a renamed copy of
    its spec is then served wholly from the cache."""
    spec, path, cache = _spec(), str(tmp_path / "s.json"), str(tmp_path / "c")
    write_first = "real_put(self, record)" if kill == "after the write" else ""
    probe = (
        "import os\n"
        "from repro.study import ResultCache, StudySpec, run_study\n"
        "real_put = ResultCache.put\n"
        "def put(self, record):\n"
        f"    {write_first}\n"
        "    os._exit(3)\n"
        "ResultCache.put = put\n"
        f"run_study(StudySpec.from_dict({spec.to_dict()!r}),\n"
        f"          store_path={path!r}, cache={cache!r})\n"
    )
    killed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120,
    )
    assert killed.returncode == 3, killed.stderr
    resumed = run_study(spec, store_path=path, resume=True, cache=cache)
    assert resumed.results_equal(run_study(spec))
    renamed = run_study(_spec(name="renamed"), cache=cache)
    assert [r.cache_hit for r in renamed.records()] == [True, True, True]


def test_old_layout_files_miss_count_and_are_collected(tmp_path):
    """A directory of the per-entry layout (``<xx>/<key>.json`` files and
    a ``*.json.tmp.*`` a killed put left): every lookup misses, ``stats``
    counts the files' bytes, and ``gc(max_age_s=0)`` removes them, with
    no warning and no exception."""
    root = str(tmp_path / "cache")
    records = run_study(_spec()).records()
    sizes = 0
    for record in records:
        key = cache_key(record.cell_id, "old")
        os.makedirs(os.path.join(root, key[:2]), exist_ok=True)
        path = os.path.join(root, key[:2], f"{key}.json")
        with open(path, "wb") as handle:
            handle.write(_journal_line(_encode_record(record)))
        sizes += os.path.getsize(path)
    with open(f"{path}.tmp.1.2", "wb") as handle:
        handle.write(b"half an entr")
    sizes += 12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = ResultCache(root, package_version="old")
        assert all(cache.get(r.cell_id) is None for r in records)
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"]) == (0, sizes)
        assert cache.gc(max_age_s=0) == {
            "removed": len(records) + 1, "entries": 0, "bytes": 0,
        }
    assert os.listdir(root) == []


def test_a_put_after_another_process_gc_lands_in_the_new_log(tmp_path):
    """An instance keeps the log open while another process's ``gc``
    rewrites it, byte for byte, into a new file: the instance notices
    the new inode, so its next put lands in the new log, where a fresh
    instance hits it along with the two entries gc kept."""
    root = str(tmp_path / "cache")
    records = run_study(_spec()).records()
    cache = ResultCache(root)
    assert cache.put(records[0]) and cache.put(records[1])
    assert cache.get(records[0].cell_id) is not None  # the log is open, indexed
    with open(cache.log_path, "rb") as handle:
        before = handle.read()
    inode = os.stat(cache.log_path).st_ino
    swept = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from repro.study import ResultCache\n"
         "print(ResultCache(sys.argv[1]).gc()['entries'])\n",
         root],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(repro.__path__[0])},
    )
    assert swept.stdout.split() == ["2"], swept.stderr
    with open(cache.log_path, "rb") as handle:
        assert handle.read() == before  # the same bytes...
    assert os.stat(cache.log_path).st_ino != inode  # ...in another file
    assert cache.put(records[2])
    fresh = ResultCache(root)
    assert all(fresh.get(r.cell_id).same_results(r) for r in records)


# ---------------------------------------------------------------------------
# /events: no reload of what the tail already streamed
# ---------------------------------------------------------------------------


def test_events_reload_the_store_only_for_cells_the_tail_missed(
    tmp_path, monkeypatch
):
    manager = JobManager(str(tmp_path / "state"), cache=False)
    server = StudyServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    manager.start()
    loads = _count_calls(monkeypatch, manager, "load_store")
    streamed = threading.Event()
    real_compact = StudyStore.compact

    def compact_after_streaming(self, path):
        streamed.wait(30.0)  # the job ends only once the tail saw all
        real_compact(self, path)

    monkeypatch.setattr(StudyStore, "compact", compact_after_streaming)
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    try:
        view = client.submit(_spec(name="tail"))
        kinds = []
        for event in client.events(view["id"]):
            kinds.append(event["event"])
            if kinds.count("record") == 3:
                streamed.set()
        assert kinds == ["hello", "record", "record", "record", "done"]
        assert loads == []  # the tail streamed every cell
        late = [e["event"] for e in client.events(view["id"])]
        assert late == ["hello", "record", "record", "record", "done"]
        assert len(loads) == 1  # attached after compaction: from the store
    finally:
        streamed.set()
        server.shutdown()
        server.server_close()
        manager.close()
        thread.join(5.0)
