"""The study layer's durable writes, pinned.

* Journal lines, store journals and cache entries are byte-for-byte the
  two-dump encoding (the canonical data, then the ``{"crc", "data"}``
  envelope encoded around it) that earlier builds wrote.
* A compacted store is one unindented line that parses to what the
  indented encoding held; indented stores still load.
* The fsync points, by the file each one covers: one per ``submit``,
  one per checkpoint (a simulated record, or a run of cache hits) and
  none for a journal header, then the compacted store and its
  directory.  A hit/hit/miss/hit/hit pass checkpoints 3 times, in cell
  order, and ``progress`` sees no record before its fsync.  A daemon
  job compiles its spec once; a cache-served 3-cell job does 5 fsyncs
  and 1 rename, a fresh one 7 fsyncs.  A daemon job loads its store
  once per run, and a restarted daemon reports the counts of finished
  jobs.
* A record is memoized before its journal line: a study killed at its
  first cache write resumes to a cache that serves a renamed copy whole.
* Every crash point of the grouped writes replays to a consistent
  state: a store journal's header plus first record, a warm run's
  header plus all its hits (resumed from the cache alone), and the
  daemon's ``submitted`` plus ``queued`` lines.  A daemon job killed
  right after any of its journal appends resumes to the uninterrupted
  store, and ``jobs.jsonl``'s header is durable with the first submit.
* The journal decoders, fuzzed: a line decodes to what was written; a
  damaged, cut or too deeply nested line, or a CRC-valid row that is no
  record, never raises; arbitrary bytes never raise; and a reader of a
  journal cut at any byte sees exactly its whole lines.
* The append-only cache counters (``stats.jsonl`` plus a legacy
  ``stats.json``), per-writer cache temp files (counted by ``stats``,
  collected by ``gc``), and ``/events`` skipping the store reload when
  its tail streamed every cell.
"""

import json
import os
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

from repro.serve import JobManager, ServeClient, StudyServer
from repro.serve import jobs as jobs_module
from repro.serve import protocol as proto
from repro.study import (
    ResultCache,
    StudySpec,
    compile_study,
    journal_path,
    load_study_store,
    run_study,
)
from repro.study import compile as compile_module
from repro.study import runner as runner_module
from repro.study import store as store_module
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
        with open(cache.entry_path(record.cell_id), "rb") as handle:
            entry = handle.read()
    row = _encode_record(record)
    assert journal == (
        _two_dump_line(store._journal_header()) + _two_dump_line({"record": row})
    )
    row["cache_hit"] = False
    assert entry == _two_dump_line(row)


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
    cold = run_study(spec, cache=cache)
    os.remove(cache.entry_path(cold.records()[2].cell_id))
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
    warm = run_study(spec, store_path=str(tmp_path / "s.json"), cache=cache)
    assert [r.cache_hit for r in warm.records()] == [True, True, False, True, True]
    assert warm.results_equal(cold)
    # Hits 0-1, the miss, hits 3-4; then the compacted store.
    assert fsyncs == ["s.json.journal.jsonl"] * 3 + ["s.json.tmp", "."]
    rows = [json.loads(line)["data"]["record"] for line in lines[1:]]
    assert [row["index"] for row in rows] == [0, 1, 2, 3, 4]


def test_progress_sees_no_record_before_the_fsync_covering_it(
    tmp_path, monkeypatch
):
    spec, cache, _cold = _hits_around_a_miss(tmp_path)
    path = str(tmp_path / "s.json")
    jpath = journal_path(path)
    synced = set()

    def fsync_noting_the_journal(fd):
        if os.path.samestat(os.fstat(fd), os.stat(jpath)):
            with open(jpath, "rb") as handle:
                lines = handle.read().splitlines()[1:]
            synced.update(json.loads(line)["data"]["record"]["index"] for line in lines)

    monkeypatch.setattr(os, "fsync", fsync_noting_the_journal)
    seen = []

    def progress(_cell, record):
        assert record.index in synced, (record.index, sorted(synced))
        seen.append(record.index)

    run_study(spec, store_path=path, cache=cache, progress=progress)
    assert seen == [0, 1, 2, 3, 4]


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


def test_cache_served_job_compiles_once_five_fsyncs_one_rename(
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
    # submit; each record (the three hits in one write); the compacted
    # store's file and directory; done.  `running` is never fsync'd.
    cold_store = f"stores/{cold['id']}.store.json"
    assert cold_fsyncs == (
        ["jobs.jsonl"] + [f"{cold_store}.journal.jsonl"] * 3
        + [f"{cold_store}.tmp", "stores", "jobs.jsonl"]
    )
    warm_store = f"stores/{warm['id']}.store.json"
    assert fsyncs == [
        "jobs.jsonl", f"{warm_store}.journal.jsonl", f"{warm_store}.tmp",
        "stores", "jobs.jsonl",
    ]
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
    """A kill inside a warm run's one write, its journal header plus all
    three hits, leaves a prefix of those bytes.  Each loads as the whole
    hit lines it holds (the resume lands only the other cells), and the
    resume over the same cache restores the cold results from hits
    alone: simulating any cell raises."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    spec = StudySpec(
        name="crash points of hits", seed=3, repetitions=1,
        axes={"process": ["voter"], "n": [4, 6, 8], "rng_mode": ["per-replica"]},
    )
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_study(spec, cache=cache)
    path = str(tmp_path / "s.json")
    jpath = journal_path(path)
    raw = _first_journal_write(spec, path, cache)
    line_ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
    assert len(line_ends) == 4  # the header and the three hits

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
        assert landed == [0, 1, 2][kept:], cut
        assert resumed.results_equal(cold), cut
        assert all(r.cache_hit for r in resumed.records()), cut
        os.remove(path)


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
    path = cache.entry_path("c" * 16)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        handle.write(line)
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
    path = cache.entry_path(_ROW["cell_id"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(_journal_line(row))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cache.get(_ROW["cell_id"])


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
# The result cache: counters and temp files
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


def test_threads_putting_one_cell_never_share_a_temp_file(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"), package_version="threads")
    (record, *_rest) = run_study(_spec(n=(24,))).records()
    errors = []

    def put_many():
        try:
            for _ in range(300):
                cache.put(record)
        except Exception as exc:  # the test's verdict, re-checked below
            errors.append(exc)

    threads = [threading.Thread(target=put_many) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a half-written entry would warn
        cached = cache.get(record.cell_id)
    assert cached is not None and cached.same_results(record)
    entry = cache.entry_path(record.cell_id)
    assert os.listdir(os.path.dirname(entry)) == [os.path.basename(entry)]


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


def test_gc_and_stats_collect_an_orphaned_put_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "cache"), package_version="orphans")
    (record, *_rest) = run_study(_spec(n=(24,))).records()

    def killed_before_the_rename(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed_before_the_rename)
    with pytest.raises(OSError, match="killed"):
        cache.put(record)
    monkeypatch.undo()
    entry_dir = os.path.dirname(cache.entry_path(record.cell_id))
    (orphan,) = os.listdir(entry_dir)
    assert ".json.tmp." in orphan
    stats = cache.stats()
    size = os.path.getsize(os.path.join(entry_dir, orphan))
    assert (stats["entries"], stats["bytes"]) == (0, size)
    assert cache.gc(max_age_s=0, max_bytes=0) == {
        "removed": 1, "entries": 0, "bytes": 0,
    }
    assert os.listdir(entry_dir) == []


def test_a_put_whose_temp_file_was_collected_is_not_cached(
    tmp_path, monkeypatch
):
    cache = ResultCache(str(tmp_path / "cache"), package_version="collected")
    (record, *_rest) = run_study(_spec(n=(24,))).records()
    real_replace = os.replace

    def collected_before_the_rename(src, dst):
        os.remove(src)  # a concurrent gc got to the temp file first
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", collected_before_the_rename)
    assert cache.put(record) is False
    monkeypatch.undo()
    assert cache.get(record.cell_id) is None
    assert cache.stats()["entries"] == 0


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
