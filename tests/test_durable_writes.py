"""The study layer's durable writes, pinned.

* Journal lines, store journals and cache entries are byte-for-byte the
  two-dump encoding (the canonical data, then the ``{"crc", "data"}``
  envelope encoded around it) that earlier builds wrote.
* A compacted store is one unindented line that parses to what the
  indented encoding held; indented stores still load.
* The fsync points: one per ``submit``, one per checkpointed record and
  none for a journal header.  A daemon job compiles its spec once, and a
  cache-served one does 6 fsyncs and 1 rename for its 3 cells.
* Every crash point of the two merged writes replays to a consistent
  state: a store journal's header plus first record, and the daemon's
  ``submitted`` plus ``queued`` lines.
* The append-only cache counters (``stats.jsonl`` plus a legacy
  ``stats.json``), per-writer cache temp files, and ``/events`` skipping
  the store reload when its tail streamed every cell.
"""

import json
import os
import tempfile
import threading
import time
import warnings
import zlib

import numpy as np
from hypothesis import given, settings
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
from repro.study.runner import run_cells
from repro.study.store import RunRecord, StudyStore, _encode_record, _journal_line


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


def test_one_fsync_per_checkpointed_record_none_for_the_header(
    tmp_path, monkeypatch
):
    fsyncs = _count_calls(monkeypatch, os, "fsync")
    spec = _spec()
    run_study(spec, store_path=str(tmp_path / "full.json"))
    assert len(fsyncs) == 3
    part = str(tmp_path / "part.json")
    del fsyncs[:]
    run_study(spec, store_path=part, max_cells=1)
    assert len(fsyncs) == 1
    del fsyncs[:]
    resumed = run_study(spec, store_path=part, resume=True)
    assert resumed.is_complete() and len(fsyncs) == 2


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


def test_cache_served_job_compiles_once_six_fsyncs_one_rename(
    tmp_path, monkeypatch
):
    compiles = []
    real_compile = compile_module.compile_study

    def counting_compile(spec):
        compiles.append(spec.name)
        return real_compile(spec)

    for module in (compile_module, runner_module, jobs_module):
        monkeypatch.setattr(module, "compile_study", counting_compile)
    manager = JobManager(str(tmp_path / "state"))  # cache in the state dir
    manager.start()
    try:
        cold = manager.submit(_spec(name="cold").to_dict())
        assert _finish(manager, cold["id"])["state"] == "done"
        assert compiles == ["cold"]
        fsyncs = _count_calls(monkeypatch, os, "fsync")
        renames = _count_calls(monkeypatch, os, "replace")
        warm = manager.submit(_spec(name="warm").to_dict())
        final = _finish(manager, warm["id"])
    finally:
        manager.close()
    assert final["state"] == "done" and final["counts"]["cached"] == 3
    assert compiles == ["cold", "warm"]
    # submit, running, one per record, done; only compaction renames.
    assert len(fsyncs) == 6
    assert len(renames) == 1


# ---------------------------------------------------------------------------
# Every crash point of the two merged writes
# ---------------------------------------------------------------------------


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
    written = []

    def first_write(_cell, _record):
        if not written:
            with open(jpath, "rb") as handle:
                written.append(handle.read())

    run_study(spec, store_path=path, progress=first_write)
    (raw,) = written
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
