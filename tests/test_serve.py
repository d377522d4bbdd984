"""Tests for the study-execution daemon (:mod:`repro.serve`).

The service contract under test, end to end:

* **wire protocol** — version-stamped payloads, rejection of versions
  this endpoint does not speak, light record events;
* **job lifecycle** — content-addressed dedup (resubmitting an active
  or finished spec attaches; broken states re-enqueue), validation at
  the door, cancellation, and a spec's deadline held on the executor
  thread;
* **durability** — a killed manager restarted on the same state dir
  replays its CRC-journaled job table (torn tail truncated), re-enqueues
  in-flight jobs, and finishes them **bit-for-bit** equal to an
  uninterrupted foreground run; a job store that no longer decodes
  answers 409 and does not stop a restart;
* **streaming** — ``/events`` replays the store journal's valid prefix
  on mid-run attach and never yields a torn or duplicate record (the
  :class:`JournalReader` invariant, also tested directly under a
  concurrent writer), wakes on each checkpoint rather than a timer, and
  pings while idle;
* the satellite pieces: graceful SIGTERM in ``run_study`` (exit 0,
  checkpoint intact), atomic cache stats counters under concurrent
  writers, and compile-only ``validate``, which also refuses a cell no
  backend accepts (as ``POST /jobs`` does).
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.cli import main as cli_main
from repro.engine.runtime import execute as real_execute
from repro.serve import (
    JOB_STATES,
    PROTOCOL_VERSION,
    JobManager,
    ProtocolError,
    ServeClient,
    ServeError,
    StudyServer,
)
from repro.serve import protocol as proto
from repro.serve import server as server_module
from repro.study import (
    JournalReader,
    ResultCache,
    StoreCorruptError,
    StudySpec,
    compile_study,
    journal_path,
    load_study_store,
    run_study,
    save_spec,
    spec_hash,
)
from repro.study import runner as runner_module
from repro.study.store import RunRecord, StudyStore, _journal_line


def tiny_spec(**overrides):
    defaults = dict(
        name="serve tiny",
        seed=23,
        repetitions=2,
        axes={
            "process": ["3-majority"],
            "n": [24, 32, 48],
            "rng_mode": ["per-replica"],
        },
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


#: Store damage that decoding once let escape as ``OverflowError`` or
#: ``RecursionError``: a wall time no float holds, a time no int64
#: holds (both as ``(column, value)`` of the first record), and nesting
#: deeper than the parser goes.
_UNDECODABLE_STORES = {
    "wall-time-10pow400": ("wall_time_s", 10**400),
    "times-2pow70": ("times", [2**70, 1]),
    "deep-array": None,
}


def undecodable_store(path: str, damage: str) -> None:
    """Rewrite the store at ``path`` with ``damage``."""
    if _UNDECODABLE_STORES[damage] is None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[" * 100_000 + "]" * 100_000)
        return
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    column, value = _UNDECODABLE_STORES[damage]
    payload["columns"][column][0] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# ---------------------------------------------------------------------------
# The wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_envelope_and_check_round_trip(self):
        body = proto.envelope({"x": 1})
        assert body["protocol"] == PROTOCOL_VERSION
        assert proto.check_protocol(json.loads(json.dumps(body)))["x"] == 1

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="version 99"):
            proto.check_protocol({"protocol": 99})
        with pytest.raises(ProtocolError, match="version None"):
            proto.check_protocol({})
        with pytest.raises(ProtocolError, match="JSON object"):
            proto.check_protocol([1, 2])

    def test_submit_request_round_trip(self):
        spec = tiny_spec()
        payload = proto.submit_request(spec.to_dict())
        parsed = proto.parse_submit_request(json.loads(json.dumps(payload)))
        assert StudySpec.from_dict(parsed).to_dict() == spec.to_dict()
        assert spec_hash(StudySpec.from_dict(parsed)) == spec_hash(spec)

    def test_submit_request_needs_spec_table(self):
        with pytest.raises(ProtocolError, match="'spec'"):
            proto.parse_submit_request({"protocol": PROTOCOL_VERSION})

    def test_record_event_is_light_and_json_safe(self):
        record = RunRecord(
            cell_id="a" * 16, index=3, seed=7, params={},
            resolved_backend="counts", unit="rounds",
            times=np.array([4.0, 6.0]), stopped=np.array([True, True]),
            wall_time_s=0.125, cache_hit=True,
        )
        event = json.loads(json.dumps(proto.record_event(record)))
        assert event == {
            "event": "record", "index": 3, "cell_id": "a" * 16,
            "status": "ok", "backend": "counts", "cache_hit": True,
            "degraded_from": None, "wall_time_s": 0.125,
            "unit": "rounds", "mean": 5.0,
        }

    def test_record_event_failed_cell_has_no_mean(self):
        record = RunRecord(
            cell_id="b" * 16, index=0, seed=1, params={},
            resolved_backend="counts", unit="rounds",
            times=np.array([]), stopped=np.array([]), status="failed",
        )
        assert proto.record_event(record)["mean"] is None

    def test_job_states_vocabulary(self):
        assert set(proto.ACTIVE_STATES) <= set(JOB_STATES)
        assert set(proto.RESUMABLE_STATES) <= set(JOB_STATES)
        assert set(proto.ACTIVE_STATES).isdisjoint(proto.RESUMABLE_STATES)


# ---------------------------------------------------------------------------
# JobManager: queue, dedup, durability
# ---------------------------------------------------------------------------


def finish(manager, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if manager.state(job_id) in proto.TERMINAL_STATES:
            return manager.view(job_id)
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {manager.state(job_id)}")


class TestJobManager:
    def test_submit_run_done_and_counts(self, tmp_path):
        manager = JobManager(str(tmp_path / "state"), cache=False)
        manager.start()
        try:
            view = manager.submit(tiny_spec().to_dict())
            assert view["id"] == spec_hash(tiny_spec())
            assert view["num_cells"] == 3 and not view["attached"]
            final = finish(manager, view["id"])
            assert final["state"] == "done"
            assert final["counts"]["ok"] == 3
        finally:
            manager.close()
        store = manager.load_store(view["id"])
        assert store.results_equal(run_study(tiny_spec()))

    @pytest.mark.parametrize("damage", list(_UNDECODABLE_STORES))
    def test_a_restart_over_an_undecodable_store_starts(self, tmp_path, damage):
        state = str(tmp_path / "state")
        manager = JobManager(state, cache=False)
        manager.start()
        try:
            job_id = manager.submit(tiny_spec().to_dict())["id"]
            assert finish(manager, job_id)["state"] == "done"
        finally:
            manager.close()
        undecodable_store(manager.store_path(job_id), damage)
        restarted = JobManager(state, cache=False)
        try:
            view = restarted.view(job_id)
            assert view["state"] == "done" and sum(view["counts"].values()) == 0
            with pytest.raises(StoreCorruptError, match=restarted.store_path(job_id)):
                restarted.load_store(job_id)
        finally:
            restarted.close()

    def test_resubmit_attaches_not_recomputes(self, tmp_path):
        manager = JobManager(str(tmp_path / "state"), cache=False)
        manager.start()
        try:
            first = manager.submit(tiny_spec().to_dict())
            finish(manager, first["id"])
            again = manager.submit(tiny_spec().to_dict())
            assert again["attached"] and again["state"] == "done"
        finally:
            manager.close()

    def test_invalid_spec_rejected_before_enqueue(self, tmp_path):
        manager = JobManager(str(tmp_path / "state"), cache=False)
        try:
            bad = tiny_spec().to_dict()
            bad["axes"]["process"] = ["no-such-process"]
            with pytest.raises((KeyError, ValueError), match="no-such-process"):
                manager.submit(bad)
            assert manager.views() == []
        finally:
            manager.close()

    def test_spec_deadline_holds_on_the_executor_thread(
        self, tmp_path, monkeypatch
    ):
        def hang_small(plan):
            if plan.initial.num_nodes == 24:
                time.sleep(3.0)
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", hang_small)
        spec = tiny_spec(name="serve deadline", execution={"deadline_s": 0.2})
        manager = JobManager(str(tmp_path / "state"), cache=False)
        manager.start()
        try:
            view = manager.submit(spec.to_dict())
            final = finish(manager, view["id"])
        finally:
            manager.close()
        hung, *healthy = manager.load_store(view["id"]).records()
        assert hung.params["n"] == 24
        assert hung.status == "timeout"
        assert hung.error["deadline_s"] == 0.2
        assert all(record.ok for record in healthy)
        assert final["state"] == "failed" and final["counts"]["timeout"] == 1

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(str(tmp_path / "state"), cache=False)
        try:
            view = manager.submit(tiny_spec().to_dict())
            cancelled = manager.cancel(view["id"])
            assert cancelled["state"] == "cancelled"
            manager.start()
            time.sleep(0.3)
            assert manager.state(view["id"]) == "cancelled"
        finally:
            manager.close()

    def test_restart_resumes_bit_for_bit(self, tmp_path):
        """The durability contract: kill between enqueue and completion,
        restart on the same state dir, and the finished store equals an
        uninterrupted foreground run exactly."""
        state = str(tmp_path / "state")
        spec = tiny_spec(name="serve restart")
        reference = run_study(spec)

        # Daemon #1 journals the submission but is never started — the
        # executor equivalent of a SIGKILL right after accept.
        first = JobManager(state, cache=False)
        job_id = first.submit(spec.to_dict())["id"]
        first._handle.close()  # abrupt: no graceful bookkeeping

        # A partial checkpoint, as a killed mid-run daemon leaves one.
        partial = run_study(
            spec, store_path=first.store_path(job_id), resume=True, max_cells=1
        )
        assert len(partial) == 1

        second = JobManager(state, cache=False)
        assert second.view(job_id)["state"] == "queued"
        assert second.view(job_id)["counts"]["ok"] == 1  # recounted from disk
        second.start()
        try:
            final = finish(second, job_id)
        finally:
            second.close()
        assert final["state"] == "done"
        assert second.load_store(job_id).results_equal(reference)

    def test_torn_job_journal_tail_is_truncated(self, tmp_path):
        state = str(tmp_path / "state")
        manager = JobManager(state, cache=False)
        manager.start()
        try:
            job_id = manager.submit(tiny_spec().to_dict())["id"]
            finish(manager, job_id)
        finally:
            manager.close()
        journal = os.path.join(state, "jobs.jsonl")
        intact = os.path.getsize(journal)
        with open(journal, "ab") as handle:
            handle.write(b'{"crc": 1, "data": {"event": "state", "id"')
        survivor = JobManager(state, cache=False)
        try:
            assert survivor.view(job_id)["state"] == "done"
        finally:
            survivor.close()
        assert os.path.getsize(journal) == intact

    def test_an_overflowing_job_event_is_skipped_on_replay(self, tmp_path):
        state = str(tmp_path / "state")
        JobManager(state, cache=False).close()
        with open(os.path.join(state, "jobs.jsonl"), "ab") as handle:
            handle.write(_journal_line({
                "event": "submitted", "id": "overflow",
                "spec": tiny_spec().to_dict(), "num_cells": float("inf"),
            }))
        survivor = JobManager(state, cache=False)
        try:
            assert survivor.views() == []
        finally:
            survivor.close()

    def test_graceful_close_interrupts_then_resumes(self, tmp_path):
        state = str(tmp_path / "state")
        spec = tiny_spec(name="serve shutdown")
        manager = JobManager(state, cache=False)
        seen = threading.Event()
        original_tally = manager._tally

        def tally_and_stop(counts, record):
            original_tally(counts, record)
            seen.set()

        manager._tally = tally_and_stop
        manager.start()
        job_id = manager.submit(spec.to_dict())["id"]
        assert seen.wait(30.0)
        manager.close()  # graceful: stop event → checkpoint → interrupted
        state_after = manager.view(job_id)["state"]
        assert state_after in ("interrupted", "done")  # done if it outraced us
        if state_after == "interrupted":
            successor = JobManager(state, cache=False)
            successor.start()
            try:
                assert finish(successor, job_id)["state"] == "done"
            finally:
                successor.close()
            assert successor.load_store(job_id).results_equal(run_study(spec))

    def test_a_rerun_never_counts_more_cells_than_the_job_has(self, tmp_path):
        """A resubmitted job re-attempts its failed cell: while it runs,
        its counts must not hold the old failure and the new one."""
        broken = tiny_spec(
            name="serve recount",
            axes={"process": ["3-majority"], "n": [24], "max_rounds": [40],
                  "rng_mode": ["per-replica"],
                  "faults": ["none", {"crash": 1.0}]},
        )
        manager = JobManager(str(tmp_path / "state"), cache=False)
        snapshots = []
        original_tally = manager._tally

        def tally_and_snapshot(counts, record):
            original_tally(counts, record)
            snapshots.append(dict(counts))

        manager.start()
        try:
            job_id = manager.submit(broken.to_dict())["id"]
            assert finish(manager, job_id)["state"] == "failed"
            manager._tally = tally_and_snapshot
            assert manager.submit(broken.to_dict())["state"] == "queued"
            final = finish(manager, job_id)
        finally:
            manager.close()
        assert final["state"] == "failed"
        assert (final["counts"]["ok"], final["counts"]["failed"]) == (1, 1)
        assert snapshots  # the rerun's record, then the end-of-run recount
        for counts in snapshots:
            cells = counts["ok"] + counts["failed"] + counts["timeout"]
            assert cells <= final["num_cells"], counts

    def test_cache_inside_state_dir_gives_full_hits_on_rename(self, tmp_path):
        state = str(tmp_path / "state")
        manager = JobManager(state)  # cache=True → <state>/cache
        manager.start()
        try:
            first = manager.submit(tiny_spec().to_dict())
            finish(manager, first["id"])
            renamed = tiny_spec(name="serve tiny renamed")
            second = manager.submit(renamed.to_dict())
            assert second["id"] != first["id"]
            final = finish(manager, second["id"])
        finally:
            manager.close()
        assert final["counts"]["cached"] == final["num_cells"] == 3
        assert os.path.isdir(os.path.join(state, "cache"))
        assert manager.load_store(second["id"]).results_equal(
            run_study(renamed)
        )


# ---------------------------------------------------------------------------
# The HTTP surface, in-process on an ephemeral port
# ---------------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    manager = JobManager(str(tmp_path / "state"), cache=False)
    server = StudyServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    manager.start()
    host, port = server.server_address[:2]
    try:
        yield ServeClient(f"http://{host}:{port}"), manager
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
        thread.join(5.0)


class TestHTTP:
    def test_submit_watch_results_round_trip(self, served):
        client, _manager = served
        spec = tiny_spec(name="serve http")
        view = client.submit(spec)
        events = []
        final = client.wait(view["id"], progress=events.append)
        assert final["state"] == "done"
        assert [e["index"] for e in events] == [0, 1, 2]
        assert all(e["event"] == "record" and e["status"] == "ok" for e in events)
        remote = client.results_store(view["id"])
        assert remote.results_equal(run_study(spec))

    def test_event_stream_has_hello_and_done(self, served):
        client, _manager = served
        view = client.submit(tiny_spec(name="serve hello"))
        kinds = [event["event"] for event in client.events(view["id"])]
        assert kinds[0] == "hello" and kinds[-1] == "done"
        assert kinds.count("record") == 3

    def test_mid_run_attach_replays_valid_prefix(self, served):
        client, _manager = served
        view = client.submit(tiny_spec(name="serve attach"))
        client.wait(view["id"])
        # Attaching *after* completion is the extreme mid-run case: the
        # journal is compacted away, so the prefix comes from the store.
        indexes = [
            event["index"]
            for event in client.events(view["id"])
            if event["event"] == "record"
        ]
        assert indexes == [0, 1, 2]

    def test_status_and_listing(self, served):
        client, _manager = served
        view = client.submit(tiny_spec(name="serve status"))
        client.wait(view["id"])
        status = client.status(view["id"])
        assert status["state"] == "done" and status["counts"]["ok"] == 3
        assert [j["id"] for j in client.jobs()] == [view["id"]]

    def test_http_errors_carry_protocol_bodies(self, served):
        client, _manager = served
        bad = tiny_spec().to_dict()
        bad["axes"]["process"] = ["no-such-process"]
        with pytest.raises(ServeError, match="no-such-process") as info:
            client.submit(bad)
        assert info.value.status == 400
        with pytest.raises(ServeError, match="unknown job") as info:
            client.status("0" * 16)
        assert info.value.status == 404
        view = client.submit(tiny_spec(name="serve no results yet"))
        client.wait(view["id"])
        with pytest.raises(ServeError, match="no such endpoint"):
            client._call(f"/jobs/{view['id']}/nope")

    def test_bad_specs_answer_400(self, served):
        client, manager = served
        removed = tiny_spec().to_dict()
        removed["axes"]["backend"] = ["shar" "ded-counts"]  # a deleted backend
        mistyped = {**tiny_spec().to_dict(), "cache": {"enabled": "false"}}
        bad_replica = {
            **tiny_spec().to_dict(),
            "record": {"metrics": ["bias"], "replica": 99},
        }
        coerced = [
            {**tiny_spec().to_dict(), key: value}
            for key, value in (
                ("repetitions", 2.5),
                ("workers", "3"),
                ("raise_on_limit", "false"),
                ("record", {"metrics": ["bias"], "stride": 2.7}),
            )
        ]
        for axis, value in (
            ("faults", {"crash": True}),
            ("adversary", {"name": "plant-invalid", "budget": 2.7}),
        ):
            payload = tiny_spec().to_dict()
            payload["axes"][axis] = [value]
            coerced.append(payload)
        coerced.append(
            {**tiny_spec().to_dict(), "execution": {"deadline_s": True}}
        )
        # LazyVoter(graph=None) runs, but TOML cannot hold the null.
        null_kwarg = tiny_spec().to_dict()
        null_kwarg["axes"]["process"] = [
            {"name": "lazy-voter", "kwargs": {"graph": None}}
        ]
        for payload in (removed, mistyped, bad_replica, null_kwarg, *coerced):
            with pytest.raises(ServeError) as info:
                client.submit(payload)
            assert info.value.status == 400, payload
        assert client.jobs() == []

    def test_non_positive_check_every_answers_400(self, served):
        client, _manager = served
        for check_every in (0, -3):
            payload = {**tiny_spec().to_dict(), "check_every": check_every}
            with pytest.raises(ServeError, match="check_every") as info:
                client.submit(payload)
            assert info.value.status == 400
        assert client.jobs() == []

    @pytest.mark.parametrize(
        "damage",
        [b"#" * 11, b"\xff" * 11, *_UNDECODABLE_STORES],
        ids=["bad-json", "bad-utf8", *_UNDECODABLE_STORES],
    )
    def test_damaged_store_answers_409(self, served, damage):
        client, manager = served
        view = client.submit(tiny_spec(name="serve damaged store"))
        client.wait(view["id"])
        path = manager.store_path(view["id"])
        if isinstance(damage, bytes):
            with open(path, "r+b") as handle:
                handle.seek(10)
                handle.write(damage)
        else:
            undecodable_store(path, damage)
        with pytest.raises(ServeError) as info:
            client.results(view["id"])
        assert info.value.status == 409
        assert path in str(info.value) and "re-run" in str(info.value)
        assert [job["id"] for job in client.jobs()] == [view["id"]]

    def test_negative_content_length_answers_400_promptly(self, served):
        client, _manager = served
        host, port = client.base_url.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=3.0)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()  # socket timeout if it hangs
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]

    def test_a_body_nested_past_the_recursion_limit_answers_400(self, served):
        """``json.loads`` raises ``RecursionError`` on 100,000 nested
        arrays; the server answers 400 instead of dropping the
        connection, and keeps serving."""
        client, _manager = served
        host, port = client.base_url.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        try:
            conn.request(
                "POST", "/jobs", body=b"[" * 100_000 + b"]" * 100_000,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "nested too deeply" in body["error"]
        assert client.jobs() == []

    def test_each_record_streams_as_its_checkpoint_lands(
        self, served, monkeypatch
    ):
        """A record event follows its cell's checkpoint at once: the
        stream wakes on the change, not on a timer."""
        client, _manager = served
        gates = {32: threading.Event(), 48: threading.Event()}

        def gated(plan):
            gate = gates.get(plan.initial.num_nodes)
            if gate is not None:
                gate.wait(30.0)
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", gated)
        try:
            view = client.submit(tiny_spec(name="serve wake"))
            to_release = [gates[32], gates[48]]
            gaps, released_at = [], None
            for event in client.events(view["id"]):
                if event["event"] != "record":
                    continue
                if released_at is not None:
                    gaps.append(time.perf_counter() - released_at)
                    released_at = None
                if to_release:
                    released_at = time.perf_counter()
                    to_release.pop(0).set()
        finally:
            for gate in gates.values():
                gate.set()
        assert len(gaps) == 2
        assert max(gaps) < 0.05, gaps

    def test_quiet_stream_still_pings(self, served, monkeypatch):
        client, _manager = served

        def slow_first(plan):
            if plan.initial.num_nodes == 24:
                time.sleep(0.4)
            return real_execute(plan)

        monkeypatch.setattr(server_module, "_PING_S", 0.05)
        monkeypatch.setattr(runner_module, "execute", slow_first)
        view = client.submit(tiny_spec(name="serve pings"))
        kinds = [event["event"] for event in client.events(view["id"], pings=True)]
        assert kinds[0] == "hello"
        assert "ping" in kinds[: kinds.index("record")]
        assert [kind for kind in kinds if kind != "ping"] == [
            "hello", "record", "record", "record", "done",
        ]

    def test_concurrent_watchers_lose_no_wakeup(self, served, monkeypatch):
        """More watchers than cores, attached before the first cell runs,
        threads switching often, and no heartbeat soon enough to rescue a
        missed change: every stream still carries each record once and
        ends with ``done``."""
        client, _manager = served
        attached = threading.Semaphore(0)
        release = threading.Event()

        def held_until_attached(plan):
            release.wait(30.0)
            return real_execute(plan)

        monkeypatch.setattr(server_module, "_PING_S", 60.0)
        monkeypatch.setattr(runner_module, "execute", held_until_attached)
        view = client.submit(tiny_spec(name="serve watchers", axes={
            "process": ["3-majority", "voter"],
            "n": [24, 32, 48],
            "rng_mode": ["per-replica"],
        }))

        def watch(out):
            for event in client.events(view["id"]):
                out.append(event)
                if event["event"] == "hello":
                    attached.release()

        streams = [[] for _ in range(4)]
        threads = [
            threading.Thread(target=watch, args=(out,), daemon=True)
            for out in streams
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in threads:
                assert attached.acquire(timeout=30.0)
            release.set()
            for thread in threads:
                thread.join(30.0)
        finally:
            release.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for events in streams:
            assert events[0]["event"] == "hello"
            assert events[-1]["event"] == "done"
            indexes = [e["index"] for e in events if e["event"] == "record"]
            assert sorted(indexes) == list(range(6))

    def test_change_between_poll_and_wait_is_not_lost(
        self, served, monkeypatch
    ):
        """The whole job lands after the handler reads the job's state
        and before it waits: the wait must return at once, not sleep
        until the next heartbeat."""
        client, manager = served
        release = threading.Event()

        def held(plan):
            release.wait(30.0)
            return real_execute(plan)

        real_state = manager.state

        def state_then_finish(job_id):
            state = real_state(job_id)
            if state not in proto.TERMINAL_STATES and not release.is_set():
                release.set()
                deadline = time.monotonic() + 30.0
                while real_state(job_id) not in proto.TERMINAL_STATES:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
            return state

        monkeypatch.setattr(server_module, "_PING_S", 60.0)
        monkeypatch.setattr(runner_module, "execute", held)
        view = client.submit(tiny_spec(name="serve race"))
        monkeypatch.setattr(manager, "state", state_then_finish)
        events = []
        watcher = threading.Thread(
            target=lambda: events.extend(client.events(view["id"])),
            daemon=True,
        )
        try:
            watcher.start()
            watcher.join(10.0)
        finally:
            release.set()
        assert not watcher.is_alive(), "the stream slept through the change"
        kinds = [event["event"] for event in events]
        assert kinds == ["hello", "record", "record", "record", "done"]


# ---------------------------------------------------------------------------
# JournalReader: the consistent-prefix invariant under a live writer
# ---------------------------------------------------------------------------


class TestJournalReader:
    def test_concurrent_reads_see_only_consistent_valid_prefixes(self, tmp_path):
        """Readers polling while run_study appends never see a torn,
        duplicated or reordered record — the /events invariant."""
        spec = tiny_spec(name="reader race", axes={
            "process": ["3-majority", "voter"],
            "n": [24, 32, 48],
            "rng_mode": ["per-replica"],
        })
        store_path = str(tmp_path / "race.json")
        reader = JournalReader(journal_path(store_path))
        seen = []
        errors = []
        done = threading.Event()

        def tail():
            try:
                while not done.is_set():
                    seen.extend(reader.poll())
                seen.extend(reader.poll())  # final drain
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=tail)
        thread.start()
        try:
            store = run_study(spec, store_path=store_path)
        finally:
            # Poll once more *before* compaction is visible? run_study
            # compacts at finish; the reader may or may not have drained
            # first — both must be consistent, never torn.
            done.set()
            thread.join(10.0)
        assert not errors
        ids = [record.cell_id for record in seen]
        assert len(ids) == len(set(ids)), "duplicate records surfaced"
        by_id = {record.cell_id: record for record in store.records()}
        for record in seen:
            assert record.same_results(by_id[record.cell_id])

    def test_partial_line_not_surfaced_until_complete(self, tmp_path):
        path = str(tmp_path / "s.json")
        jpath = journal_path(path)
        store = StudyStore(tiny_spec())
        header = _journal_line(
            {"kind": "repro-study-journal", "spec": tiny_spec().to_dict(),
             "spec_hash": store.spec_hash, "format_version": 4,
             "package_version": store.package_version}
        )
        record = RunRecord(
            cell_id="c" * 16, index=0, seed=5, params={},
            resolved_backend="counts", unit="rounds",
            times=np.array([3.0, 4.0]), stopped=np.array([True, True]),
        )
        from repro.study.store import _encode_record

        line = _journal_line({"record": _encode_record(record)})
        reader = JournalReader(jpath)
        with open(jpath, "wb") as handle:
            handle.write(header)
            handle.flush()
            assert reader.poll() == []  # header only: no records yet
            handle.write(line[: len(line) // 2])
            handle.flush()
            assert reader.poll() == []  # torn mid-record: invisible
            handle.write(line[len(line) // 2 :])
            handle.flush()
            polled = reader.poll()
        assert len(polled) == 1 and polled[0].same_results(record)
        assert reader.poll() == []  # nothing new

    def test_non_object_record_row_stops_the_reader(self, tmp_path):
        from repro.study.store import _encode_record

        spec = tiny_spec()
        reference = run_study(spec)
        jpath = journal_path(str(tmp_path / "s.json"))
        store = StudyStore(spec)
        with open(jpath, "wb") as handle:
            handle.write(_journal_line(store._journal_header()))
            for record in reference.records():
                handle.write(_journal_line({"record": _encode_record(record)}))
            # CRC-valid, so only the decoder can reject it.
            handle.write(_journal_line({"record": [1]}))
        reader = JournalReader(jpath)
        polled = reader.poll()
        assert len(polled) == len(reference)
        for record in polled:
            assert record.same_results(reference.get(record.cell_id))
        assert reader.poll() == []  # parked at the damage, never past it

    def test_journal_replacement_resets_reader(self, tmp_path):
        """Compaction unlinks the journal; a *fresh* (even longer) file
        must re-replay from its own header, not misalign mid-line."""
        path = str(tmp_path / "s.json")
        jpath = journal_path(path)
        spec = tiny_spec()
        reader = JournalReader(jpath)
        run_study(spec, store_path=path)  # journal compacted away
        assert reader.poll() == []
        os.remove(path)
        store = run_study(spec, store_path=path)  # brand-new journal lived
        # Mid-flight the new journal was a different inode; the reader
        # must have reset rather than resuming at a stale offset.
        assert reader.poll() == []  # compacted again by now
        assert load_study_store(path).results_equal(store)


# ---------------------------------------------------------------------------
# Satellite: graceful SIGTERM in run_study (subprocess)
# ---------------------------------------------------------------------------


class TestGracefulStop:
    def test_stop_event_checkpoints_and_marks_interrupted(self, tmp_path):
        spec = tiny_spec(name="stop event")
        path = str(tmp_path / "s.json")
        stop = threading.Event()
        store = run_study(
            spec, store_path=path,
            progress=lambda cell, record: stop.set(),
            stop_event=stop,
        )
        assert len(store) == 1 and store.interrupted
        assert not os.path.exists(journal_path(path)), "must compact cleanly"
        resumed = run_study(spec, store_path=path, resume=True)
        assert not resumed.interrupted
        assert resumed.results_equal(run_study(spec))

    def test_stop_before_first_cell_runs_nothing(self, tmp_path):
        stop = threading.Event()
        stop.set()
        store = run_study(tiny_spec(), store_path=str(tmp_path / "s.json"),
                          stop_event=stop)
        assert len(store) == 0 and store.interrupted

    def test_sigterm_mid_run_exits_zero_with_checkpoint(self, tmp_path):
        spec = tiny_spec(
            name="sigterm graceful",
            axes={
                "process": ["3-majority"],
                "n": [32, 48, 64, 80, 96, 128],
                "rng_mode": ["per-replica"],
            },
        )
        spec_path = str(tmp_path / "spec.toml")
        save_spec(spec, spec_path)
        store_path = str(tmp_path / "terminated.json")
        jpath = journal_path(store_path)
        child_src = (
            "import sys, time\n"
            "from repro import api\n"
            "store = api.study(sys.argv[1], store_path=sys.argv[2],\n"
            "                  progress=lambda cell, record: time.sleep(0.2))\n"
            "sys.exit(0 if store.interrupted else 3)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
        }
        for _attempt in range(5):
            child = subprocess.Popen(
                [sys.executable, "-c", child_src, spec_path, store_path], env=env
            )
            try:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if child.poll() is not None:
                        break
                    try:
                        with open(jpath, "rb") as handle:
                            if handle.read().count(b"\n") >= 2:
                                break
                    except FileNotFoundError:
                        pass
                    time.sleep(0.01)
                if child.poll() is None:
                    child.send_signal(signal.SIGTERM)
                    if child.wait(timeout=60.0) == 0:
                        break  # graceful: interrupted store, exit 0
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
            for stale in (store_path, jpath):  # lost the race: retry
                if os.path.exists(stale):
                    os.remove(stale)
        else:
            raise AssertionError("could not SIGTERM the study mid-run")

        assert os.path.exists(store_path), "graceful stop must compact"
        assert not os.path.exists(jpath)
        partial = load_study_store(store_path)
        assert 0 < len(partial) < spec.num_cells()
        resumed = run_study(spec, store_path=store_path, resume=True)
        assert resumed.results_equal(run_study(spec))


# ---------------------------------------------------------------------------
# Satellite: atomic cache stats counters
# ---------------------------------------------------------------------------


class TestCacheStatsAtomicity:
    def test_concurrent_flushes_lose_no_counts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        writers, per_writer = 8, 25

        def bump(seed):
            cache = ResultCache(cache_dir)
            for _ in range(per_writer):
                cache.hits += 1
                cache.misses += 2
                cache.flush()

        threads = [
            threading.Thread(target=bump, args=(i,)) for i in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = ResultCache(cache_dir).stats()
        assert stats["hits"] == writers * per_writer
        assert stats["misses"] == 2 * writers * per_writer

    def test_stats_survive_crc_damage(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        cache.hits = 5
        cache.flush()
        stats_path = os.path.join(cache_dir, "stats.jsonl")
        with open(stats_path, "ab") as handle:
            handle.write(b'{"crc": 12, "data": {"hits": 999')  # torn line
        cache.hits = 2
        cache.flush()  # glued onto the torn line: that line is lost too
        cache.hits = 3
        cache.flush()
        fresh = ResultCache(cache_dir)
        assert fresh.stats()["hits"] == 8  # damage skipped, never 999


# ---------------------------------------------------------------------------
# Satellite: compile-only validate
# ---------------------------------------------------------------------------


class TestValidateVerb:
    def test_validate_summary_matches_compile(self, tmp_path):
        spec = tiny_spec()
        summary = api.validate(spec)
        assert summary["spec_hash"] == spec_hash(spec)
        assert summary["num_cells"] == spec.num_cells() == 3
        assert [c["index"] for c in summary["cells"]] == [0, 1, 2]
        assert all("3-majority" in c["label"] for c in summary["cells"])
        spec_path = str(tmp_path / "spec.toml")
        save_spec(spec, spec_path)
        assert api.validate(spec_path) == summary

    def test_validate_rejects_whole_grid_eagerly(self):
        bad = tiny_spec().to_dict()
        bad["axes"]["n"] = [24, 32, -5]  # the *last* cell is broken
        with pytest.raises((KeyError, TypeError, ValueError)):
            api.validate(bad)

    def test_a_cell_no_backend_accepts_is_refused_at_validation(
        self, tmp_path, served
    ):
        """A recorded per-replica asynchronous spec compiles, but no
        registered backend executes its cells: ``validate``, the CLI and
        ``POST /jobs`` refuse it before anything runs."""
        spec = tiny_spec(
            name="recorded async",
            record={"metrics": ["num_colors"]},
            axes={
                "process": ["3-majority"],
                "n": [16, 24],
                "scheduler": ["asynchronous"],
                "rng_mode": ["per-replica"],
            },
        )
        with pytest.raises(ValueError, match="cell 0 .*no registered backend"):
            api.validate(spec)
        spec_path = str(tmp_path / "spec.toml")
        save_spec(spec, spec_path)
        with pytest.raises(SystemExit) as info:
            cli_main(["study", "validate", spec_path])
        assert str(info.value.code).startswith("invalid spec: cell 0")
        assert "\n" not in str(info.value.code)
        client, _manager = served
        with pytest.raises(ServeError) as info:
            client.submit(spec)
        assert info.value.status == 400
        assert "no registered backend" in str(info.value)
        assert client.jobs() == []

    def test_a_random_start_without_an_integer_rng_is_refused(
        self, tmp_path, served
    ):
        """A workload that draws its start needs an integer ``rng``
        kwarg, or one cell_id would mean a new start on every compile:
        ``validate``, the CLI and ``POST /jobs`` refuse it, naming the
        first cell that uses it."""
        def spec(**kwargs):
            return tiny_spec(
                name="random start",
                axes={
                    "process": ["3-majority"],
                    "n": [12, 16],
                    "workload": [
                        "singletons",
                        {"name": "random_composition", "kwargs": {"k": 3, **kwargs}},
                    ],
                },
            )

        for rng in ({}, {"rng": True}, {"rng": 7.0}, {"rng": "7"}):
            with pytest.raises(ValueError, match=r"^cell 2: .*integer 'rng'"):
                compile_study(spec(**rng))
        unseeded = spec()
        spec_path = str(tmp_path / "spec.toml")
        save_spec(unseeded, spec_path)
        with pytest.raises(SystemExit) as info:
            cli_main(["study", "validate", spec_path])
        assert str(info.value.code).startswith("invalid spec: cell 2: ")
        client, _manager = served
        with pytest.raises(ServeError) as info:
            client.submit(unseeded)
        assert info.value.status == 400 and "'rng'" in str(info.value)
        assert client.jobs() == []
        seeded = spec(rng=7)
        first, second = compile_study(seeded), compile_study(seeded)
        assert [c.plan.initial for c in first] == [c.plan.initial for c in second]
        assert api.validate(seeded)["num_cells"] == 4
