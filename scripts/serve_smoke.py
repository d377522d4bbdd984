#!/usr/bin/env python
"""Serve smoke: the daemon's full service contract, end to end.

The one scenario that cannot run comfortably inside pytest — a real
``kill -9`` of the *daemon* while it executes a submitted study — plus
the dedup/caching story, against the repo's headline experiment
(``studies/consensus_scaling.toml``):

Part A — foreground reference.  The spec runs in-process (no daemon,
no cache); this store is the bit-for-bit yardstick for everything the
service produces.

Part B — kill/restart durability.  A daemon subprocess starts on a
fresh state dir, the spec is submitted over HTTP, and the ndjson event
stream is followed until the first ``record`` lands — then the daemon
is SIGKILL'd (no ``finally``, no checkpointing courtesy), and the first
half of a valid line, without its newline, is appended to
``jobs.jsonl`` as a write torn by the kill would leave it.  A second
daemon on the *same* state dir must replay its job journal, re-enqueue
the in-flight job, finish it, and serve a result store
``results_equal`` to Part A's — while a reconnected watcher sees the
journal's valid prefix replayed plus the new records, no duplicates.
Afterwards every line of ``jobs.jsonl`` decodes and the file ends in a
newline: the torn half-line was cut, not appended after.

Part C — content-addressed dedup.  Resubmitting the finished spec
attaches to the done job (no recomputation); submitting a *renamed*
copy (new spec_hash, identical cells) completes entirely from the
state-dir result cache — 100% ``cache_hit`` records, results still
bit-for-bit the reference.  Five renamed copies run one after another,
and the median submit→``done`` time must stay under
``MAX_CACHED_JOB_S``: a fully cached job runs no simulation, only
``jobs.jsonl`` writes and a compaction, so anything slower means the
event stream is waiting on something other than the work.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import api
from repro.serve import ServeClient, ServeError
from repro.study import StudySpec, load_spec
from repro.study.store import _journal_line, _parse_journal_line

SPEC_PATH = os.path.join(
    os.path.dirname(__file__), "..", "studies", "consensus_scaling.toml"
)
#: Median submit→done seconds allowed for a fully cached headline job.
MAX_CACHED_JOB_S = 0.08
#: How many renamed, fully cached copies part C times.
CACHED_COPIES = 5


def start_daemon(state_dir: str) -> "tuple[subprocess.Popen, str]":
    """Launch ``repro serve`` on an ephemeral port; return (proc, url)."""
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", state_dir],
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
        },
        stdout=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = child.stdout.readline()
        match = re.search(r"listening on (http://\S+)", line or "")
        if match:
            return child, match.group(1)
        if child.poll() is not None:
            break
        time.sleep(0.01)
    raise AssertionError("daemon never announced its address")


def part_b_kill_restart(tmp: str, reference) -> str:
    state_dir = os.path.join(tmp, "state")
    daemon, url = start_daemon(state_dir)
    spec = load_spec(SPEC_PATH)
    try:
        client = ServeClient(url)
        view = client.submit(spec)
        job_id = view["id"]
        print(f"part B: submitted job {job_id} ({view['num_cells']} cells)")
        # Follow the stream just long enough to prove cells are landing,
        # then SIGKILL the daemon mid-run.
        streamed_before = 0
        for event in client.events(job_id):
            if event["event"] == "record":
                streamed_before += 1
                if streamed_before >= 1:
                    break
        assert streamed_before >= 1, "no record ever streamed"
    finally:
        daemon.send_signal(signal.SIGKILL)
        daemon.wait()
        daemon.stdout.close()
    print(f"part B: SIGKILL'd the daemon after {streamed_before} streamed record(s)")
    jobs_journal = os.path.join(state_dir, "jobs.jsonl")
    torn = _journal_line({"event": "state", "id": job_id, "state": "cancelled"})
    with open(jobs_journal, "ab") as handle:
        handle.write(torn[: len(torn) // 2])
    print(f"part B: tore jobs.jsonl with {len(torn) // 2} bytes of a half line")

    daemon, url = start_daemon(state_dir)
    try:
        client = ServeClient(url)
        resumed_view = client.status(job_id)
        assert resumed_view["state"] in ("queued", "running", "done"), resumed_view
        killed_mid_run = resumed_view["counts"]["ok"] < resumed_view["num_cells"]
        seen = []
        final = client.wait(job_id, progress=seen.append)
        assert final["state"] == "done", final
        ids = [event["cell_id"] for event in seen]
        assert len(ids) == len(set(ids)), "reattached stream duplicated records"
        store = client.results_store(job_id)
        assert store.results_equal(reference), (
            "restarted daemon's store diverged from the foreground run"
        )
        print(
            "part B: restart resumed the job "
            f"({'mid-run' if killed_mid_run else 'already complete'}; "
            f"{len(seen)} records on the reattached stream) — results "
            "bit-for-bit the foreground run"
        )
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait()
        daemon.stdout.close()
    with open(jobs_journal, "rb") as handle:
        raw = handle.read()
    assert raw.endswith(b"\n"), "jobs.jsonl does not end in a newline"
    lines = raw.splitlines(keepends=True)
    assert all(_parse_journal_line(line) is not None for line in lines), (
        "jobs.jsonl holds a line that does not decode"
    )
    print(f"part B: all {len(lines)} lines of jobs.jsonl decode after the restart")
    return state_dir, job_id


def part_c_dedup_and_cache(tmp: str, state_dir: str, job_id: str, reference):
    daemon, url = start_daemon(state_dir)
    spec = load_spec(SPEC_PATH)
    try:
        client = ServeClient(url)
        again = client.submit(spec)
        assert again["attached"] and again["id"] == job_id, again
        assert again["state"] == "done", again
        print("part C: resubmitting the finished spec attached (no recompute)")

        latencies = []
        for copy in range(1, CACHED_COPIES + 1):
            renamed = StudySpec.from_dict(
                {**spec.to_dict(), "name": f"consensus-scaling (smoke rename {copy})"}
            )
            submitted = time.perf_counter()
            view = client.submit(renamed)
            assert view["id"] != job_id, "rename should be a new content hash"
            final = client.wait(view["id"])
            latencies.append(time.perf_counter() - submitted)
            assert final["state"] == "done", final
            counts = final["counts"]
            assert counts["cached"] == counts["ok"] == view["num_cells"], counts
            store = client.results_store(view["id"])
            records = store.records()
            assert all(record.cache_hit for record in records)
            # results_equal compares spec hashes, which the rename changes
            # by design; the *records* (same cell_ids, same seeds) must match.
            assert len(records) == len(reference.records())
            assert all(
                mine.same_results(ref)
                for mine, ref in zip(records, reference.records())
            ), "cached records diverged"
        print(
            f"part C: {CACHED_COPIES} renamed specs each served "
            f"{counts['cached']}/{view['num_cells']} cells from the state-dir "
            "cache, bit-for-bit the reference"
        )
        median_s = statistics.median(latencies)
        print(
            f"part C: cached job submit->done median {median_s:.3f} s "
            f"(limit {MAX_CACHED_JOB_S} s; "
            + ", ".join(f"{t:.3f}" for t in latencies) + ")"
        )
        assert median_s <= MAX_CACHED_JOB_S, (
            f"cached job took {median_s:.3f} s submit->done (median of "
            f"{CACHED_COPIES}), over the {MAX_CACHED_JOB_S} s limit"
        )
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait()
        daemon.stdout.close()


def main() -> None:
    reference = api.study(SPEC_PATH)
    print(f"part A: foreground reference run complete ({len(reference)} cells)")
    with tempfile.TemporaryDirectory() as tmp:
        state_dir, job_id = part_b_kill_restart(tmp, reference)
        part_c_dedup_and_cache(tmp, state_dir, job_id, reference)
    print(
        "serve-smoke OK: SIGKILL'd daemon resumed bit-for-bit on restart; "
        "dedup attached; renamed specs at 100% cache hits, within the "
        "latency limit"
    )


if __name__ == "__main__":
    main()
