"""The daemon's job queue: a single-writer executor over ``run_cells``.

:class:`JobManager` owns everything stateful about the service:

* the job table (id → :class:`Job`), keyed by ``spec_hash`` so
  submission is idempotent and dedup is content-addressed.  ``submit``
  compiles the spec and resolves its cells once — that is the
  validation — and the job carries those cells to the executor, which
  drops them when the run ends.  A job's counts are read from its store
  when a daemon replays the journal, and again when each run ends; a
  run starts without the failed and timed-out tallies, since it
  re-attempts those cells;
* a FIFO queue drained by ONE executor thread — the store layer's
  single-writer discipline, lifted to the service: however many HTTP
  threads accept submissions, exactly one ``run_cells`` runs at a time,
  its cells one after another (a spec's ``[execution] deadline_s``
  holds here too, off the main thread).  The executor blocks on the
  queue with no timeout;
* a change counter guarded by a :class:`threading.Condition` on the
  manager's lock.  It goes up after every journaled state change and
  after every checkpointed record, and :meth:`JobManager.wait_for_change`
  blocks until it moves — so ``/events`` streams wake on the change
  they report instead of on a timer.  The counter carries no data:
  watchers still read records from the store journal;
* the state directory::

      <state_dir>/jobs.jsonl             # the job journal (CRC lines)
      <state_dir>/stores/<id>.store.json # one study store per job
      <state_dir>/cache/                 # shared result cache (default)

The job journal is a store journal under its own header kind, adopted
and appended by the store journal's own steps, so a killed daemon
restarted on the same state dir replays the valid prefix, truncates
any torn tail, and re-enqueues every job that was ``queued`` /
``running`` / ``interrupted`` — in original submission order.  Its
header is durable with the first submit's fsync.  Each append is one
write: a new job's ``submitted`` and ``queued`` lines go out together,
fsync'd before ``submit`` returns (a kill inside that
write replays as no job or as a queued one), and every later state
change is fsync'd as it lands — except ``running``, which replays
exactly as ``queued`` does and so becomes durable with the job's next
fsync'd line.  The *result* durability is the store journal's:
``run_cells`` with ``resume=True`` completes each re-enqueued job
bit-for-bit.  A job of k cells served wholly from the result cache thus
costs one compile and 5 fsyncs: the submit, one for its k records (a
run of hits is one journal write), two for the compacted store (the
file, then its directory) and ``done``.  A job that simulates its k
cells does k + 4.

Graceful shutdown puts a ``None`` sentinel on the queue (waking an
idle executor) and sets the running job's stop event; ``run_cells``
checkpoints the cell in flight, the job lands as ``interrupted``, and
the next daemon on this state dir picks it back up along with every
job still queued.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, field
from typing import Mapping

from ..study import StudySpec, compile_study, spec_hash
from ..study.compile import _resolve_cells
from ..study.runner import run_cells
from ..study.store import (
    _UNDECODABLE,
    _adopt_journal,
    _append_journal,
    journal_path,
    load_study_store,
)
from .protocol import ACTIVE_STATES, JOB_STATES, PROTOCOL_VERSION, envelope

__all__ = ["Job", "JobManager"]

_JOBS_KIND = "repro-serve-jobs"

_ZERO_COUNTS = {"ok": 0, "failed": 0, "timeout": 0, "degraded": 0, "cached": 0}


@dataclass
class Job:
    """One submitted spec and its current service-side state."""

    id: str
    spec: StudySpec = field(repr=False)
    num_cells: int
    state: str = "queued"
    error: "str | None" = None
    #: Per-cell status tallies (``degraded``/``cached`` overlap ``ok``).
    counts: dict = field(default_factory=lambda: dict(_ZERO_COUNTS))
    #: Set to ask the executor (or ``run_cells``) to stop this job.
    stop: threading.Event = field(default_factory=threading.Event, repr=False)
    cancelled: bool = False
    #: The cells ``submit`` compiled, until the executor takes them for
    #: the run; ``None`` for a job replayed from the journal.
    cells: "list | None" = field(default=None, repr=False)

    def view(self) -> dict:
        """The protocol-stamped status payload for this job."""
        return envelope(
            {
                "id": self.id,
                "name": self.spec.name,
                "state": self.state,
                "num_cells": int(self.num_cells),
                "counts": dict(self.counts),
                "error": self.error,
            }
        )


class JobManager:
    """Durable FIFO of study jobs with a single executor thread."""

    def __init__(
        self,
        state_dir: str,
        *,
        cache=True,
        deadline_s: "float | None" = None,
        max_attempts: "int | None" = None,
    ):
        self.state_dir = state_dir
        self._stores_dir = os.path.join(state_dir, "stores")
        os.makedirs(self._stores_dir, exist_ok=True)
        self._journal_file = os.path.join(state_dir, "jobs.jsonl")
        # ``cache=True`` keeps the cache *inside* the state dir: a
        # resubmitted finished spec replays at 100% hits without ever
        # touching (or polluting) the user's shared ~/.cache/repro.
        if cache is True:
            cache = os.path.join(state_dir, "cache")
        self._cache = cache
        self._deadline_s = deadline_s
        self._max_attempts = max_attempts

        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._changes = 0  # bumped by _notify; see wait_for_change
        self._jobs: "dict[str, Job]" = {}
        self._order: "list[str]" = []  # submission order, for replay
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._shutdown = threading.Event()
        self._thread: "threading.Thread | None" = None

        # Rebuild the job table from the journal's valid prefix.
        events, self._handle = _adopt_journal(
            self._journal_file,
            {"kind": _JOBS_KIND, "protocol": PROTOCOL_VERSION},
            decode=lambda event: event,
        )
        for event in events:
            self._apply(event)
        for job_id in self._order:
            job = self._jobs[job_id]
            job.counts = self._counts_from_disk(job_id)
            if job.state in ("queued", "running", "interrupted"):
                # A killed daemon's in-flight work: re-enqueue with a
                # fresh journaled 'queued' so the file replays the same
                # way next time.
                self._set_state(job, "queued")
                self._queue.put(job_id)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the executor thread (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain, name="repro-serve-executor", daemon=True
                )
                self._thread.start()

    def close(self) -> None:
        """Graceful shutdown: checkpoint the running job, then stop.

        The running job's stop event makes ``run_cells`` finish the cell
        in flight, journal it, and return with ``interrupted=True``; the
        job lands as ``interrupted`` and a restarted daemon resumes it.
        """
        self._shutdown.set()
        self._queue.put(None)  # wake an idle executor
        with self._lock:
            for job in self._jobs.values():
                if job.state == "running":
                    job.stop.set()
            thread = self._thread
        if thread is not None:
            thread.join()
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # -- the journal -------------------------------------------------------

    def _apply(self, data: dict) -> None:
        """One replayed journal event → the in-memory job table."""
        try:
            event = data["event"]
            if event == "submitted":
                spec = StudySpec.from_dict(data["spec"])
                job_id = data["id"]
                if job_id not in self._jobs:
                    self._jobs[job_id] = Job(
                        id=job_id, spec=spec, num_cells=int(data["num_cells"])
                    )
                    self._order.append(job_id)
            elif event == "state":
                job = self._jobs.get(data["id"])
                if job is not None and data["state"] in JOB_STATES:
                    job.state = data["state"]
                    job.error = data.get("error")
        except _UNDECODABLE:
            # A malformed-but-CRC-valid line means a newer (or buggy)
            # writer; skipping it degrades to recomputing that job.
            return

    def _set_state(
        self,
        job: Job,
        state: str,
        error: "str | None" = None,
        *,
        submitted: "dict | None" = None,
    ) -> None:
        """Journal the job's new state (after ``submitted``, in one write).

        ``running`` is not fsync'd: a replayed ``running`` job is
        re-enqueued exactly as a ``queued`` one, so losing the line
        loses nothing.
        """
        job.state = state
        job.error = error
        events = [] if submitted is None else [submitted]
        events.append({"event": "state", "id": job.id, "state": state, "error": error})
        _append_journal(self._handle, *events, sync=state != "running")
        self._notify()

    # -- change notification ----------------------------------------------

    def _notify(self) -> None:
        """Count one change and wake every :meth:`wait_for_change` caller.

        Takes the lock itself: ``__init__`` re-enqueues replayed jobs
        without holding it, and ``notify_all`` needs it held.
        """
        with self._changed:
            self._changes += 1
            self._changed.notify_all()

    def changes(self) -> int:
        """The change counter's current value (read it before polling)."""
        with self._lock:
            return self._changes

    def wait_for_change(self, seen: int, timeout: float) -> int:
        """Block until the counter moves off ``seen``; return its value.

        Returns after ``timeout`` seconds when nothing changed.  Pass
        the value read *before* the poll just made: a change that landed
        between that poll and this call returns at once.
        """
        with self._changed:
            self._changed.wait_for(lambda: self._changes != seen, timeout)
            return self._changes

    # -- paths and derived views ------------------------------------------

    def store_path(self, job_id: str) -> str:
        """The job's study-store path inside the state dir."""
        return os.path.join(self._stores_dir, f"{job_id}.store.json")

    def _counts_from_disk(self, job_id: str) -> dict:
        """Recount per-cell statuses from the checkpointed store."""
        counts = dict(_ZERO_COUNTS)
        try:
            store = load_study_store(self.store_path(job_id))
        except (OSError, KeyError, ValueError):
            return counts
        for record in store.records():
            self._tally(counts, record)
        return counts

    @staticmethod
    def _tally(counts: dict, record) -> None:
        counts[record.status] = counts.get(record.status, 0) + 1
        if record.cache_hit:
            counts["cached"] += 1
        if record.degraded_from:
            counts["degraded"] += 1

    # -- the client-facing surface ----------------------------------------

    def submit(self, spec_payload: Mapping) -> dict:
        """Validate, dedup and enqueue one spec; return the job view.

        Raises the compiler's (and the backend registry's) ``ValueError``/
        ``KeyError``/``TypeError`` unchanged for invalid specs — the
        server maps those to 400.
        """
        spec = StudySpec.from_dict(spec_payload)
        # Eager whole-grid validation, backends too; the job runs these.
        cells = compile_study(spec)
        _resolve_cells(cells)
        job_id = spec_hash(spec)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.state in ACTIVE_STATES:
                view = job.view()
                view["attached"] = True
                return view
            if job is None:
                job = Job(id=job_id, spec=spec, num_cells=len(cells))
                self._jobs[job_id] = job
                self._order.append(job_id)
                # One write and one fsync before the acknowledgement.
                self._set_state(job, "queued", submitted={
                    "event": "submitted",
                    "id": job_id,
                    "spec": spec.to_dict(),
                    "num_cells": len(cells),
                })
            else:
                # failed / cancelled / interrupted: re-enqueue; the
                # executor resumes the checkpointed store bit-for-bit.
                job.cancelled = False
                job.stop = threading.Event()
                self._set_state(job, "queued")
            job.cells = cells
            self._queue.put(job_id)
            view = job.view()
            view["attached"] = False
            return view

    def view(self, job_id: str) -> dict:
        """The job's status payload; raises ``KeyError`` when unknown."""
        with self._lock:
            return self._jobs[job_id].view()

    def views(self) -> "list[dict]":
        """All jobs, in submission order."""
        with self._lock:
            return [self._jobs[job_id].view() for job_id in self._order]

    def state(self, job_id: str) -> str:
        with self._lock:
            return self._jobs[job_id].state

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued or running job; terminal states are no-ops."""
        with self._lock:
            job = self._jobs[job_id]
            if job.state == "queued":
                job.cancelled = True
                self._set_state(job, "cancelled")
            elif job.state == "running":
                job.cancelled = True
                job.stop.set()  # the executor journals the state change
            return job.view()

    # -- the executor ------------------------------------------------------

    def _drain(self) -> None:
        while not self._shutdown.is_set():
            job_id = self._queue.get()
            if job_id is None:
                return  # close()'s wake-up; queued jobs replay next start
            with self._lock:
                job = self._jobs[job_id]
                cells, job.cells = job.cells, None
                if job.cancelled or job.state != "queued":
                    continue  # cancelled while queued (already journaled)
                job.stop = threading.Event()
                if self._shutdown.is_set():
                    # Too late to start: leave it for the next daemon.
                    self._set_state(job, "interrupted")
                    continue
                # run_cells re-attempts every non-ok cell and progress
                # tallies each new record, so drop the old non-ok tallies.
                job.counts["failed"] = job.counts["timeout"] = 0
                self._set_state(job, "running")
            self._run(job, cells)

    def _run(self, job: Job, cells: "list | None") -> None:
        """Run the job's ``cells`` (compiling them for a replayed job).

        The cells live only as long as this call: a finished job keeps
        no compiled plans.
        """
        def progress(cell, record) -> None:
            # run_cells calls this after the record's journal line is
            # fsync'd, so a woken /events reader finds it on disk.
            with self._lock:
                self._tally(job.counts, record)
                self._notify()

        try:
            if cells is None:
                cells = compile_study(job.spec)
            store = run_cells(
                job.spec,
                cells,
                store_path=self.store_path(job.id),
                resume=True,
                progress=progress,
                on_error="record",
                cache=self._cache,
                deadline_s=self._deadline_s,
                max_attempts=self._max_attempts,
                stop_event=job.stop,
            )
        except Exception as exc:  # the runner itself failed
            with self._lock:
                job.counts = self._counts_from_disk(job.id)
                self._set_state(job, "failed", error=f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            job.counts = dict(_ZERO_COUNTS)
            for record in store.records():
                self._tally(job.counts, record)
            if job.cancelled:
                self._set_state(job, "cancelled")
            elif store.interrupted:
                self._set_state(job, "interrupted")
            elif store.is_complete():
                self._set_state(job, "done")
            else:
                broken = [r for r in store.records() if not r.ok]
                self._set_state(
                    job,
                    "failed",
                    error=(
                        f"{len(broken)} of {job.num_cells} cells broken "
                        "(resubmit to re-attempt them)"
                    ),
                )

    # -- results -----------------------------------------------------------

    def journal_path(self, job_id: str) -> str:
        """The job store's live sidecar journal (the /events tail)."""
        return journal_path(self.store_path(job_id))

    def load_store(self, job_id: str):
        """The job's checkpointed store.

        Raises ``FileNotFoundError`` before the first checkpoint and
        :class:`~repro.study.store.StoreCorruptError` for a damaged file.
        """
        return load_study_store(self.store_path(job_id))
