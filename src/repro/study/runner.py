"""Execute compiled study cells through the unified runtime, supervised.

``run_study`` is the one loop every experiment suite now goes through:
compile the spec, skip cells an existing store already covers, resolve
each remaining cell's backend once
(:func:`repro.engine.runtime.resolve_backend`) and execute the cell on
it, and journal each simulated record the moment it exists (a run of
cache hits in one write, or with the compaction) so an interrupted run
loses at most the cell in flight.

Supervision (the :class:`~repro.study.policy.ExecutionPolicy`):

* **Deadlines** — :func:`_execute_within` stops waiting for any attempt
  that runs past ``deadline_s``.  On the main thread ``SIGALRM``
  interrupts the attempt itself (even a tight numpy loop); off it (every
  ``repro serve`` job) the attempt runs on a daemon thread that is
  written off at the deadline.  The cell lands as ``status="timeout"``
  and the run moves on; ``resume`` re-attempts it.
* **Classified retries** — a raising cell is retried only when retrying
  can help: *transient* substrate faults (OOM, OSError) back off
  deterministically (:func:`~repro.study.policy.backoff_delay`)
  and retry on a jittered sub-seed; deterministic *fatal* config errors
  fail fast with a single attempt; everything else keeps the historical
  retry behaviour.
* **Degradation** — when transient retries exhaust on an ensemble or
  kernel backend, the plan re-resolves down the capability ladder
  (``ensemble-* → sequential``, ``kernel-* → sequential``), and the
  record's ``degraded_from`` field keeps the provenance honest.  The
  per-replica rng contract makes a per-replica plan's degraded result
  bit-for-bit identical; a batched plan keeps its law, not its samples,
  because the sequential rung consumes the shared stream differently.

Failure isolation: with the default ``on_error="record"`` a cell that
still fails after all that lands in the store as a ``status="failed"``
record carrying the exception type, message, traceback, attempt count
and per-attempt wall times.  The run continues with the next cell;
``repro study report`` summarises the failures, and ``resume=True``
re-attempts exactly the failed/timed-out/missing cells.

Resume is bit-for-bit by construction: each cell's seed derives from the
spec seed and the cell *index* (never from execution order), so the
records a resumed run adds are exactly the records the uninterrupted run
would have produced — enforced by ``tests/test_study.py`` and the
``study-smoke`` / ``faults-smoke`` / ``supervision-smoke`` steps of
``scripts/check.sh``.

Graceful interruption
---------------------

``run_study`` stops *cleanly* on ``SIGTERM`` / ``SIGINT`` (main thread)
or when a caller-supplied ``stop_event`` is set (any thread — this is
how the ``repro serve`` daemon winds a job down): the cell in flight
finishes and its journal record is checkpointed, no new cell starts, the
journal compacts as usual, and the returned store carries
``interrupted=True`` so callers can exit 0 with a "resume to continue"
message instead of relying on crash-safety for an ordinary Ctrl-C.  A
*second* signal skips the courtesy and raises ``KeyboardInterrupt``
(the historical behaviour — crash-safety still bounds the damage to the
record in flight).

The result cache
----------------

Cells run one after another through the
:class:`~repro.study.scheduler.CellScheduler` loop on the calling
thread, which is the store's single writer.  With a cache enabled
(:mod:`repro.study.cache`), every pending cell is looked up before it is
dispatched — a hit is stamped ``cache_hit=True`` and never simulates —
and every fresh clean record is memoized for the next overlapping study.
A run of consecutive hits before a miss lands as one journal write and
one fsync before that miss is simulated; the hits after the last
simulated cell (in a warm rerun, every hit) land with the compaction
that ends the run, and write no journal.  ``progress`` fires for a hit
once the fsync covering it returns.  A kill inside either write loses
only hits, which a resume replays from the cache.
"""

from __future__ import annotations

import copy
import os
import signal
import threading
import time
import traceback
from dataclasses import replace
from functools import partial
from typing import Callable

import numpy as np

from ..engine.rng import derive_seed
from ..engine.runtime import degradation_ladder, get_backend, resolve_backend
from .cache import resolve_cache
from .compile import StudyCell, compile_study
from .policy import (
    CellDeadlineExceeded,
    ExecutionPolicy,
    backoff_delay,
    classify_error,
    resolve_policy,
)
from .scheduler import CellScheduler
from .spec import StudySpec, spec_hash
from .store import RunRecord, StudyStore, journal_path, load_study_store

__all__ = ["run_cells", "run_study"]

_ON_ERROR = ("record", "raise")


class _GracefulStop:
    """SIGTERM/SIGINT → a cooperative stop flag, while a study runs.

    Installed only on the main thread (signals are undeliverable
    elsewhere; daemon-driven studies pass a ``stop_event`` instead).  The
    first signal sets the event — the runner checkpoints the in-flight
    record and stops scheduling new cells; a second signal raises
    :class:`KeyboardInterrupt` immediately for users who really mean it.
    The previous handlers are restored on exit, so nested or subsequent
    runs (and pytest) see the interpreter's defaults again.
    """

    def __init__(self, stop_event: threading.Event):
        self._stop = stop_event
        self._previous: "dict[int, object]" = {}

    def _handler(self, signum, _frame):
        if self._stop.is_set():
            raise KeyboardInterrupt(signal.Signals(signum).name)
        self._stop.set()

    def __enter__(self):
        if threading.current_thread() is not threading.main_thread():
            return self
        for name in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, name, None)
            if signum is None:
                continue
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        return False


def execute(plan):
    """Run ``plan`` on the backend its ``backend`` field names: each cell
    is resolved once, and :func:`_attempt_plan` pins its plans to it."""
    return get_backend(plan.backend).execute(plan)


def _execute_within(plan, deadline_s: "float | None"):
    """``execute(plan)``, raising :class:`CellDeadlineExceeded` past the budget.

    On the main thread ``SIGALRM`` (via ``setitimer``) interrupts
    *anything* — even a tight numpy inner loop — by raising right in the
    cell's frame.  Signals are unavailable off the main thread, so there
    the attempt runs on a daemon thread that is joined for at most
    ``deadline_s``; past it the attempt is written off — left running
    where it can block neither the study nor interpreter exit.
    """
    if deadline_s is None:
        return execute(plan)
    if (
        threading.current_thread() is threading.main_thread()
        and hasattr(signal, "SIGALRM")
    ):
        def alarm(_signum, _frame):
            raise CellDeadlineExceeded(deadline_s)

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            return execute(plan)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    outcome: dict = {}

    def attempt():
        try:
            outcome["result"] = execute(plan)
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=attempt, name="repro-cell-attempt", daemon=True)
    thread.start()
    thread.join(deadline_s)
    if thread.is_alive():
        raise CellDeadlineExceeded(deadline_s)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def _attempt_plan(cell: StudyCell, attempt: int, backend: str):
    """The plan for retry ``attempt`` (0 = the pristine compiled plan),
    pinned to the registered ``backend`` already resolved for it.

    Retries jitter the rng with a sub-seed derived from the cell seed and
    the attempt number — deterministic (a re-run retries with the same
    streams) but decorrelated from the failing attempt, so a failure tied
    to one sample path does not repeat verbatim.  Every attempt records
    into its own copy of the cell's (never used) recorder, so rounds a
    failed attempt observed stay out of the record.
    """
    plan = replace(cell.plan, backend=backend)
    if attempt:
        plan = replace(plan, rng=derive_seed(cell.params["seed"], attempt))
    if plan.recorder is not None:
        plan = replace(plan, recorder=copy.deepcopy(plan.recorder))
    return plan


def _success_record(
    cell: StudyCell,
    result,
    wall_time: float,
    degraded_from: "str | None" = None,
) -> RunRecord:
    trajectory = None
    if result.plan.recorder is not None:
        trajectory = {
            key: [float(v) for v in series]
            for key, series in result.plan.recorder.as_dict().items()
        }
    extras = None
    raw = result.raw
    if cell.plan.adversary is not None and hasattr(raw, "winner_is_valid"):
        extras = {
            "winning_color": [int(v) for v in raw.winning_color],
            "winning_fraction": [float(v) for v in raw.winning_fraction],
            "winner_is_valid": [bool(v) for v in raw.winner_is_valid],
            "valid_almost_all_consensus": [
                bool(v) for v in raw.valid_almost_all_consensus
            ],
        }
    return RunRecord(
        cell_id=cell.cell_id,
        index=cell.index,
        seed=int(cell.params["seed"]),
        params=cell.params,
        resolved_backend=result.backend,
        unit=result.unit,
        times=np.asarray(result.times, dtype=np.int64),
        stopped=np.asarray(result.stopped, dtype=bool),
        wall_time_s=wall_time,
        trajectory=trajectory,
        extras=extras,
        degraded_from=degraded_from,
    )


def _error_dict(
    exc: BaseException, attempts: int, attempt_walls: "list[float]"
) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "attempts": attempts,
        "attempt_walls_s": [float(w) for w in attempt_walls],
    }


def _unrun_record(
    cell: StudyCell, status: str, wall_time: float, error: dict
) -> RunRecord:
    """A record for a cell that produced no results (failed or timed out)."""
    return RunRecord(
        cell_id=cell.cell_id,
        index=cell.index,
        seed=int(cell.params["seed"]),
        params=cell.params,
        resolved_backend="-",
        unit="-",
        times=np.zeros(0, dtype=np.int64),
        stopped=np.zeros(0, dtype=bool),
        wall_time_s=wall_time,
        status=status,
        error=error,
    )


def _timeout_record(
    cell: StudyCell,
    exc: CellDeadlineExceeded,
    attempts: int,
    attempt_walls: "list[float]",
    wall_time: float,
) -> RunRecord:
    error = _error_dict(exc, attempts, attempt_walls)
    error["deadline_s"] = float(exc.deadline_s)
    return _unrun_record(cell, "timeout", wall_time, error)


def _try_degrade(
    cell: StudyCell,
    resolved_name: str,
    policy: ExecutionPolicy,
    attempt_walls: "list[float]",
) -> "RunRecord | None":
    """Walk the capability ladder below ``resolved_name``; None if no rung ran.

    The fallback plan keeps the *pristine* rng (attempt 0): for a
    per-replica plan the degraded result is bit-for-bit the record the
    original backend would have produced; a batched plan keeps its law
    only.
    """
    for fallback in degradation_ladder(resolved_name):
        fb_plan = _attempt_plan(cell, 0, fallback)
        if not get_backend(fallback).supports(fb_plan):
            continue
        start = time.perf_counter()
        try:
            result = _execute_within(fb_plan, policy.deadline_s)
        except Exception:
            attempt_walls.append(time.perf_counter() - start)
            continue
        attempt_walls.append(time.perf_counter() - start)
        return _success_record(
            cell, result, sum(attempt_walls), degraded_from=resolved_name
        )
    return None


def _record_cell(
    cell: StudyCell, on_error: str, policy: ExecutionPolicy
) -> RunRecord:
    """Run one cell under the policy and capture its outcome plus provenance.

    With ``on_error="record"`` every exception is caught: transient and
    unknown errors are retried up to ``policy.max_attempts`` total
    attempts (later attempts on jittered sub-seeds, after a deterministic
    backoff), fatal errors are not retried, exhausted transient failures
    try the degradation ladder, and whatever remains becomes a
    ``status="failed"`` (or ``"timeout"``) record instead of propagating.

    ``on_error="raise"`` propagates the first error immediately and never
    retries — but the deadline still applies, so imperative callers get
    hang protection too.
    """
    if on_error == "raise":
        start = time.perf_counter()
        plan = _attempt_plan(cell, 0, resolve_backend(cell.plan).spec.name)
        result = _execute_within(plan, policy.deadline_s)
        return _success_record(cell, result, time.perf_counter() - start)

    # Resolve the backend once, up front: a resolution error is a config
    # error (fail fast), every attempt runs on the backend it names, and
    # the name anchors the degradation ladder.
    try:
        resolved_name = resolve_backend(cell.plan).spec.name
    except Exception as exc:
        return _unrun_record(cell, "failed", 0.0, _error_dict(exc, 1, [0.0]))

    attempt_walls: "list[float]" = []
    last_exc = None
    last_kind = None
    attempts = 0
    for attempt in range(policy.max_attempts):
        attempts = attempt + 1
        start = time.perf_counter()
        try:
            result = _execute_within(
                _attempt_plan(cell, attempt, resolved_name), policy.deadline_s
            )
        except CellDeadlineExceeded as exc:
            attempt_walls.append(time.perf_counter() - start)
            # A hang would burn the whole budget again: record the
            # timeout now and let `resume` re-attempt it later.
            return _timeout_record(
                cell, exc, attempts, attempt_walls, sum(attempt_walls)
            )
        except Exception as exc:
            attempt_walls.append(time.perf_counter() - start)
            last_exc = exc
            last_kind = classify_error(exc)
            if last_kind == "fatal":
                break
            if attempt + 1 < policy.max_attempts:
                delay = backoff_delay(
                    policy, int(cell.params["seed"]), attempt + 1
                )
                if delay > 0.0:
                    time.sleep(delay)
            continue
        attempt_walls.append(time.perf_counter() - start)
        return _success_record(cell, result, sum(attempt_walls))

    if last_kind == "transient" and policy.degrade:
        record = _try_degrade(cell, resolved_name, policy, attempt_walls)
        if record is not None:
            return record
    return _unrun_record(
        cell,
        "failed",
        sum(attempt_walls),
        _error_dict(last_exc, attempts, attempt_walls),
    )


def run_study(spec: StudySpec, **options) -> StudyStore:
    """Compile ``spec`` and execute its cells: :func:`run_cells` on
    :func:`~repro.study.compile.compile_study`'s output, with the same
    keyword ``options``."""
    return run_cells(spec, compile_study(spec), **options)


def run_cells(
    spec: StudySpec,
    cells: "list[StudyCell]",
    *,
    store_path: "str | None" = None,
    resume: bool = False,
    max_cells: "int | None" = None,
    progress: "Callable[[StudyCell, RunRecord], None] | None" = None,
    on_error: str = "record",
    max_attempts: "int | None" = None,
    policy: "ExecutionPolicy | None" = None,
    deadline_s: "float | None" = None,
    cache=None,
    stop_event: "threading.Event | None" = None,
) -> StudyStore:
    """Execute a study's compiled cells; optionally checkpoint and resume.

    Parameters
    ----------
    spec:
        The declarative study to run.
    cells:
        ``compile_study(spec)``, compiled once by the caller: the
        ``repro serve`` daemon compiles a spec when it validates the
        submission and runs those cells.  The returned store's
        :attr:`~repro.study.store.StudyStore.cell_ids` come from them.
    store_path:
        Where to checkpoint results.  Each simulated cell, and each run
        of consecutive cache hits before a simulated cell, appends its
        lines to a sidecar journal (``<store_path>.journal.jsonl``) in
        one write and one fsync — O(record) bytes, crash-safe at any
        byte offset — and the journal compacts into the columnar JSON
        at ``store_path`` when the run finishes (or raises).  The hits
        after the last simulated cell land with that compaction alone,
        so a run of nothing but hits creates no journal.  ``None``
        keeps the store in memory only.
    resume:
        ``False`` starts fresh (and refuses to clobber an existing store
        or journal at ``store_path``); ``True`` loads ``store_path`` —
        base JSON, leftover journal, or both — if present and completes
        only the missing cells, plus any cells previously recorded as
        failed or timed out, which are re-attempted and replaced in
        place.  Only the loaded records whose ``cell_id`` belongs to a
        compiled cell are kept, so a store written when a cell's id was
        another (ids can move between versions) resumes to one record
        per cell, and its compaction drops the stale one.  A store whose
        ``spec_hash`` differs from ``spec``'s is rejected, and so is
        another study's journal left at ``store_path``, before anything
        is written — resuming a *different* study is always an error,
        never silent data mixing.  Any value but a bool is a
        ``TypeError``, raised first.
    max_cells:
        Execute at most this many *new* cells, then return (the
        programmatic interruption used by the resume tests and the
        ``--max-cells`` CLI knob for budgeted sessions).
    progress:
        Optional callback invoked for each landed record — simulated or
        a cache hit — once the fsync covering it returns: its journal
        line's, or for the hits after the last simulated cell, the
        compacted store's directory fsync (without a ``store_path``,
        once the run ends).  Calls come in cell order.
    on_error:
        ``"record"`` (default) isolates failures: a cell that raises is
        retried per the policy and, failing that, recorded as
        ``status="failed"`` (or ``"timeout"``) with its traceback while
        the run continues.  ``"raise"`` propagates the first error
        immediately (the pre-v2 behaviour).
    max_attempts, deadline_s:
        Convenience overrides patched onto the resolved policy (the CLI
        flags); ``None`` leaves the policy's own values in force.
    policy:
        An explicit :class:`ExecutionPolicy`.  Precedence: this argument,
        else the spec's ``[execution]`` table, else the defaults — then
        the ``max_attempts`` / ``deadline_s`` overrides.
    cache:
        The content-addressed result cache
        (:mod:`repro.study.cache`).  ``None`` defers to the spec's
        ``[cache]`` table (default: off); ``False`` (``--no-cache``)
        forces caching off; ``True`` enables it in the shared default
        directory; a string names the directory; a
        :class:`~repro.study.cache.ResultCache` is used as-is.  Hits
        are stamped ``cache_hit=True``; ``results_equal`` ignores the
        stamp.
    stop_event:
        A :class:`threading.Event` that requests a graceful stop: the
        cell in flight completes and is checkpointed, no further cell
        starts, and the returned store has ``interrupted=True`` when
        cells remain.  ``SIGTERM``/``SIGINT`` set the same flag when the
        run owns the main thread (see :class:`_GracefulStop`); the
        ``repro serve`` daemon sets it from its shutdown and cancel
        paths.
    """
    if not isinstance(resume, bool):
        raise TypeError(f"resume must be a bool, got {resume!r}")
    if max_cells is not None and max_cells < 1:
        raise ValueError("max_cells must be positive")
    if on_error not in _ON_ERROR:
        raise ValueError(f"on_error must be one of {_ON_ERROR}, got {on_error!r}")
    if max_attempts is not None and max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    live_policy = resolve_policy(
        policy,
        spec.execution,
        max_attempts=max_attempts,
        deadline_s=deadline_s,
    )
    result_cache = resolve_cache(cache, spec.cache)
    store = None
    if resume:
        if store_path is None:
            raise ValueError("resume=True needs a store_path to resume from")
        try:
            store = load_study_store(store_path)
        except FileNotFoundError:
            store = None
        if store is not None and store.spec_hash != spec_hash(spec):
            raise ValueError(
                f"store at {store_path} records spec_hash "
                f"{store.spec_hash!r} but this spec hashes to "
                f"{spec_hash(spec)!r}; refusing to resume a different study"
            )
    elif store_path is not None and (
        os.path.exists(store_path) or os.path.exists(journal_path(store_path))
    ):
        raise ValueError(
            f"store {store_path} (or its journal) already exists; pass "
            "resume=True to complete it, or remove the file(s) to start over"
        )
    if store is None:
        store = StudyStore(spec)
    store.cell_ids = tuple(cell.cell_id for cell in cells)
    # Cell ids can move between versions (see ``resume``).
    store._retain(store.cell_ids)
    if store_path is not None:
        store.begin_journal(store_path)
    stop = stop_event if stop_event is not None else threading.Event()
    started = 0
    # The hits after the last simulated cell: stored when the scan
    # ends, made durable by the compaction, reported after it.
    tail: "list[tuple[StudyCell, RunRecord]]" = []

    def land(batch: "list[tuple[StudyCell, RunRecord]]") -> None:
        """Land records: store, memoize, journal (one fsync), report.

        Called only on the thread running the study, so the store (and
        its journal) has exactly one writer.  The cache goes first: a
        kill between the two writes then leaves a cached record that a
        resume replays as a hit, never a journaled one the cache lacks.
        ``progress`` sees a record only once its line is fsync'd.
        """
        if not batch:
            return
        for _cell, record in batch:
            store.add(record)
            if result_cache is not None and not record.cache_hit:
                result_cache.put(record)
        if store_path is not None:
            store.checkpoint(*(record for _cell, record in batch))
        if progress is not None:
            for cell, record in batch:
                progress(cell, record)

    def pending_cells():
        """The cells this run must execute, cache hits already stored.

        Skips cells an existing store covers, caps *started* work at
        ``max_cells`` (hits count: they produce new records), and
        collects cache hits — a hit re-stamps the decoded record with
        the current compile's index (an overlapping spec may order
        shared cells differently) and never reaches the scheduler.  Each
        run of consecutive hits lands as one checkpoint before the next
        miss is simulated, so the journal keeps cell order; the hits
        after the last miss go to ``tail`` when the scan ends.
        """
        nonlocal started
        hits = []
        for cell in cells:
            if stop.is_set():
                break
            existing = store.get(cell.cell_id)
            if existing is not None and existing.ok:
                continue
            if max_cells is not None and started >= max_cells:
                break
            started += 1
            if result_cache is not None:
                cached = result_cache.get(cell.cell_id)
                if cached is not None:
                    cached.index = cell.index
                    cached.cache_hit = True
                    hits.append((cell, cached))
                    continue
            land(hits)
            hits = []
            yield cell
        for _cell, record in hits:
            store.add(record)
        tail.extend(hits)

    try:
        with _GracefulStop(stop):
            run_cell = partial(_record_cell, on_error=on_error, policy=live_policy)
            for cell, record in CellScheduler(run_cell).run(pending_cells()):
                land([(cell, record)])
        if stop.is_set():
            # Interrupted *and unfinished*: a stop landing after the last
            # cell checkpointed is a completed run, not an interruption.
            store.interrupted = not store.is_complete()
    finally:
        if result_cache is not None:
            result_cache.flush()
            if result_cache is not cache:  # this run opened it
                result_cache.close()
        if store_path is not None:
            # Compaction is atomic (save lands before the journal
            # unlinks), so even an exception path leaves one consistent
            # checkpoint — and a hard kill leaves the journal to replay,
            # less the tail of hits, which a resume replays from the cache.
            store.compact(store_path)
    if progress is not None:
        for cell, record in tail:
            progress(cell, record)
    return store
