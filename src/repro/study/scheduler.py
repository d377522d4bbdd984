"""The :class:`CellScheduler` — concurrent cell dispatch for ``run_study``.

Study cells are independent by construction: every cell's seed derives
from ``(spec_seed, cell_index)`` (:mod:`repro.study.compile`), never
from execution order, and each compiled cell carries its *own* recorder
instance.  Scheduling them concurrently therefore changes wall time and
nothing else — record identity is ``cell_id``, the store sorts by cell
index on read, and ``results_equal`` stays bit-for-bit.

The scheduler is Executor-shaped — :meth:`~CellScheduler.submit`
returns a :class:`concurrent.futures.Future`, :meth:`shutdown` retires
the workers — but is built on plain *daemon* threads rather than
:class:`~concurrent.futures.ThreadPoolExecutor` for one supervision
reason: abandonment.  Off the main thread the runner's ``_CellDeadline``
cannot use ``SIGALRM``, so nothing can interrupt a cell mid-attempt.
The scheduler therefore keeps a per-future watchdog: a future still
running past its budget is *abandoned* — its cell is reported timed-out,
a replacement worker is spawned to keep the level of parallelism, and
the wedged daemon thread is left behind where it can block neither the
study nor interpreter exit.

Threading model: worker threads only ever *execute* cells (the
``run_cell`` callable given at construction); the consumer of
:meth:`run` — the runner's main loop — remains the store's single
writer, journaling each record the moment its future completes, in
completion order.

Like ``[execution]``, the declarative ``[parallel]`` table rides
:class:`~repro.study.spec.StudySpec` default-elided: a sequential spec
serialises to nothing, keeping every pre-existing ``spec_hash`` valid,
and the table never enters cell params — parallelism changes how cells
are *scheduled*, never what they measure.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait

__all__ = [
    "PARALLEL_KEYS",
    "CellScheduler",
    "canonical_parallel_value",
    "encode_parallel_value",
    "resolve_parallel",
]

#: Canonical key order with default values (mirrors ``POLICY_KEYS``).
PARALLEL_KEYS = (
    ("workers", None),
    ("max_inflight", None),
)

#: How often the watchdog sweeps inflight futures, seconds.
_WATCHDOG_TICK = 0.1


def canonical_parallel_value(value) -> "dict | None":
    """Normalise a declarative parallel value to its canonical dict.

    Accepts ``None``, an int (a worker count), or a mapping with any
    subset of the canonical keys.  A value equal to the all-defaults
    table (sequential, unbounded by nothing) collapses to ``None`` —
    same schedule, same encoding, same ``spec_hash``.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError("parallel must be a table or worker count, not a bool")
    if isinstance(value, int):
        items = {"workers": value}
    else:
        try:
            items = dict(value)
        except (TypeError, ValueError):
            raise TypeError(
                f"parallel must be a table or worker count, got {value!r}"
            ) from None
    known = {key for key, _default in PARALLEL_KEYS}
    unknown = set(items) - known
    if unknown:
        raise KeyError(
            f"unknown parallel keys {sorted(unknown)}; known keys are "
            f"{sorted(known)}"
        )
    out = {}
    for key, default in PARALLEL_KEYS:
        raw = items.get(key, default)
        if raw == "none":
            raw = None
        if raw is not None:
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise TypeError(f"parallel.{key} must be an int, got {raw!r}")
            if raw < 1:
                raise ValueError(f"parallel.{key} must be positive, got {raw}")
        out[key] = raw
    if out["workers"] == 1:
        out["workers"] = None  # one worker *is* the sequential default
    if out == dict(PARALLEL_KEYS):
        return None
    return out


def encode_parallel_value(value) -> "dict | None":
    """JSON/TOML-friendly form: drop default-valued keys; defaults vanish."""
    value = canonical_parallel_value(value)
    if value is None:
        return None
    return {
        key: value[key]
        for key, default in PARALLEL_KEYS
        if value[key] != default
    }


def resolve_parallel(
    spec_value=None,
    *,
    workers: "int | None" = None,
    max_inflight: "int | None" = None,
) -> "tuple[int, int]":
    """The runner's precedence rule: explicit args > spec table > defaults.

    Returns the resolved ``(workers, max_inflight)`` pair; ``workers``
    defaults to 1 (the sequential path), ``max_inflight`` to twice the
    worker count — enough queued work to keep every worker fed without
    materialising the whole study's plans at once.
    """
    base = canonical_parallel_value(spec_value) or dict(PARALLEL_KEYS)
    resolved_workers = workers if workers is not None else base["workers"]
    resolved_workers = 1 if resolved_workers is None else int(resolved_workers)
    if resolved_workers < 1:
        raise ValueError(f"workers must be positive, got {resolved_workers}")
    resolved_inflight = (
        max_inflight if max_inflight is not None else base["max_inflight"]
    )
    if resolved_inflight is None:
        resolved_inflight = 2 * resolved_workers
    resolved_inflight = int(resolved_inflight)
    if resolved_inflight < 1:
        raise ValueError(
            f"max_inflight must be positive, got {resolved_inflight}"
        )
    return resolved_workers, max(resolved_inflight, resolved_workers)


class CellScheduler:
    """Dispatch compiled cells onto a bounded set of daemon worker threads.

    ``run_cell`` is the one supervised-execution entry point (the
    runner's ``_record_cell`` with its policy already resolved); it is
    called once per cell on a worker thread and must return the cell's
    record or raise.  ``watchdog_s`` is the per-cell abandonment budget
    for cells the deadline fallback cannot interrupt (see the module
    docstring); ``None`` disables the watchdog.
    """

    def __init__(
        self,
        run_cell,
        workers: int,
        *,
        max_inflight: "int | None" = None,
        watchdog_s: "float | None" = None,
    ):
        self._run_cell = run_cell
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.max_inflight = (
            2 * self.workers if max_inflight is None else int(max_inflight)
        )
        self.max_inflight = max(self.max_inflight, self.workers)
        self.watchdog_s = watchdog_s
        self.abandoned = 0
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: "list[threading.Thread]" = []
        self._lost: "set[threading.Thread]" = set()
        self._closed = False
        for _ in range(self.workers):
            self._spawn_worker()

    # -- the worker side ----------------------------------------------

    def _spawn_worker(self) -> None:
        thread = threading.Thread(
            target=self._worker,
            name=f"repro-cell-worker-{len(self._threads)}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            cell, future = item
            if not future.set_running_or_notify_cancel():
                continue
            future.repro_started = time.monotonic()
            future.repro_thread = threading.current_thread()
            try:
                result = self._run_cell(cell)
            except BaseException as exc:  # delivered via future.result()
                future.set_exception(exc)
            else:
                future.set_result(result)

    # -- the Executor-shaped face -------------------------------------

    def submit(self, cell) -> Future:
        """Enqueue one cell; its record (or exception) rides the future."""
        if self._closed:
            raise RuntimeError("cannot submit to a shut-down CellScheduler")
        future: Future = Future()
        self._queue.put((cell, future))
        return future

    def shutdown(self, wait_for_workers: bool = True) -> None:
        """Retire the workers (idempotent).

        Wedged threads that the watchdog abandoned are *not* joined —
        they are daemons and die with the process.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        if wait_for_workers:
            for thread in self._threads:
                if thread not in self._lost:
                    thread.join()

    def __enter__(self) -> "CellScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- the consumer loop --------------------------------------------

    def run(self, cells, *, abandon=None):
        """Yield ``(cell, record)`` in completion order, inflight-bounded.

        Pulls lazily from ``cells`` so at most ``max_inflight`` compiled
        plans are materialised at once.  A worker exception propagates
        from the generator (the ``on_error="raise"`` contract); pending
        futures are cancelled on the way out, and cells a cancelled
        future never ran simply stay unrun — resume picks them up.

        With a ``watchdog_s`` budget and an ``abandon(cell, elapsed)``
        callback, a future still running past its budget is abandoned:
        the callback's return value is yielded as the cell's record, a
        replacement worker keeps the parallelism, and the wedged thread
        is written off.
        """
        pending: "dict[Future, object]" = {}
        iterator = iter(cells)
        exhausted = False
        try:
            while True:
                while not exhausted and len(pending) < self.max_inflight:
                    try:
                        cell = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending[self.submit(cell)] = cell
                if not pending:
                    return
                use_watchdog = (
                    self.watchdog_s is not None and abandon is not None
                )
                done, _running = wait(
                    set(pending),
                    timeout=_WATCHDOG_TICK if use_watchdog else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    cell = pending.pop(future)
                    yield cell, future.result()
                if not use_watchdog:
                    continue
                now = time.monotonic()
                for future in list(pending):
                    started = getattr(future, "repro_started", None)
                    if started is None or future.done():
                        continue  # queued, not running: no budget burned
                    elapsed = now - started
                    if elapsed <= self.watchdog_s:
                        continue
                    cell = pending.pop(future)
                    self.abandoned += 1
                    self._lost.add(future.repro_thread)
                    self._spawn_worker()
                    yield cell, abandon(cell, elapsed)
        finally:
            for future in pending:
                future.cancel()
