"""The daemon's HTTP surface: stdlib ``http.server`` over a JobManager.

Endpoints (all bodies protocol-stamped JSON, see ``protocol.py``):

``POST /jobs``
    Submit a spec (``{"protocol", "spec": StudySpec.to_dict()}``).
    Validates and compiles the whole grid eagerly; 400 on a bad spec,
    200 with the job view otherwise (``"attached": true`` when the spec
    hash matched an existing queued/running/done job).
``GET /jobs``
    All jobs, submission order.
``GET /jobs/<id>``
    One job's view: state plus per-cell status counts.
``GET /jobs/<id>/events``
    Newline-delimited JSON progress stream (see ``protocol.py``).  The
    stream *tails the job store's crash-safe journal* through
    :class:`~repro.study.store.JournalReader`, so attaching mid-run
    replays the valid prefix first — a watcher reconnecting after a
    network blip sees every record exactly once.  Records stream as
    their journal lines are fsync'd, with no poll interval: the handler
    sleeps on the manager's change counter, not on a timer.
``GET /jobs/<id>/results``
    The checkpointed columnar store (``StudyStore.to_dict`` under
    ``"store"``); 409 while nothing is checkpointed yet, or when the
    store on disk cannot be decoded.
``POST /jobs/<id>/cancel``
    Cancel a queued or running job.

The server speaks HTTP/1.0 with ``Connection: close`` — the event
stream is just bytes until EOF, no chunked framing to implement on
either side.  ``ThreadingHTTPServer`` gives each watcher its own
thread; every mutation funnels through the manager's single lock and
single executor, so concurrency stays at the edges.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import __version__
from ..study.store import JournalReader
from .jobs import JobManager
from .protocol import (
    TERMINAL_STATES,
    ProtocolError,
    done_event,
    envelope,
    error_body,
    hello_event,
    parse_submit_request,
    ping_event,
    record_event,
)

__all__ = ["StudyServer", "serve"]

_JOB_ROUTE = re.compile(r"^/jobs/([0-9a-f]{16})(/events|/results|/cancel)?$")

#: Idle seconds between heartbeat pings on the event stream.
_PING_S = 5.0


class StudyServer(ThreadingHTTPServer):
    """One listening socket plus the shared :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, manager: JobManager, *, verbose: bool = False):
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.0"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would block until the client closes.
            raise ProtocolError(f"Content-Length must be >= 0, got {length}")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ProtocolError("body is nested too deeply to decode") from None

    # -- routing -----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path == "/jobs":
            return self._submit()
        match = _JOB_ROUTE.match(self.path)
        if match and match.group(2) == "/cancel":
            return self._cancel(match.group(1))
        self._send_json(404, error_body(f"no such endpoint: POST {self.path}"))

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path == "/jobs":
            return self._send_json(200, envelope({"jobs": self.server.manager.views()}))
        match = _JOB_ROUTE.match(self.path)
        if match is None:
            return self._send_json(404, error_body(f"no such endpoint: GET {self.path}"))
        job_id, tail = match.group(1), match.group(2)
        try:
            if tail is None:
                return self._send_json(200, self.server.manager.view(job_id))
            if tail == "/events":
                return self._events(job_id)
            if tail == "/results":
                return self._results(job_id)
        except KeyError:
            return self._send_json(404, error_body(f"unknown job {job_id}"))
        self._send_json(404, error_body(f"no such endpoint: GET {self.path}"))

    # -- endpoints ---------------------------------------------------------

    def _submit(self) -> None:
        try:
            spec_payload = parse_submit_request(self._read_body())
            view = self.server.manager.submit(spec_payload)
        except (ProtocolError, KeyError, TypeError, ValueError) as exc:
            return self._send_json(400, error_body(f"invalid submission: {exc}"))
        self._send_json(200, view)

    def _cancel(self, job_id: str) -> None:
        try:
            view = self.server.manager.cancel(job_id)
        except KeyError:
            return self._send_json(404, error_body(f"unknown job {job_id}"))
        self._send_json(200, view)

    def _results(self, job_id: str) -> None:
        manager = self.server.manager
        view = manager.view(job_id)  # KeyError → caller's 404
        try:
            store = manager.load_store(job_id)
        except FileNotFoundError:
            return self._send_json(
                409,
                error_body(
                    f"job {job_id} has no checkpointed results yet "
                    f"(state: {view['state']})"
                ),
            )
        except ValueError as exc:
            # A damaged file: StoreCorruptError, a ValueError whose message
            # names the file and the remedy.
            return self._send_json(409, error_body(str(exc)))
        self._send_json(
            200,
            envelope({"id": job_id, "state": view["state"], "store": store.to_dict()}),
        )

    def _events(self, job_id: str) -> None:
        """Stream ndjson progress until the job reaches a terminal state.

        The source of truth is the job store's sidecar journal: the
        reader replays its valid prefix on attach (mid-run watchers see
        history first) and then follows appends, so each journaled
        record streams as soon as its line is fsync'd — there is no poll
        interval.  The cache hits after a run's last simulated cell (so
        every record of a wholly cached job) are never journaled: they
        arrive only through the terminal catch-up from the compacted
        store.  Between polls the handler blocks in
        :meth:`JobManager.wait_for_change`, passing the counter value it
        read *before* the poll it just made, so a change landing in
        between returns at once; an idle wait ends when the next
        ``ping`` is due.  When the job ends the journal has been
        compacted away, so the final catch-up reads the columnar store
        for any record the tail never surfaced — unless the tail already
        streamed every cell, in which case the store is not reloaded.
        """
        manager = self.server.manager
        view = manager.view(job_id)  # KeyError → caller's 404
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        reader = JournalReader(manager.journal_path(job_id))
        sent: "set[str]" = set()
        try:
            self._emit(hello_event(view))
            last_line = time.monotonic()
            seen = manager.changes()
            while True:
                wrote = False
                for record in reader.poll():
                    if record.cell_id in sent:
                        continue
                    sent.add(record.cell_id)
                    self._emit(record_event(record))
                    wrote = True
                state = manager.state(job_id)
                if state in TERMINAL_STATES:
                    # Drain what the tail missed: compaction folds the
                    # journal into the columnar file at run end.  A tail
                    # that streamed every cell has nothing to drain.
                    if len(sent) < view["num_cells"]:
                        for record in self._final_records(job_id):
                            if record.cell_id not in sent:
                                sent.add(record.cell_id)
                                self._emit(record_event(record))
                    self._emit(done_event(manager.view(job_id)))
                    return
                now = time.monotonic()
                if wrote:
                    last_line = now
                elif now - last_line >= _PING_S:
                    self._emit(ping_event())
                    last_line = now
                seen = manager.wait_for_change(seen, last_line + _PING_S - now)
        except (BrokenPipeError, ConnectionResetError):
            return  # the watcher went away; nothing to clean up

    def _final_records(self, job_id: str):
        try:
            return self.server.manager.load_store(job_id).records()
        except (OSError, KeyError, ValueError):
            return []

    def _emit(self, event: dict) -> None:
        self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))
        self.wfile.flush()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    state_dir: str = "repro-serve",
    *,
    cache=True,
    verbose: bool = False,
    ready=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns an exit code.

    ``port=0`` binds an ephemeral port; the actual address is announced
    on stdout (``listening on http://host:port``) so wrappers — the
    smoke script, tests — can parse it.  ``ready`` is an optional
    callback receiving the :class:`StudyServer` once it is listening
    (for in-process embedding).  Jobs run one at a time, their cells
    one after another, and a spec's ``[execution] deadline_s`` holds on
    the executor thread.  Shutdown is graceful: the running job's cell
    in flight is checkpointed and the job re-enqueues on the next daemon
    started on the same ``state_dir``.
    """
    manager = JobManager(state_dir, cache=cache)
    server = StudyServer((host, port), manager, verbose=verbose)
    manager.start()

    def _stop(_signum, _frame):
        # serve_forever must not be shut down from the handler's frame
        # (it would deadlock on its own poll loop); hand it to a thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    installed = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                installed[signum] = signal.signal(signum, _stop)
            except (ValueError, OSError):  # pragma: no cover
                pass
    actual_host, actual_port = server.server_address[:2]
    print(f"listening on http://{actual_host}:{actual_port}", flush=True)
    print(f"state dir: {state_dir}", flush=True)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, previous in installed.items():
            signal.signal(signum, previous)
        server.server_close()
        manager.close()
    return 0
