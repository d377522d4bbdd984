"""``repro serve`` — the study-execution daemon.

The service layer turns the study runner into a long-lived process
speaking a small, versioned JSON wire protocol over HTTP (stdlib
``http.server`` — no new dependencies):

* :mod:`repro.serve.protocol` — the wire format: protocol-stamped
  payloads, the job lifecycle, the ndjson event vocabulary.
* :class:`JobManager` (``jobs.py``) — the durable job queue: dedup by
  ``spec_hash``, a CRC-journaled ``jobs.jsonl``, ONE executor thread
  draining submissions through :func:`~repro.study.runner.run_cells` with
  ``resume=True`` — so a killed daemon restarted on the same state dir
  finishes every in-flight job bit-for-bit.
* :class:`StudyServer` / :func:`serve` (``server.py``) — the HTTP
  surface: ``POST /jobs``, ``GET /jobs[/<id>[/events|/results]]``,
  ``POST /jobs/<id>/cancel``; ``/events`` streams progress by tailing
  the store's crash-safe journal through
  :class:`~repro.study.store.JournalReader`.
* :class:`ServeClient` (``client.py``) — the stdlib client behind the
  ``repro study submit / status / watch / results / cancel`` verbs.

The design rule throughout: the service adds *no second source of
truth*.  Results live only in study stores, progress is the store
journal, durability is the journal contract the offline runner already
honours — the daemon only adds an address, a queue, and a stream.
"""

from .client import ServeClient, ServeError
from .jobs import Job, JobManager
from .protocol import (
    JOB_STATES,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    ProtocolError,
)
from .server import StudyServer, serve

__all__ = [
    "JOB_STATES",
    "Job",
    "JobManager",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "StudyServer",
    "TERMINAL_STATES",
    "serve",
]
