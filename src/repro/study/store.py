"""The columnar RunRecord store: study results with full provenance.

Every executed cell lands here as one :class:`RunRecord`; the store
serialises to plain JSON in *columnar* layout (one parallel array per
field) so downstream tooling can slice columns without reassembling
objects.  Provenance travels with the data: the spec itself and its
content hash, the per-cell seed entropy, the backend the runtime's cost
model actually resolved (and, for cells that survived a transient failure
by degrading, the backend originally resolved in ``degraded_from``), wall
time, and the package version — which is what makes
``run_study(spec, resume=...)`` able to *prove* a resumed store
completes the same study rather than guessing from file names.

Every result file repro writes — ``repro study run``, ``repro sweep
--output``, the daemon's per-job stores — is one of these stores.  The
format is schema-versioned: readers accept the current version
(and upgrade version-1/2/3 files in memory) and reject unknown future
versions with a clear error.  Version 2 added the failure
bookkeeping columns (``status`` / ``error``); version 3 added
``degraded_from`` and the ``"timeout"`` status; version 4 adds
``cache_hit`` (the record was replayed from the content-addressed
result cache, :mod:`repro.study.cache`).  A truncated or
hand-mangled store file surfaces as :class:`StoreCorruptError` naming
the file, never as a bare JSON traceback.

Crash safety: the journal
-------------------------

Rewriting the whole JSON after every cell is O(cells²) bytes and leaves
a window where a hard kill tears the only copy.  The runner therefore
checkpoints through an append-only sidecar journal
(``<store>.journal.jsonl``): one CRC-guarded, fsync'd JSON line per
record, preceded by a self-contained header (spec + hash), compacted
into the columnar JSON on completion via :meth:`StudyStore.compact`.
``kill -9`` at any byte offset loses at most the record in flight:
:func:`load_study_store` replays the journal's valid prefix on top of
whatever base JSON exists, *salvages* a torn tail (reported via
:attr:`StudyStore.salvage`, never raised), and resume re-runs only the
cells the tear actually lost.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..engine.batch import BatchSummary, summarize
from .spec import StudySpec, spec_hash

__all__ = [
    "STORE_FORMAT_VERSION",
    "JournalReader",
    "RunRecord",
    "StoreCorruptError",
    "StudyStore",
    "journal_path",
    "load_study_store",
]

STORE_FORMAT_VERSION = 4

#: Formats this build can read (older versions upgrade in memory).
_READABLE_VERSIONS = (1, 2, 3, 4)

_JOURNAL_KIND = "repro-study-journal"

#: Columnar layout: the record fields, in serialisation order.
_COLUMNS = (
    "cell_id",
    "index",
    "seed",
    "params",
    "resolved_backend",
    "unit",
    "times",
    "stopped",
    "wall_time_s",
    "trajectory",
    "extras",
    "status",
    "error",
    "degraded_from",
    "cache_hit",
)

#: Statuses a record may carry; everything but ``"ok"`` is re-attempted
#: on resume.
_STATUSES = ("ok", "failed", "timeout")


class StoreCorruptError(ValueError):
    """A store file exists but cannot be decoded (truncated or mangled).

    Distinct from legitimate refusals (wrong spec hash, future format
    version): this error means the *file itself* is damaged — typically a
    checkpoint truncated by a hard kill — and names the offending path so
    the user can remove or restore it.  A torn journal *tail* is never
    this error: the valid prefix is salvaged and the damage reported via
    :attr:`StudyStore.salvage`.
    """


@dataclass
class RunRecord:
    """Outcome and provenance of one executed study cell."""

    cell_id: str
    index: int
    seed: int
    params: dict = field(repr=False)
    #: The backend that actually ran (after any degradation).
    resolved_backend: str
    #: Measurement unit: synchronous ``rounds`` or asynchronous ``ticks``.
    unit: str
    #: ``(R,)`` per-replica first-passage times.
    times: np.ndarray = field(repr=False)
    #: ``(R,)`` whether the cell's criterion fired per replica.
    stopped: np.ndarray = field(repr=False)
    wall_time_s: float = 0.0
    #: Recorded per-round metric series (``spec.record``), or ``None``.
    trajectory: "dict | None" = field(default=None, repr=False)
    #: Family-specific extra columns (e.g. §5 winner validity masks).
    extras: "dict | None" = field(default=None, repr=False)
    #: ``"ok"``, ``"failed"`` (raised after every attempt), or
    #: ``"timeout"`` (killed by the execution policy's deadline).
    status: str = "ok"
    #: Failure detail for non-ok records: ``{"type", "message",
    #: "traceback", "attempts", "attempt_walls_s"}``; ``None`` when ok.
    error: "dict | None" = field(default=None, repr=False)
    #: The backend originally resolved, when transient failures forced
    #: the runner down the degradation ladder; ``None`` otherwise.
    degraded_from: "str | None" = None
    #: The record was replayed from the content-addressed result cache
    #: instead of being simulated (:mod:`repro.study.cache`).
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> BatchSummary:
        return summarize(self.times)

    def same_results(self, other: "RunRecord") -> bool:
        """Bit-for-bit result equality, ignoring wall time.

        Failure *outcomes* must match (status), but the error detail —
        tracebacks carry memory addresses and line numbers — is
        execution-environment noise, not a result.  ``degraded_from`` is
        likewise environment history (which backend happened to fail).
        Degradation does change ``resolved_backend``, which this
        predicate compares, so it cannot equate a degraded record with an
        undegraded one; the supervision test
        ``test_transient_exhaustion_degrades_bit_for_bit`` compares their
        samples instead.  ``cache_hit`` is ignored — where a result came from is
        not what it is.
        """
        return (
            self.cell_id == other.cell_id
            and self.index == other.index
            and self.seed == other.seed
            and self.status == other.status
            and self.resolved_backend == other.resolved_backend
            and self.unit == other.unit
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.stopped, other.stopped)
            and _jsonish_equal(self.trajectory, other.trajectory)
            and _jsonish_equal(self.extras, other.extras)
        )


def _jsonish_equal(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _encode_record(record: RunRecord) -> dict:
    """One record as a plain-JSON row (shared by columns and journal)."""
    return {
        "cell_id": record.cell_id,
        "index": int(record.index),
        "seed": int(record.seed),
        "params": record.params,
        "resolved_backend": record.resolved_backend,
        "unit": record.unit,
        "times": [int(v) for v in record.times],
        "stopped": [bool(v) for v in record.stopped],
        "wall_time_s": float(record.wall_time_s),
        "trajectory": record.trajectory,
        "extras": record.extras,
        "status": record.status,
        "error": record.error,
        "degraded_from": record.degraded_from,
        "cache_hit": bool(record.cache_hit),
    }


def _decode_record(row: Mapping) -> RunRecord:
    """Rebuild a record from :func:`_encode_record` output."""
    if not isinstance(row, Mapping):
        raise TypeError(
            f"a record row must be a JSON object, not {type(row).__name__}"
        )
    status = str(row.get("status", "ok"))
    if status not in _STATUSES:
        raise ValueError(f"unknown record status {status!r}; valid: {_STATUSES}")
    return RunRecord(
        cell_id=row["cell_id"],
        index=int(row["index"]),
        seed=int(row["seed"]),
        params=row["params"],
        resolved_backend=row["resolved_backend"],
        unit=row["unit"],
        times=np.asarray(row["times"], dtype=np.int64),
        stopped=np.asarray(row["stopped"], dtype=bool),
        wall_time_s=float(row["wall_time_s"]),
        trajectory=row.get("trajectory"),
        extras=row.get("extras"),
        status=status,
        error=row.get("error"),
        degraded_from=row.get("degraded_from"),
        cache_hit=bool(row.get("cache_hit", False)),
    )


def journal_path(path: str) -> str:
    """The sidecar journal's path for a store at ``path``."""
    return f"{path}.journal.jsonl"


def _journal_line(data: dict) -> bytes:
    """One CRC-guarded journal line: the CRC covers the canonical data."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    return (
        json.dumps({"crc": crc, "data": data}, sort_keys=True,
                   separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _parse_journal_line(raw: bytes) -> "dict | None":
    """Decode one journal line; ``None`` when torn or CRC-mismatched."""
    try:
        wrapper = json.loads(raw.decode("utf-8"))
        crc = wrapper["crc"]
        data = wrapper["data"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
        return None
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(canonical.encode("utf-8")) != crc:
        return None
    return data


def _scan_journal(
    path: str, kind: str = _JOURNAL_KIND
) -> "tuple[dict | None, list[dict], int, int]":
    """Replay a journal file's valid prefix.

    Returns ``(header, rows, valid_bytes, torn_bytes)`` where
    ``valid_bytes`` is the byte length of the intact prefix (safe to
    truncate to before appending) and ``torn_bytes`` how much damaged
    tail follows it.  The first line must be a header whose ``kind`` is
    ``kind`` (a store journal by default; the daemon's job journal passes
    its own).  A torn line stops the scan — everything after a tear is
    unreachable garbage by construction (appends are sequential), so
    salvaging the prefix is lossless up to the line in flight when the
    writer died.
    """
    header = None
    rows: "list[dict]" = []
    valid_bytes = 0
    with open(path, "rb") as handle:
        raw = handle.read()
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # unterminated final line: torn mid-write
        line = raw[offset : newline + 1]
        data = _parse_journal_line(line)
        if data is None:
            break
        if header is None:
            if not isinstance(data, dict) or data.get("kind") != kind:
                break  # not a journal header: treat the file as torn
            header = data
        else:
            rows.append(data)
        offset = newline + 1
        valid_bytes = offset
    return header, rows, valid_bytes, len(raw) - valid_bytes


class JournalReader:
    """Incrementally tail a store journal's valid prefix, while it grows.

    The live counterpart of :func:`_scan_journal`: where the scan reads a
    dead journal once, the reader is *re-pollable* — it remembers the
    byte offset of the last complete, CRC-valid line and each
    :meth:`poll` decodes only what landed since.  An incomplete or
    CRC-failing tail line is treated as *in flight* (the writer may be
    mid-``write``), so the offset never advances past it; the next poll
    retries from the same place.  That is the consistency contract the
    daemon's ``/events`` endpoint leans on: a reader attaching mid-run
    replays the journal's valid prefix first, then streams records as
    their fsync'd lines complete, and never observes a torn record.

    The reader tolerates the journal's whole lifecycle: a file that does
    not exist yet (``poll`` returns nothing), a crashed run's torn tail
    being truncated by ``begin_journal`` on resume (only damaged bytes
    vanish, the valid offset stays valid), and compaction unlinking the
    file (subsequent polls return nothing; a *fresh* journal appearing
    later — a different inode, or shorter than the old offset — resets
    the reader).
    """

    def __init__(self, path: str):
        self.path = path
        self.header: "dict | None" = None
        self._offset = 0
        self._identity: "tuple[int, int] | None" = None

    def poll(self) -> "list[RunRecord]":
        """Decode the records whose journal lines completed since last poll."""
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                identity = (stat.st_dev, stat.st_ino)
                if identity != self._identity or stat.st_size < self._offset:
                    # A replaced or shorter file is a *new* journal
                    # (compact + fresh run): start over, header and all.
                    self._offset = 0
                    self.header = None
                self._identity = identity
                handle.seek(self._offset)
                raw = handle.read()
        except OSError:
            return []
        records: "list[RunRecord]" = []
        scanned = 0
        while scanned < len(raw):
            newline = raw.find(b"\n", scanned)
            if newline < 0:
                break  # unterminated: the record in flight, not ours yet
            data = _parse_journal_line(raw[scanned : newline + 1])
            if data is None:
                break  # CRC mismatch: mid-write (or torn) — retry later
            if self.header is None:
                if not isinstance(data, dict) or data.get("kind") != _JOURNAL_KIND:
                    break  # not a journal header: refuse to tail garbage
                self.header = data
            else:
                try:
                    records.append(_decode_record(data["record"]))
                except (KeyError, TypeError, ValueError, IndexError):
                    break  # cannot happen via our writer; stop at damage
            scanned = newline + 1
        self._offset += scanned
        return records


class StudyStore:
    """An append-only collection of :class:`RunRecord`\\ s for one spec."""

    def __init__(self, spec: StudySpec, package_version: "str | None" = None):
        from .. import __version__

        self.spec = spec
        self.spec_hash = spec_hash(spec)
        self.package_version = package_version or __version__
        self._records: "list[RunRecord]" = []
        self._by_id: "dict[str, RunRecord]" = {}
        self._journal = None
        #: Set by :func:`load_study_store` when a torn journal tail was
        #: salvaged: ``{"journal", "records_salvaged", "bytes_discarded"}``.
        self.salvage: "dict | None" = None
        #: Set by :func:`~repro.study.runner.run_study` when the run was
        #: stopped by a graceful interrupt (SIGTERM / SIGINT / a
        #: ``stop_event``) before covering every cell; the store is
        #: checkpointed and ``resume`` completes it bit-for-bit.
        self.interrupted: bool = False

    # -- collection behaviour ---------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self.records())

    def records(self) -> "list[RunRecord]":
        """Records sorted by cell index (whatever order they completed in)."""
        return sorted(self._records, key=lambda r: r.index)

    def completed_ids(self) -> "frozenset[str]":
        return frozenset(self._by_id)

    def get(self, cell_id: str) -> "RunRecord | None":
        return self._by_id.get(cell_id)

    def add(self, record: RunRecord) -> None:
        existing = self._by_id.get(record.cell_id)
        if existing is not None:
            if existing.ok:
                raise ValueError(f"cell {record.cell_id} is already recorded")
            # A non-ok record is a placeholder: a retry (resume) replaces
            # it in place, keeping one record per cell.
            self._records[self._records.index(existing)] = record
            self._by_id[record.cell_id] = record
            return
        self._records.append(record)
        self._by_id[record.cell_id] = record

    def _absorb(self, record: RunRecord) -> None:
        """Journal replay upsert: the journal's view of a cell wins.

        A compaction interrupted between ``save`` and the journal unlink
        leaves the same record in both files; replaying must converge,
        not raise "already recorded".
        """
        existing = self._by_id.get(record.cell_id)
        if existing is None:
            self._records.append(record)
            self._by_id[record.cell_id] = record
            return
        self._records[self._records.index(existing)] = record
        self._by_id[record.cell_id] = record

    def failed(self) -> "list[RunRecord]":
        """The non-ok (failed / timed-out) records, in cell-index order."""
        return [record for record in self.records() if not record.ok]

    def timeouts(self) -> "list[RunRecord]":
        """The deadline-killed records, in cell-index order."""
        return [r for r in self.records() if r.status == "timeout"]

    def is_complete(self) -> bool:
        """Does the store cover every cell the spec expands to, successfully?"""
        from .compile import compile_study

        return all(
            cell.cell_id in self._by_id and self._by_id[cell.cell_id].ok
            for cell in compile_study(self.spec)
        )

    def column(self, name: str) -> list:
        """One column across all records, in cell-index order."""
        if name not in _COLUMNS:
            raise KeyError(f"unknown column {name!r}; have {_COLUMNS}")
        return [getattr(record, name) for record in self.records()]

    def results_equal(self, other: "StudyStore") -> bool:
        """Bit-for-bit equality of specs and results (wall times ignored).

        This is the resume contract: an interrupted-then-resumed run must
        satisfy ``resumed.results_equal(uninterrupted)`` exactly.
        """
        if self.spec_hash != other.spec_hash or len(self) != len(other):
            return False
        return all(
            a.same_results(b) for a, b in zip(self.records(), other.records())
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        rows = [_encode_record(record) for record in self.records()]
        return {
            "format_version": STORE_FORMAT_VERSION,
            "kind": "repro-study-store",
            "spec_hash": self.spec_hash,
            "package_version": self.package_version,
            "spec": self.spec.to_dict(),
            "num_records": len(rows),
            "columns": {
                name: [row[name] for row in rows] for name in _COLUMNS
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudyStore":
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"a study store must be a JSON object, not {type(payload).__name__}"
            )
        version = payload.get("format_version")
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported study-store format version {version!r}; this "
                f"build reads versions {_READABLE_VERSIONS} (a newer repro "
                "probably wrote the file — upgrade to read it)"
            )
        if payload.get("kind") != "repro-study-store":
            raise ValueError(
                f"not a study store payload (kind={payload.get('kind')!r})"
            )
        spec = StudySpec.from_dict(payload["spec"])
        store = cls(spec, package_version=payload.get("package_version"))
        recorded_hash = payload.get("spec_hash")
        if recorded_hash != store.spec_hash:
            raise ValueError(
                f"store spec_hash {recorded_hash!r} does not match its own "
                f"spec ({store.spec_hash!r}); the file was edited inconsistently"
            )
        columns = payload["columns"]
        count = len(columns["cell_id"])
        # Version-1 files predate the failure columns, version-2 files
        # the degradation column, version-3 files the cache column:
        # upgrade in memory.
        defaults = {
            "status": ["ok"] * count,
            "error": [None] * count,
            "degraded_from": [None] * count,
            "cache_hit": [False] * count,
        }
        for i in range(count):
            row = {
                name: columns.get(name, defaults.get(name, []))[i]
                for name in _COLUMNS
            }
            store.add(_decode_record(row))
        return store

    def save(self, path: str) -> None:
        """Write the store to ``path`` as JSON (atomically)."""
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)

    # -- crash-safe checkpointing (the journal) ----------------------------

    def _journal_header(self) -> dict:
        return {
            "kind": _JOURNAL_KIND,
            "format_version": STORE_FORMAT_VERSION,
            "spec_hash": self.spec_hash,
            "package_version": self.package_version,
            "spec": self.spec.to_dict(),
        }

    def begin_journal(self, path: str) -> None:
        """Open (or adopt) the sidecar journal for a store at ``path``.

        A pre-existing journal — a crashed run's — is truncated to its
        valid byte prefix first, so new appends never glue onto a torn
        half-line (which would lose both records).  A fresh journal gets
        a self-contained header line (spec + hash), making the journal
        alone sufficient to rebuild the store if the kill lands before
        the first compaction.
        """
        jpath = journal_path(path)
        if os.path.exists(jpath):
            header, _rows, valid_bytes, torn = _scan_journal(jpath)
            if header is not None and header.get("spec_hash") != self.spec_hash:
                raise ValueError(
                    f"journal {jpath} belongs to spec_hash "
                    f"{header.get('spec_hash')!r}, not {self.spec_hash!r}; "
                    "remove it to start over"
                )
            with open(jpath, "r+b") as handle:
                if torn:
                    handle.truncate(valid_bytes)
            self._journal = open(jpath, "ab")
            if header is None:
                # Nothing valid survived (torn header): start over.
                self._journal.write(_journal_line(self._journal_header()))
                self._flush_journal()
        else:
            self._journal = open(jpath, "ab")
            self._journal.write(_journal_line(self._journal_header()))
            self._flush_journal()

    def _flush_journal(self) -> None:
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def checkpoint(self, record: RunRecord) -> None:
        """Append one record to the journal, fsync'd (O(record) bytes).

        This is the per-cell durability point: after it returns, a
        ``kill -9`` cannot lose the record.
        """
        if self._journal is None:
            raise RuntimeError("checkpoint() requires begin_journal() first")
        self._journal.write(_journal_line({"record": _encode_record(record)}))
        self._flush_journal()

    def compact(self, path: str) -> None:
        """Fold the journal into the columnar JSON and remove it.

        Crash-window safe: ``save`` lands atomically *before* the unlink,
        so a kill between the two leaves both files agreeing — replay
        converges via :meth:`_absorb`.
        """
        self.save(path)
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        jpath = journal_path(path)
        if os.path.exists(jpath):
            os.remove(jpath)


def load_study_store(path: str) -> StudyStore:
    """Read a store written by :meth:`StudyStore.save` / the journal.

    Loads the base JSON (when present), then replays the sidecar
    journal's valid prefix on top — so a run killed before compaction
    loses at most the record in flight.  A torn journal tail is
    *salvaged*: the intact records load and the damage is reported via
    :attr:`StudyStore.salvage`, never raised.  A base file that exists
    but cannot be decoded — truncated JSON, a hand-edit that dropped a
    column — raises :class:`StoreCorruptError` naming the path.
    Legitimate refusals (future format version, spec-hash mismatch) stay
    plain ``ValueError``\\ s: the file is intact, the request is wrong.
    """
    jpath = journal_path(path)
    store = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise StoreCorruptError(
                    f"study store {path} is not valid JSON ({exc}); the file "
                    "is corrupt — likely a checkpoint truncated by a hard "
                    "kill. Remove it (or restore a backup) and re-run the "
                    "study."
                ) from exc
        try:
            store = StudyStore.from_dict(payload)
        except (KeyError, TypeError, IndexError) as exc:
            raise StoreCorruptError(
                f"study store {path} decodes as JSON but is structurally "
                f"damaged ({type(exc).__name__}: {exc}); remove it (or "
                "restore a backup) and re-run the study."
            ) from exc
    if not os.path.exists(jpath):
        if store is None:
            raise FileNotFoundError(path)
        return store
    header, rows, _valid_bytes, torn_bytes = _scan_journal(jpath)
    if header is None:
        # Even the header is torn: the journal carries nothing usable.
        if store is None:
            raise FileNotFoundError(path)
        store.salvage = {
            "journal": jpath,
            "records_salvaged": 0,
            "bytes_discarded": torn_bytes,
        }
        return store
    if store is None:
        try:
            spec = StudySpec.from_dict(header["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(
                f"journal {jpath} has an undecodable spec header "
                f"({type(exc).__name__}: {exc}); remove it and re-run."
            ) from exc
        store = StudyStore(spec, package_version=header.get("package_version"))
    if header.get("spec_hash") != store.spec_hash:
        raise ValueError(
            f"journal {jpath} belongs to spec_hash "
            f"{header.get('spec_hash')!r} but the store at {path} hashes to "
            f"{store.spec_hash!r}; refusing to mix two studies"
        )
    salvaged = 0
    for row in rows:
        try:
            record = _decode_record(row["record"])
        except (KeyError, TypeError, ValueError, IndexError):
            # A structurally-broken (but CRC-valid) row cannot happen via
            # our writer; treat it like a tear at this point.
            torn_bytes += 1
            break
        existing = store.get(record.cell_id)
        if existing is not None and existing.ok and existing.same_results(record):
            continue  # compaction-crash duplicate
        store._absorb(record)
        salvaged += 1
    if torn_bytes:
        store.salvage = {
            "journal": jpath,
            "records_salvaged": salvaged,
            "bytes_discarded": torn_bytes,
        }
    return store
