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
(``<store>.journal.jsonl``): one CRC-guarded JSON line per record,
preceded by a self-contained header (spec + hash), compacted into the
columnar JSON on completion via :meth:`StudyStore.compact`.
``kill -9`` at any byte offset loses at most the write in flight:
:func:`load_study_store` replays the journal's valid prefix on top of
whatever base JSON exists, *salvages* a torn tail (reported via
:attr:`StudyStore.salvage`, never raised), and resume re-runs only the
cells the tear actually lost.

Every CRC-line journal (this one, the daemon's ``jobs.jsonl`` and the
cache's ``stats.jsonl``) has one walk over its valid lines, one adopt
step (read once, refuse a foreign header, truncate the torn tail,
buffer a header if none is there) and one append (one write, a flush,
an optional fsync).  The CRC covers the data bytes as written, so a
line whose bytes differ from them is torn even if it decodes to the
same value.  Each :meth:`StudyStore.checkpoint` appends its records'
lines in one write and one fsync: one simulated record, or a run of
cache hits, which a resume replays from the cache if the write was
torn.  A crashed run's journal is adopted when the next run begins;
a missing one is created by the first checkpoint, whose write carries
the header, durable from its fsync on, so a fresh run that checkpoints
nothing writes no journal.  Compaction fsyncs the columnar JSON's temp
file, renames it over the store, fsyncs the directory and only then
unlinks the journal, so even an OS crash leaves one of the two on
disk; records that were never checkpointed are durable from that
directory fsync on.  The columnar JSON is one unindented line (the C
encoder's output); readers parse it whatever its layout.
"""

from __future__ import annotations

import json
import os
import re
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


class _SpecRefused(ValueError):
    """A store's spec decodes as JSON, but this version refuses it."""


def _decode_spec(payload) -> StudySpec:
    """``StudySpec.from_dict``, its refusal raised as :class:`_SpecRefused`."""
    try:
        return StudySpec.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise _SpecRefused(f"{type(exc).__name__}: {exc}") from exc


def _refused(what: str, exc: _SpecRefused) -> ValueError:
    """The plain refusal of ``what``, an intact file whose spec this
    version refuses."""
    return ValueError(
        f"{what} is intact, but this version refuses its spec ({exc}); "
        "read it with the version that wrote it"
    )


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
    """Rebuild a record from :func:`_encode_record` output.

    Each field decodes only from its own JSON type (a bool is no int, an
    int no bool and a float no int), so a record that decodes encodes
    back to the row it came from; any other value raises ``TypeError``.
    """
    if not isinstance(row, Mapping):
        raise TypeError(
            f"a record row must be a JSON object, not {type(row).__name__}"
        )
    status = _typed(row, "status", str, default="ok")
    if status not in _STATUSES:
        raise ValueError(f"unknown record status {status!r}; valid: {_STATUSES}")
    return RunRecord(
        cell_id=_typed(row, "cell_id", str),
        index=_typed(row, "index", int),
        seed=_typed(row, "seed", int),
        params=_typed(row, "params", dict),
        resolved_backend=_typed(row, "resolved_backend", str),
        unit=_typed(row, "unit", str),
        times=np.asarray(_typed_items(row, "times", int), dtype=np.int64),
        stopped=np.asarray(_typed_items(row, "stopped", bool), dtype=bool),
        wall_time_s=float(_typed(row, "wall_time_s", int, float)),
        trajectory=_typed(row, "trajectory", dict, None, default=None),
        extras=_typed(row, "extras", dict, None, default=None),
        status=status,
        error=_typed(row, "error", dict, None, default=None),
        degraded_from=_typed(row, "degraded_from", str, None, default=None),
        cache_hit=_typed(row, "cache_hit", bool, default=False),
    )


_REQUIRED = object()


def _typed(row: Mapping, name: str, *types, default=_REQUIRED):
    """``row[name]`` (``default`` when absent, if one is given) when its
    type is exactly one of ``types`` (``None`` admits null), else
    ``TypeError``: ``json`` decodes each JSON type to one exact type."""
    value = row[name] if default is _REQUIRED else row.get(name, default)
    if type(value) not in types and not (value is None and None in types):
        raise TypeError(f"record field {name!r} cannot be a {type(value).__name__}")
    return value


def _typed_items(row: Mapping, name: str, item: type) -> list:
    """``row[name]`` when it is a list of exactly ``item``, else ``TypeError``."""
    values = _typed(row, name, list)
    for value in values:
        if type(value) is not item:
            raise TypeError(
                f"record field {name!r} holds a {type(value).__name__}; "
                f"its items are {item.__name__}s"
            )
    return values


def journal_path(path: str) -> str:
    """The sidecar journal's path for a store at ``path``."""
    return f"{path}.journal.jsonl"


def _journal_line(data: dict) -> bytes:
    """One CRC-guarded journal line: the CRC covers the canonical data.

    The data is encoded once and its canonical bytes are spliced into the
    ``{"crc", "data"}`` envelope: byte-for-byte what encoding the whole
    envelope with sorted keys gives, since ``"crc"`` sorts first and a
    nested value encodes as it does alone.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return b'{"crc":%d,"data":%s}\n' % (zlib.crc32(canonical), canonical)


#: A line as :func:`_journal_line` writes it: the CRC, then the data
#: bytes it covers (the ``stats.jsonl`` reader splits off the newline).
_LINE = re.compile(rb'\{"crc":([0-9]{1,10}),"data":(.*)\}\n?', re.DOTALL)

#: What decoding a CRC-valid row that is not what its reader expects raises.
_UNDECODABLE = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _line_data(raw: bytes) -> "bytes | None":
    """One journal line's data bytes; ``None`` when torn or damaged."""
    match = _LINE.fullmatch(raw)
    if match is None or zlib.crc32(match[2]) != int(match[1]):
        return None
    return match[2]


def _parse_journal_line(raw: bytes):
    """Decode one journal line; ``None`` when torn, damaged or too deep."""
    data = _line_data(raw)
    if data is None:
        return None
    try:
        return json.loads(data)
    except (ValueError, RecursionError):
        return None


def _record_of(data) -> RunRecord:
    """The record on a store journal's line after the header."""
    return _decode_record(data["record"])


def _walk_journal(raw: bytes, kind: str, decode=_record_of, header=None):
    """The one walk: ``(header, values, end)`` of ``raw``'s valid lines.

    Without a ``header`` the first line must be one of ``kind``.  Each
    later line's data goes through ``decode`` into ``values``; ``end``
    is the offset just past the last line kept.  The walk stops at the
    first unterminated, damaged or undecodable line.
    """
    values = []
    end = 0
    while True:
        newline = raw.find(b"\n", end)
        if newline < 0:
            break
        data = _parse_journal_line(raw[end : newline + 1])
        if data is None:
            break
        try:
            if header is None:
                if data["kind"] != kind:
                    break
                header = data
            else:
                values.append(decode(data))
        except _UNDECODABLE:
            break
        end = newline + 1
    return header, values, end


def _adopt_journal(path: str, header: dict, decode=_record_of):
    """The one adopt step: open ``path`` to append; ``(values, handle)``.

    Refuses (``ValueError``) a header of this kind with another
    ``spec_hash``, truncates what follows the walked prefix, and buffers
    ``header`` when the file has none.
    """
    handle = open(path, "a+b")
    handle.seek(0)
    raw = handle.read()
    found, values, end = _walk_journal(raw, header["kind"], decode)
    if found is not None and found.get("spec_hash") != header.get("spec_hash"):
        handle.close()
        raise ValueError(
            f"journal {path} belongs to spec_hash {found.get('spec_hash')!r}, "
            f"not {header.get('spec_hash')!r}; remove it to start over"
        )
    if end < len(raw):
        handle.truncate(end)
    if found is None:
        handle.write(_journal_line(header))
    return values, handle


def _append_journal(handle, *data, sync: bool = True) -> None:
    """The one append: a line per item in one write, a flush, and an
    fsync unless ``sync`` is false."""
    handle.write(b"".join(_journal_line(item) for item in data))
    handle.flush()
    if sync:
        os.fsync(handle.fileno())


class JournalReader:
    """Incrementally tail a store journal's valid prefix, while it grows.

    The live use of :func:`_walk_journal`: where a load walks a dead
    journal once, the reader is *re-pollable* — it remembers the byte
    offset of the last complete, CRC-valid line and each :meth:`poll`
    walks only what landed since.  An incomplete or CRC-failing tail
    line is treated as *in flight* (the writer may be mid-``write``), so
    the offset never advances past it; the next poll retries from the
    same place.  That is the consistency contract the
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
        self.header, records, end = _walk_journal(
            raw, _JOURNAL_KIND, header=self.header
        )
        self._offset += end
        return records


class StudyStore:
    """An append-only collection of :class:`RunRecord`\\ s for one spec."""

    def __init__(self, spec: StudySpec, package_version: "str | None" = None):
        from .. import __version__

        self.spec = spec
        self.spec_hash = spec_hash(spec)
        self.package_version = package_version or __version__
        #: One record per cell; a replaced cell keeps its place.
        self._by_id: "dict[str, RunRecord]" = {}
        #: The sidecar journal :meth:`begin_journal` named, and its
        #: handle once adopted (there, or by the first :meth:`checkpoint`).
        self._journal_path: "str | None" = None
        self._journal = None
        #: Set by :func:`load_study_store` when a torn journal tail was
        #: salvaged: ``{"journal", "records_salvaged", "bytes_discarded"}``.
        self.salvage: "dict | None" = None
        #: Set by :func:`~repro.study.runner.run_study` when the run was
        #: stopped by a graceful interrupt (SIGTERM / SIGINT / a
        #: ``stop_event``) before covering every cell; the store is
        #: checkpointed and ``resume`` completes it bit-for-bit.
        self.interrupted: bool = False
        #: The ids of every cell the spec compiles to.  A run sets them
        #: from the cells it compiled; :meth:`is_complete` compiles the
        #: spec only when they are unset (a store loaded from disk).
        self.cell_ids: "tuple[str, ...] | None" = None

    # -- collection behaviour ---------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self.records())

    def records(self) -> "list[RunRecord]":
        """Records sorted by cell index (whatever order they completed in)."""
        return sorted(self._by_id.values(), key=lambda r: r.index)

    def get(self, cell_id: str) -> "RunRecord | None":
        return self._by_id.get(cell_id)

    def add(self, record: RunRecord) -> None:
        existing = self._by_id.get(record.cell_id)
        if existing is not None and existing.ok:
            raise ValueError(f"cell {record.cell_id} is already recorded")
        # A non-ok record is a placeholder: a retry (resume) replaces it
        # in place, keeping one record per cell.
        self._absorb(record)

    def _absorb(self, record: RunRecord) -> None:
        """Journal replay upsert: the journal's view of a cell wins.

        A compaction interrupted between ``save`` and the journal unlink
        leaves the same record in both files; replaying must converge,
        not raise "already recorded".
        """
        self._by_id[record.cell_id] = record

    def _retain(self, cell_ids) -> None:
        """Drop every record whose ``cell_id`` is not in ``cell_ids``."""
        for cell_id in self._by_id.keys() - set(cell_ids):
            del self._by_id[cell_id]

    def failed(self) -> "list[RunRecord]":
        """The non-ok (failed / timed-out) records, in cell-index order."""
        return [record for record in self.records() if not record.ok]

    def timeouts(self) -> "list[RunRecord]":
        """The deadline-killed records, in cell-index order."""
        return [r for r in self.records() if r.status == "timeout"]

    def is_complete(self) -> bool:
        """Does the store cover every cell the spec expands to, successfully?"""
        if self.cell_ids is None:
            from .compile import compile_study

            self.cell_ids = tuple(cell.cell_id for cell in compile_study(self.spec))
        return all(
            cell_id in self._by_id and self._by_id[cell_id].ok
            for cell_id in self.cell_ids
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
        spec = _decode_spec(payload["spec"])
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
        """Write the store to ``path`` as JSON, atomically and durably.

        The temp file is fsync'd before the rename and the directory
        after it, so the new store is on disk when this returns.  One
        unindented ``json.dumps`` runs the C encoder; ``json.dump`` and
        any ``indent`` use the pure-Python one.
        """
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

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
        """Adopt the sidecar journal of a store at ``path``, if one exists.

        A pre-existing journal — a crashed run's — is adopted before
        anything runs: one of another spec is refused (``ValueError``),
        and the rest is cut back to the prefix :func:`load_study_store`
        reads, so new appends never glue onto a torn half-line (which
        would lose both records) or land behind a line the load stops
        at.  A missing journal is left to the first :meth:`checkpoint`
        to create, so a fresh run that checkpoints nothing (every record
        a cache hit after the last simulated cell) never creates, writes
        or unlinks one: its records land with :meth:`compact` alone.
        """
        self._journal_path = journal_path(path)
        if os.path.exists(self._journal_path):
            _records, self._journal = _adopt_journal(
                self._journal_path, self._journal_header()
            )

    def checkpoint(self, *records: RunRecord) -> None:
        """Append ``records`` to the journal in one write and one fsync.

        This is the durability point: after it returns, a ``kill -9``
        cannot lose the records.  With no journal adopted yet, the first
        call creates it with a self-contained header line (spec + hash),
        so the journal alone rebuilds the store if the kill lands before
        the compaction.  That header goes out in the same flush as the
        records and is durable with their fsync.  A kill inside the
        write leaves a prefix of its lines, which loads as the records
        it holds (no header, or a torn one, loads as "nothing recorded"
        — and nothing was).
        """
        if self._journal is None:
            if self._journal_path is None:
                raise RuntimeError("checkpoint() requires begin_journal() first")
            _records, self._journal = _adopt_journal(
                self._journal_path, self._journal_header()
            )
        _append_journal(
            self._journal, *({"record": _encode_record(r)} for r in records)
        )

    def compact(self, path: str) -> None:
        """Fold the journal into the columnar JSON and remove it.

        Crash-window safe: ``save`` lands atomically and durably
        *before* the unlink, so a kill (or an OS crash) between the two
        leaves both files agreeing — replay converges via
        :meth:`_absorb`.  Records added but never checkpointed are
        durable from here on too.
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
    loses at most the write in flight.  A torn journal tail is
    *salvaged*: the intact records load and the damage is reported via
    :attr:`StudyStore.salvage`, never raised.  A base file that exists
    but cannot be decoded — truncated JSON, JSON nested too deep to
    parse, a hand-edit that dropped a column or put a number out of its
    column's range — raises :class:`StoreCorruptError` naming the path.
    Legitimate refusals (future format version, spec-hash mismatch, a
    spec this version refuses, in the file or in a journal header) stay
    plain ``ValueError``\\ s: the file is intact, the request is wrong.
    """
    jpath = journal_path(path)
    store = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise StoreCorruptError(
                    f"study store {path} is not valid JSON ({exc}); the file "
                    "is corrupt — likely a checkpoint truncated by a hard "
                    "kill. Remove it (or restore a backup) and re-run the "
                    "study."
                ) from exc
        try:
            store = StudyStore.from_dict(payload)
        except _SpecRefused as exc:
            raise _refused(f"study store {path}", exc) from exc.__cause__
        except (KeyError, TypeError, IndexError, OverflowError, RecursionError) as exc:
            raise StoreCorruptError(
                f"study store {path} decodes as JSON but is structurally "
                f"damaged ({type(exc).__name__}: {exc}); remove it (or "
                "restore a backup) and re-run the study."
            ) from exc
    if not os.path.exists(jpath):
        if store is None:
            raise FileNotFoundError(path)
        return store
    with open(jpath, "rb") as handle:
        raw = handle.read()
    header, records, end = _walk_journal(raw, _JOURNAL_KIND)
    if header is None and store is None:
        # Even the header is torn: the journal carries nothing usable.
        raise FileNotFoundError(path)
    if store is None:
        try:
            spec = _decode_spec(header["spec"])
        except _SpecRefused as exc:
            raise _refused(f"journal {jpath}", exc) from exc.__cause__
        except KeyError as exc:
            raise StoreCorruptError(
                f"journal {jpath} has an undecodable spec header "
                f"({type(exc).__name__}: {exc}); remove it and re-run."
            ) from exc
        store = StudyStore(spec, package_version=header.get("package_version"))
    if header is not None and header.get("spec_hash") != store.spec_hash:
        raise ValueError(
            f"journal {jpath} belongs to spec_hash "
            f"{header.get('spec_hash')!r} but the store at {path} hashes to "
            f"{store.spec_hash!r}; refusing to mix two studies"
        )
    salvaged = 0
    for record in records:
        existing = store.get(record.cell_id)
        if existing is not None and existing.ok and existing.same_results(record):
            continue  # compaction-crash duplicate
        store._absorb(record)
        salvaged += 1
    if end < len(raw):
        store.salvage = {
            "journal": jpath,
            "records_salvaged": salvaged,
            "bytes_discarded": len(raw) - end,
        }
    return store
