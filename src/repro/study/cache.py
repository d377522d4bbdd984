"""Content-addressed result cache: overlapping studies re-simulate nothing.

A study cell is a pure function of its parameters: the cell id already
content-addresses the canonical params dict (seed included, see
:func:`~repro.study.compile.compile_study`), and the per-cell seed derives
from ``(spec_seed, cell_index)`` — never from execution order or wall
clock.  Two specs that share a cell (same axes assignment, same derived
seed) therefore share its *result*, bit for bit.  This module memoizes
that function on disk: each ok record is stored under a key hashed from
``(cell_id, package_version)`` — the cell id carries the plan hash and
the cell seed; the package version guards against code drift — so a
parameter-sweep campaign that re-runs an overlapping spec hits the cache
instead of the simulator.

Layout.  A shared directory (``$REPRO_CACHE_DIR``, defaulting to
``~/.cache/repro``) holds one append-only log, ``entries.jsonl``, in the
store journal's CRC-line format (``_journal_line`` writes it,
``_parse_journal_line`` reads it).  A :meth:`ResultCache.put` appends
one entry line ``{"key", "record", "t"}`` (``t``: the put's wall-clock
time); a :meth:`ResultCache.flush` appends one recency line ``{"t",
"used"}`` naming the keys the run hit.  A key's latest entry line is its
entry.  Each instance keeps the log open for appending and an in-memory
index from key to the offset of that line; a lookup the index misses
first indexes the bytes appended since the instance last looked, and a
hit reads its one line with ``pread`` and decodes it whole.  Indexing
checks each line's CRC and takes the key from the first bytes of its
data (``_journal_line`` sorts keys, so ``"key"`` leads) without
decoding the record.

Guarantees.  A torn line, a line that fails its CRC and a row that does
not decode are misses with a :class:`RuntimeWarning`, never a crash: the
cell re-simulates and its fresh line supersedes the damaged one.  The
walk resyncs at the next newline and stops at an unterminated tail, a
line still in flight.  A put ends such a tail with a newline before its
own line, so the line after a torn write stays whole.  Nothing here is
fsync'd: a ``kill -9`` loses nothing that ``put`` returned, but an OS
crash can lose lines (the cell then re-simulates) or a counter line.

Concurrency.  Each line goes out in one ``O_APPEND`` write, so threads
and processes sharing the directory each land whole lines and need no
lock.  Before each append and each index refresh an instance compares
the log's inode with its handle's; when another process's ``gc``
replaced the log, it re-opens and re-indexes it, so it never appends to
or reads from a replaced file.  A put that lands between a concurrent
``gc``'s read and its rename is lost with the old file: that cell
re-simulates.

gc.  :meth:`ResultCache.gc` expires entries not put or used for
``max_age_s``, then evicts the least recently used down to ``max_bytes``,
rewrites the survivors (each stamped with its last use) to a temp file
renamed over the log, and resets the counters.  Files of the per-entry
layout of older builds (``<xx>/<key>.json``, ``*.json.tmp.*``) are never
read; ``stats`` counts their bytes and ``gc`` removes them.

Hit/miss counters live in ``<root>/stats.jsonl``, an append-only log:
each :meth:`ResultCache.flush` appends one CRC line ``{"hits",
"misses"}`` in a single ``O_APPEND`` write, with no lock, no read and
no rename, and :meth:`ResultCache.stats` sums the valid lines.  The log
grows by one line (about 50 bytes) per flushing run until
:meth:`ResultCache.gc` clears it.  A ``stats.json`` left by an older
build still counts, until ``gc`` removes it too.

Like ``[execution]`` and ``[parallel]``, the declarative ``[cache]``
table is default-elided: caching off (the default) serialises to
nothing, so every pre-existing ``spec_hash`` — and therefore every
existing store and cell id — stays valid.  The table never enters cell
params: caching changes where results come *from*, never what they
*are*; :meth:`~repro.study.store.RunRecord.same_results` ignores the
``cache_hit`` stamp for the same reason it ignores wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
import warnings

from ..tables import canonical_table, encode_table

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_KEYS",
    "ResultCache",
    "cache_key",
    "canonical_cache_value",
    "default_cache_dir",
    "encode_cache_value",
    "resolve_cache",
]

#: The ``[cache]`` table: ``(key, default, kind)`` in canonical order.
CACHE_KEYS = (
    ("enabled", False, "bool"),
    ("dir", None, "str"),
)

#: Environment override for the shared cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The entry log: entry lines and recency lines, appended.
_LOG_FILE = "entries.jsonl"
#: The start of an entry line's data: ``_journal_line`` sorts keys, so
#: ``"key"`` leads, and a cache key is 32 hex digits.
_ENTRY_KEY = re.compile(rb'\{"key":"([0-9a-f]{32})",')
_STATS_FILE = "stats.jsonl"
#: The counters file of older builds: one rewritten ``{"hits", "misses"}``.
_LEGACY_STATS_FILE = "stats.json"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _implied_enabled(out: dict, items: dict) -> dict:
    if "enabled" not in items and out["dir"] is not None:
        out["enabled"] = True
    return out


def canonical_cache_value(value) -> "dict | None":
    """Normalise a declarative cache value to its canonical dict.

    Accepts ``None``, a bool (on/off with the default directory), a
    string (a directory, which implies ``enabled``), or a mapping with
    any subset of the canonical keys (decoded by
    :func:`~repro.tables.canonical_table`).  For a mapping, a ``dir``
    without an explicit ``enabled`` implies ``enabled = true`` — naming
    a directory and not wanting it used is not a meaningful spec.  A
    value equal to the all-defaults table (caching off) collapses to
    ``None``, keeping the ``spec_hash`` of every cache-less spec
    unchanged.
    """
    if isinstance(value, bool):
        value = {"enabled": value}
    elif isinstance(value, str):
        value = {"enabled": True, "dir": value}
    return canonical_table(
        "cache", CACHE_KEYS, value,
        what="a table, bool, or directory", rules=_implied_enabled,
    )


def encode_cache_value(value) -> "dict | None":
    """JSON/TOML-friendly form: drop default-valued keys; defaults vanish."""
    value = canonical_cache_value(value)
    out = encode_table(CACHE_KEYS, value)
    if out is not None and value["dir"] is not None and not value["enabled"]:
        # A bare ``dir`` implies enabled on decode; keep the off switch.
        out["enabled"] = False
    return out


def resolve_cache(override=None, spec_value=None) -> "ResultCache | None":
    """The runner's precedence rule: explicit argument > spec table > off.

    ``override`` is the ``run_study(cache=...)`` / CLI value: ``None``
    defers to the spec, ``False`` (``--no-cache``) forces caching off
    even for a spec that enables it, ``True`` (``--cache``) turns it on
    with the default directory, a string names the directory, and a
    ready :class:`ResultCache` is used as-is.
    """
    if isinstance(override, ResultCache):
        return override
    value = canonical_cache_value(
        override if override is not None else spec_value
    )
    if value is None or not value["enabled"]:
        return None
    return ResultCache(value["dir"])


def cache_key(cell_id: str, package_version: str) -> str:
    """Content address of one cell's result under one code version.

    The cell id is already a content hash of the canonical params (the
    plan) *including* the derived cell seed; folding in the package
    version invalidates every entry when the simulator changes.
    """
    digest = hashlib.sha256(
        f"{cell_id}:{package_version}".encode("utf-8")
    )
    return digest.hexdigest()[:32]


class ResultCache:
    """A shared on-disk memo of ok :class:`~repro.study.store.RunRecord`\\ s.

    Entries are lines of one append-only log, ``<root>/entries.jsonl``
    (see the module docstring).  Only clean ok records are stored —
    failures must re-run, and degraded records would pin the *fallback*
    backend's provenance onto a later healthy run.  Hit/miss counters
    accumulate per instance and are appended to ``<root>/stats.jsonl``
    by :meth:`flush`; :meth:`gc` resets them, so the reported hit rate
    is "since last gc".  An instance opens the log lazily and keeps it
    open; :meth:`close` releases it (a later call re-opens it).
    """

    def __init__(self, root: "str | None" = None,
                 package_version: "str | None" = None):
        if package_version is None:
            from .. import __version__ as package_version
        self.root = os.path.abspath(root or default_cache_dir())
        self.package_version = str(package_version)
        self.log_path = os.path.join(self.root, _LOG_FILE)
        #: Hits / misses observed by *this* instance (see :meth:`flush`).
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._handle = None  # the log, opened "a+b", unbuffered
        self._identity = None  # (st_dev, st_ino) of the handle's file
        #: key -> (offset, length) of its latest entry line.
        self._index: "dict[str, tuple[int, int]]" = {}
        self._indexed = 0  # the log's bytes walked so far
        self._used: "dict[str, None]" = {}  # keys hit since the last flush

    # -- the log ------------------------------------------------------

    def _drop(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._handle = self._identity = None
        self._index = {}
        self._indexed = 0

    def close(self) -> None:
        """Close the log; the next lookup or put re-opens it."""
        with self._lock:
            self._drop()

    def __del__(self):
        # An instance dropped without close() must not leak its handle.
        if getattr(self, "_handle", None) is not None:
            self._handle.close()

    def _refresh(self, create: bool = False) -> "int | None":
        """Index the lines appended since the last look; the log's size.

        Re-opens the log, and re-indexes it from its first byte, when
        the file at :attr:`log_path` is no longer the one the handle
        holds (another process's :meth:`gc` replaced it).  ``None`` when
        there is no log and ``create`` is false.
        """
        try:
            stat = os.stat(self.log_path)
        except FileNotFoundError:
            self._drop()
            if not create:
                return None
            stat = None
        if (stat is None or (stat.st_dev, stat.st_ino) != self._identity
                or stat.st_size < self._indexed):
            self._drop()
            os.makedirs(self.root, exist_ok=True)
            self._handle = open(self.log_path, "a+b", buffering=0)
            stat = os.fstat(self._handle.fileno())
            self._identity = (stat.st_dev, stat.st_ino)
        if stat.st_size > self._indexed:
            self._index_lines(os.pread(
                self._handle.fileno(), stat.st_size - self._indexed,
                self._indexed,
            ))
        return stat.st_size

    def _index_lines(self, raw: bytes) -> None:
        """Index the whole lines of ``raw``, the log from ``_indexed`` on.

        A damaged line is skipped with a warning and the walk resyncs at
        the next newline; it stops before an unterminated tail.
        """
        from .store import _line_data

        base = self._indexed
        start = 0
        while stop := raw.find(b"\n", start) + 1:
            if stop - start > 1:  # an empty line is a newline a put added
                data = _line_data(raw[start:stop])
                if data is None:
                    _warn_corrupt(f"at byte {base + start} of {self.log_path}")
                elif entry := _ENTRY_KEY.match(data):
                    self._index[entry[1].decode()] = (base + start, stop - start)
            start = stop
        self._indexed = base + start

    def _append(self, line: bytes) -> "tuple[int, int] | None":
        """Append ``line`` in one write: ``(offset, length)`` where it
        landed, or ``None`` on a short write."""
        size = self._refresh(create=True)
        # Bytes past the walked prefix are an unterminated tail, a torn
        # write: end it, so that this line starts a line of its own.
        lead = b"\n" if size > self._indexed else b""
        data = lead + line
        if self._handle.write(data) != len(data):
            return None
        end = self._handle.tell()
        if end - len(data) == size:  # nothing landed in between
            self._indexed = end
        return end - len(line), len(line)

    # -- the memo -----------------------------------------------------

    def get(self, cell_id: str):
        """The cached :class:`RunRecord` for ``cell_id``, or ``None``.

        A corrupt or undecodable entry is reported as a
        :class:`RuntimeWarning` and dropped from the index — a poisoned
        cache degrades to a miss, never to a crash.  A hit is noted for
        the recency line :meth:`flush` appends, so :meth:`gc` evicts
        least-recently-*used*, not least-recently-written.
        """
        from .store import _UNDECODABLE, _decode_record, _parse_journal_line

        key = cache_key(cell_id, self.package_version)
        with self._lock:
            where = self._index.get(key)
            if where is None and self._refresh() is not None:
                where = self._index.get(key)
            if where is None:
                self.misses += 1
                return None
            raw = os.pread(self._handle.fileno(), where[1], where[0])
        data = _parse_journal_line(raw)
        try:
            if data["key"] != key:
                raise ValueError("the line holds another key")
            record = _decode_record(data["record"])
        except _UNDECODABLE:
            record = None
        with self._lock:
            if record is not None and record.cell_id == cell_id:
                self._used[key] = None
                self.hits += 1
                return record
            if self._index.get(key) == where:
                del self._index[key]
            self.misses += 1
        _warn_corrupt(f"for cell {cell_id} at byte {where[0]} of {self.log_path}")
        return None

    def put(self, record) -> bool:
        """Memoize one record; returns whether it was stored.

        Only clean ok results enter the cache (no failures, no
        timeouts, no degraded provenance).  The entry is one line
        appended in one write; concurrent writers of the same cell each
        append an identical record, and the latest line wins.
        """
        from .store import _encode_record, _journal_line

        if not record.ok or record.degraded_from is not None:
            return False
        row = _encode_record(record)
        row["cache_hit"] = False  # a replayed hit must not re-stamp itself
        key = cache_key(record.cell_id, self.package_version)
        line = _journal_line({"key": key, "record": row, "t": time.time()})
        with self._lock:
            where = self._append(line)
            if where is not None:
                self._index[key] = where
        return where is not None

    # -- bookkeeping --------------------------------------------------

    def _read(self, name: str) -> "bytes | None":
        try:
            with open(os.path.join(self.root, name), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _stray(self) -> "list[str]":
        """Files no lookup reads: the per-entry layout's entries and temp
        files (``<xx>/<key>.json``, ``*.json.tmp.*``) and the temp log
        of a killed :meth:`gc`."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if dirpath == self.root:
                    if name.startswith(f"{_LOG_FILE}.tmp."):
                        found.append(os.path.join(dirpath, name))
                elif name.endswith(".json") or ".json.tmp." in name:
                    found.append(os.path.join(dirpath, name))
        return found

    def _read_counters(self) -> dict:
        """Sum ``stats.jsonl``'s valid lines and any legacy ``stats.json``.

        A torn or CRC-failing line is skipped and the scan resyncs at
        the next newline; an unterminated last line is a flush still in
        flight (or torn) and is skipped too.  A damaged legacy file
        reads as zero.
        """
        from .store import _UNDECODABLE, _parse_journal_line

        lines = (self._read(_STATS_FILE) or b"").split(b"\n")[:-1]
        rows = [_parse_journal_line(line) for line in lines]
        legacy = self._read(_LEGACY_STATS_FILE)
        if legacy:
            row = _parse_journal_line(legacy)
            if row is None:  # not enveloped: a pre-envelope file?
                try:
                    row = json.loads(legacy.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    pass
            rows.append(row)
        hits = misses = 0
        for row in rows:
            try:
                hits, misses = hits + int(row["hits"]), misses + int(row["misses"])
            except _UNDECODABLE:
                continue  # a damaged line counts nothing
        return {"hits": hits, "misses": misses}

    def flush(self) -> None:
        """Append the keys this instance hit and its hit/miss counters.

        The keys go to the entry log as one recency line; the counters
        go to ``stats.jsonl`` as one CRC line, through the journals'
        append without its fsync.  Each is a single ``O_APPEND`` write:
        concurrent writers (threads, a daemon and a CLI run sharing the
        directory) each land whole lines, so no count is lost and no
        lock is needed.
        """
        from .store import _append_journal, _journal_line

        with self._lock:
            if self._used:
                used = {"t": time.time(), "used": list(self._used)}
                self._append(_journal_line(used))
                self._used = {}
            hits, misses = self.hits, self.misses
            self.hits = self.misses = 0
        if not (hits or misses):
            return
        os.makedirs(self.root, exist_ok=True)
        with open(os.path.join(self.root, _STATS_FILE), "ab") as handle:
            _append_journal(handle, {"hits": hits, "misses": misses}, sync=False)

    def stats(self) -> dict:
        """Intact entries, bytes on disk, and the hit rate since the last gc.

        ``bytes`` counts the log and the files of the per-entry layout.
        """
        raw = self._read(_LOG_FILE) or b""
        total_bytes = len(raw)
        for path in self._stray():
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        counters = self._read_counters()
        hits = counters["hits"] + self.hits
        misses = counters["misses"] + self.misses
        lookups = hits + misses
        return {
            "dir": self.root,
            "entries": len(_intact_entries(raw)),
            "bytes": total_bytes,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
        }

    def gc(self, max_age_s: "float | None" = None,
           max_bytes: "int | None" = None) -> dict:
        """Bound the cache: expire by age, then LRU-evict to a byte budget.

        An entry's age and recency count from its last put or use (the
        latest ``t`` among its entry line and the recency lines naming
        it).  The survivors, each stamped with its last use, are written
        to a temp file renamed over the log; damaged lines, superseded
        lines and recency lines do not survive.  Files of the per-entry
        layout are removed whatever their age, and count in ``removed``.
        Resets the hit/miss counters — the advertised rate is "since
        last gc".
        """
        from .store import _journal_line

        now = time.time()
        removed = 0
        for path in self._stray():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        for name in os.listdir(self.root) if os.path.isdir(self.root) else ():
            path = os.path.join(self.root, name)
            if os.path.isdir(path):
                try:
                    os.rmdir(path)  # an emptied fanout directory
                except OSError:
                    pass
        with self._lock:
            raw = self._read(_LOG_FILE)
            survivors = []
            for key, (row, used) in _intact_entries(raw or b"").items():
                if max_age_s is not None and now - used > max_age_s:
                    removed += 1
                    continue
                line = _journal_line({"key": key, "record": row, "t": used})
                survivors.append((used, key, line))
            survivors.sort()  # least recently used first
            total = sum(len(line) for _used, _key, line in survivors)
            evicted = 0
            while (max_bytes is not None and evicted < len(survivors)
                   and total > max_bytes):
                total -= len(survivors[evicted][2])
                evicted += 1
            survivors = survivors[evicted:]
            removed += evicted
            if raw is not None:
                tmp = f"{self.log_path}.tmp.{os.getpid()}.{threading.get_ident()}"
                with open(tmp, "wb") as handle:
                    handle.write(b"".join(line for _used, _key, line in survivors))
                try:
                    os.replace(tmp, self.log_path)
                except FileNotFoundError:
                    pass  # a concurrent gc collected the temp file
                self._drop()
            self.hits = 0
            self.misses = 0
        for name in (_STATS_FILE, _LEGACY_STATS_FILE):
            try:
                os.remove(os.path.join(self.root, name))
            except FileNotFoundError:
                pass
        return {"removed": removed, "entries": len(survivors), "bytes": total}


def _warn_corrupt(where: str) -> None:
    warnings.warn(
        f"ignoring corrupt result-cache entry {where}; "
        "`repro study cache gc` drops it",
        RuntimeWarning,
        stacklevel=3,
    )


def _stamp(value) -> float:
    """A line's ``t`` as a finite float; 0.0 (the oldest) for anything else."""
    if type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError:
            return 0.0
        if math.isfinite(value):
            return value
    return 0.0


def _intact_entries(raw: bytes) -> dict:
    """``key -> (record row, last use)`` of the log's entries that decode.

    A key's latest entry line is its entry, as for a lookup; its last use
    is the latest ``t`` of that line and of the recency lines naming it.
    """
    from .store import _UNDECODABLE, _decode_record, _line_data

    latest, used = {}, {}
    start = 0
    while stop := raw.find(b"\n", start) + 1:
        data = _line_data(raw[start:stop])
        start = stop
        if data is None:
            continue
        if entry := _ENTRY_KEY.match(data):
            latest[entry[1].decode()] = data
            continue
        try:
            line = json.loads(data)
            stamp, keys = _stamp(line["t"]), list(line["used"])
        except (RecursionError, *_UNDECODABLE):
            continue  # no recency line
        for key in keys:
            if isinstance(key, str):
                used[key] = max(used.get(key, stamp), stamp)
    entries = {}
    for key, data in latest.items():
        try:
            line = json.loads(data)
            if line["key"] != key:
                continue
            _decode_record(line["record"])
        except (RecursionError, *_UNDECODABLE):
            continue
        stamp = _stamp(line.get("t"))
        entries[key] = (line["record"], max(stamp, used.get(key, stamp)))
    return entries
