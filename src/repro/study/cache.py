"""Content-addressed result cache: overlapping studies re-simulate nothing.

A study cell is a pure function of its parameters: the cell id already
content-addresses the canonical params dict (seed included, see
:func:`~repro.study.compile.cell_hash`), and the per-cell seed derives
from ``(spec_seed, cell_index)`` — never from execution order or wall
clock.  Two specs that share a cell (same axes assignment, same derived
seed) therefore share its *result*, bit for bit.  This module memoizes
that function on disk: each ok record is stored under a key hashed from
``(cell_id, package_version)`` — the cell id carries the plan hash and
the cell seed; the package version guards against code drift — so a
parameter-sweep campaign that re-runs an overlapping spec hits the cache
instead of the simulator.

Storage is a shared directory (``$REPRO_CACHE_DIR``, defaulting to
``~/.cache/repro``), one CRC-guarded JSON file per entry in the exact
``{"crc", "data"}`` envelope the store journal uses: a torn or mangled
entry is *ignored with a warning*, never a crash — the cell simply
re-simulates.  Writes are atomic (temp file + ``os.replace``) so a
``kill -9`` mid-``put`` can tear at most an invisible temp file; each
writer (process and thread) has its own temp name.  ``stats`` counts
an orphaned temp file's bytes, and ``gc`` collects it like an entry.
Nothing here is fsync'd, so that guarantee covers process kills only:
an OS crash can lose an entry (the cell then re-simulates) or a counter
line.

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
import os
import threading
import warnings

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

#: Canonical key order with default values (mirrors ``POLICY_KEYS``).
CACHE_KEYS = (
    ("enabled", False),
    ("dir", None),
)

#: Environment override for the shared cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_STATS_FILE = "stats.jsonl"
#: The counters file of older builds: one rewritten ``{"hits", "misses"}``.
_LEGACY_STATS_FILE = "stats.json"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def canonical_cache_value(value) -> "dict | None":
    """Normalise a declarative cache value to its canonical dict.

    Accepts ``None``, a bool (on/off with the default directory), a
    string (a directory, which implies ``enabled``), or a mapping with
    any subset of the canonical keys.  For a mapping, a ``dir`` without
    an explicit ``enabled`` implies ``enabled = true`` — naming a
    directory and not wanting it used is not a meaningful spec.  A value
    equal to the all-defaults table (caching off) collapses to ``None``,
    keeping the ``spec_hash`` of every cache-less spec unchanged.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        items = {"enabled": value}
    elif isinstance(value, str):
        items = {"enabled": True, "dir": value}
    else:
        try:
            items = dict(value)
        except (TypeError, ValueError):
            raise TypeError(
                f"cache must be a table, bool, or directory, got {value!r}"
            ) from None
    known = {key for key, _default in CACHE_KEYS}
    unknown = set(items) - known
    if unknown:
        raise KeyError(
            f"unknown cache keys {sorted(unknown)}; known keys are "
            f"{sorted(known)}"
        )
    directory = items.get("dir")
    if directory == "none":
        directory = None
    if directory is not None:
        directory = str(directory)
    enabled = items.get("enabled", directory is not None)
    if not isinstance(enabled, bool):
        raise TypeError(f"cache.enabled must be a bool, got {enabled!r}")
    out = {"enabled": enabled, "dir": directory}
    if out == dict(CACHE_KEYS):
        return None
    return out


def encode_cache_value(value) -> "dict | None":
    """JSON/TOML-friendly form: drop default-valued keys; defaults vanish."""
    value = canonical_cache_value(value)
    if value is None:
        return None
    out = {
        key: value[key]
        for key, default in CACHE_KEYS
        if value[key] != default and value[key] is not None
    }
    if value["dir"] is not None and not value["enabled"]:
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

    Entries live two levels deep (``<root>/<key[:2]>/<key>.json``) so a
    large campaign does not pile every file into one directory.  Only
    clean ok records are stored — failures must re-run, and degraded
    records would pin the *fallback* backend's provenance onto a later
    healthy run.  Hit/miss counters accumulate per process and are
    appended to ``<root>/stats.jsonl`` by :meth:`flush`; :meth:`gc`
    resets them, so the reported hit rate is "since last gc".
    """

    def __init__(self, root: "str | None" = None,
                 package_version: "str | None" = None):
        if package_version is None:
            from .. import __version__ as package_version
        self.root = os.path.abspath(root or default_cache_dir())
        self.package_version = str(package_version)
        #: Hits / misses observed by *this* process (see :meth:`flush`).
        self.hits = 0
        self.misses = 0

    # -- entry layout -------------------------------------------------

    def entry_path(self, cell_id: str) -> str:
        key = cache_key(cell_id, self.package_version)
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _files(self) -> "tuple[list[str], list[str]]":
        """Entry and ``put`` temp files on disk (stats sidecars excluded)."""
        entries, temps = [], []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json") and name != _LEGACY_STATS_FILE:
                    entries.append(os.path.join(dirpath, name))
                elif ".json.tmp." in name:
                    temps.append(os.path.join(dirpath, name))
        return entries, temps

    # -- the memo -----------------------------------------------------

    def get(self, cell_id: str):
        """The cached :class:`RunRecord` for ``cell_id``, or ``None``.

        A corrupt or undecodable entry is removed and reported as a
        :class:`RuntimeWarning` — a poisoned cache degrades to a miss,
        never to a crash.  A hit refreshes the entry's mtime so
        :meth:`gc` evicts least-recently-*used*, not least-recently-
        written.
        """
        from .store import _UNDECODABLE, _decode_record, _parse_journal_line

        path = self.entry_path(cell_id)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None
        row = _parse_journal_line(raw)
        record = None
        if row is not None:
            try:
                record = _decode_record(row)
            except _UNDECODABLE:
                record = None
        if record is None or record.cell_id != cell_id:
            warnings.warn(
                f"ignoring corrupt result-cache entry {path}",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return record

    def put(self, record) -> bool:
        """Memoize one record; returns whether it was cacheable.

        Only clean ok results enter the cache (no failures, no
        timeouts, no degraded provenance).  The write is atomic — temp
        file then ``os.replace`` — so concurrent writers of the same
        cell last-write-win an identical payload.  The temp name carries
        the process and thread id: two writers never share a temp file,
        so none renames away (or publishes half of) another's.  It is
        False, too, when a concurrent :meth:`gc` took the temp file.
        """
        from .store import _encode_record, _journal_line

        if not record.ok or record.degraded_from is not None:
            return False
        row = _encode_record(record)
        row["cache_hit"] = False  # a replayed hit must not re-stamp itself
        path = self.entry_path(record.cell_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as handle:
            handle.write(_journal_line(row))
        try:
            os.replace(tmp, path)
        except FileNotFoundError:
            return False
        return True

    # -- bookkeeping --------------------------------------------------

    def _read_stats_file(self, name: str) -> bytes:
        try:
            with open(os.path.join(self.root, name), "rb") as handle:
                return handle.read()
        except OSError:
            return b""

    def _read_counters(self) -> dict:
        """Sum ``stats.jsonl``'s valid lines and any legacy ``stats.json``.

        A torn or CRC-failing line is skipped and the scan resyncs at
        the next newline; an unterminated last line is a flush still in
        flight (or torn) and is skipped too.  A damaged legacy file
        reads as zero.
        """
        from .store import _UNDECODABLE, _parse_journal_line

        lines = self._read_stats_file(_STATS_FILE).split(b"\n")[:-1]
        rows = [_parse_journal_line(line) for line in lines]
        legacy = self._read_stats_file(_LEGACY_STATS_FILE)
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
        """Append this process's hit/miss counters to ``stats.jsonl``.

        One CRC line in a single ``O_APPEND`` write, through the
        journals' append without its fsync: concurrent writers
        (threads, a daemon and a CLI run sharing the directory) each
        land whole lines, so no count is lost and no lock is needed.
        """
        from .store import _append_journal

        if not (self.hits or self.misses):
            return
        os.makedirs(self.root, exist_ok=True)
        with open(os.path.join(self.root, _STATS_FILE), "ab") as handle:
            _append_journal(
                handle, {"hits": self.hits, "misses": self.misses}, sync=False
            )
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Entries, bytes on disk, and the hit rate since the last gc."""
        entries, temps = self._files()
        total_bytes = 0
        for path in entries + temps:
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
            "entries": len(entries),
            "bytes": total_bytes,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
        }

    def gc(self, max_age_s: "float | None" = None,
           max_bytes: "int | None" = None) -> dict:
        """Bound the cache: expire by age, then LRU-evict to a byte budget.

        Age and recency both read the entry mtime, which :meth:`get`
        refreshes on every hit; ``put`` temp files follow the same rules
        and count in ``removed`` and ``bytes``, not ``entries``.  Resets
        the hit/miss counters — the advertised rate is "since last gc".
        """
        import time

        now = time.time()
        entries, temps = self._files()
        survivors = []
        removed = 0
        for path in entries + temps:
            try:
                stat = os.stat(path)
            except OSError:
                continue
            if max_age_s is not None and now - stat.st_mtime > max_age_s:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
                continue
            survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            survivors.sort()  # oldest (least recently used) first
            total = sum(size for _mtime, size, _path in survivors)
            while survivors and total > max_bytes:
                _mtime, size, path = survivors.pop(0)
                try:
                    os.remove(path)
                    removed += 1
                    total -= size
                except OSError:
                    pass
        self.hits = 0
        self.misses = 0
        for name in (_STATS_FILE, _LEGACY_STATS_FILE):
            try:
                os.remove(os.path.join(self.root, name))
            except FileNotFoundError:
                pass
        kept_bytes = sum(size for _mtime, size, _path in survivors)
        kept_entries = sum(path.endswith(".json") for _m, _s, path in survivors)
        return {"removed": removed, "entries": kept_entries,
                "bytes": kept_bytes}
