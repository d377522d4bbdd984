"""Declarative studies: spec-driven experiment suites with provenance.

The paper's experiment grid — consensus-time scaling of 3-Majority /
2-Choices / Voter, the asynchronous scheduler, the §5 adversaries — is a
*set of cells*, each one :class:`~repro.engine.plan.SimulationPlan`.
This package makes the set itself a first-class artifact:

* :class:`StudySpec` (``spec.py``) — a plain dataclass declaring named
  axes (process, workload, ``n``, scheduler, adversary, stopping rule,
  horizon, backend, rng regime, fault schedule) plus a ``grid``/``zip``
  expansion rule;
  round-trippable to/from TOML and JSON, content-addressed by
  :func:`spec_hash`.
* :func:`compile_study` (``compile.py``) — expands a spec into
  :class:`StudyCell`\\ s, each carrying its derived seed and compiled
  :class:`~repro.engine.plan.SimulationPlan`.
* :class:`StudyStore` / :class:`RunRecord` (``store.py``) — the columnar
  result store with full provenance (spec hash, per-cell seed entropy,
  resolved backend, wall time, package version).
* :func:`run_study` (``runner.py``) — compiles a spec and hands its
  cells to :func:`~repro.study.runner.run_cells` (which callers holding
  compiled cells, such as the daemon, call directly); that executes the
  cells through the unified runtime (:func:`repro.engine.runtime.execute`) under an
  :class:`ExecutionPolicy` (``policy.py``: per-cell deadlines,
  classified backoff retries, backend degradation), isolates
  per-cell failures as ``status="failed"`` / ``"timeout"`` records,
  journals each record crash-safely, and supports bit-for-bit
  ``resume=`` of interrupted runs (broken cells are re-attempted).
* :class:`CellScheduler` (``scheduler.py``) — the runner's one dispatch
  loop: cells run one after another on the calling thread, which stays
  the store's single writer.  The ``[parallel]`` spec table is accepted
  and ignored, so older specs keep their hashes.
* :class:`ResultCache` (``cache.py``) — the shared content-addressed
  result cache (the ``[cache]`` spec table, ``$REPRO_CACHE_DIR``):
  overlapping studies replay clean records (``cache_hit=True``) instead
  of re-simulating.
* :func:`study_report` (``report.py``) — renders a store as tables.

The user-facing entry points are re-exported by :mod:`repro.api`
(``simulate`` / ``sweep`` / ``study``).
"""

from .cache import (
    CACHE_KEYS,
    ResultCache,
    canonical_cache_value,
    default_cache_dir,
    encode_cache_value,
    resolve_cache,
)
from .compile import (
    ADVERSARY_NAMES,
    StudyCell,
    build_adversary,
    compile_study,
    parse_stop,
    validate_study,
)
from .policy import (
    POLICY_KEYS,
    CellDeadlineExceeded,
    ExecutionPolicy,
    as_execution_policy,
    canonical_policy_value,
    encode_policy_value,
    resolve_policy,
)
from .report import study_report
from .runner import run_study
from .scheduler import (
    PARALLEL_KEYS,
    CellScheduler,
    canonical_parallel_value,
    encode_parallel_value,
)
from .spec import AXIS_NAMES, StudySpec, spec_hash
from .store import (
    STORE_FORMAT_VERSION,
    JournalReader,
    RunRecord,
    StoreCorruptError,
    StudyStore,
    journal_path,
    load_study_store,
)
from .toml_io import load_spec, loads_spec, dumps_spec, save_spec

__all__ = [
    "ADVERSARY_NAMES",
    "AXIS_NAMES",
    "CACHE_KEYS",
    "PARALLEL_KEYS",
    "POLICY_KEYS",
    "CellDeadlineExceeded",
    "CellScheduler",
    "ExecutionPolicy",
    "JournalReader",
    "ResultCache",
    "RunRecord",
    "STORE_FORMAT_VERSION",
    "StoreCorruptError",
    "StudyCell",
    "StudySpec",
    "StudyStore",
    "as_execution_policy",
    "build_adversary",
    "canonical_cache_value",
    "canonical_parallel_value",
    "canonical_policy_value",
    "compile_study",
    "default_cache_dir",
    "dumps_spec",
    "encode_cache_value",
    "encode_parallel_value",
    "encode_policy_value",
    "journal_path",
    "load_spec",
    "load_study_store",
    "loads_spec",
    "parse_stop",
    "resolve_cache",
    "resolve_policy",
    "run_study",
    "save_spec",
    "spec_hash",
    "study_report",
    "validate_study",
]
