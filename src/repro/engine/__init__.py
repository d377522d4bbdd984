"""Simulation engine: execution strategies behind one unified runtime.

* :mod:`repro.engine.rng` — deterministic seeding and stream spawning;
* :mod:`repro.engine.simulator` — agent-level and exact count-level runs,
  first-passage helpers for the paper's target quantities;
* :mod:`repro.engine.stopping` — stopping conditions (consensus, ``T^κ``,
  symmetry breaking);
* :mod:`repro.engine.metrics` — per-round trajectory metrics (with
  ensemble-aware recorders);
* :mod:`repro.engine.batch` — repetitions, summaries, CDF dominance;
* :mod:`repro.engine.ensemble` — vectorized lock-step simulation of a
  whole ensemble of replicas (the fast path for repeated measurements);
* :mod:`repro.engine.asynchronous` — the one-node-per-tick companion
  scheduler, sequential and lock-step ensemble;
* :mod:`repro.engine.kernels` — fused single-pass kernels: the agent
  ensemble lumped exactly to a counts chain, the async tick loop resolved
  in conflict-free wavefronts (registered as ``kernel-agent`` /
  ``kernel-async``, pure numpy with optional numba acceleration);
* :mod:`repro.engine.plan` / :mod:`repro.engine.runtime` — the unified
  runtime: declarative :class:`SimulationPlan`\\ s executed by the
  cheapest registered :class:`Backend` whose declared capabilities
  (scheduler kind, adversary support, counts tractability) cover the
  plan.  ``execute(plan)`` is the single entry point behind
  :func:`repeat_first_passage`, the study runner, and the CLI.
"""

from .asynchronous import (
    AsyncEnsembleResult,
    AsyncResult,
    run_asynchronous,
    run_asynchronous_ensemble,
    ticks_to_round_equivalents,
)
from .ensemble import (
    EnsembleResult,
    narrow_int_dtype,
    run_agent_ensemble,
    run_counts_ensemble,
    run_ensemble,
)
from .batch import (
    BatchSummary,
    cdf_dominates,
    empirical_cdf,
    repeat_first_passage,
    summarize,
)
from .kernels import (
    run_fused_agent_ensemble,
    run_fused_asynchronous_ensemble,
)
from .metrics import METRICS, EnsembleMetricRecorder, MetricRecorder
from .plan import RNG_MODES, SCHEDULERS, SimulationPlan
from .runtime import (
    Backend,
    BackendSpec,
    ExecutionResult,
    backend_choices,
    backend_names,
    backend_specs,
    execute,
    get_backend,
    register_backend,
    resolve_backend,
)
from .rng import (
    as_generator,
    derive_seed,
    per_replica_generators,
    replica_seed_sequences,
    spawn_generators,
)
from .simulator import (
    RoundLimitExceeded,
    SimulationResult,
    consensus_time,
    default_round_limit,
    reduction_time,
    run,
    run_agent,
    run_counts,
    symmetry_breaking_time,
)
from .stopping import (
    AllOf,
    AnyOf,
    BiasAtLeast,
    ColorsAtMost,
    Consensus,
    MaxSupportAbove,
    StoppingCondition,
)

__all__ = [
    "AllOf",
    "AsyncEnsembleResult",
    "AsyncResult",
    "AnyOf",
    "Backend",
    "BackendSpec",
    "BatchSummary",
    "BiasAtLeast",
    "ColorsAtMost",
    "Consensus",
    "EnsembleMetricRecorder",
    "EnsembleResult",
    "ExecutionResult",
    "METRICS",
    "MaxSupportAbove",
    "MetricRecorder",
    "RNG_MODES",
    "RoundLimitExceeded",
    "SCHEDULERS",
    "SimulationPlan",
    "SimulationResult",
    "StoppingCondition",
    "as_generator",
    "backend_choices",
    "backend_names",
    "backend_specs",
    "execute",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "cdf_dominates",
    "consensus_time",
    "default_round_limit",
    "derive_seed",
    "empirical_cdf",
    "narrow_int_dtype",
    "per_replica_generators",
    "reduction_time",
    "replica_seed_sequences",
    "run_asynchronous",
    "run_asynchronous_ensemble",
    "run_fused_agent_ensemble",
    "run_fused_asynchronous_ensemble",
    "repeat_first_passage",
    "run",
    "run_agent",
    "run_agent_ensemble",
    "run_counts",
    "run_counts_ensemble",
    "run_ensemble",
    "spawn_generators",
    "summarize",
    "symmetry_breaking_time",
    "ticks_to_round_equivalents",
]
