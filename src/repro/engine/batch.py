"""Batched repetitions and summary statistics.

The paper's statements are about distributions of first-passage times, so
experiments always repeat runs over independent seeds.  This module
provides the repetition entry point (:func:`repeat_first_passage`, a thin
wrapper over the unified runtime of :mod:`repro.engine.runtime`), robust
summaries, and empirical-CDF utilities used to test stochastic dominance
claims (Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.configuration import Configuration
from ..processes.base import AgentProcess
from .plan import SimulationPlan
from .rng import RandomSource
from .runtime import execute
from .simulator import prefers_counts_backend
from .stopping import StoppingCondition

__all__ = [
    "BatchSummary",
    "summarize",
    "first_passage_plan",
    "repeat_first_passage",
    "empirical_cdf",
    "cdf_dominates",
]


@dataclass(frozen=True)
class BatchSummary:
    """Five-number-plus summary of a sample of first-passage times."""

    count: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count <= 1:
            return float("nan")
        return self.std / np.sqrt(self.count)

    def mean_ci95(self) -> "tuple[float, float]":
        """Normal-approximation 95% confidence interval for the mean."""
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)

    def format_row(self, label: str) -> str:
        lo, hi = self.mean_ci95()
        return (
            f"{label:<28} mean={self.mean:10.2f} ±{hi - self.mean:8.2f} "
            f"median={self.median:10.1f} max={self.maximum:10.0f}"
        )


def summarize(samples: Sequence[float]) -> BatchSummary:
    """Summary statistics of a non-empty sample."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    return BatchSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        q25=float(np.quantile(arr, 0.25)),
        median=float(np.quantile(arr, 0.5)),
        q75=float(np.quantile(arr, 0.75)),
        maximum=float(arr.max()),
    )


def repeat_first_passage(
    process_factory: "Callable[[], AgentProcess]",
    initial: Configuration,
    stop: StoppingCondition,
    repetitions: int,
    rng: RandomSource,
    max_rounds: "int | None" = None,
    backend: str = "auto",
    rng_mode: str = "batched",
    scheduler: str = "synchronous",
    adversary=None,
) -> np.ndarray:
    """Sample the first-passage time of ``stop`` over independent runs.

    A thin wrapper over the unified runtime: the arguments are packed
    into a :class:`~repro.engine.plan.SimulationPlan` and executed by
    whichever registered backend
    :func:`~repro.engine.runtime.resolve_backend` picks.  ``backend``
    accepts any registry name or resolution alias
    (:func:`~repro.engine.runtime.backend_choices`); the family aliases
    keep their historical meanings:

    * ``"auto"`` — the sequential reference path (one run per repetition
      with its own spawned child generator; every backend's
      ``rng_mode="per-replica"`` runs these same streams through the
      same loop).
      With ``scheduler="asynchronous"`` or an ``adversary``, where no
      historical stream contract exists, ``"auto"`` is the runtime's
      full cost-model decision instead.
    * ``"ensemble-auto"`` / ``"ensemble-agent"`` / ``"ensemble-counts"``
      — the vectorized lock-step path, ~an order of magnitude faster at
      production replica counts.

    ``scheduler="asynchronous"`` measures first-passage *ticks* of the
    one-node-per-tick companion model (``max_rounds`` then bounds ticks);
    passing an ``adversary`` measures rounds-to-stabilisation of the §5
    robust runs.  Both axes resolve to their own registered backends, so
    sweeps and the CLI run them through this same entry point.

    On the sequential paths ``process_factory`` builds a fresh process
    per run so that processes with mutable internals stay independent
    across repetitions; the ensemble and kernel paths build one process
    and require it to be safe to share across lock-step replicas (true
    for all built-ins, which keep no per-run state).
    """
    plan = first_passage_plan(
        process_factory=process_factory,
        initial=initial,
        stop=stop,
        repetitions=repetitions,
        rng=rng,
        max_rounds=max_rounds,
        backend=backend,
        rng_mode=rng_mode,
        scheduler=scheduler,
        adversary=adversary,
    )
    return execute(plan).times


def first_passage_plan(
    process_factory: "Callable[[], AgentProcess]",
    initial: Configuration,
    stop: "StoppingCondition | None",
    repetitions: int,
    rng: RandomSource,
    max_rounds: "int | None" = None,
    backend: str = "auto",
    rng_mode: str = "batched",
    scheduler: str = "synchronous",
    adversary=None,
    faults=None,
    recorder=None,
    check_every: "int | None" = None,
    stable_fraction: float = 0.95,
    stable_rounds: int = 3,
    raise_on_limit: bool = True,
) -> SimulationPlan:
    """Pack first-passage measurement arguments into a plan.

    The shared plan builder behind :func:`repeat_first_passage` and the
    declarative study compiler (:func:`repro.study.compile.compile_study`)
    — one place for the historical ``"auto"`` contract, so imperative and
    spec-driven entry points produce byte-identical plans.
    """
    if (
        backend == "auto"
        and scheduler == "synchronous"
        and adversary is None
        and (recorder is None or repetitions == 1)
    ):
        # Historical contract: plain "auto" is the sequential reference
        # path with the simulator's own representation rule, keeping
        # pre-runtime sample streams bit-for-bit intact (the runtime's
        # "sequential-auto" alias is cost-ranked and may legitimately
        # disagree on exotic wider-than-n slot spaces).  The recorder
        # clause keeps recorded R > 1 "auto" plans on the runtime's cost
        # decision: that keeps their backend names, and for batched
        # plans their samples, what existing stores recorded.
        backend = (
            "counts"
            if prefers_counts_backend(process_factory(), initial, "auto")
            else "agent"
        )
    return SimulationPlan(
        process=process_factory,
        initial=initial,
        stop=stop,
        repetitions=repetitions,
        scheduler=scheduler,
        adversary=adversary,
        faults=faults,
        rng=rng,
        rng_mode=rng_mode,
        recorder=recorder,
        max_rounds=max_rounds,
        check_every=check_every,
        backend=backend,
        stable_fraction=stable_fraction,
        stable_rounds=stable_rounds,
        raise_on_limit=raise_on_limit,
    )


def empirical_cdf(samples: np.ndarray) -> "Callable[[float], float]":
    """The empirical CDF of ``samples`` as a callable."""
    arr = np.sort(np.asarray(samples, dtype=float))

    def cdf(t: float) -> float:
        return float(np.searchsorted(arr, t, side="right")) / arr.size

    return cdf


def cdf_dominates(
    fast_samples: np.ndarray, slow_samples: np.ndarray, slack: float = 0.0
) -> bool:
    """Check ``T_fast ≤_st T_slow`` on empirical CDFs with tolerance.

    True iff ``P[T_fast ≤ t] ≥ P[T_slow ≤ t] − slack`` at every observed
    time ``t``.  ``slack`` absorbs Monte-Carlo noise; the benchmarks report
    the worst violation alongside the verdict.

    Both empirical CDFs are evaluated on the merged grid with a single
    ``searchsorted`` per sample array (the grid is sorted, so one binary
    search batch covers every grid point).
    """
    fast = np.sort(np.asarray(fast_samples, dtype=float))
    slow = np.sort(np.asarray(slow_samples, dtype=float))
    grid = np.unique(np.concatenate([fast, slow]))
    cdf_fast = np.searchsorted(fast, grid, side="right") / fast.size
    cdf_slow = np.searchsorted(slow, grid, side="right") / slow.size
    return bool(np.all(cdf_fast >= cdf_slow - slack))
