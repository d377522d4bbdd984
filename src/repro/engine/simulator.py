"""The round-synchronous simulation engine.

Two backends implement the paper's model:

* :func:`run_agent` — the literal protocol: an ``n``-vector of per-node
  colors updated by the process's rule every round.  Works for every
  process, including non-AC ones (2-Choices, 2-Median, Undecided).
* :func:`run_counts` — the exact count-level chain available for
  AC-processes (one ``Mult(n, α(c))`` draw per round, Section 2.2).
  Dramatically cheaper when the color space is small and *exactly* the
  same process in distribution; the test-suite verifies the agreement.

:func:`run` dispatches between them (``backend="auto"`` prefers the
count-level chain whenever the process allows it and the slot count is
moderate), and the first-passage helpers :func:`consensus_time`,
:func:`reduction_time` and :func:`symmetry_breaking_time` express the
paper's three target quantities directly.

Backend dispatch across the engine:

* ``"agent"`` — faithful for every process; cost ``O(n)`` array work per
  round per replica.  The only choice for non-AC processes and for AC
  configurations wider than ``_COUNT_BACKEND_SLOT_LIMIT`` slots.
* ``"counts"`` — exact and far cheaper when the slot count is small
  (``O(k)`` per round); AC-processes only.
* ensemble variants (:mod:`repro.engine.ensemble`) — the same two
  semantics but advancing *all repetitions lock-step in one array*, from
  one shared stream; wins whenever a batched measurement repeats runs
  (benchmarks, sweeps, CDFs), which is nearly always.

Repeated-measurement dispatch lives in the unified runtime
(:mod:`repro.engine.runtime`).  Every per-replica plan, whichever
backend name it resolves to, runs these two functions once per spawned
stream (:func:`repro.engine.ensemble.run_replicas`), and
:func:`_counts_tractable` is the one representation rule behind both
``run(backend="auto")`` and the registry's count backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.configuration import Configuration
from ..processes.base import ACAgentProcess, AgentProcess, counts_from_colors
from .metrics import MetricRecorder
from .rng import RandomSource, as_generator
from .stopping import ColorsAtMost, Consensus, MaxSupportAbove, StoppingCondition

__all__ = [
    "SimulationResult",
    "RoundLimitExceeded",
    "run",
    "run_agent",
    "run_counts",
    "prefers_counts_backend",
    "consensus_time",
    "reduction_time",
    "symmetry_breaking_time",
    "default_round_limit",
]

#: Count-level simulation keeps a dense slot vector; beyond this many slots
#: the agent-level backend is usually faster and leaner.
_COUNT_BACKEND_SLOT_LIMIT = 4096


class RoundLimitExceeded(RuntimeError):
    """A run hit its round limit before its stopping condition fired."""

    def __init__(self, process_name: str, limit: int, label: str):
        super().__init__(
            f"{process_name} did not reach '{label}' within {limit} rounds"
        )
        self.process_name = process_name
        self.limit = limit
        self.label = label


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    process_name: str
    rounds: int
    final: Configuration
    stopped: bool
    stop_label: str
    backend: str
    recorder: "Optional[MetricRecorder]" = None
    final_colors: "Optional[np.ndarray]" = field(default=None, repr=False)

    @property
    def reached_consensus(self) -> bool:
        return self.final.is_consensus

    def metric(self, name: str) -> np.ndarray:
        """Recorded metric series (requires a recorder)."""
        if self.recorder is None:
            raise ValueError("run was executed without a metric recorder")
        return self.recorder.series(name)


def default_round_limit(n: int) -> int:
    """A generous default limit: well beyond Voter's Θ(n) consensus time.

    Voter's expected consensus time on the complete graph is ≈ 2n (the
    coalescence time of n random walks); we allow 200·n + 10⁴ so that even
    heavy-tailed runs finish, while true non-termination still surfaces as
    :class:`RoundLimitExceeded` instead of an infinite loop.
    """
    return 200 * int(n) + 10_000


def _resolve_stop(stop: "StoppingCondition | None") -> StoppingCondition:
    return stop if stop is not None else Consensus()


def _counts_tractable(process: AgentProcess, initial: Configuration) -> bool:
    """The synchronous family's representation rule: is the exact count
    chain worth running (an AC-process with a tractable α and a moderate
    slot count)?  ``"auto"`` here and the runtime's count backends both
    decide by it."""
    return (
        isinstance(process, ACAgentProcess)
        and initial.num_slots <= _COUNT_BACKEND_SLOT_LIMIT
        and process.supports_count_backend(initial)
    )


def prefers_counts_backend(
    process: AgentProcess, initial: Configuration, backend: str
) -> bool:
    """The shared backend-dispatch rule of :func:`run` and the ensemble engine.

    ``backend`` must be ``"auto"``, ``"agent"`` or ``"counts"``.  True when
    the exact count-level chain should be used: forced by ``"counts"``, or
    chosen by ``"auto"`` when :func:`_counts_tractable` holds.
    """
    if backend not in ("auto", "agent", "counts"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend == "counts" or (
        backend == "auto" and _counts_tractable(process, initial)
    )


def run_agent(
    process: AgentProcess,
    initial: Configuration,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    recorder: "Optional[MetricRecorder]" = None,
    raise_on_limit: bool = True,
    faults=None,
) -> SimulationResult:
    """Agent-level simulation until ``stop`` fires or ``max_rounds`` pass.

    ``faults`` is an optional :class:`~repro.faults.FaultSchedule` (or a
    bare model): each round the schedule's victim mask is drawn *before*
    the honest update; frozen victims are then reverted to their
    previous color (silenced, but still visible to samplers) and
    Byzantine victims overwritten with their hostile replacement.
    """
    from ..faults import as_fault_schedule

    generator = as_generator(rng)
    condition = _resolve_stop(stop)
    limit = max_rounds if max_rounds is not None else default_round_limit(initial.num_nodes)
    schedule = as_fault_schedule(faults)
    num_slots = initial.num_slots
    fault_runtime = (
        schedule.agent_runtime(num_slots) if schedule is not None else None
    )
    colors = process.initial_colors(initial)
    counts = _agent_counts(process, colors, num_slots)
    if recorder is not None:
        recorder.observe(0, counts)
    rounds = 0
    stopped = condition.satisfied(counts)
    while not stopped and rounds < limit:
        if fault_runtime is not None:
            fault_runtime.round_mask(rounds, generator, colors.shape)
            previous = colors.copy()
            colors = process.update(colors, generator)
            colors = fault_runtime.resolve(previous, colors, generator)
        else:
            colors = process.update(colors, generator)
        rounds += 1
        counts = _agent_counts(process, colors, num_slots)
        if recorder is not None:
            recorder.observe(rounds, counts)
        stopped = condition.satisfied(counts)
    if not stopped and raise_on_limit:
        raise RoundLimitExceeded(process.name, limit, condition.label)
    return SimulationResult(
        process_name=process.name,
        rounds=rounds,
        final=Configuration(counts),
        stopped=stopped,
        stop_label=condition.label,
        backend="agent",
        recorder=recorder,
        final_colors=colors,
    )


def _agent_counts(process: AgentProcess, colors: np.ndarray, num_slots: int) -> np.ndarray:
    """Counts of an agent state, honouring process-specific projections."""
    config = process.configuration_of(colors, num_slots)
    return config.counts_array()


def run_counts(
    process: "ACAgentProcess",
    initial: Configuration,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    recorder: "Optional[MetricRecorder]" = None,
    raise_on_limit: bool = True,
    faults=None,
) -> SimulationResult:
    """Exact count-level simulation (AC-processes only).

    With ``faults`` the transition becomes the exact faulty chain
    ``c' = f + Mult(n − |claimed|, α(c)) + Σ rewrites`` where ``f`` are
    the round's frozen nodes per color and rewriting models re-insert
    their victims at hostile colors (see :mod:`repro.faults.schedule`).
    """
    from ..faults import as_fault_schedule

    if not isinstance(process, ACAgentProcess):
        raise TypeError(
            f"count-level simulation requires an AC-process; {process.name} is not one"
        )
    generator = as_generator(rng)
    condition = _resolve_stop(stop)
    limit = max_rounds if max_rounds is not None else default_round_limit(initial.num_nodes)
    schedule = as_fault_schedule(faults)
    fault_runtime = (
        schedule.counts_runtime(process.process_function)
        if schedule is not None
        else None
    )
    counts = initial.counts_array().copy()
    if recorder is not None:
        recorder.observe(0, counts)
    rounds = 0
    stopped = condition.satisfied(counts)
    while not stopped and rounds < limit:
        if fault_runtime is not None:
            counts = fault_runtime.step_row(counts, generator, rounds)
        else:
            counts = process.step_counts(counts, generator)
        rounds += 1
        if recorder is not None:
            recorder.observe(rounds, counts)
        stopped = condition.satisfied(counts)
    if not stopped and raise_on_limit:
        raise RoundLimitExceeded(process.name, limit, condition.label)
    return SimulationResult(
        process_name=process.name,
        rounds=rounds,
        final=Configuration(counts),
        stopped=stopped,
        stop_label=condition.label,
        backend="counts",
        recorder=recorder,
    )


def run(
    process: AgentProcess,
    initial: Configuration,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    recorder: "Optional[MetricRecorder]" = None,
    backend: str = "auto",
    raise_on_limit: bool = True,
    faults=None,
) -> SimulationResult:
    """Simulate ``process`` from ``initial`` until ``stop`` fires.

    ``backend`` is one of ``"auto"``, ``"agent"``, ``"counts"``.  Auto
    picks the exact count-level chain for AC-processes with a moderate slot
    count, else the agent-level backend.
    """
    if prefers_counts_backend(process, initial, backend):
        if isinstance(process, ACAgentProcess):
            return run_counts(
                process,
                initial,
                rng=rng,
                stop=stop,
                max_rounds=max_rounds,
                recorder=recorder,
                raise_on_limit=raise_on_limit,
                faults=faults,
            )
        if backend == "counts":
            raise TypeError(
                f"{process.name} is not an AC-process; use the agent backend"
            )
    return run_agent(
        process,
        initial,
        rng=rng,
        stop=stop,
        max_rounds=max_rounds,
        recorder=recorder,
        raise_on_limit=raise_on_limit,
        faults=faults,
    )


def consensus_time(
    process: AgentProcess,
    initial: Configuration,
    rng: RandomSource = None,
    max_rounds: "int | None" = None,
    backend: str = "auto",
) -> int:
    """``T¹``: rounds until all nodes share one color."""
    result = run(
        process,
        initial,
        rng=rng,
        stop=Consensus(),
        max_rounds=max_rounds,
        backend=backend,
    )
    return result.rounds


def reduction_time(
    process: AgentProcess,
    initial: Configuration,
    kappa: int,
    rng: RandomSource = None,
    max_rounds: "int | None" = None,
    backend: str = "auto",
) -> int:
    """``T^κ``: rounds until at most ``kappa`` colors remain (Theorem 2)."""
    result = run(
        process,
        initial,
        rng=rng,
        stop=ColorsAtMost(kappa),
        max_rounds=max_rounds,
        backend=backend,
    )
    return result.rounds


def symmetry_breaking_time(
    process: AgentProcess,
    initial: Configuration,
    threshold: int,
    rng: RandomSource = None,
    max_rounds: "int | None" = None,
    backend: str = "auto",
    raise_on_limit: bool = True,
) -> "tuple[int, bool]":
    """First round with ``max_i c_i > threshold`` (the ``T`` of Theorem 5).

    Returns ``(rounds, fired)``; with ``raise_on_limit=False`` a run that
    never breaks symmetry within the limit reports ``fired=False`` —
    exactly the event Theorem 5 says is overwhelmingly likely for
    2-Choices within ``n/(γ ℓ')`` rounds.
    """
    result = run(
        process,
        initial,
        rng=rng,
        stop=MaxSupportAbove(threshold),
        max_rounds=max_rounds,
        backend=backend,
        raise_on_limit=raise_on_limit,
    )
    return result.rounds, result.stopped
