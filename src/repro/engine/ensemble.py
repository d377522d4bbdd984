"""Vectorized ensemble engine: all replicas advance lock-step in one array.

The paper's statements are about *distributions* of first-passage times,
so every benchmark repeats a run over tens-to-hundreds of independent
replicas.  Looping the sequential engine (:func:`run_replicas`) pays
Python-call and tiny-numpy overhead once per replica per round; this
module amortises it across the whole ensemble:

* **count-level** (:func:`run_counts_ensemble`) — an ``(R, k)`` counts
  matrix advanced by a row-wise ``α`` (vectorized for the closed-form
  process functions) and a single broadcast multinomial draw per round.
* **agent-level** (:func:`run_agent_ensemble`) — an ``(R, n)`` color
  matrix advanced by the process's batched ``update_ensemble`` rule
  (3-Majority, 2-Choices, Voter, …).

Per-replica stopping masks (:meth:`StoppingCondition.satisfied_ensemble`)
record each replica's first-passage round, and finished replicas are
*compacted out* of the active matrix so they stop paying for rounds.

Both entry points are registered with the unified runtime as the
``ensemble-agent`` / ``ensemble-counts`` backends (see
:mod:`repro.engine.runtime`), which is how sweeps, studies and the CLI
reach them.

RNG regimes
-----------
``rng_mode="batched"`` (default) draws all replicas' randomness from one
shared stream — fastest, statistically equivalent (each row consumes
fresh variates).  Only batched runs advance lock-step.
``rng_mode="per-replica"`` runs :func:`run_replicas`: the sequential
:func:`~repro.engine.simulator.run_agent` or
:func:`~repro.engine.simulator.run_counts` once per replica, each on the
child stream :func:`~repro.engine.rng.per_replica_generators` spawns for
it, so every backend's per-replica samples are the sequential ones by
construction.  Processes without a vectorized ``update_ensemble`` run
that way in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configuration import Configuration
from ..processes.base import ACAgentProcess, AgentProcess
from .metrics import MetricRecorder
from .rng import RandomSource, as_generator, per_replica_generators
from .simulator import (
    RoundLimitExceeded,
    default_round_limit,
    prefers_counts_backend,
    run_agent,
    run_counts,
)
from .stopping import Consensus, StoppingCondition

__all__ = [
    "EnsembleResult",
    "narrow_int_dtype",
    "run_ensemble",
    "run_agent_ensemble",
    "run_counts_ensemble",
    "run_replicas",
]

_RNG_MODES = ("batched", "per-replica")


def narrow_int_dtype(max_value: int) -> np.dtype:
    """The narrowest of ``int32``/``int64`` that can hold ``max_value``.

    The agent-level ensemble stores its ``(R, n)`` color matrix and
    ``(R, k)`` counts with this dtype: color ids are bounded by the slot
    count and counts by ``n``, so ``int32`` is safe for every ``n`` up to
    ``2³¹ − 1`` (in particular the 10⁸-node production target) and halves
    the memory bandwidth of the per-round gather.
    """
    return np.dtype(np.int32 if max_value <= np.iinfo(np.int32).max else np.int64)


@dataclass
class EnsembleResult:
    """Outcome of one lock-step ensemble run of ``R`` replicas."""

    process_name: str
    #: ``(R,)`` first-passage round per replica (the round limit where a
    #: replica never stopped and ``raise_on_limit`` was off).
    times: np.ndarray
    #: ``(R,)`` boolean mask — did the stopping condition fire?
    stopped: np.ndarray
    #: ``(R, k)`` counts matrix at each replica's stopping round.
    final_counts: np.ndarray
    backend: str
    stop_label: str
    #: RNG regime that actually ran — a ``"batched"`` request runs
    #: ``"per-replica"`` for processes without a vectorized ensemble rule.
    rng_mode: str

    @property
    def repetitions(self) -> int:
        return int(self.times.size)

    @property
    def all_stopped(self) -> bool:
        return bool(np.all(self.stopped))

    def finals(self) -> "list[Configuration]":
        """The stopping configurations as :class:`Configuration` objects."""
        return [Configuration(row) for row in self.final_counts]


def _check_args(repetitions: int, rng_mode: str) -> None:
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    if rng_mode not in _RNG_MODES:
        raise ValueError(f"unknown rng_mode {rng_mode!r}; pick one of {_RNG_MODES}")


def _finalize(
    process: AgentProcess,
    condition: StoppingCondition,
    backend: str,
    rng_mode: str,
    times: np.ndarray,
    stopped: np.ndarray,
    final_counts: np.ndarray,
    limit: int,
    raise_on_limit: bool,
) -> EnsembleResult:
    if raise_on_limit and not np.all(stopped):
        raise RoundLimitExceeded(process.name, limit, condition.label)
    return EnsembleResult(
        process_name=process.name,
        times=times,
        stopped=stopped,
        final_counts=final_counts,
        backend=backend,
        stop_label=condition.label,
        rng_mode=rng_mode,
    )


def _retire(
    mask: np.ndarray,
    active: np.ndarray,
    rounds: int,
    counts_matrix: np.ndarray,
    times: np.ndarray,
    stopped: np.ndarray,
    final_counts: np.ndarray,
) -> np.ndarray:
    """Record finished replicas and return the surviving active indices."""
    done = active[mask]
    times[done] = rounds
    stopped[done] = True
    final_counts[done] = counts_matrix[mask]
    return active[~mask]


def _stack_counts(finals: "list[np.ndarray]") -> np.ndarray:
    """Stack per-replica count vectors, zero-padding to the widest.

    Processes with auxiliary states (e.g. Undecided dynamics) can project
    final configurations wider than the initial slot count.
    """
    width = max(f.size for f in finals)
    stacked = np.zeros((len(finals), width), dtype=np.int64)
    for row, counts in enumerate(finals):
        stacked[row, : counts.size] = counts
    return stacked


def run_replicas(
    process,
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    backend: str = "agent",
    raise_on_limit: bool = True,
    recorder: "MetricRecorder | None" = None,
    faults=None,
) -> EnsembleResult:
    """``R`` replicas one after another, each on its own spawned stream.

    The per-replica engine of the synchronous family: replica ``i`` runs
    :func:`~repro.engine.simulator.run_agent` (``backend="agent"``) or
    :func:`~repro.engine.simulator.run_counts` (``"counts"``) on
    ``per_replica_generators(rng, R)[i]``.  ``process`` is an instance
    shared by every replica, or a zero-argument factory called once per
    replica.  ``recorder`` gets what :meth:`MetricRecorder.for_replica`
    routes to each replica's run, which matches what the lock-step hook
    records.
    """
    _check_args(repetitions, "per-replica")
    if backend not in ("agent", "counts"):
        raise ValueError(f"unknown backend {backend!r}")
    run_one = run_counts if backend == "counts" else run_agent
    times = np.empty(repetitions, dtype=np.int64)
    stopped = np.zeros(repetitions, dtype=bool)
    finals = []
    for index, generator in enumerate(per_replica_generators(rng, repetitions)):
        replica_process = process if isinstance(process, AgentProcess) else process()
        result = run_one(
            replica_process,
            initial,
            rng=generator,
            stop=stop,
            max_rounds=max_rounds,
            recorder=None if recorder is None else recorder.for_replica(index),
            raise_on_limit=raise_on_limit,
            faults=faults,
        )
        times[index] = result.rounds
        stopped[index] = result.stopped
        finals.append(result.final.counts_array())
    return EnsembleResult(
        process_name=replica_process.name,
        times=times,
        stopped=stopped,
        final_counts=_stack_counts(finals),
        backend=backend,
        stop_label=result.stop_label,
        rng_mode="per-replica",
    )


def run_counts_ensemble(
    process: "ACAgentProcess",
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    rng_mode: str = "batched",
    raise_on_limit: bool = True,
    recorder: "MetricRecorder | None" = None,
    faults=None,
) -> EnsembleResult:
    """Exact count-level chain for ``R`` replicas lock-step (AC-processes).

    Every replica starts from ``initial`` and performs one ``Mult(n, α(c))``
    transition per round; the whole ensemble's draws happen in a single
    broadcast multinomial call per round.  ``rng_mode="per-replica"``
    runs :func:`run_replicas` instead.

    ``recorder`` receives :meth:`MetricRecorder.observe_ensemble` every
    round (counts of the still-active replicas plus their indices), so
    per-round trajectory metrics ride the fast path.

    ``faults`` (a :class:`~repro.faults.FaultSchedule` or bare model)
    switches every transition to the exact faulty chain
    ``c' = f + Mult(n − |f|, α(c))``.
    """
    from ..faults import as_fault_schedule

    if not isinstance(process, ACAgentProcess):
        raise TypeError(
            f"count-level simulation requires an AC-process; {process.name} is not one"
        )
    _check_args(repetitions, rng_mode)
    if rng_mode == "per-replica":
        return run_replicas(
            process, initial, repetitions, rng=rng, stop=stop,
            max_rounds=max_rounds, backend="counts",
            raise_on_limit=raise_on_limit, recorder=recorder, faults=faults,
        )
    fault_schedule = as_fault_schedule(faults)
    condition = stop if stop is not None else Consensus()
    limit = max_rounds if max_rounds is not None else default_round_limit(initial.num_nodes)
    master = as_generator(rng)
    fault_matrix = (
        fault_schedule.counts_runtime(process.process_function)
        if fault_schedule is not None
        else None
    )

    counts = np.tile(initial.counts_array(), (repetitions, 1))
    times = np.zeros(repetitions, dtype=np.int64)
    stopped = np.zeros(repetitions, dtype=bool)
    final_counts = counts.copy()
    active = np.arange(repetitions)

    if recorder is not None:
        recorder.observe_ensemble(0, counts, active)
    mask = condition.satisfied_ensemble(counts)
    active = _retire(mask, active, 0, counts, times, stopped, final_counts)
    counts = counts[~mask]

    rounds = 0
    while active.size and rounds < limit:
        if fault_matrix is not None:
            counts = fault_matrix.step_matrix(counts, master, rounds)
        else:
            counts = process.step_counts_ensemble(counts, master)
        rounds += 1
        if recorder is not None:
            recorder.observe_ensemble(rounds, counts, active)
        mask = condition.satisfied_ensemble(counts)
        if mask.any():
            active = _retire(mask, active, rounds, counts, times, stopped, final_counts)
            counts = counts[~mask]
            if fault_matrix is not None:
                fault_matrix.compact(~mask)
    if active.size:
        times[active] = rounds
        final_counts[active] = counts
    return _finalize(
        process, condition, "counts", rng_mode, times, stopped, final_counts,
        limit, raise_on_limit,
    )


def _counts_matrix_fast(colors: np.ndarray, num_slots: int) -> np.ndarray:
    """Row-wise bincount of an ``(R, n)`` color matrix in one pass."""
    reps = colors.shape[0]
    offsets = (np.arange(reps, dtype=np.int64) * num_slots)[:, None]
    flat = (colors.astype(np.int64, copy=False) + offsets).ravel()
    return np.bincount(flat, minlength=reps * num_slots).reshape(reps, num_slots)


def _counts_matrix(
    process: AgentProcess, colors: np.ndarray, num_slots: int, projected: bool
) -> np.ndarray:
    """Per-replica counts, honouring process-specific projections."""
    if not projected:
        return _counts_matrix_fast(colors, num_slots)
    return np.stack(
        [
            process.configuration_of(colors[r], num_slots).counts_array()
            for r in range(colors.shape[0])
        ]
    )


def run_agent_ensemble(
    process: AgentProcess,
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    rng_mode: str = "batched",
    raise_on_limit: bool = True,
    recorder: "MetricRecorder | None" = None,
    faults=None,
) -> EnsembleResult:
    """Agent-level simulation of ``R`` replicas as one ``(R, n)`` matrix.

    Processes with a vectorized :meth:`AgentProcess.update_ensemble`
    advance all replicas per round in a handful of array operations from
    one shared stream.  ``rng_mode="per-replica"``, and any process
    without that rule, runs :func:`run_replicas` instead, reporting
    ``rng_mode="per-replica"``.

    The color matrix (and the derived counts) are stored at the narrowest
    safe integer dtype — ``int32`` for every ``n`` below ``2³¹`` — which
    halves the memory traffic of the ``O(R·n)`` per-round gather.

    ``faults`` draws a victim mask per round, vectorized over the whole
    ``(R, n)`` matrix; after the honest update, frozen victims revert to
    their previous color and Byzantine victims take their hostile
    replacement.
    """
    from ..faults import as_fault_schedule

    _check_args(repetitions, rng_mode)
    if rng_mode == "per-replica" or not process.has_vectorized_ensemble:
        return run_replicas(
            process, initial, repetitions, rng=rng, stop=stop,
            max_rounds=max_rounds, backend="agent",
            raise_on_limit=raise_on_limit, recorder=recorder, faults=faults,
        )
    fault_schedule = as_fault_schedule(faults)
    condition = stop if stop is not None else Consensus()
    limit = max_rounds if max_rounds is not None else default_round_limit(initial.num_nodes)
    num_slots = initial.num_slots
    projected = type(process).configuration_of is not AgentProcess.configuration_of
    master = as_generator(rng)
    fault_matrix = (
        fault_schedule.agent_runtime(num_slots) if fault_schedule is not None else None
    )

    dtype = narrow_int_dtype(max(initial.num_nodes, num_slots + 1))
    colors = np.tile(
        process.initial_colors(initial).astype(dtype, copy=False),
        (repetitions, 1),
    )
    counts = _counts_matrix(process, colors, num_slots, projected).astype(
        dtype, copy=False
    )
    times = np.zeros(repetitions, dtype=np.int64)
    stopped = np.zeros(repetitions, dtype=bool)
    final_counts = counts.copy()
    active = np.arange(repetitions)

    if recorder is not None:
        recorder.observe_ensemble(0, counts, active)
    mask = condition.satisfied_ensemble(counts)
    active = _retire(mask, active, 0, counts, times, stopped, final_counts)
    colors = colors[~mask]
    counts = counts[~mask]

    rounds = 0
    while active.size and rounds < limit:
        if fault_matrix is not None:
            fault_matrix.round_mask(rounds, master, colors.shape)
            previous = colors.copy()
            colors = process.update_ensemble(colors, master)
            colors = fault_matrix.resolve(previous, colors, master)
        else:
            colors = process.update_ensemble(colors, master)
        rounds += 1
        counts = _counts_matrix(process, colors, num_slots, projected).astype(
            dtype, copy=False
        )
        if recorder is not None:
            recorder.observe_ensemble(rounds, counts, active)
        mask = condition.satisfied_ensemble(counts)
        if mask.any():
            active = _retire(mask, active, rounds, counts, times, stopped, final_counts)
            colors = colors[~mask]
            counts = counts[~mask]
            if fault_matrix is not None:
                fault_matrix.compact(~mask)
    if active.size:
        times[active] = rounds
        final_counts[active] = counts
    return _finalize(
        process, condition, "agent", rng_mode, times, stopped, final_counts,
        limit, raise_on_limit,
    )


def run_ensemble(
    process: AgentProcess,
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    backend: str = "auto",
    rng_mode: str = "batched",
    raise_on_limit: bool = True,
    recorder: "MetricRecorder | None" = None,
    faults=None,
) -> EnsembleResult:
    """Simulate ``R`` independent replicas of ``process`` lock-step.

    ``backend`` is ``"auto"``, ``"agent"`` or ``"counts"``, with the same
    dispatch rule as the sequential :func:`repro.engine.simulator.run`:
    auto prefers the exact count-level chain for AC-processes with a
    moderate slot count, else the agent-level matrix.
    """
    if prefers_counts_backend(process, initial, backend):
        if isinstance(process, ACAgentProcess):
            return run_counts_ensemble(
                process,
                initial,
                repetitions,
                rng=rng,
                stop=stop,
                max_rounds=max_rounds,
                rng_mode=rng_mode,
                raise_on_limit=raise_on_limit,
                recorder=recorder,
                faults=faults,
            )
        raise TypeError(
            f"{process.name} is not an AC-process; use the agent backend"
        )
    return run_agent_ensemble(
        process,
        initial,
        repetitions,
        rng=rng,
        stop=stop,
        max_rounds=max_rounds,
        rng_mode=rng_mode,
        raise_on_limit=raise_on_limit,
        recorder=recorder,
        faults=faults,
    )
