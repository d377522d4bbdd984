"""Asynchronous (one-node-per-tick) scheduling — a library extension.

The paper's model is fully synchronous: all nodes update simultaneously
each round.  A standard companion model in the gossip literature
activates one uniformly random node per *tick* (equivalently, nodes hold
independent Poisson clocks).  This module runs any
:class:`~repro.processes.base.AgentProcess` under that scheduler by
letting the activated node perform its usual update against the current
state.

Two facts make this a useful extension rather than a new model:

* for AC-processes, ``n`` asynchronous ticks perform ``n`` adoption draws
  — the same *expected* motion as one synchronous round, so measured
  tick counts divided by ``n`` are comparable to round counts;
* asynchrony removes the parity artifacts of synchronous dynamics on
  bipartite graphs (see :class:`~repro.graphs.graph.CycleGraph`), which
  is why the gossip literature often prefers it.

Execution paths:

* :func:`run_asynchronous` — one replica.  A tick computes *only the
  activated node's* update: processes exposing
  :meth:`~repro.processes.base.AgentProcess.update_from_samples` pay
  ``O(samples_per_round)`` per tick; the generic fallback runs the full
  synchronous rule and keeps one entry (correct for every process).
* :func:`run_asynchronous_ensemble` — ``R`` replicas lock-step.  The
  randomness for a *batch* of ``B`` ticks (activated nodes and update
  samples for every replica) is drawn in one vectorized step, after which
  each tick is a handful of ``O(R)`` array operations; counts are
  maintained incrementally, finished replicas retire from the active
  matrix, and stopping is checked on the ``check_every`` stride exactly
  like the sequential scheduler.

Results report ticks; :func:`ticks_to_round_equivalents` converts.

Through the unified runtime these paths are the ``async`` and
``ensemble-async`` backends, so ``scheduler="asynchronous"`` is a
first-class plan axis in :func:`~repro.engine.batch.repeat_first_passage`,
the sweep harness and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configuration import Configuration
from ..processes.base import AgentProcess
from .ensemble import _counts_matrix, narrow_int_dtype
from .rng import RandomSource, as_generator
from .stopping import Consensus, StoppingCondition

__all__ = [
    "AsyncResult",
    "AsyncEnsembleResult",
    "run_asynchronous",
    "run_asynchronous_ensemble",
    "ticks_to_round_equivalents",
]


@dataclass
class AsyncResult:
    """Outcome of an asynchronous (one-node-per-tick) run."""

    process_name: str
    ticks: int
    final: Configuration
    stopped: bool

    @property
    def reached_consensus(self) -> bool:
        return self.final.is_consensus

    def round_equivalents(self) -> float:
        """Ticks divided by n — comparable to synchronous round counts."""
        return ticks_to_round_equivalents(self.ticks, self.final.num_nodes)


@dataclass
class AsyncEnsembleResult:
    """Outcome of a lock-step asynchronous run of ``R`` replicas."""

    process_name: str
    num_nodes: int
    #: ``(R,)`` first-passage tick per replica (the tick limit where a
    #: replica never stopped).
    ticks: np.ndarray
    #: ``(R,)`` boolean mask — did the stopping condition fire?
    stopped: np.ndarray
    #: ``(R, k)`` counts matrix at each replica's stopping tick.
    final_counts: np.ndarray
    stop_label: str

    @property
    def repetitions(self) -> int:
        return int(self.ticks.size)

    @property
    def all_stopped(self) -> bool:
        return bool(np.all(self.stopped))

    def round_equivalents(self) -> np.ndarray:
        """Per-replica ticks divided by n — synchronous-round scale."""
        return self.ticks / float(self.num_nodes)

    def finals(self) -> "list[Configuration]":
        return [Configuration(row) for row in self.final_counts]


def ticks_to_round_equivalents(ticks: int, n: int) -> float:
    """Convert asynchronous ticks to synchronous-round equivalents."""
    if n <= 0:
        raise ValueError("n must be positive")
    return ticks / n


def _default_tick_limit(n: int) -> int:
    return 400 * n * n + 10_000


def run_asynchronous(
    process: AgentProcess,
    initial: Configuration,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_ticks: "int | None" = None,
    check_every: "int | None" = None,
) -> AsyncResult:
    """Run ``process`` with one uniformly random node activated per tick.

    The activated node's new color is its local rule applied to fresh
    uniform samples — updates depend only on the node's own samples, so
    :meth:`~repro.processes.base.AgentProcess.update_node` computes just
    that entry (``O(1)`` for sample-rule processes, full-round fallback
    otherwise).  ``check_every`` controls how often the stopping condition
    is evaluated (default: every ``n`` ticks).
    """
    generator = as_generator(rng)
    condition = stop if stop is not None else Consensus()
    n = initial.num_nodes
    limit = max_ticks if max_ticks is not None else _default_tick_limit(n)
    stride = check_every if check_every is not None else n
    if stride < 1:
        raise ValueError("check_every must be positive")
    colors = process.initial_colors(initial)
    num_slots = initial.num_slots
    ticks = 0
    counts = process.configuration_of(colors, num_slots).counts_array()
    stopped = condition.satisfied(counts)
    while not stopped and ticks < limit:
        node = int(generator.integers(n))
        colors[node] = process.update_node(colors, node, generator)
        ticks += 1
        if ticks % stride == 0:
            counts = process.configuration_of(colors, num_slots).counts_array()
            stopped = condition.satisfied(counts)
    counts = process.configuration_of(colors, num_slots).counts_array()
    stopped = condition.satisfied(counts)
    return AsyncResult(
        process_name=process.name,
        ticks=ticks,
        final=Configuration(counts),
        stopped=stopped,
    )


def run_asynchronous_ensemble(
    process: AgentProcess,
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_ticks: "int | None" = None,
    check_every: "int | None" = None,
    recorder=None,
) -> AsyncEnsembleResult:
    """``R`` lock-step replicas of the one-node-per-tick scheduler.

    Per check-stride batch, the engine draws every replica's activated
    nodes and update samples in one vectorized step; each tick then costs
    a handful of ``O(R)`` array operations (gather the sampled colors,
    apply :meth:`~repro.processes.base.AgentProcess.update_from_samples`,
    scatter the new colors, bump the incremental counts) instead of a full
    ``process.update`` per replica.  Processes without a sample rule fall
    back to :meth:`~repro.processes.base.AgentProcess.update_node` per
    replica — same semantics, sequential speed.

    Replicas whose stopping condition fires at a stride check retire from
    the active matrix (recording their tick), mirroring the synchronous
    ensemble's compaction.  All replicas share one ``rng`` stream; each
    tick consumes fresh variates per replica, so replicas are independent.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    generator = as_generator(rng)
    condition = stop if stop is not None else Consensus()
    n = initial.num_nodes
    limit = max_ticks if max_ticks is not None else _default_tick_limit(n)
    stride = check_every if check_every is not None else n
    if stride < 1:
        raise ValueError("check_every must be positive")
    num_slots = initial.num_slots
    projected = (
        type(process).configuration_of is not AgentProcess.configuration_of
    )
    sample_rule = process.has_sample_update

    dtype = narrow_int_dtype(max(n, num_slots + 1))
    colors = np.tile(
        process.initial_colors(initial).astype(dtype, copy=False),
        (repetitions, 1),
    )

    counts = _counts_matrix(process, colors, num_slots, projected)
    ticks = np.zeros(repetitions, dtype=np.int64)
    stopped = np.zeros(repetitions, dtype=bool)
    final_counts = counts.copy()
    active = np.arange(repetitions)

    if recorder is not None:
        recorder.observe_ensemble(0, counts, active)

    def retire(mask: np.ndarray, tick: int) -> None:
        nonlocal active, colors, counts
        done = active[mask]
        ticks[done] = tick
        stopped[done] = True
        final_counts[done] = counts[mask]
        active = active[~mask]
        colors = colors[~mask]
        counts = counts[~mask]

    retire(condition.satisfied_ensemble(counts), 0)

    tick = 0
    samples = max(1, int(process.samples_per_round))
    while active.size and tick < limit:
        batch = min(stride, limit - tick)
        reps = active.size
        rows = np.arange(reps)
        if sample_rule:
            activated = generator.integers(0, n, size=(reps, batch))
            sampled = generator.integers(0, n, size=(reps, batch, samples))
            base = rows.astype(np.int64) * n
            row_offsets = base[:, None]
            flat = colors.ravel()
            for j in range(batch):
                flat_nodes = base + activated[:, j]
                picks = flat.take(sampled[:, j, :] + row_offsets)
                own = flat[flat_nodes]
                new = process.update_from_samples(own, picks, generator)
                flat[flat_nodes] = new
                if not projected:
                    # Incremental counts: exactly one node per replica
                    # changes per tick, and each (row, color) pair below is
                    # unique (one entry per replica row), so plain fancy
                    # indexing is an exact scatter-add.
                    counts[rows, own] -= 1
                    counts[rows, new] += 1
        else:
            for j in range(batch):
                nodes = generator.integers(0, n, size=reps)
                for r in range(reps):
                    node = int(nodes[r])
                    old = colors[r, node]
                    new = process.update_node(colors[r], node, generator)
                    colors[r, node] = new
                    if not projected:
                        counts[r, old] -= 1
                        counts[r, new] += 1
        tick += batch
        if projected:
            counts = _counts_matrix(process, colors, num_slots, projected)
        if recorder is not None:
            recorder.observe_ensemble(tick, counts, active)
        retire(condition.satisfied_ensemble(counts), tick)

    if active.size:
        # The loop only exits with survivors at the tick limit, and the
        # last batch already ran a stride check there — so the remaining
        # replicas are genuinely unstopped; just record their final state.
        ticks[active] = tick
        final_counts[active] = counts
    return AsyncEnsembleResult(
        process_name=process.name,
        num_nodes=n,
        ticks=ticks,
        stopped=stopped,
        final_counts=final_counts,
        stop_label=condition.label,
    )
