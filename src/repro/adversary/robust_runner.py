"""Running consensus processes against a dynamic adversary.

The execution model of §5: in each round the honest synchronous protocol
step happens first (all samples observe the pre-round state), then the
adversary rewrites the colors of at most ``F`` nodes.  The run tracks

* the set of **valid** colors (those with initial honest support),
* whether an *almost-all* consensus regime is reached: at least a
  ``1 − ε`` fraction of nodes on one valid color, and
* whether validity is ever violated at stabilisation (the failure mode of
  2-Median under :class:`~repro.adversary.adversary.PlantInvalid`).

Three execution paths:

* :func:`run_with_adversary` — one replica, the sequential reference.
* :func:`run_with_adversary_replicas` — ``R`` replicas one after another,
  each running :func:`run_with_adversary` on its own spawned stream.
  This is the family's only per-replica engine.
* :func:`run_with_adversary_ensemble` — ``R`` replicas lock-step from
  one shared stream, with vectorized per-replica corruption masks.
  ``backend="counts"`` additionally moves the whole run onto the exact
  count-level chain (AC-processes with a count-capable adversary), which
  is the production fast path.  Both representations run on
  :func:`~repro.engine.ensemble._run_lockstep`, the loop of every
  lock-step engine: each supplies an ``advance`` (the honest round, then
  the window-gated corruption) that returns every replica's
  ``(plurality color, support)`` row, and a private stop rule holds the
  stable-regime streak.  ``rng_mode="per-replica"``, and processes
  without a vectorized ``update_ensemble``, run
  :func:`run_with_adversary_replicas`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configuration import Configuration
from ..engine.ensemble import _counts_matrix_fast, _run_lockstep, narrow_int_dtype
from ..engine.kernels import fused_colors_step, kernel_eligible
from ..engine.rng import RandomSource, as_generator, per_replica_generators
from ..engine.simulator import _COUNT_BACKEND_SLOT_LIMIT
from ..processes.base import ACAgentProcess, AgentProcess
from .adversary import Adversary, AdversarySchedule

__all__ = [
    "RobustRunResult",
    "RobustEnsembleResult",
    "run_with_adversary",
    "run_with_adversary_ensemble",
    "run_with_adversary_replicas",
]


@dataclass
class RobustRunResult:
    """Outcome of a run under adversarial corruption."""

    process_name: str
    adversary_repr: str
    rounds: int
    stabilized: bool
    winning_color: "int | None"
    winning_fraction: float
    winner_is_valid: bool
    valid_colors: frozenset

    @property
    def valid_almost_all_consensus(self) -> bool:
        """The §5 success criterion: stabilised on a *valid* color."""
        return self.stabilized and self.winner_is_valid


def run_with_adversary(
    process: AgentProcess,
    initial: Configuration,
    adversary: "Adversary | AdversarySchedule",
    rng: RandomSource = None,
    max_rounds: int = 50_000,
    stable_fraction: float = 0.95,
    stable_rounds: int = 3,
) -> RobustRunResult:
    """Run ``process`` under ``adversary`` until almost-all consensus holds.

    Stabilisation requires a single color to hold at least
    ``stable_fraction`` of the nodes for ``stable_rounds`` consecutive
    rounds (a finite-run stand-in for the paper's "stable regime").
    Returns a result even when the horizon is exhausted
    (``stabilized=False``) so experiments can report stalling adversaries.
    """
    if not 0.5 < stable_fraction <= 1.0:
        raise ValueError("stable_fraction must lie in (0.5, 1]")
    if stable_rounds < 1:
        raise ValueError("stable_rounds must be positive")
    generator = as_generator(rng)
    schedule = (
        adversary
        if isinstance(adversary, AdversarySchedule)
        else AdversarySchedule(adversary)
    )
    colors = process.initial_colors(initial)
    valid_colors = frozenset(int(c) for c in np.unique(colors))
    n = colors.size
    streak = 0
    rounds = 0
    leader, fraction = _plurality(colors)
    while rounds < max_rounds:
        colors = process.update(colors, generator)
        colors = schedule.corrupt(rounds, colors, generator)
        rounds += 1
        leader, fraction = _plurality(colors)
        if fraction >= stable_fraction:
            streak += 1
            if streak >= stable_rounds:
                return RobustRunResult(
                    process_name=process.name,
                    adversary_repr=repr(schedule.adversary),
                    rounds=rounds,
                    stabilized=True,
                    winning_color=leader,
                    winning_fraction=fraction,
                    winner_is_valid=leader in valid_colors,
                    valid_colors=valid_colors,
                )
        else:
            streak = 0
    return RobustRunResult(
        process_name=process.name,
        adversary_repr=repr(schedule.adversary),
        rounds=rounds,
        stabilized=False,
        winning_color=leader,
        winning_fraction=fraction,
        winner_is_valid=leader in valid_colors,
        valid_colors=valid_colors,
    )


def _plurality(colors: np.ndarray) -> "tuple[int, float]":
    """The plurality color and its fraction, ignoring negative sentinels."""
    decided = colors[colors >= 0]
    if decided.size == 0:
        return -1, 0.0
    counts = np.bincount(decided)
    leader = int(np.argmax(counts))
    return leader, float(counts[leader] / colors.size)


@dataclass
class RobustEnsembleResult:
    """Per-replica outcomes of a lock-step adversarial ensemble run."""

    process_name: str
    adversary_repr: str
    #: ``(R,)`` stabilisation round per replica (the horizon if never).
    rounds: np.ndarray
    #: ``(R,)`` mask — did the replica reach the stable regime?
    stabilized: np.ndarray
    #: ``(R,)`` plurality color at stabilisation (or at the horizon).
    winning_color: np.ndarray
    #: ``(R,)`` plurality fraction at stabilisation (or at the horizon).
    winning_fraction: np.ndarray
    #: ``(R,)`` mask — is the winner one of the initially supported colors?
    winner_is_valid: np.ndarray
    valid_colors: frozenset
    backend: str
    rng_mode: str

    @property
    def repetitions(self) -> int:
        return int(self.rounds.size)

    @property
    def all_stabilized(self) -> bool:
        return bool(np.all(self.stabilized))

    @property
    def valid_almost_all_consensus(self) -> np.ndarray:
        """Per-replica §5 success mask: stabilised on a *valid* color."""
        return self.stabilized & self.winner_is_valid

    def results(self) -> "list[RobustRunResult]":
        """The per-replica outcomes as :class:`RobustRunResult` objects."""
        return [
            RobustRunResult(
                process_name=self.process_name,
                adversary_repr=self.adversary_repr,
                rounds=int(self.rounds[r]),
                stabilized=bool(self.stabilized[r]),
                winning_color=int(self.winning_color[r]),
                winning_fraction=float(self.winning_fraction[r]),
                winner_is_valid=bool(self.winner_is_valid[r]),
                valid_colors=self.valid_colors,
            )
            for r in range(self.repetitions)
        ]


def run_with_adversary_replicas(
    process,
    initial: Configuration,
    adversary: "Adversary | AdversarySchedule",
    repetitions: int,
    rng: RandomSource = None,
    max_rounds: int = 50_000,
    stable_fraction: float = 0.95,
    stable_rounds: int = 3,
) -> RobustEnsembleResult:
    """``R`` runs of :func:`run_with_adversary`, one per spawned stream.

    Replica ``i`` runs on ``per_replica_generators(rng, R)[i]``.
    ``process`` is an instance shared by every replica, or a
    zero-argument factory called once per replica.
    """
    results = [
        run_with_adversary(
            process if isinstance(process, AgentProcess) else process(),
            initial,
            adversary,
            rng=generator,
            max_rounds=max_rounds,
            stable_fraction=stable_fraction,
            stable_rounds=stable_rounds,
        )
        for generator in per_replica_generators(rng, repetitions)
    ]
    return RobustEnsembleResult(
        process_name=results[0].process_name,
        adversary_repr=results[0].adversary_repr,
        rounds=np.asarray([r.rounds for r in results], dtype=np.int64),
        stabilized=np.asarray([r.stabilized for r in results], dtype=bool),
        winning_color=np.asarray([r.winning_color for r in results], dtype=np.int64),
        winning_fraction=np.asarray(
            [r.winning_fraction for r in results], dtype=float
        ),
        winner_is_valid=np.asarray([r.winner_is_valid for r in results], dtype=bool),
        valid_colors=results[0].valid_colors,
        backend="agent",
        rng_mode="per-replica",
    )


def _counts_chain_capable(
    process: AgentProcess, initial: Configuration, adversary: Adversary
) -> bool:
    """Can the exact count-level robust chain represent this run at all?"""
    return (
        isinstance(process, ACAgentProcess)
        and adversary.supports_counts
        and type(process).initial_colors is AgentProcess.initial_colors
        and process.supports_count_backend(initial)
    )


def _counts_chain_tractable(
    process: AgentProcess, initial: Configuration, adversary: Adversary
) -> bool:
    """The family's ``"auto"`` rule: the count chain when it is valid and
    its slot space, including the slots the adversary can write into, is
    moderate."""
    return (
        _counts_chain_capable(process, initial, adversary)
        and initial.num_slots <= _COUNT_BACKEND_SLOT_LIMIT
        and adversary.color_ceiling(initial.num_slots) <= _COUNT_BACKEND_SLOT_LIMIT
    )


def run_with_adversary_ensemble(
    process: AgentProcess,
    initial: Configuration,
    adversary: "Adversary | AdversarySchedule",
    repetitions: int,
    rng: RandomSource = None,
    max_rounds: int = 50_000,
    stable_fraction: float = 0.95,
    stable_rounds: int = 3,
    backend: str = "auto",
    rng_mode: str = "batched",
) -> RobustEnsembleResult:
    """``R`` independent adversarial runs advanced lock-step.

    ``backend`` picks the state representation:

    * ``"agent"`` — an ``(R, n)`` color matrix: the honest step is the
      process's batched ``update_ensemble``, corruption a vectorized
      per-replica mask.  Faithful for every process/adversary pair.
    * ``"counts"`` — an ``(R, k)`` counts matrix: the honest step is one
      broadcast ``Mult(n, α(c))`` draw, corruption the adversary's exact
      count-level law (multivariate-hypergeometric victim draws).  Valid
      for AC-processes with a count-capable adversary, and faster by the
      same margin as the synchronous counts ensemble (node identity is
      meaningless under anonymity, so the two backends induce the same
      process on counts).
    * ``"auto"`` — ``"counts"`` whenever it is valid and tractable, else
      ``"agent"``.

    Both run on :func:`~repro.engine.ensemble._run_lockstep`, which
    retires each replica at the round its stable regime holds.
    ``rng_mode="per-replica"`` (agent only), and processes without a
    vectorized ``update_ensemble``, run :func:`run_with_adversary_replicas`.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    if not 0.5 < stable_fraction <= 1.0:
        raise ValueError("stable_fraction must lie in (0.5, 1]")
    if stable_rounds < 1:
        raise ValueError("stable_rounds must be positive")
    if rng_mode not in ("batched", "per-replica"):
        raise ValueError(f"unknown rng_mode {rng_mode!r}")
    schedule = (
        adversary
        if isinstance(adversary, AdversarySchedule)
        else AdversarySchedule(adversary)
    )
    if backend == "auto":
        backend = (
            "counts"
            if rng_mode == "batched"
            and _counts_chain_tractable(process, initial, schedule.adversary)
            else "agent"
        )
    if backend not in ("agent", "counts"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "counts":
        if not _counts_chain_capable(process, initial, schedule.adversary):
            raise TypeError(
                "count-level adversarial runs need an AC-process and an "
                f"adversary with a count-level law; got {process.name} vs "
                f"{schedule.adversary!r}"
            )
        if rng_mode != "batched":
            raise ValueError(
                "rng_mode='per-replica' reproduces the sequential agent-"
                "level runner; use backend='agent'"
            )
        setup = _adversary_counts_ensemble
    elif rng_mode == "per-replica" or not process.has_vectorized_ensemble:
        return run_with_adversary_replicas(
            process, initial, schedule, repetitions, rng,
            max_rounds, stable_fraction, stable_rounds,
        )
    else:
        setup = _adversary_agent_ensemble
    valid_colors, state, rows, advance = setup(
        process, initial, schedule, repetitions, as_generator(rng)
    )
    stop = _StableRegime(initial.num_nodes, stable_fraction, stable_rounds)
    rounds, stabilized, final = _run_lockstep(
        state, rows, advance, stop, max_rounds, None, on_retire=stop.retire
    )
    winning_color = final[:, 0]
    return RobustEnsembleResult(
        process_name=process.name,
        adversary_repr=repr(schedule.adversary),
        rounds=rounds,
        stabilized=stabilized,
        winning_color=winning_color,
        winning_fraction=final[:, 1] / float(initial.num_nodes),
        winner_is_valid=np.isin(winning_color, sorted(valid_colors)),
        valid_colors=valid_colors,
        backend=backend,
        rng_mode="batched",
    )


class _StableRegime:
    """The stop rule of both ensembles: the stable regime has held for
    ``stable_rounds`` rounds in a row.

    Its rows are ``(plurality color, support)`` pairs.  The streak counts
    completed rounds only, so the check at time 0 counts nothing, and
    :meth:`retire` drops the rows the loop retires.
    """

    def __init__(self, n: int, stable_fraction: float, stable_rounds: int):
        self.n = float(n)
        self.stable_fraction = stable_fraction
        self.stable_rounds = stable_rounds
        self.streak = None

    def satisfied_ensemble(self, rows: np.ndarray) -> np.ndarray:
        if self.streak is None:
            self.streak = np.zeros(rows.shape[0], dtype=np.int64)
        else:
            stable = rows[:, 1] / self.n >= self.stable_fraction
            self.streak = np.where(stable, self.streak + 1, 0)
        return self.streak >= self.stable_rounds

    def retire(self, keep: np.ndarray) -> None:
        self.streak = self.streak[keep]


def _leading(counts: np.ndarray) -> np.ndarray:
    """Each row's ``(plurality color, support)``: one argmax, one take."""
    leaders = np.argmax(counts, axis=1)
    return np.stack((leaders, counts[np.arange(counts.shape[0]), leaders]), axis=1)


def _adversary_agent_ensemble(
    process: AgentProcess,
    initial: Configuration,
    schedule: AdversarySchedule,
    repetitions: int,
    master: np.random.Generator,
):
    """Lock-step ``(R, n)`` colors: ``(valid colors, colors, rows, advance)``."""
    width = schedule.adversary.color_ceiling(initial.num_slots)
    # The honest step through the fused colors kernel — identically
    # distributed to update_ensemble (every node redraws by the process's
    # switch-and-redistribute law, iid given the counts), but one
    # inverse-cdf draw per node instead of per-node sample gathers.  The
    # corruption step is untouched: it needs node identities and gets them.
    fused = kernel_eligible(process, initial)
    base = process.initial_colors(initial)
    dtype = narrow_int_dtype(max(initial.num_nodes, width + 1))
    colors = np.tile(base.astype(dtype, copy=False), (repetitions, 1))

    def leading(colors):
        # BoostRunnerUp can resurrect fresh color ids past the static
        # ceiling in long stalls (consensus on c resurrects c+1, which may
        # itself win); widen the transient counts to whatever is present.
        # Negative sentinel colors are left out of the counts by shifting
        # every color up one slot and dropping the sentinel column.
        width_now = max(width, int(colors.max()) + 1)
        shifted = np.maximum(colors.astype(np.int64, copy=False), -1) + 1
        return _leading(_counts_matrix_fast(shifted, width_now + 1)[:, 1:])

    def advance(colors, _, rounds):
        if fused:
            # Corruption can have planted ids past the static ceiling;
            # the kernel's bincount width must cover whatever is present.
            width_now = max(width, int(colors.max()) + 1)
            colors = fused_colors_step(process, colors, width_now, master)
        else:
            colors = process.update_ensemble(colors, master)
        colors = schedule.corrupt_ensemble(rounds, colors, master)
        return colors, leading(colors), rounds + 1

    valid_colors = frozenset(int(c) for c in np.unique(base))
    return valid_colors, colors, leading(colors), advance


def _adversary_counts_ensemble(
    process: "ACAgentProcess",
    initial: Configuration,
    schedule: AdversarySchedule,
    repetitions: int,
    master: np.random.Generator,
):
    """The exact count-level chain for AC-processes: ``(valid colors,
    counts, rows, advance)``."""
    base = initial.counts_array()
    counts = np.zeros(
        (repetitions, schedule.adversary.color_ceiling(initial.num_slots)),
        dtype=np.int64,
    )
    counts[:, : base.size] = base

    def advance(counts, _, rounds):
        counts = process.step_counts_ensemble(counts, master)
        counts = schedule.corrupt_counts(rounds, counts, master)
        return counts, _leading(counts), rounds + 1

    valid_colors = frozenset(int(c) for c in np.flatnonzero(base))
    return valid_colors, counts, _leading(counts), advance
