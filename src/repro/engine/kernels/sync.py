"""Fused synchronous agent kernel: exact switch-and-redistribute lumping.

The agent-level ensemble advances an ``(R, n)`` color matrix — an
``O(R·n·s)`` gather per round.  For processes in switch-and-redistribute
form (:meth:`~repro.processes.base.AgentProcess.kernel_switch_law`) the
whole round lumps *exactly in distribution* to an ``(R, k)`` counts
chain:

    switchers ~ Bin(c, σ(x))          (per class, independent)
    arrivals  ~ Mult(Σ switchers, q(x))
    c'        = c − switchers + arrivals

Exactness: on the complete graph under Uniform Pull every node's samples
are iid ``x = c/n`` and nodes act independently given ``x``; within a
class all nodes are exchangeable, so the number of leavers is binomial
and the leavers' destinations are iid ``q`` — nothing about individual
node identities survives into the next counts vector.  For AC-processes
``σ ≡ 1`` and ``q = α(x)``, recovering ``c' ~ Mult(n, α(c))``
(Definition 1); for 2-Choices — *not* an AC-process — ``σ = ‖x‖²`` and
``q = x²/‖x‖²`` lump the keep-own-color branch exactly, which is what
makes the agent acceptance scenario ``O(R·k)`` instead of ``O(R·n)``.

Two entry points:

* :func:`run_fused_agent_ensemble` — the ``kernel-agent`` backend: one
  lumped round is its ``advance`` through the ensemble engines' lock-step
  loop (:func:`repro.engine.ensemble._run_lockstep`, which owns stopping
  and retirement), plus **active-slot compaction**: at the start of each
  round after the first, zero-support columns drop out of the working
  matrix, shrinking per-round work from ``O(k)`` to ``O(k_alive)`` on
  wide slot spaces, and ``widen`` scatters retired rows back to full
  width.  The kernel decides compaction from its inputs alone.
* :func:`fused_colors_step` — one batched synchronous round that *keeps*
  the ``(R, n)`` per-node colors (counts → law → one inverse-cdf draw
  per node), for consumers that need node identities, e.g. the §5
  adversary's corruption masks.

Randomness always comes from the caller's generator; numba (when
active — see :mod:`.numba_support`) only accelerates the deterministic
inverse-cdf transform, so both modes produce identical streams.
"""

from __future__ import annotations

import numpy as np

from ...core.configuration import Configuration
from ...processes.base import AgentProcess
from ..ensemble import (
    EnsembleResult, _check_args, _counts_matrix_fast, _finalize, _run_lockstep,
)
from ..metrics import MetricRecorder
from ..rng import RandomSource, as_generator
from ..simulator import default_round_limit
from ..stopping import AllOf, AnyOf, BiasAtLeast, ColorsAtMost, Consensus, MaxSupportAbove, StoppingCondition
from .numba_support import kernel_mode, njit_or_none

__all__ = [
    "compaction_safe",
    "fused_colors_step",
    "kernel_eligible",
    "kernel_step_counts",
    "run_fused_agent_ensemble",
]

#: Compaction drops all-zero columns, so it is only valid for stopping
#: conditions invariant under removing zero entries from the count vector.
#: Every built-in qualifies (they are functions of the multiset of
#: non-zero counts); user conditions keyed to absolute color indices
#: would not, so unknown classes disable compaction.
_COMPACTION_SAFE_LEAVES = (Consensus, ColorsAtMost, MaxSupportAbove, BiasAtLeast)

#: Don't bother compacting narrow matrices — the bookkeeping outweighs it.
_COMPACTION_MIN_SLOTS = 32


def compaction_safe(condition: StoppingCondition) -> bool:
    """Whether ``condition`` is invariant under dropping zero columns."""
    if isinstance(condition, (AnyOf, AllOf)):
        return all(compaction_safe(inner) for inner in condition.conditions)
    return isinstance(condition, _COMPACTION_SAFE_LEAVES)


def kernel_eligible(process: AgentProcess, initial: Configuration) -> bool:
    """Whether the fused kernels may represent this run at all.

    Needs the switch-and-redistribute law, tractable at this width, and
    the *default* color representation — a process with auxiliary per-node
    state (overridden ``initial_colors``/``configuration_of``) is not a
    pure function of the counts, so the lumping argument breaks.
    """
    return (
        process.has_kernel_form
        and process.kernel_supported(initial)
        and type(process).initial_colors is AgentProcess.initial_colors
        and type(process).configuration_of is AgentProcess.configuration_of
    )


def kernel_step_counts(
    process: AgentProcess, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One exact lumped round for an ``(R, k)`` counts matrix."""
    sigma, q = process.kernel_switch_law(counts)
    if sigma is None:
        # σ ≡ 1: everyone redraws — one broadcast multinomial (the AC law).
        return rng.multinomial(counts.sum(axis=1), q)
    switchers = rng.binomial(counts, sigma)
    arrivals = rng.multinomial(switchers.sum(axis=1), q)
    return counts - switchers + arrivals


def _invert_rows_numpy(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-cdf: ``out[r, i] = searchsorted(cum[r], u[r, i])``.

    One flat ``searchsorted`` over all rows at once: row ``r``'s cdf is
    shifted into ``[r, r+1]`` and so are its uniforms, making the
    concatenated array globally sorted — every earlier row's entries sit
    strictly below ``u + r``, so subtracting ``r·k`` recovers the
    in-row index.
    """
    reps, k = cum.shape
    n = u.shape[1]
    row_shift = np.arange(reps, dtype=np.float64)[:, None]
    flat_idx = np.searchsorted(
        (cum + row_shift).ravel(), (u + row_shift).ravel(), side="right"
    )
    return (flat_idx - np.repeat(np.arange(reps) * k, n)).reshape(reps, n)


def _invert_rows_scalar(cum, u, out):  # pragma: no cover - compiled path
    reps, n = u.shape
    k = cum.shape[1]
    for r in range(reps):
        for i in range(n):
            lo, hi = 0, k
            value = u[r, i]
            while lo < hi:
                mid = (lo + hi) // 2
                if value < cum[r, mid]:
                    hi = mid
                else:
                    lo = mid + 1
            out[r, i] = lo


_invert_rows_numba = njit_or_none(_invert_rows_scalar)


def _invert_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    if kernel_mode() == "numba":
        out = np.empty(u.shape, dtype=np.int64)
        _invert_rows_numba(cum, u, out)
        return out
    return _invert_rows_numpy(cum, u)


def fused_colors_step(
    process: AgentProcess,
    colors: np.ndarray,
    num_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One batched synchronous round that keeps per-node colors.

    Counts the ``(R, n)`` matrix, evaluates the switch-and-redistribute
    law once per replica, and replaces the per-node sample gathers with a
    single inverse-cdf draw per node — identically distributed to
    ``process.update_ensemble`` (nodes redraw iid from ``q``, and with a
    class-dependent ``σ`` each node keeps its color on an independent
    coin), at ``O(R·(n + k))`` instead of ``O(R·n·s)``.
    """
    reps, n = colors.shape
    sigma, q = process.kernel_switch_law(_counts_matrix_fast(colors, num_slots))
    cum = np.cumsum(q, axis=1)
    cum[:, -1] = 1.0
    destinations = _invert_rows(cum, rng.random((reps, n)))
    destinations = destinations.astype(colors.dtype, copy=False)
    if sigma is None:
        return destinations
    offsets = (np.arange(reps, dtype=np.int64) * num_slots)[:, None]
    own_sigma = sigma.ravel().take(colors.astype(np.int64, copy=False) + offsets)
    switch = rng.random((reps, n)) < own_sigma
    return np.where(switch, destinations, colors)


def run_fused_agent_ensemble(
    process: AgentProcess,
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_rounds: "int | None" = None,
    rng_mode: str = "batched",
    raise_on_limit: bool = True,
    recorder: "MetricRecorder | None" = None,
) -> EnsembleResult:
    """The fused agent ensemble: exact lumped counts chain + compaction.

    Semantics match :func:`repro.engine.ensemble.run_agent_ensemble` in
    distribution (first-passage times, stop masks, final counts), at the
    counts chain's ``O(R·k)`` per-round cost.  Batched-only: the lumping
    reorders how the stream is consumed, so ``rng_mode="per-replica"``
    plans must use the exact-stream engines instead — the runtime routes
    them there automatically.

    Active-slot compaction is on for matrices of at least
    :data:`_COMPACTION_MIN_SLOTS` slots when the process has absorbing
    support, the stopping condition is compaction-safe and no recorder
    runs.  From the second round on, each round first drops the all-zero
    columns; a slot map remembers which columns are left, and every
    replica's ``final_counts`` row is scattered back to the full initial
    width.
    """
    _check_args(repetitions, rng_mode)
    if rng_mode != "batched":
        raise ValueError(
            "the fused kernel is batched-only; per-replica exact streams "
            "run on the agent/counts engines"
        )
    if not kernel_eligible(process, initial):
        raise TypeError(
            f"{process.name} has no tractable switch-and-redistribute "
            "kernel form for this configuration"
        )
    condition = stop if stop is not None else Consensus()
    limit = (
        max_rounds if max_rounds is not None else default_round_limit(initial.num_nodes)
    )
    master = as_generator(rng)
    num_slots = initial.num_slots

    compact = (
        process.kernel_absorbing_support
        and compaction_safe(condition)
        and recorder is None
        and num_slots >= _COMPACTION_MIN_SLOTS
    )
    slot_map = None  # None ⇒ identity (no columns dropped yet)

    def advance(_, counts, rounds):
        nonlocal slot_map
        if compact and rounds and counts.shape[1] > 8:
            alive = counts.any(axis=0)
            if not alive.all():
                counts = np.ascontiguousarray(counts[:, alive])
                slot_map = (
                    np.flatnonzero(alive) if slot_map is None else slot_map[alive]
                )
        return None, kernel_step_counts(process, counts, master), rounds + 1

    def widen(rows):
        if slot_map is None:
            return rows
        restored = np.zeros((rows.shape[0], num_slots), dtype=rows.dtype)
        restored[:, slot_map] = rows
        return restored

    times, stopped, final_counts = _run_lockstep(
        None, np.tile(initial.counts_array(), (repetitions, 1)), advance,
        condition, limit, recorder, widen=widen,
    )
    return _finalize(
        process, condition, "kernel-agent", rng_mode, times, stopped,
        final_counts, limit, raise_on_limit,
    )
