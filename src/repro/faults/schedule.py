"""Composable fault schedules and their engine-facing runtimes.

:class:`FaultSchedule` mirrors
:class:`~repro.adversary.AdversarySchedule`: a tuple of
:class:`~repro.faults.models.FaultModel`\\ s sharing one activation
window ``[start, stop)``.  The engines never call models directly —
they ask the schedule for a *runtime*, a small stateful object holding
the per-replica fault state (crashed masks / crashed counts) so that
one immutable schedule can drive any number of independent replicas.

Two runtimes, one per chain representation:

* :class:`_AgentFaultRuntime` — produces the boolean **claimed mask**
  for one round over a color vector (``(n,)``) or matrix (``(R, n)``).
  The engine applies the honest update, then calls :meth:`resolve`,
  which reverts frozen victims to their previous color and overwrites
  rewritten victims (Byzantine) with their replacement colors.
* :class:`_CountsFaultRuntime` — *replaces* the count-chain transition:
  with ``f`` frozen nodes per color the faulty round is exactly
  ``c' = f + Mult(n − |f|, α(c))``, i.e. only mobile nodes resample,
  while α is still computed from the full visible configuration
  (frozen colors stay on the message board).  This is the precise
  projection of the agent-level semantics onto the count chain, so the
  counts backends remain exact, not approximate.

Round indices are 0-based completed-round counters — the same
convention :class:`~repro.adversary.AdversarySchedule` uses — so a
window behaves identically in the sequential and ensemble engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ac_process import multinomial_step, multinomial_step_batch
from .models import FaultModel

__all__ = ["FaultSchedule", "as_fault_schedule"]


@dataclass(frozen=True)
class FaultSchedule:
    """A tuple of fault models active during the window ``[start, stop)``.

    Composable by construction: ``FaultSchedule((CrashStop(p),
    MessageLoss(q)))`` freezes crash victims first and draws loss
    victims from the remaining live pool, keeping the two victim sets
    disjoint within a round.
    """

    faults: "tuple[FaultModel, ...]"
    start: int = 0
    stop: "int | None" = None

    def __post_init__(self):
        faults = self.faults
        if isinstance(faults, FaultModel):
            faults = (faults,)
        faults = tuple(faults)
        for model in faults:
            if not isinstance(model, FaultModel):
                raise TypeError(
                    f"FaultSchedule expects FaultModel instances, got {model!r}"
                )
        object.__setattr__(self, "faults", faults)
        if self.start < 0:
            raise ValueError("fault window start must be non-negative")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("fault window stop must exceed start")

    def active(self, round_index: int) -> bool:
        if round_index < self.start:
            return False
        return self.stop is None or round_index < self.stop

    def is_trivial(self) -> bool:
        """True when no model can ever freeze a node."""
        return all(model.is_trivial() for model in self.faults)

    @property
    def supports_counts(self) -> bool:
        """Every model has an exact count-level projection."""
        return all(model.supports_counts for model in self.faults)

    def describe(self) -> str:
        window = f"[{self.start}, {'∞' if self.stop is None else self.stop})"
        models = ", ".join(repr(model) for model in self.faults)
        return f"faults {window}: {models}"

    # -- engine entry points ----------------------------------------------

    def agent_runtime(self, num_slots: "int | None" = None) -> "_AgentFaultRuntime":
        """Fresh per-replica (or per-matrix) agent-mask runtime.

        ``num_slots`` (the color-space width) is required only when the
        schedule contains a rewriting model — replacement colors must
        know the space they draw from.
        """
        return _AgentFaultRuntime(self, num_slots)

    def counts_runtime(self, function) -> "_CountsFaultRuntime":
        """Fresh count-chain runtime stepping with ``function``'s α."""
        if not self.supports_counts:
            raise ValueError(
                "this fault schedule has no count-level projection; "
                "use an agent backend"
            )
        return _CountsFaultRuntime(self, function)


def as_fault_schedule(faults) -> "FaultSchedule | None":
    """Normalise the plan-level ``faults=`` axis to a live schedule.

    Accepts ``None``, a bare :class:`FaultModel`, or a
    :class:`FaultSchedule`; collapses trivial schedules (all rates zero,
    or no models) to ``None`` so the engines take the unmodified
    fault-free path — consuming not a single extra random draw, which is
    what makes rate-0 faults bit-for-bit identical to no faults.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultModel):
        faults = FaultSchedule((faults,))
    if not isinstance(faults, FaultSchedule):
        raise TypeError(
            "faults must be a FaultModel or FaultSchedule, got "
            f"{type(faults).__name__}"
        )
    if not faults.faults or faults.is_trivial():
        return None
    return faults


class _AgentFaultRuntime:
    """Per-round claimed masks over one color vector or matrix.

    State is lazily shaped from the first mask request, so the same
    runtime class serves the sequential ``(n,)`` path and the batched
    ``(R, n)`` path; the batched ensemble additionally calls
    :meth:`compact` when replicas retire so fault state rows stay
    aligned with the surviving color rows.

    Protocol per round: the engine calls :meth:`round_mask` *before* the
    honest update (victim draws precede update draws on the stream),
    applies the update, then calls :meth:`resolve` with the pre- and
    post-update colors.  ``resolve`` reverts frozen victims and
    overwrites rewritten (Byzantine) victims — replacement draws land
    *after* the update draws, again round-deterministically.
    """

    def __init__(self, schedule: FaultSchedule, num_slots: "int | None" = None):
        self._schedule = schedule
        self._num_slots = num_slots
        self._states = None
        self._round = None

    def round_mask(self, round_index: int, rng, shape) -> np.ndarray:
        if self._states is None:
            self._states = [
                model.init_agent_state(shape) for model in self._schedule.faults
            ]
        claimed = np.zeros(shape, dtype=bool)
        revert = np.zeros(shape, dtype=bool)
        rewrites = []
        active = self._schedule.active(round_index)
        for model, state in zip(self._schedule.faults, self._states):
            extended = model.agent_round(state, claimed, active, rng)
            victims = extended & ~claimed
            claimed = extended
            if model.rewrites:
                # Recorded whenever the model *could* act this round
                # (not only when victims landed), so replacement draws
                # stay round-deterministic.
                if active and not model.is_trivial():
                    rewrites.append((model, state, victims))
            else:
                revert |= victims
        self._round = (revert, rewrites)
        return claimed

    def resolve(self, previous: np.ndarray, updated: np.ndarray, rng) -> np.ndarray:
        """Apply this round's verdicts to the post-update colors."""
        revert, rewrites = self._round
        colors = updated
        if revert.any():
            colors = np.where(revert, previous, colors)
        for model, state, victims in rewrites:
            if self._num_slots is None:
                raise ValueError(
                    "a rewriting fault model needs agent_runtime(num_slots)"
                )
            replacement = model.agent_replacement(
                state, victims, previous, rng, self._num_slots
            )
            colors = np.where(victims, replacement, colors)
        return colors

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired replica rows from every stateful model."""
        if self._states is None:
            return
        for state in self._states:
            if state:
                for key, value in state.items():
                    state[key] = value[keep]


class _CountsFaultRuntime:
    """The faulty count-chain transition
    ``c' = f + Mult(n − |claimed|, α(c)) + Σ rewrites``."""

    def __init__(self, schedule: FaultSchedule, function):
        self._schedule = schedule
        self._function = function
        self._states = None

    def _ensure_states(self, shape):
        if self._states is None:
            self._states = [
                model.init_counts_state(shape)
                for model in self._schedule.faults
            ]
        return self._states

    def _claim(self, counts: np.ndarray, rng, round_index: int):
        """One round of victim claiming: ``(frozen, rewrites, claimed)``.

        ``frozen`` holds the freeze models' victims per color (they keep
        their colors), ``rewrites`` the rewriting models' victim vectors
        (they re-enter via :meth:`FaultModel.counts_replacement`), and
        ``claimed`` their sum — the nodes excluded from the honest
        multinomial.
        """
        claimed = np.zeros_like(counts)
        frozen = np.zeros_like(counts)
        rewrites = []
        active = self._schedule.active(round_index)
        for model, state in zip(self._schedule.faults, self._ensure_states(counts.shape)):
            extended = model.counts_round(state, claimed, counts, active, rng)
            victims = extended - claimed
            claimed = extended
            if model.rewrites:
                if active and not model.is_trivial():
                    rewrites.append((model, state, victims))
            else:
                frozen = frozen + victims
        return frozen, rewrites, claimed

    def step_row(self, counts: np.ndarray, rng, round_index: int) -> np.ndarray:
        """One faulty round for a single ``(k,)`` count vector.

        The exact law ``c' = f + Mult(n − |claimed|, α(c)) + Σ rewrites``:
        α still comes from the *full* pre-round configuration (every
        victim's old color stayed visible on the board), only unclaimed
        nodes resample honestly, frozen victims carry over verbatim, and
        rewritten victims re-enter at their replacement colors.
        """
        frozen, rewrites, claimed = self._claim(counts, rng, round_index)
        mobile = int(counts.sum() - claimed.sum())
        alpha = self._function.probabilities(counts)
        out = frozen + multinomial_step(mobile, alpha, rng)
        for model, state, victims in rewrites:
            out = out + model.counts_replacement(state, victims, rng)
        return out

    def step_matrix(self, counts: np.ndarray, rng, round_index: int) -> np.ndarray:
        """One faulty round for an ``(R, k)`` counts matrix (master rng)."""
        frozen, rewrites, claimed = self._claim(counts, rng, round_index)
        mobile = counts.sum(axis=1) - claimed.sum(axis=1)
        alpha = self._function.probabilities_batch(counts)
        out = frozen + multinomial_step_batch(mobile, alpha, rng)
        for model, state, victims in rewrites:
            out = out + model.counts_replacement(state, victims, rng)
        return out

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired replica rows from every stateful model."""
        if self._states is None:
            return
        for state in self._states:
            if state:
                for key, value in state.items():
                    state[key] = value[keep]
