"""Anonymous consensus (AC-) processes — Definition 1 of the paper.

An AC-process on ``n`` nodes is characterised by a *process function*
``α : C → [0, 1]^n`` with ``Σ_i α_i(c) = 1``: in configuration ``c`` every
node independently adopts color ``i`` with probability ``α_i(c)``.  Node
identities (including the updating node's own color) play no role, which
is what makes these processes *anonymous* — and what makes their one-step
distribution exactly multinomial: ``P(c) ~ Mult(n, α(c))``.

Voter and 3-Majority are AC-processes (Equations (1) and (2) of the
paper); 2-Choices is *not*, because a node that sees two disagreeing
samples keeps its own color, so its next color depends on its current one.
The class matters because the paper's entire coupling framework
(Lemma 1 / Theorem 2) applies exactly to this class — and provably fails
outside it (2-Choices dominates Voter in expectation yet is much slower).
"""

from __future__ import annotations

import abc
import math
from typing import Iterable

import numpy as np

from .configuration import Configuration

__all__ = [
    "ACProcessFunction",
    "VoterFunction",
    "ThreeMajorityFunction",
    "HMajorityFunction",
    "PowerDriftFunction",
    "multinomial_step",
    "multinomial_step_batch",
    "expected_next_counts",
]


class ACProcessFunction(abc.ABC):
    """A process function ``α`` defining an AC-process.

    Subclasses implement :meth:`probabilities`, mapping a count vector to
    the common adoption distribution over color slots.  The base class
    provides the exact one-step sampler (a multinomial draw) and the exact
    one-step expectation operator ``E[P(c)] = n · α(c)``.
    """

    #: Human-readable protocol name used in reports.
    name: str = "ac-process"

    @abc.abstractmethod
    def probabilities(self, counts: np.ndarray) -> np.ndarray:
        """Return ``α(c)`` for the configuration with count vector ``counts``.

        ``counts`` is a one-dimensional non-negative integer array summing
        to ``n``.  The result must be a probability vector of the same
        length.
        """

    # ------------------------------------------------------------------
    def probabilities_for(self, config: Configuration) -> np.ndarray:
        """Convenience wrapper taking a :class:`Configuration`."""
        return self.probabilities(config.counts_array())

    def step_counts(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One exact synchronous round: a single ``Mult(n, α(c))`` draw."""
        alpha = self.probabilities(counts)
        n = int(counts.sum())
        return multinomial_step(n, alpha, rng)

    def step(self, config: Configuration, rng: np.random.Generator) -> Configuration:
        """One exact synchronous round on a :class:`Configuration`."""
        return Configuration(self.step_counts(config.counts_array(), rng))

    def probabilities_batch(self, counts: np.ndarray) -> np.ndarray:
        """``α`` applied row-wise to an ``(R, k)`` counts matrix.

        The base implementation loops :meth:`probabilities` over the rows,
        so every process function works in the ensemble engine day one;
        closed-form functions override with a fully vectorized version.
        """
        counts = np.asarray(counts)
        return np.stack(
            [self.probabilities(counts[r]) for r in range(counts.shape[0])]
        )

    def step_counts_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One exact round for a whole ensemble of count vectors.

        ``counts`` is an ``(R, k)`` matrix of independent replicas; the
        result is one ``Mult(n_r, α(c_r))`` draw per row, all taken from the
        single shared ``rng`` stream (replicas stay independent because each
        row's draw uses fresh variates).
        """
        counts = np.asarray(counts, dtype=np.int64)
        alpha = self.probabilities_batch(counts)
        return multinomial_step_batch(counts.sum(axis=1), alpha, rng)

    def validate(self, counts: np.ndarray, tol: float = 1e-9) -> None:
        """Raise if ``α(counts)`` is not a probability vector."""
        alpha = self.probabilities(np.asarray(counts, dtype=np.int64))
        if alpha.shape != np.asarray(counts).shape:
            raise ValueError("process function changed the slot dimension")
        if np.any(alpha < -tol):
            raise ValueError("process function produced negative probabilities")
        if abs(float(alpha.sum()) - 1.0) > tol:
            raise ValueError(
                f"process function probabilities sum to {float(alpha.sum())}, not 1"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def multinomial_step(n: int, alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw the next count vector ``Mult(n, alpha)``; tolerant of float dust."""
    alpha = np.asarray(alpha, dtype=float)
    alpha = np.clip(alpha, 0.0, None)
    total = alpha.sum()
    if total <= 0:
        raise ValueError("adoption probabilities sum to zero")
    return rng.multinomial(n, alpha / total).astype(np.int64)


def multinomial_step_batch(
    n: "int | np.ndarray", alpha: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise ``Mult(n_r, alpha_r)`` draws in one broadcast call.

    ``alpha`` is ``(R, k)``; ``n`` is a scalar or an ``(R,)`` vector of
    population sizes.  Uses :meth:`numpy.random.Generator.multinomial`
    broadcasting (last axis = probabilities), so the whole ensemble costs a
    single call regardless of ``R``.
    """
    alpha = np.asarray(alpha, dtype=float)
    alpha = np.clip(alpha, 0.0, None)
    totals = alpha.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("adoption probabilities sum to zero")
    return rng.multinomial(n, alpha / totals).astype(np.int64)


def expected_next_counts(counts: np.ndarray, process: "ACProcessFunction") -> np.ndarray:
    """Exact one-step expected counts ``n · α(c)`` for an AC-process."""
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    return n * process.probabilities(counts)


class VoterFunction(ACProcessFunction):
    """Voter / Polling — Equation (1): ``α_i(c) = c_i / n``.

    Each node samples one uniform node and always adopts its color.
    Equivalent to 1-Majority and to 2-Majority (ties between two samples
    are broken by adopting a random sample, which is again uniform).
    """

    name = "voter"

    def probabilities(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts, dtype=float)
        return counts / counts.sum()

    def probabilities_batch(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts, dtype=float)
        return counts / counts.sum(axis=-1, keepdims=True)


class ThreeMajorityFunction(ACProcessFunction):
    """3-Majority — Equation (2): ``α_i = x_i (1 + x_i − ‖x‖₂²)``.

    Each node samples three uniform nodes; a color seen at least twice is
    adopted, otherwise a uniformly random sample's color is adopted.  The
    closed form follows [BCN+14]: with ``x = c/n``,

        α_i = x_i² + (1 − ‖x‖₂²) · x_i.

    The first term is the probability the first two samples agree on ``i``;
    the second covers disagreeing first samples followed by a Voter step.
    """

    name = "3-majority"

    def probabilities(self, counts: np.ndarray) -> np.ndarray:
        x = np.asarray(counts, dtype=float)
        x = x / x.sum()
        norm_sq = float(np.dot(x, x))
        alpha = x * (1.0 + x - norm_sq)
        # The closed form sums to exactly 1 analytically; renormalise away
        # floating-point dust so downstream multinomials stay happy.
        return alpha / alpha.sum()

    def probabilities_batch(self, counts: np.ndarray) -> np.ndarray:
        x = np.asarray(counts, dtype=float)
        x = x / x.sum(axis=-1, keepdims=True)
        norm_sq = np.sum(x * x, axis=-1, keepdims=True)
        alpha = x * (1.0 + x - norm_sq)
        return alpha / alpha.sum(axis=-1, keepdims=True)


class HMajorityFunction(ACProcessFunction):
    """General h-Majority: plurality of ``h`` uniform samples, random tie-break.

    Each node draws ``h`` independent uniform samples and adopts a color
    with the maximum multiplicity among them; if several colors tie for the
    maximum it adopts one of the tied colors uniformly at random.  For
    ``h = 1, 2`` this is exactly Voter, and for ``h = 3`` it coincides with
    :class:`ThreeMajorityFunction` (all-distinct samples tie at multiplicity
    one, and picking a uniform tied color equals picking a uniform sample).

    The exact probabilities are computed by enumerating the compositions of
    ``h`` over the currently supported colors, which costs
    ``O(C(h + k' − 1, k' − 1))`` for ``k'`` supported colors — fine for the
    hierarchy experiments (small ``h`` and ``k'``); use the agent-level
    simulator for large color spaces.
    """

    def __init__(self, h: int, max_support_colors: int = 12):
        if h < 1:
            raise ValueError("h must be at least 1")
        self.h = int(h)
        self.max_support_colors = int(max_support_colors)
        self.name = f"{h}-majority"

    def probabilities(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        x_full = counts / counts.sum()
        if self.h <= 2:
            # 1- and 2-Majority are exactly Voter (Section 5 of the paper).
            return np.asarray(x_full, dtype=float)
        support = np.flatnonzero(counts)
        if support.size > self.max_support_colors:
            raise ValueError(
                f"exact {self.h}-majority enumeration limited to "
                f"{self.max_support_colors} supported colors; got {support.size}. "
                "Use the agent-level simulator for wide configurations."
            )
        x = x_full[support]
        alpha_support = _h_majority_probabilities(x, self.h)
        alpha = np.zeros_like(x_full)
        alpha[support] = alpha_support
        return alpha / alpha.sum()


def _compositions(total: int, parts: int):
    """Yield all tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _h_majority_probabilities(x: np.ndarray, h: int) -> np.ndarray:
    """Exact adoption distribution of plurality-of-h with uniform tie-break."""
    k = x.size
    alpha = np.zeros(k, dtype=float)
    log_x = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
    log_fact = [math.lgamma(m + 1) for m in range(h + 1)]
    for comp in _compositions(h, k):
        comp_arr = np.asarray(comp)
        if np.any((comp_arr > 0) & (x <= 0)):
            continue
        log_coeff = log_fact[h] - sum(log_fact[m] for m in comp)
        log_prob = log_coeff + float(np.sum(np.where(comp_arr > 0, comp_arr * log_x, 0.0)))
        prob = math.exp(log_prob)
        top = comp_arr.max()
        winners = np.flatnonzero(comp_arr == top)
        alpha[winners] += prob / winners.size
    return alpha


class PowerDriftFunction(ACProcessFunction):
    """A tunable synthetic AC-process: ``α_i ∝ x_i^β`` for ``β ≥ 1``.

    Not from the paper; a clean test bed for the dominance framework.
    ``β = 1`` is Voter; larger ``β`` strengthens the rich-get-richer drift.
    Used by tests and the framework benchmarks to exercise Theorem 2 on
    processes beyond the paper's three.
    """

    def __init__(self, beta: float):
        if beta < 1.0:
            raise ValueError("beta must be at least 1 for a consensus drift")
        self.beta = float(beta)
        self.name = f"power-drift(beta={beta:g})"

    def probabilities(self, counts: np.ndarray) -> np.ndarray:
        x = np.asarray(counts, dtype=float)
        x = x / x.sum()
        powered = np.where(x > 0, x**self.beta, 0.0)
        total = powered.sum()
        if total <= 0:
            raise ValueError("degenerate configuration for power drift")
        return powered / total

    def probabilities_batch(self, counts: np.ndarray) -> np.ndarray:
        x = np.asarray(counts, dtype=float)
        x = x / x.sum(axis=-1, keepdims=True)
        powered = np.where(x > 0, x**self.beta, 0.0)
        totals = powered.sum(axis=-1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("degenerate configuration for power drift")
        return powered / totals


def adoption_matrix_over_rounds(
    process: ACProcessFunction,
    initial: Configuration,
    rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run ``rounds`` exact steps, returning the (rounds+1) × slots count matrix."""
    counts = initial.counts_array().copy()
    out = np.empty((rounds + 1, counts.size), dtype=np.int64)
    out[0] = counts
    for t in range(1, rounds + 1):
        counts = process.step_counts(counts, rng)
        out[t] = counts
    return out


__all__.append("adoption_matrix_over_rounds")
