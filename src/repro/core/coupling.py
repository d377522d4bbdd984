"""Couplings and stochastic majorization — Lemma 1, Theorem 2, Theorem 3.

The paper's technical core proves, via a variant of Strassen's theorem,
that two AC-processes with ``α(c) ⪰ α̃(c̃)`` admit a *coupling* of their
one-step multinomial distributions under which the resulting
configurations are majorization-comparable with probability one
(Lemma 1).  Iterating yields the stochastic dominance of color-reduction
times (Theorem 2).

The paper only proves *existence* of the coupling.  This module makes it
constructive where feasible:

* :func:`one_step_distribution` — the exact ``Mult(n, α(c))`` law as an
  explicit finite distribution over configurations;
* :func:`strassen_coupling` — solve the transportation feasibility LP for
  a joint law supported on ``{(x, y) : y ⪰ x}``; by Theorem 3 such a
  coupling exists iff ``X ⪯_st Y``, so a feasible solution *is* the
  coupling whose existence Lemma 1 asserts, and infeasibility certifies
  that stochastic majorization fails;
* :func:`stochastic_majorization_certificate` — check Definition 3's
  functional characterisation on the exact distributions using the
  (characterising) family of top-j prefix-sum test functions;
* :func:`estimate_reduction_time_dominance` — Monte-Carlo validation of
  Theorem 2's conclusion ``T^κ_{P'} ≥_st T^κ_P`` via empirical CDFs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .ac_process import ACProcessFunction
from .configuration import Configuration
from .majorization import majorizes, top_j_sums

__all__ = [
    "FiniteDistribution",
    "one_step_distribution",
    "run_coupled_chains",
    "strassen_coupling",
    "CoupledTrajectory",
    "CouplingResult",
    "stochastic_majorization_certificate",
    "estimate_reduction_time_dominance",
    "ReductionTimeComparison",
]


@dataclass(frozen=True)
class FiniteDistribution:
    """An explicit finite distribution over count vectors."""

    support: tuple  # tuple of count-vector tuples
    probabilities: tuple  # matching probabilities

    def __post_init__(self):
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must align")
        total = float(sum(self.probabilities))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def expectation(self) -> np.ndarray:
        """Component-wise expected count vector."""
        acc = np.zeros(len(self.support[0]), dtype=float)
        for outcome, prob in zip(self.support, self.probabilities):
            acc += prob * np.asarray(outcome, dtype=float)
        return acc

    def expect(self, phi: Callable) -> float:
        """``E[phi(X)]`` for a test function on count vectors."""
        return float(
            sum(p * phi(np.asarray(x, dtype=float)) for x, p in zip(self.support, self.probabilities))
        )

    def __len__(self) -> int:
        return len(self.support)


def _compositions_of(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions_of(n - first, parts - 1):
            yield (first,) + rest


def _log_multinomial_pmf(outcome: tuple, alpha: np.ndarray) -> float:
    n = sum(outcome)
    log_p = math.lgamma(n + 1)
    for count, prob in zip(outcome, alpha):
        if count == 0:
            continue
        if prob <= 0:
            return -math.inf
        log_p += count * math.log(prob) - math.lgamma(count + 1)
    return log_p


def one_step_distribution(
    process: ACProcessFunction, config: Configuration, prune: float = 0.0
) -> FiniteDistribution:
    """The exact law of one AC-process round: ``Mult(n, α(c))`` enumerated.

    Enumerates all ``C(n + k − 1, k − 1)`` compositions, so keep ``n`` and
    the slot count small (this is a verification tool, not a simulator).
    ``prune`` drops outcomes of probability below the threshold and
    renormalises — acceptable for approximate LP checks, but leave it at 0
    for exact certificates.
    """
    counts = config.counts_array()
    n = int(counts.sum())
    k = counts.size
    alpha = process.probabilities(counts)
    support = []
    probs = []
    for outcome in _compositions_of(n, k):
        log_p = _log_multinomial_pmf(outcome, alpha)
        if log_p == -math.inf:
            continue
        p = math.exp(log_p)
        if p <= prune:
            continue
        support.append(outcome)
        probs.append(p)
    total = sum(probs)
    probs = [p / total for p in probs]
    return FiniteDistribution(support=tuple(support), probabilities=tuple(probs))


@dataclass
class CouplingResult:
    """Outcome of a Strassen transportation LP."""

    feasible: bool
    joint: "np.ndarray | None"
    lower_support: tuple
    upper_support: tuple
    admissible_pairs: int

    def verify(self, tol: float = 1e-7) -> bool:
        """Re-check marginals and support constraints of the joint law."""
        if not self.feasible or self.joint is None:
            return False
        joint = self.joint
        if np.any(joint < -tol):
            return False
        for i, x in enumerate(self.lower_support):
            for j, y in enumerate(self.upper_support):
                if joint[i, j] > tol and not majorizes(y, x):
                    return False
        return True


def _prefix_matrix(support: tuple) -> np.ndarray:
    """Row ``i``: non-increasing prefix sums of the ``i``-th count vector."""
    arr = np.asarray(support, dtype=float)
    ordered = -np.sort(-arr, axis=1)
    return np.cumsum(ordered, axis=1)


def _pad_prefix(prefix: np.ndarray, width: int) -> np.ndarray:
    """Edge-pad prefix rows to a common width (zeros add nothing)."""
    if prefix.shape[1] == width:
        return prefix
    pad = np.repeat(prefix[:, -1:], width - prefix.shape[1], axis=1)
    return np.concatenate([prefix, pad], axis=1)


def strassen_coupling(
    lower: FiniteDistribution,
    upper: FiniteDistribution,
    tol: float = 1e-9,
) -> CouplingResult:
    """Construct a coupling of ``lower`` and ``upper`` with ``Y ⪰ X`` a.s.

    Solves the transportation feasibility problem

        π ≥ 0,  π supported on {(x, y) : y ⪰ x},
        Σ_y π(x, y) = lower(x),  Σ_x π(x, y) = upper(y)

    with scipy's HiGHS LP solver.  By the Strassen variant (Theorem 3 of
    the paper) feasibility is *equivalent* to ``X ⪯_st Y`` in the
    stochastic majorization order, so this function doubles as an exact
    decision procedure for Definition 3 on finite distributions.
    """
    nx = len(lower)
    ny = len(upper)
    # Vectorised admissibility: y ⪰ x iff every top-j prefix sum of y
    # dominates x's (totals are equal by construction: both laws place
    # n nodes).  Prefix matrices make this a single broadcast comparison
    # instead of nx·ny Python-level majorization checks.
    lower_prefix = _prefix_matrix(lower.support)
    upper_prefix = _prefix_matrix(upper.support)
    width = max(lower_prefix.shape[1], upper_prefix.shape[1])
    lower_prefix = _pad_prefix(lower_prefix, width)
    upper_prefix = _pad_prefix(upper_prefix, width)
    dominates = np.all(
        upper_prefix[None, :, :] >= lower_prefix[:, None, :] - tol, axis=2
    )
    admissible = [(int(i), int(j)) for i, j in zip(*np.nonzero(dominates))]
    if not admissible:
        return CouplingResult(
            feasible=False,
            joint=None,
            lower_support=lower.support,
            upper_support=upper.support,
            admissible_pairs=0,
        )
    num_vars = len(admissible)
    # Equality constraints: one row per lower outcome, one per upper outcome.
    rows = []
    cols = []
    data = []
    for var, (i, j) in enumerate(admissible):
        rows.append(i)
        cols.append(var)
        data.append(1.0)
        rows.append(nx + j)
        cols.append(var)
        data.append(1.0)
    from scipy.sparse import coo_matrix

    a_eq = coo_matrix((data, (rows, cols)), shape=(nx + ny, num_vars))
    b_eq = np.concatenate(
        [np.asarray(lower.probabilities), np.asarray(upper.probabilities)]
    )
    result = optimize.linprog(
        c=np.zeros(num_vars),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * num_vars,
        method="highs",
    )
    if not result.success:
        return CouplingResult(
            feasible=False,
            joint=None,
            lower_support=lower.support,
            upper_support=upper.support,
            admissible_pairs=num_vars,
        )
    joint = np.zeros((nx, ny))
    for var, (i, j) in enumerate(admissible):
        joint[i, j] = result.x[var]
    return CouplingResult(
        feasible=True,
        joint=joint,
        lower_support=lower.support,
        upper_support=upper.support,
        admissible_pairs=num_vars,
    )


def stochastic_majorization_certificate(
    lower: FiniteDistribution, upper: FiniteDistribution, tol: float = 1e-9
) -> tuple:
    """Check ``X ⪯_st Y`` via expectations of the characterising test family.

    Uses the top-j prefix-sum functions, which are Schur-convex and —
    together with the (fixed) total — generate the majorization preorder.
    Returns ``(holds, margins)`` where ``margins[j] = E[top_j(Y)] −
    E[top_j(X)]``; all margins non-negative is *necessary* for stochastic
    majorization (and empirically a sharp screen before running the LP).
    """
    width = max(len(lower.support[0]), len(upper.support[0]))
    margins = []
    for j in range(width):
        def phi(vec: np.ndarray, j=j) -> float:
            return float(np.sort(vec)[::-1][: j + 1].sum())

        margins.append(upper.expect(phi) - lower.expect(phi))
    margins_arr = np.asarray(margins)
    return bool(np.all(margins_arr >= -tol)), margins_arr


@dataclass
class ReductionTimeComparison:
    """Empirical comparison of color-reduction times of two processes."""

    kappa: int
    times_fast: np.ndarray
    times_slow: np.ndarray

    def empirical_cdf_dominates(self, slack: float = 0.0) -> bool:
        """True iff the 'fast' CDF lies (weakly) above the 'slow' CDF.

        Theorem 2 predicts ``T^κ_slow ≥_st T^κ_fast``, i.e.
        ``P[T_fast ≤ t] ≥ P[T_slow ≤ t]`` for all ``t``.  ``slack`` allows
        a small Monte-Carlo tolerance on the CDF gap.
        """
        horizon = int(max(self.times_fast.max(), self.times_slow.max()))
        for t in range(horizon + 1):
            cdf_fast = float(np.mean(self.times_fast <= t))
            cdf_slow = float(np.mean(self.times_slow <= t))
            if cdf_fast < cdf_slow - slack:
                return False
        return True

    def mean_gap(self) -> float:
        """Mean of slow minus mean of fast (positive supports Theorem 2)."""
        return float(self.times_slow.mean() - self.times_fast.mean())


def estimate_reduction_time_dominance(
    fast: ACProcessFunction,
    slow: ACProcessFunction,
    initial: Configuration,
    kappa: int,
    repetitions: int,
    rng: np.random.Generator,
    max_rounds: int | None = None,
) -> ReductionTimeComparison:
    """Monte-Carlo sample ``T^κ`` for both processes from a shared start.

    Runs exact count-level chains.  ``max_rounds`` guards against runaway
    chains (a run that fails to reduce in time raises, rather than silently
    truncating the sample).
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    limit = max_rounds if max_rounds is not None else 500 * initial.num_nodes

    def _one_run(process: ACProcessFunction, run_rng: np.random.Generator) -> int:
        counts = initial.counts_array().copy()
        t = 0
        while int(np.count_nonzero(counts)) > kappa:
            counts = process.step_counts(counts, run_rng)
            t += 1
            if t > limit:
                raise RuntimeError(
                    f"{process.name} failed to reach {kappa} colors within {limit} rounds"
                )
        return t

    seeds = rng.spawn(2 * repetitions)
    times_fast = np.array(
        [_one_run(fast, seeds[r]) for r in range(repetitions)], dtype=np.int64
    )
    times_slow = np.array(
        [_one_run(slow, seeds[repetitions + r]) for r in range(repetitions)],
        dtype=np.int64,
    )
    return ReductionTimeComparison(
        kappa=kappa, times_fast=times_fast, times_slow=times_slow
    )


@dataclass
class CoupledTrajectory:
    """A realisation of the Theorem-2 coupling between two AC-chains.

    ``upper_states[t] ⪰ lower_states[t]`` holds *surely* at every round by
    construction, which (since ``c ⪰ c̃`` forces ``c`` to have at most as
    many colors as ``c̃``) realises Lemma 2's statement that the faster
    process never has more remaining colors.
    """

    upper_states: list  # count tuples of the dominating (fast) process
    lower_states: list  # count tuples of the dominated (slow) process

    def majorization_maintained(self, tol: float = 1e-9) -> bool:
        """Check ``upper[t] ⪰ lower[t]`` for every recorded round."""
        return all(
            majorizes(np.asarray(u, dtype=float), np.asarray(l, dtype=float), tol=tol)
            for u, l in zip(self.upper_states, self.lower_states)
        )

    def colors_never_more(self) -> bool:
        """The Lemma-2 conclusion: fast chain never has more colors."""
        return all(
            int(np.count_nonzero(u)) <= int(np.count_nonzero(l))
            for u, l in zip(self.upper_states, self.lower_states)
        )

    def rounds(self) -> int:
        return len(self.upper_states) - 1


def _lump_sorted(dist: FiniteDistribution) -> FiniteDistribution:
    """Merge outcomes that are equal up to relabelling (same sorted vector).

    Majorization and AC dynamics see only the sorted count vector, so the
    lumped law couples exactly like the raw one, over far fewer outcomes
    (11 partitions instead of 462 compositions at ``n = k = 6``).
    """
    lumped: dict = {}
    for outcome, prob in zip(dist.support, dist.probabilities):
        key = tuple(sorted(outcome, reverse=True))
        lumped[key] = lumped.get(key, 0.0) + prob
    return FiniteDistribution(
        support=tuple(lumped), probabilities=tuple(lumped.values())
    )


def run_coupled_chains(
    fast: ACProcessFunction,
    slow: ACProcessFunction,
    initial: Configuration,
    rounds: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> CoupledTrajectory:
    """Execute the Theorem-2 coupling for ``rounds`` steps, explicitly.

    At every round the exact one-step laws of both chains are enumerated
    and lumped by sorted count vector, the Strassen transportation LP of
    Lemma 1 is solved for a joint law supported on majorization-ordered
    pairs, and the next *pair* of states is drawn from that joint law.
    The resulting trajectory satisfies ``fast_state ⪰ slow_state`` with
    probability one — the paper proves such a coupling exists; this
    function samples from it.

    Requires ``fast`` to dominate ``slow`` along the trajectory (true for
    3-Majority over Voter by Lemma 2); raises if the LP ever becomes
    infeasible, which would disprove the dominance.  Exponential in the
    configuration size — a verification tool for small ``n``.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")

    def _canonical(counts: np.ndarray) -> np.ndarray:
        # Sorted-descending with trailing zeros dropped: AC dynamics and
        # majorization are invariant under color relabelling, and smaller
        # slot counts shrink the enumerated laws dramatically as colors
        # die out.
        ordered = np.sort(counts)[::-1]
        nonzero = int(np.count_nonzero(ordered))
        return ordered[: max(nonzero, 1)].copy()

    upper_counts = _canonical(initial.counts_array())
    lower_counts = _canonical(initial.counts_array())
    upper_states = [tuple(int(v) for v in upper_counts)]
    lower_states = [tuple(int(v) for v in lower_counts)]
    for _ in range(rounds):
        upper_dist = _lump_sorted(
            one_step_distribution(fast, Configuration(upper_counts))
        )
        lower_dist = _lump_sorted(
            one_step_distribution(slow, Configuration(lower_counts))
        )
        coupling = strassen_coupling(lower=lower_dist, upper=upper_dist, tol=tol)
        if not coupling.feasible or coupling.joint is None:
            raise RuntimeError(
                "Strassen LP infeasible mid-trajectory: the claimed dominance "
                f"fails at states {upper_states[-1]} / {lower_states[-1]}"
            )
        joint = np.clip(coupling.joint, 0.0, None)
        flat = joint.ravel()
        flat = flat / flat.sum()
        cell = int(rng.choice(flat.size, p=flat))
        row, col = divmod(cell, joint.shape[1])
        lower_counts = _canonical(np.asarray(lower_dist.support[row], dtype=np.int64))
        upper_counts = _canonical(np.asarray(upper_dist.support[col], dtype=np.int64))
        upper_states.append(tuple(int(v) for v in upper_counts))
        lower_states.append(tuple(int(v) for v in lower_counts))
    return CoupledTrajectory(upper_states=upper_states, lower_states=lower_states)
