"""Concentration inequalities used in the paper's proofs.

Theorem 5's proof (Appendix A.8) controls the majorizing birth process
with multiplicative Chernoff bounds ([MU05, Theorem 4.4]); Lemma 3's
high-probability statement uses the phase/Markov amplification trick.
These helpers make the proof-side quantities computable so tests can
check both the inequalities themselves (against exact binomial tails)
and the specific applications in the paper.
"""

from __future__ import annotations

import math

__all__ = [
    "chernoff_upper_multiplicative",
    "chernoff_upper_above_2mu",
    "binomial_tail_exact",
    "phase_amplification_failure",
    "theorem5_tail_bound",
]


def chernoff_upper_multiplicative(mu: float, delta: float) -> float:
    """Chernoff: ``P[X ≥ (1+δ)μ] ≤ exp(−δ²μ / (2+δ))`` for ``δ > 0``.

    A standard form valid for sums of independent [0,1] variables (cf.
    [MU05, Thm 4.4]; this variant is valid for all ``δ > 0``).
    """
    if mu < 0 or delta <= 0:
        raise ValueError("need mu >= 0 and delta > 0")
    if mu == 0:
        return 0.0
    return math.exp(-(delta**2) * mu / (2.0 + delta))


def chernoff_upper_above_2mu(mu: float, threshold: float) -> float:
    """The bound the paper applies: ``P[B ≥ max(2μ, s)] ≤ exp(−s/3)`` shape.

    For ``B ≥ max(2 E[B], s)`` the exponent form used in Equation (21) is
    ``exp(−s/3)`` — with ``s = (γ/2) log n`` this yields the ``n^{−3}``
    failure probability.  ``threshold`` is the absolute threshold; the
    function evaluates the paper's bound, taking the weaker of the two
    regimes exactly as the displayed inequality does.
    """
    if mu < 0 or threshold <= 0:
        raise ValueError("need mu >= 0 and threshold > 0")
    s = max(threshold, 2.0 * mu)
    if mu == 0:
        return 0.0
    # P[B >= s] with s >= 2mu: delta = s/mu - 1 >= 1, bound exp(-delta*mu/3).
    delta = s / mu - 1.0
    return math.exp(-delta * mu / 3.0)


def binomial_tail_exact(n: int, p: float, threshold: int) -> float:
    """Exact ``P[Bin(n, p) ≥ threshold]`` via scipy's survival function."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if threshold <= 0:
        return 1.0
    from scipy import stats

    return float(stats.binom.sf(threshold - 1, n, p))


def phase_amplification_failure(success_probability: float, phases: int) -> float:
    """Failure probability after ``phases`` independent Ω(1)-success phases.

    Lemma 3's amplification: each phase of length ``2·E[T]`` succeeds with
    probability ≥ 1/2 (Markov), so ``O(log n)`` phases fail with
    probability ``≤ (1 − p)^{phases}``.
    """
    if not 0 < success_probability <= 1:
        raise ValueError("success probability must lie in (0, 1]")
    if phases < 0:
        raise ValueError("phases must be non-negative")
    return (1.0 - success_probability) ** phases


def theorem5_tail_bound(n: int, ell: int, gamma: float = 18.0) -> float:
    """The per-color failure bound of Equation (21): ``≤ n^{−3}``.

    Evaluates the paper's chain: with ``ℓ' = max(2ℓ, γ log n)``,
    ``t₀ = n/(γℓ')``, ``p = (ℓ'/n)²``, the birth process accrues
    ``B ~ Bin(t₀ n, p)`` and

        P[P(t₀) ≥ ℓ'] = P[B ≥ ℓ' − ℓ]
                      ≤ P[B ≥ max(2 E[B], (γ/2) log n)]
                      ≤ exp(−(γ/2) log n / 3) ≤ n^{−3}  for γ ≥ 18.
    """
    log_n = math.log(max(n, 2))
    ell_prime = max(2 * ell, int(math.ceil(gamma * log_n)))
    t0 = n / (gamma * ell_prime)
    p = (ell_prime / n) ** 2
    mean_b = t0 * n * p
    s = (gamma / 2.0) * log_n
    threshold = max(2.0 * mean_b, s)
    if threshold <= mean_b:
        return 1.0
    delta = threshold / mean_b - 1.0 if mean_b > 0 else float("inf")
    if math.isinf(delta):
        return 0.0
    return math.exp(-delta * mean_b / 3.0)
