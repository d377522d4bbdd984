"""Drift theory — Theorem 7 ([LW14]) and its application to coalescence.

The paper bounds ``E[T^k_C]`` (Section 3.2 / Appendix A.6) by

1. establishing the one-step drift ``E[X_{t+1} − X_t | X_t = x] ≤ −x²/(10n)``
   for the number of coalescing walks on the complete graph, and
2. feeding ``h(x) = x²/(10n)`` into the variable drift theorem

       E[T | X₀] ≤ x_min / h(x_min) + ∫_{x_min}^{X₀} dy / h(y),

   which evaluates to ``E[T^k_C] ≤ 20n/k`` (Equation (18)).

This module implements the drift theorem bound (numerically, for any
drift function) plus the paper's specific closed forms, and provides an
empirical drift estimator so the tests can check the ``−x²/(10n)``
hypothesis itself against simulation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..coalescing.walks import CoalescingWalks
from ..graphs.graph import SampleableGraph

__all__ = [
    "variable_drift_bound",
    "coalescence_drift_function",
    "coalescence_time_bound",
    "estimate_coalescence_drift",
    "pairwise_meeting_probability",
]


def variable_drift_bound(
    x0: float,
    x_min: float,
    h: Callable,
    quad_limit: int = 200,
) -> float:
    """Theorem 7 (variable drift, [LW14, Cor. 1(i)]):

        E[T | X₀ = x0] ≤ x_min / h(x_min) + ∫_{x_min}^{x0} dy / h(y)

    for a process with drift ``E[X_{t+1} − X_t | X_t = x] ≤ −h(x)`` and a
    non-decreasing, positive ``h``.  Evaluated numerically with scipy.
    """
    if x0 < x_min:
        return 0.0
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    head = x_min / h(x_min)
    if x0 == x_min:
        return head
    from scipy import integrate

    tail, _err = integrate.quad(lambda y: 1.0 / h(y), x_min, x0, limit=quad_limit)
    return head + tail


def coalescence_drift_function(n: int) -> Callable:
    """The paper's ``h(x) = x² / (10 n)`` for coalescing walks on ``K_n``."""
    if n < 1:
        raise ValueError("n must be positive")

    def h(x: float) -> float:
        return x * x / (10.0 * n)

    return h


def coalescence_time_bound(n: int, k: int) -> float:
    """Apply Theorem 7 with ``h(x) = x²/(10n)``, ``x_min = k``, ``X₀ = n``.

    Closed form: ``10n/k + 10n(1/k − 1/n) ≤ 20n/k`` — exactly the paper's
    Equation (18).  Computed numerically here so the test-suite can verify
    the closed form against the generic machinery.
    """
    return variable_drift_bound(float(n), float(k), coalescence_drift_function(n))


def estimate_coalescence_drift(
    graph: SampleableGraph,
    num_walks: int,
    trials: int,
    rng: np.random.Generator,
) -> "tuple[float, float]":
    """Empirical one-step drop ``E[X_t − X_{t+1} | X_t = num_walks]``.

    Places ``num_walks`` walks on uniformly random distinct nodes, performs
    one synchronous step, and averages the number of coalescences over
    ``trials``.  Returns ``(mean_drop, sem)``.  The paper's hypothesis is
    ``mean_drop ≥ x²/(10n)`` on the complete graph (it is in fact
    ``≈ x²/(2n)`` for ``x ≪ n``; the 10 is proof slack).
    """
    if not 2 <= num_walks <= graph.num_nodes:
        raise ValueError("need 2 <= num_walks <= n")
    walker = CoalescingWalks(graph)
    drops = np.empty(trials, dtype=float)
    for i in range(trials):
        start = rng.choice(graph.num_nodes, size=num_walks, replace=False)
        after = walker.step(np.asarray(start, dtype=np.int64), rng)
        drops[i] = num_walks - after.size
    sem = float(drops.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return float(drops.mean()), sem


def pairwise_meeting_probability(n: int) -> float:
    """Probability two independent uniform-pull walks on ``K_n`` (self
    included) land on the same node in one step: exactly ``1/n``."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1.0 / n
