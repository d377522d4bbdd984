"""The 2-Choices process — "ignore".

Each node samples two nodes independently and uniformly at random.  If the
two samples agree, the node adopts their color; otherwise it *ignores*
them and keeps its own color.

2-Choices is **not** an anonymous consensus process: a node's next color
depends on its current color (the keep branch), so its one-round law is
not a single multinomial and Definition 1 does not apply.  This is the
crux of the paper's separation: 2-Choices has exactly the same *expected*
one-round behaviour as 3-Majority (footnote 2),

    E[x_i'] = x_i² + (1 − Σ_j x_j²) · x_i,

yet from the n-color configuration it needs ``Ω(n / log n)`` rounds to let
any color reach support ``γ log n`` (Theorem 5), because a node can only
*switch* when two samples collide — an event of probability ``Σ_j x_j²``,
which is ``1/n`` under full symmetry.

The module also exposes :class:`TwoChoicesBirthUpper` — the paper's
majorizing birth process ``P`` from the proof of Theorem 5
(``P(0) = ℓ``, ``P(t+1) = P(t) + Binomial(n, (ℓ'/n)²)``) — so the
test-suite and the E2 bench can check the coupling argument itself, not
just its conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configuration import Configuration
from .base import AgentProcess

__all__ = ["TwoChoices", "TwoChoicesBirthUpper", "two_choices_expected_fractions"]


class TwoChoices(AgentProcess):
    """Agent-level 2-Choices: adopt iff both samples agree, else keep."""

    name = "2-choices"
    samples_per_round = 2
    is_anonymous = False
    has_vectorized_ensemble = True
    has_sample_update = True
    has_kernel_form = True
    kernel_absorbing_support = True

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.where(picks[..., 0] == picks[..., 1], picks[..., 0], own)

    def kernel_switch_law(
        self, counts: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """2-Choices in switch-and-redistribute form.

        A node switches iff its two samples agree — probability
        ``σ = Σ_j x_j² = ‖x‖²`` regardless of its own color — and the
        agreed color is ``j`` with probability ``x_j²``, so switchers land
        by ``q_j = x_j² / ‖x‖²``.  Nodes act independently given ``x``,
        which is exactly the factorisation :class:`AgentProcess.kernel_switch_law`
        requires; 2-Choices not being an AC-process (the keep branch) is
        irrelevant at the counts level, because the *switch* event does not
        depend on the node's own color — only survival does, and survival
        is what ``c − Bin(c, σ)`` tracks per class.
        """
        x = counts / counts.sum(axis=1, keepdims=True)
        x_sq = x * x
        norm_sq = x_sq.sum(axis=1, keepdims=True)
        sigma = np.broadcast_to(norm_sq, counts.shape)
        return sigma, x_sq / norm_sq

    def expected_next_fractions(self, config: Configuration) -> np.ndarray:
        """Exact expected next fraction vector (footnote 2's identity)."""
        return two_choices_expected_fractions(config.fractions())


def two_choices_expected_fractions(x: np.ndarray) -> np.ndarray:
    """``E[x_i'] = x_i² + (1 − ‖x‖₂²) x_i`` — identical to 3-Majority's.

    Derivation: a node ends the round with color ``i`` iff (a) both samples
    show ``i`` (probability ``x_i²``) or (b) the samples disagree
    (probability ``1 − ‖x‖₂²``) and the node already has color ``i``
    (fraction ``x_i``).
    """
    x = np.asarray(x, dtype=float)
    norm_sq = float(np.dot(x, x))
    return x**2 + (1.0 - norm_sq) * x


@dataclass
class TwoChoicesBirthUpper:
    """The coupled upper process ``P`` from the proof of Theorem 5.

    Tracks a single color ``i`` whose support starts at ``ℓ``.  While the
    true support stays below ``ℓ' = max(2ℓ, γ log n)``, every node's
    probability of seeing color ``i`` twice is at most ``p = (ℓ'/n)²``, so
    the recruitment per round is stochastically dominated by
    ``Binomial(n, p)`` and the paper sets

        P(0) = ℓ,   P(t+1) = P(t) + Binomial(n, p).

    ``P`` never loses support (the true process can), making it a clean
    majorizer amenable to multi-round Chernoff bounds.
    """

    n: int
    ell: int
    gamma: float = 18.0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if not 0 <= self.ell <= self.n:
            raise ValueError("initial support must lie in [0, n]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def ell_prime(self) -> int:
        """The threshold ``ℓ' = max(2ℓ, γ log n)``."""
        return int(max(2 * self.ell, np.ceil(self.gamma * np.log(max(self.n, 2)))))

    @property
    def collision_probability(self) -> float:
        """``p = (ℓ'/n)²`` — per-node chance of sampling color ``i`` twice."""
        return (self.ell_prime / self.n) ** 2

    @property
    def round_budget(self) -> int:
        """The theorem's horizon ``t₀ = n / (γ ℓ')`` (floored, at least 1)."""
        return max(1, int(self.n / (self.gamma * self.ell_prime)))

    def run(self, rounds: int, rng: np.random.Generator) -> np.ndarray:
        """Simulate ``P`` for ``rounds`` rounds; returns the trajectory.

        Entry ``t`` of the result is ``P(t)`` (so the array has
        ``rounds + 1`` entries and starts at ``ℓ``).
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        increments = rng.binomial(self.n, self.collision_probability, size=rounds)
        trajectory = np.empty(rounds + 1, dtype=np.int64)
        trajectory[0] = self.ell
        np.cumsum(increments, out=trajectory[1:])
        trajectory[1:] += self.ell
        return trajectory

    def first_passage(self, rng: np.random.Generator, max_rounds: int) -> int:
        """First ``t`` with ``P(t) ≥ ℓ'`` (or ``max_rounds + 1`` if none)."""
        value = self.ell
        threshold = self.ell_prime
        if value >= threshold:
            return 0
        p = self.collision_probability
        for t in range(1, max_rounds + 1):
            value += int(rng.binomial(self.n, p))
            if value >= threshold:
                return t
        return max_rounds + 1
