"""The Voter (Polling) process.

In every round each node samples one node independently and uniformly at
random and adopts that node's color.  Voter is the drift-free baseline of
the paper: its process function is the identity on fractions
(``α_i(c) = c_i / n``, Equation (1)), it needs ``Θ(n)`` rounds to reach
consensus from pairwise-distinct colors, and — crucially for the paper's
upper bound — it reduces from ``n`` to ``k`` colors in ``O((n/k) log n)``
rounds (Lemma 3), which by the domination of Lemma 2 carries over to
3-Majority.

Voter coincides with 1-Majority and 2-Majority (Section 5).
"""

from __future__ import annotations

import numpy as np

from ..core.ac_process import VoterFunction
from .base import ACAgentProcess

__all__ = ["Voter"]


class Voter(ACAgentProcess):
    """Agent-level Voter: adopt the color of one uniform sample."""

    samples_per_round = 1
    has_vectorized_ensemble = True
    has_sample_update = True

    def __init__(self):
        super().__init__(VoterFunction())

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return picks[..., 0]
