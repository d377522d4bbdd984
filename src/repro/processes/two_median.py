"""The 2-Median process of Doerr et al. [DGM+11] (related work, §1.1).

Every node updates its color — here a *numerical value* — to the median of
its own value and the values of two uniformly sampled nodes.  Without any
initial bias this reaches consensus w.h.p. in
``O(log k · log log n + log n)`` rounds, far faster than 2-Choices or
3-Majority without bias.

The paper includes it as a foil: the speed is bought with a *total order*
on the color space (our other processes only test colors for identity),
and 2-Median is not self-stabilising for Byzantine agreement because it
cannot guarantee validity — the median of two corrupted extremes can be a
value no honest node ever supported.  Experiment E12 demonstrates both
sides: the speed, and the validity failure under an adversary that plants
values outside the honest range.
"""

from __future__ import annotations

import numpy as np

from .base import AgentProcess

__all__ = ["TwoMedian"]


class TwoMedian(AgentProcess):
    """Agent-level 2-Median: move to the median of {own, sample₁, sample₂}.

    Not an AC-process (the own value enters the median), and not
    color-anonymous (requires ordered values), so only the agent-level
    semantics exists.  The node rule is :meth:`update_from_samples`, but
    :attr:`~repro.processes.base.AgentProcess.has_sample_update` stays
    off: an asynchronous tick draws a full round of samples and reads the
    activated node's pair, as it always has, so stored streams hold.
    """

    name = "2-median"
    samples_per_round = 2
    is_anonymous = False

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # The median of three values is the own value clamped to the
        # interval the two samples span.
        first, second = picks[..., 0], picks[..., 1]
        return np.maximum(
            np.minimum(first, second),
            np.minimum(np.maximum(first, second), own),
        )

    def has_converged(self, colors: np.ndarray) -> bool:
        """Consensus on a single numerical value.

        2-Median can also *stall* in a two-value deadlock only when the two
        values are adjacent integers with specific counts; the engine's
        round limits catch pathological cases, and the standard consensus
        predicate is appropriate for the experiments reproduced here.
        """
        return bool(np.all(colors == colors[0]))
