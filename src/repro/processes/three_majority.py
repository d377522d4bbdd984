"""The 3-Majority process — "comply".

Each node samples three nodes independently and uniformly at random.  If
some color appears in at least two samples, the node adopts it; otherwise
it adopts the color of one of the samples.  The paper states the
tie-break as a uniformly random sample and notes (footnote 1) that a
*fixed* sample induces the same adoption law — the samples are
exchangeable — so this implementation adopts the third sample: the rule
is then *draw-count-stable* (exactly ``3n`` draws per round, tie or no
tie), which keeps every backend, the fused wavefront kernel included,
on identical rng streams.

The paper's alternative formulation makes the relation to 2-Choices
explicit: sample two nodes; if they agree, adopt ("2-Choices branch");
otherwise sample a third node and adopt *its* color ("Voter branch") —
complying with the fresh sample instead of ignoring the disagreement.
Both formulations induce the same process function (Equation (2)):

    α_i(c) = x_i² + (1 − ‖x‖₂²) · x_i,   x = c / n,

and the paper's headline upper bound (Theorem 4) shows the process reaches
consensus from *any* configuration w.h.p. in ``O(n^{3/4} log^{7/8} n)``
rounds.

Both the classic three-sample rule and the resample formulation are
implemented; the test-suite checks they agree in distribution (they are
the same process).
"""

from __future__ import annotations

import numpy as np

from ..core.ac_process import ThreeMajorityFunction
from .base import ACAgentProcess

__all__ = ["ThreeMajority", "ThreeMajorityResample"]


class ThreeMajority(ACAgentProcess):
    """Agent-level 3-Majority via the literal three-sample plurality rule."""

    samples_per_round = 3
    has_vectorized_ensemble = True
    has_sample_update = True

    def __init__(self):
        super().__init__(ThreeMajorityFunction())

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        a, b, c = picks[..., 0], picks[..., 1], picks[..., 2]
        # A color seen at least twice wins; with all three distinct, the
        # *third* sample is adopted.  Footnote 1: the three samples are
        # exchangeable, so a fixed sample's color has exactly the uniform
        # tie-break's marginal law — the adoption law is Equation (2)
        # either way.  Taking the fixed sample makes the rule draw-free
        # (3n draws per round, tie or no tie), which is what lets every
        # engine — including the wavefront kernel, whose draw *shapes*
        # differ — consume identical streams and stay bit-for-bit.
        return np.where(a == b, a, np.where(b == c, b, np.where(a == c, a, c)))


class ThreeMajorityResample(ACAgentProcess):
    """3-Majority in the paper's alternative "2-Choices + Voter" form.

    Sample two nodes; if they agree adopt their color, otherwise sample a
    *third* node and adopt its color.  Identical in distribution to
    :class:`ThreeMajority`: each node's adoption law is

        α_i = P[pair agrees on i] + P[pair disagrees] · P[third is i]
            = x_i² + (1 − ‖x‖₂²) · x_i,

    which is exactly Equation (2), and since both variants are AC-processes
    (adoptions independent across nodes with common law ``α``) equal
    process functions imply equal process distributions.  Note the
    *conditional* behaviour given the samples differs between the variants;
    only the marginal adoption law — which is all that defines an
    AC-process — coincides.
    """

    name = "3-majority/resample"
    samples_per_round = 3
    has_vectorized_ensemble = True
    has_sample_update = True

    def __init__(self):
        super().__init__(ThreeMajorityFunction())
        self.name = "3-majority/resample"

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.where(
            picks[..., 0] == picks[..., 1], picks[..., 0], picks[..., 2]
        )
