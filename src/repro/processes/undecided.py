"""The Undecided-State dynamics [BCN+15] (related work, §1.1).

Each node samples one uniform node per round.  A *decided* node that sees
a different (decided) color becomes **undecided**; an undecided node
adopts the color of its sample (staying undecided if the sample is).
With a large enough initial bias this reaches plurality consensus w.h.p.
in ``O(k log n)`` rounds.

The paper's cautionary remark — reproduced as experiment E12 — is that
from the ``k = n`` all-singletons configuration the dynamics can collapse:
with constant probability essentially *all* nodes become undecided before
any real color can spread, after which no real color remains in the
population and consensus on a valid color is impossible.  The
implementation therefore tracks the number of undecided nodes and exposes
:meth:`UndecidedDynamics.is_dead` for the collapse event.
"""

from __future__ import annotations

import numpy as np

from ..core.configuration import Configuration
from .base import AgentProcess

__all__ = ["UndecidedDynamics", "UNDECIDED"]

#: Sentinel color id for the undecided state.  Negative, so it can never
#: collide with a real color id.
UNDECIDED = -1


class UndecidedDynamics(AgentProcess):
    """Agent-level Undecided-State dynamics with one sample per round.

    The color vector uses :data:`UNDECIDED` (= -1) for undecided nodes.
    The node rule is :meth:`update_from_samples`, but
    :attr:`~repro.processes.base.AgentProcess.has_sample_update` stays
    off: an asynchronous tick draws a full round of samples and reads the
    activated node's, as it always has, so stored streams hold.
    """

    name = "undecided-dynamics"
    samples_per_round = 1
    is_anonymous = False

    def update_from_samples(
        self, own: np.ndarray, picks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        seen = picks[..., 0]
        # Undecided nodes copy whatever they see (possibly staying
        # undecided); decided nodes seeing a different decided color become
        # undecided, and keep their color otherwise.
        keep = (seen == UNDECIDED) | (seen == own)
        return np.where(
            own == UNDECIDED, seen, np.where(keep, own, UNDECIDED)
        )

    def has_converged(self, colors: np.ndarray) -> bool:
        """Consensus requires a single *real* color and nobody undecided."""
        first = colors[0]
        if first == UNDECIDED:
            return self.is_dead(colors)
        return bool(np.all(colors == first))

    @staticmethod
    def is_dead(colors: np.ndarray) -> bool:
        """True iff every node is undecided — no valid consensus is reachable."""
        return bool(np.all(colors == UNDECIDED))

    @staticmethod
    def undecided_fraction(colors: np.ndarray) -> float:
        """Fraction of currently undecided nodes."""
        return float(np.mean(colors == UNDECIDED))

    def configuration_of(self, colors: np.ndarray, num_slots: int) -> Configuration:
        """Project decided nodes to a configuration; undecided get a slot.

        The returned configuration appends one extra slot counting the
        undecided nodes, so totals still sum to ``n``.
        """
        decided = colors[colors != UNDECIDED]
        counts = np.bincount(decided, minlength=num_slots).astype(np.int64)
        undecided_count = int(np.sum(colors == UNDECIDED))
        return Configuration(np.concatenate([counts, [undecided_count]]))
