"""Dynamic adversaries for self-stabilising Byzantine agreement (§5).

The fault model of [BCN+14, BCN+16, EFK+16], which the paper's Section 5
discusses: in every round, after the honest protocol step, an adversary
may *corrupt* the state of a bounded set of at most ``F`` nodes —
rewriting their colors arbitrarily (it cannot change the protocol, only
plant states).  The goal is a stable regime where *almost all* nodes
support one **valid** color (a color initially supported by at least one
non-corrupted node).

Three standard strategies are implemented:

* :class:`RandomNoise` — corrupt ``F`` uniform nodes to uniform colors: a
  sanity baseline;
* :class:`BoostRunnerUp` — move ``F`` nodes onto the strongest color that
  is *not* the current plurality, the classic stalling strategy;
* :class:`PlantInvalid` — push ``F`` nodes to a fresh color outside the
  initial support, attacking validity directly (this is the attack
  2-Median cannot survive, but 3-Majority can: an invalid color fed only
  ``F ≪ √n`` nodes per round cannot out-drift the plurality).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Adversary",
    "RandomNoise",
    "BoostRunnerUp",
    "PlantInvalid",
    "recommended_corruption_budget",
]


def recommended_corruption_budget(n: int, k: int) -> int:
    """The tolerance scale from [BCN+16] quoted in §5: ``O(√n / (k^{5/2} log n))``.

    Returned with constant 1 and floored at 1; the fault-tolerance
    experiment sweeps multiples of it.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    value = np.sqrt(n) / (k**2.5 * np.log(n))
    return max(1, int(value))


class Adversary(abc.ABC):
    """A round adversary corrupting at most ``budget`` nodes per round."""

    #: True when :meth:`corrupt_counts` implements the same corruption law
    #: directly on count vectors — the hook the count-level adversary
    #: ensemble needs (valid for AC-processes, where node identity carries
    #: no information).
    supports_counts: bool = False

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = int(budget)

    @abc.abstractmethod
    def corrupt(self, colors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the corrupted color vector (must differ on ≤ budget nodes).

        Implementations must not mutate the input.
        """

    def color_ceiling(self, num_slots: int) -> int:
        """Slot width needed to hold every color this adversary can write.

        The ensemble engines size their count matrices with this so that
        planted/resurrected colors (which may lie outside the honest slot
        range) have somewhere to be counted.
        """
        return int(num_slots)

    def corrupt_ensemble(
        self, colors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Corrupt an ``(R, n)`` color matrix, each replica independently.

        The base implementation loops :meth:`corrupt` row-wise so every
        adversary works in the ensemble runner day one; adversaries whose
        victim choice is expressible as a per-replica mask override with a
        vectorized version.
        """
        return np.stack(
            [self.corrupt(colors[r], rng) for r in range(colors.shape[0])]
        )

    def corrupt_counts(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The corruption law applied to an ``(R, k)`` counts matrix.

        Only meaningful against AC-processes, whose anonymity makes the
        node-level corruption distribution a pure function of the counts
        (uniform victim sets become multivariate-hypergeometric draws).
        Adversaries that support it set :attr:`supports_counts`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no count-level corruption law"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(budget={self.budget})"


def _uniform_victim_masks(
    shape: "tuple[int, int]", budget: int, rng: np.random.Generator
) -> np.ndarray:
    """``(R, n)`` boolean masks with exactly ``min(budget, n)`` True per row.

    Uniform victim sets for every replica in one vectorized step: rank a
    matrix of uniforms per row and take the ``budget`` smallest —
    equivalent to an independent without-replacement draw per replica.
    """
    reps, n = shape
    take = min(budget, n)
    if take == 0:
        return np.zeros(shape, dtype=bool)
    keys = rng.random(size=shape)
    victims = np.argpartition(keys, take - 1, axis=1)[:, :take]
    mask = np.zeros(shape, dtype=bool)
    mask[np.repeat(np.arange(reps), take), victims.ravel()] = True
    return mask


def _victim_color_counts(
    counts: np.ndarray, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """Color counts of ``budget`` uniform victims per replica row.

    Choosing ``F`` victims uniformly without replacement from a population
    with color counts ``c`` makes the victims' color counts multivariate-
    hypergeometric — the count-level image of uniform node corruption.
    """
    out = np.empty_like(counts)
    for r in range(counts.shape[0]):
        row = counts[r]
        take = min(budget, int(row.sum()))
        out[r] = rng.multivariate_hypergeometric(row, take)
    return out


class RandomNoise(Adversary):
    """Corrupt ``budget`` uniform nodes to uniform colors among ``num_colors``."""

    supports_counts = True

    def __init__(self, budget: int, num_colors: int):
        super().__init__(budget)
        if num_colors < 1:
            raise ValueError("num_colors must be positive")
        self.num_colors = int(num_colors)

    def corrupt(self, colors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.budget == 0:
            return colors.copy()
        out = colors.copy()
        victims = rng.choice(colors.size, size=min(self.budget, colors.size), replace=False)
        out[victims] = rng.integers(0, self.num_colors, size=victims.size)
        return out

    def color_ceiling(self, num_slots: int) -> int:
        return max(num_slots, self.num_colors)

    def corrupt_ensemble(
        self, colors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        out = colors.copy()
        if self.budget == 0:
            return out
        mask = _uniform_victim_masks(out.shape, self.budget, rng)
        out[mask] = rng.integers(
            0, self.num_colors, size=int(mask.sum())
        ).astype(out.dtype, copy=False)
        return out

    def corrupt_counts(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.budget == 0:
            return counts.copy()
        victims = _victim_color_counts(counts, self.budget, rng)
        replacements = rng.multinomial(
            victims.sum(axis=1), np.full(self.num_colors, 1.0 / self.num_colors)
        )
        out = counts - victims
        out[:, : self.num_colors] += replacements
        return out


class BoostRunnerUp(Adversary):
    """Move ``budget`` plurality nodes onto the strongest challenger color.

    The canonical stalling adversary: it fights the drift by shrinking the
    bias every round.  Consensus-time degradation under this adversary is
    the quantity experiment E11 tracks.
    """

    supports_counts = True

    def corrupt(self, colors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.budget == 0:
            return colors.copy()
        out = colors.copy()
        # Only decided nodes rank: Undecided dynamics marks the others
        # with a negative color, and a replica with none is left as is.
        decided = out[out >= 0]
        if decided.size == 0:
            return out
        counts = np.bincount(decided)
        order = np.argsort(counts)[::-1]
        leader = int(order[0])
        challenger = None
        for candidate in order[1:]:
            if counts[candidate] > 0:
                challenger = int(candidate)
                break
        if challenger is None:
            # Consensus already.  The §5 adversary may write arbitrary
            # states, so it resurrects opposition under a fresh color id
            # (which is *invalid* in the Byzantine-agreement sense — the
            # validity tracker will flag it if it ever wins).
            challenger = leader + 1
        leader_nodes = np.flatnonzero(out == leader)
        take = min(self.budget, leader_nodes.size)
        if take == 0:
            return out
        victims = rng.choice(leader_nodes, size=take, replace=False)
        out[victims] = challenger
        return out

    def color_ceiling(self, num_slots: int) -> int:
        # Resurrecting opposition at consensus writes ``leader + 1``.
        return int(num_slots) + 1

    def corrupt_counts(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Count-level image of the boost: move mass leader → challenger.

        Which leader nodes are hit is irrelevant at count level, so the
        corruption is deterministic: ``min(budget, leader support)`` nodes
        leave the plurality color for the strongest remaining challenger
        (or a fresh color id when the replica is already at consensus —
        clamped to the last slot if the matrix has no room above).
        """
        out = counts.copy()
        if self.budget == 0:
            return out
        reps, width = out.shape
        rows = np.arange(reps)
        # Match the sequential tie-break (``argsort(counts)[::-1]``): among
        # tied supports the *highest* color id leads, and the strongest
        # remaining color by the same order is the challenger.  At an exact
        # tie this decides which way the boost tips the replica, so the two
        # backends must agree.
        leader = width - 1 - np.argmax(out[:, ::-1], axis=1)
        masked = out.copy()
        masked[rows, leader] = -1
        challenger = width - 1 - np.argmax(masked[:, ::-1], axis=1)
        no_opposition = masked[rows, challenger] <= 0
        resurrected = np.minimum(leader + 1, width - 1)
        challenger = np.where(no_opposition, resurrected, challenger)
        take = np.minimum(self.budget, out[rows, leader])
        # A consensus replica whose leader occupies the last slot has no
        # spare color id to resurrect; leave it untouched.
        take = np.where(challenger == leader, 0, take)
        out[rows, leader] -= take
        out[rows, challenger] += take
        return out


class PlantInvalid(Adversary):
    """Corrupt ``budget`` uniform nodes to a color with no initial support.

    Byzantine agreement's validity condition forbids converging to such a
    color (footnote 5).  3-Majority tolerates this attack for small
    budgets; the E11/E12 benches demonstrate the contrast with 2-Median,
    where planted extreme *values* drag the median to an invalid value.
    """

    supports_counts = True

    def __init__(self, budget: int, invalid_color: int):
        super().__init__(budget)
        if invalid_color < 0:
            raise ValueError("invalid_color must be a valid color id")
        self.invalid_color = int(invalid_color)

    def corrupt(self, colors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.budget == 0:
            return colors.copy()
        out = colors.copy()
        victims = rng.choice(colors.size, size=min(self.budget, colors.size), replace=False)
        out[victims] = self.invalid_color
        return out

    def color_ceiling(self, num_slots: int) -> int:
        return max(num_slots, self.invalid_color + 1)

    def corrupt_ensemble(
        self, colors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        out = colors.copy()
        if self.budget == 0:
            return out
        mask = _uniform_victim_masks(out.shape, self.budget, rng)
        out[mask] = self.invalid_color
        return out

    def corrupt_counts(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.budget == 0:
            return counts.copy()
        victims = _victim_color_counts(counts, self.budget, rng)
        out = counts - victims
        out[:, self.invalid_color] += victims.sum(axis=1)
        return out


@dataclass(frozen=True)
class AdversarySchedule:
    """Turn an adversary on for a bounded window of rounds.

    Useful for recovery experiments: corrupt during ``[start, stop)`` and
    verify the protocol re-stabilises afterwards (self-stabilisation).
    """

    adversary: Adversary
    start: int = 0
    stop: "int | None" = None

    def active(self, round_index: int) -> bool:
        if round_index < self.start:
            return False
        return self.stop is None or round_index < self.stop

    def corrupt(
        self, round_index: int, colors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if not self.active(round_index):
            return colors
        return self.adversary.corrupt(colors, rng)

    def corrupt_ensemble(
        self, round_index: int, colors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Window-gated ``(R, n)`` corruption for the ensemble runner."""
        if not self.active(round_index):
            return colors
        return self.adversary.corrupt_ensemble(colors, rng)

    def corrupt_counts(
        self, round_index: int, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Window-gated ``(R, k)`` corruption for the count-level runner."""
        if not self.active(round_index):
            return counts
        return self.adversary.corrupt_counts(counts, rng)


__all__.append("AdversarySchedule")
