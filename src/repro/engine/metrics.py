"""Per-round metrics of consensus trajectories.

All metrics are pure functions of the count vector, matching the
quantities the paper reasons about: the number of remaining colors (the
object of Theorem 2), the bias (footnote 3), the maximum support (the
``ℓ`` of Theorem 5), the collision probability ``‖x‖₂²`` (Equations (1),
(2)), and the Shannon entropy as a smooth summary of symmetry.

Recorders take observations from a single run (:meth:`MetricRecorder.observe`),
from a lock-step round of many replicas
(:meth:`MetricRecorder.observe_ensemble`), or from replicas run one
after another (:meth:`MetricRecorder.for_replica` routes each replica's
run).  The last two record the same series for the same replicas.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict

import numpy as np

__all__ = [
    "num_colors",
    "bias",
    "max_support",
    "collision_probability",
    "entropy",
    "monochromatic_fraction",
    "METRICS",
    "MetricRecorder",
    "EnsembleMetricRecorder",
]


def num_colors(counts: np.ndarray) -> int:
    """Number of remaining colors (non-zero entries)."""
    return int(np.count_nonzero(counts))


def bias(counts: np.ndarray) -> int:
    """Gap between the supports of the top two colors (footnote 3)."""
    if counts.size == 1:
        return int(counts[0])
    top_two = np.partition(counts, counts.size - 2)[-2:]
    return int(top_two[1] - top_two[0])


def max_support(counts: np.ndarray) -> int:
    """Support of the plurality color (the ``ℓ`` of Theorem 5)."""
    return int(counts.max())


def collision_probability(counts: np.ndarray) -> float:
    """``‖c/n‖₂²`` — the chance two uniform samples share a color."""
    x = counts / counts.sum()
    return float(np.dot(x, x))


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of the color distribution."""
    x = counts / counts.sum()
    nz = x[x > 0]
    return float(-np.sum(nz * np.log(nz)))


def monochromatic_fraction(counts: np.ndarray) -> float:
    """Fraction of nodes on the plurality color."""
    return float(counts.max() / counts.sum())


#: Name → metric function registry used by recorders and reports.
METRICS: "Dict[str, Callable[[np.ndarray], float]]" = {
    "num_colors": num_colors,
    "bias": bias,
    "max_support": max_support,
    "collision_probability": collision_probability,
    "entropy": entropy,
    "monochromatic_fraction": monochromatic_fraction,
}


class MetricRecorder:
    """Accumulates selected metrics round by round.

    Parameters
    ----------
    names:
        Metric names from :data:`METRICS`.  Defaults to the three the paper
        tracks most closely: remaining colors, bias, and max support.
    stride:
        Record every ``stride``-th round (round 0 is always recorded).
    """

    def __init__(self, names=("num_colors", "bias", "max_support"), stride: int = 1):
        unknown = [name for name in names if name not in METRICS]
        if unknown:
            raise KeyError(f"unknown metrics: {unknown}; available: {sorted(METRICS)}")
        if stride < 1:
            raise ValueError("stride must be at least 1")
        self.names = tuple(names)
        self.stride = int(stride)
        self.rounds: list = []
        self._values: "Dict[str, list]" = {name: [] for name in self.names}

    def observe(self, round_index: int, counts: np.ndarray) -> None:
        """Record the configuration of ``round_index`` if on-stride."""
        if round_index % self.stride != 0:
            return
        self.rounds.append(int(round_index))
        for name in self.names:
            self._values[name].append(METRICS[name](counts))

    def observe_ensemble(
        self, round_index: int, counts: np.ndarray, active: np.ndarray
    ) -> None:
        """Ensemble-engine hook: record one replica from an ``(A, k)`` matrix.

        ``counts`` holds the still-active replicas' count vectors and
        ``active`` their (sorted) global replica indices.  The base recorder
        follows replica 0 while it is active — the natural "trace one
        trajectory out of the ensemble" behaviour; see
        :class:`EnsembleMetricRecorder` for a designated replica or
        ensemble-aggregated series.
        """
        position = np.searchsorted(active, 0)
        if position < active.size and active[position] == 0:
            self.observe(round_index, counts[position])

    def for_replica(self, replica: int) -> "MetricRecorder | None":
        """The recorder replica ``replica``'s own run feeds, if any.

        The replica-by-replica engines hand each replica's run this
        recorder (or none), so it records what the lock-step hook does:
        the base recorder follows replica 0.
        """
        return self if replica == 0 else None

    def series(self, name: str) -> np.ndarray:
        """The recorded series of metric ``name`` as an array."""
        return np.asarray(self._values[name])

    def as_dict(self) -> dict:
        """All recorded series keyed by metric name, plus ``rounds``."""
        out = {"rounds": np.asarray(self.rounds, dtype=np.int64)}
        for name in self.names:
            out[name] = self.series(name)
        return out

    def __len__(self) -> int:
        return len(self.rounds)


class EnsembleMetricRecorder(MetricRecorder):
    """Per-round metrics of an ensemble run.

    Two recording modes:

    * ``aggregate=None`` (default) — follow the count vector of the
      ``replica`` with the given global index; recording stops at that
      replica's stopping round (its final configuration is included).
    * ``aggregate="mean"`` — record each metric averaged over the replicas
      still active at the round, an ensemble-level trajectory summary.
      Each round keeps its replicas' values in replica order and averages
      them when read, so a lock-step round and ``R`` replica-by-replica
      runs give the same floats.

    Pass an instance as ``recorder=`` to any synchronous engine or
    ensemble (:func:`repro.engine.ensemble.run_ensemble`, the
    replica-by-replica :func:`repro.engine.ensemble.run_replicas`, the
    kernels, or the asynchronous ensemble, where the index is the tick).
    """

    _AGGREGATES = (None, "mean")

    def __init__(
        self,
        names=("num_colors", "bias", "max_support"),
        stride: int = 1,
        replica: int = 0,
        aggregate: "str | None" = None,
    ):
        super().__init__(names=names, stride=stride)
        if replica < 0:
            raise ValueError("replica index must be non-negative")
        if aggregate not in self._AGGREGATES:
            raise ValueError(
                f"unknown aggregate {aggregate!r}; pick one of {self._AGGREGATES}"
            )
        if aggregate is not None and replica != 0:
            raise ValueError(
                "replica= and aggregate= are mutually exclusive: an "
                "aggregated series records no single replica"
            )
        self.replica = int(replica)
        self.aggregate = aggregate
        #: ``aggregate="mean"``: round → metric → the replicas' values.
        self._samples: "Dict[int, Dict[str, list]]" = {}

    def observe(self, round_index: int, counts: np.ndarray) -> None:
        if self.aggregate is None:
            super().observe(round_index, counts)
            return
        if round_index % self.stride != 0:
            return
        samples = self._samples.get(round_index)
        if samples is None:
            samples = self._samples[round_index] = {name: [] for name in self.names}
            bisect.insort(self.rounds, int(round_index))
        for name in self.names:
            samples[name].append(METRICS[name](counts))

    def observe_ensemble(
        self, round_index: int, counts: np.ndarray, active: np.ndarray
    ) -> None:
        if self.aggregate is None:
            position = np.searchsorted(active, self.replica)
            if position < active.size and active[position] == self.replica:
                self.observe(round_index, counts[position])
            return
        for row in counts:
            self.observe(round_index, row)

    def for_replica(self, replica: int) -> "MetricRecorder | None":
        if self.aggregate is None:
            return self if replica == self.replica else None
        return self

    def series(self, name: str) -> np.ndarray:
        if self.aggregate is None:
            return super().series(name)
        return np.asarray(
            [float(np.mean(self._samples[r][name])) for r in self.rounds]
        )
