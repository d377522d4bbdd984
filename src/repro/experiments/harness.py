"""Scaling-sweep results: the table-and-fit view of a study's records.

A scaling experiment has one shape: for each ``n`` in a geometric sweep,
repeat a first-passage measurement over independent seeds, summarise,
fit a growth exponent, and compare with the paper's predicted scale.
The measurement is a study — :func:`repro.api.sweep` builds a one-axis
:class:`~repro.study.StudySpec` and runs it through
:func:`~repro.study.runner.run_study` — and this module is the view on
its records: :func:`sweep_result_from_records` turns them into a
:class:`SweepResult`, whose table and power-law fit are what the CLI
and the benchmarks print.  The records themselves, with their
provenance, live in the study's :class:`~repro.study.StudyStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..engine.batch import BatchSummary, summarize
from ..analysis.statistics import PowerLawFit, fit_power_law
from .reporting import Table

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_result_from_records",
]


@dataclass
class SweepPoint:
    """Measurements at a single parameter value."""

    param: int
    samples: np.ndarray
    summary: BatchSummary
    predicted: float


@dataclass
class SweepResult:
    """A full sweep: one :class:`SweepPoint` per parameter value."""

    name: str
    param_name: str
    points: "list[SweepPoint]"

    def params(self) -> np.ndarray:
        return np.asarray([p.param for p in self.points], dtype=float)

    def means(self) -> np.ndarray:
        return np.asarray([p.summary.mean for p in self.points])

    def predictions(self) -> np.ndarray:
        return np.asarray([p.predicted for p in self.points])

    def fit(self) -> PowerLawFit:
        """Power-law fit of the mean first-passage time vs the parameter."""
        return fit_power_law(self.params(), self.means())

    def prediction_ratio_drift(self) -> float:
        """Max/min of measured-over-predicted across the sweep.

        Close to 1 means the measured curve tracks the paper's scale with
        a stable constant; large drift signals a different exponent.
        """
        ratio = self.means() / self.predictions()
        return float(ratio.max() / ratio.min())

    def to_table(self, predicted_label: str = "paper scale") -> Table:
        table = Table(
            title=self.name,
            columns=[self.param_name, "runs", "mean", "sem", "median", "max", predicted_label, "mean/scale"],
        )
        for point in self.points:
            table.add_row(
                point.param,
                point.summary.count,
                point.summary.mean,
                point.summary.sem,
                point.summary.median,
                point.summary.maximum,
                point.predicted,
                point.summary.mean / point.predicted if point.predicted else float("nan"),
            )
        zero = [str(p.param) for p in self.points if p.summary.mean <= 0]
        # The rule repro.study.report applies to a fit group, so a sweep's
        # table and its store's report agree on whether there is a fit.
        if len({p.param for p in self.points}) < 3:
            table.add_footnote("fit: n/a (need at least three distinct sizes)")
        elif zero:
            table.add_footnote(
                f"fit: n/a (mean 0 at {self.param_name}={', '.join(zero)}; "
                "a power law needs positive means)"
            )
        else:
            table.add_footnote(f"fit: {self.fit().summary()}")
        return table


def sweep_result_from_records(
    name: str,
    param_name: str,
    records,
    predicted: "Callable[[int], float]",
) -> SweepResult:
    """Study :class:`~repro.study.store.RunRecord`\\ s → a :class:`SweepResult`.

    Each record becomes one sweep point at its ``params["n"]``, and the
    paper-scale prediction — a presentation concern, not provenance — is
    evaluated at conversion time.
    """
    points = [
        SweepPoint(
            param=int(record.params["n"]),
            samples=record.times,
            summary=summarize(record.times),
            predicted=float(predicted(int(record.params["n"]))),
        )
        for record in records
    ]
    return SweepResult(name=name, param_name=param_name, points=points)
