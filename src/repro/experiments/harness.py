"""Parameter sweeps over system size — the experiment harness core.

Every scaling experiment in EXPERIMENTS.md has the same shape: for each
``n`` in a geometric sweep, repeat a first-passage measurement over
independent seeds, summarise, fit a growth exponent, and compare with the
paper's predicted scale.

Since the declarative study layer (:mod:`repro.study`) became the public
API, this module is a *consumer* of it: :func:`sweep_first_passage`
compiles its per-``n`` callables into study cells and executes them
through the same :func:`~repro.study.runner.execute_cells` loop that
:func:`~repro.study.runner.run_study` uses, so sweeps inherit the
runtime's provenance (resolved backend per point) for free.  New code
should prefer the declarative front doors — :func:`repro.api.sweep` for
the common named-process/named-workload case, or a full
:class:`~repro.study.StudySpec` when the grid has more axes — and treat
this callable-parameterised entry point as the legacy escape hatch for
experiments whose thresholds are arbitrary functions of ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.configuration import Configuration
from ..engine.batch import BatchSummary, first_passage_plan, summarize
from ..engine.rng import RandomSource, derive_seed
from ..engine.stopping import StoppingCondition
from ..processes.base import AgentProcess
from ..analysis.statistics import PowerLawFit, fit_power_law
from .reporting import Table

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_first_passage",
    "sweep_result_from_records",
]


@dataclass
class SweepPoint:
    """Measurements at a single parameter value."""

    param: int
    samples: np.ndarray
    summary: BatchSummary
    predicted: float
    #: Which backend the runtime's cost model actually executed (PR 4
    #: provenance; ``None`` on points loaded from version-1 files).
    resolved_backend: "str | None" = None


@dataclass
class SweepResult:
    """A full sweep: one :class:`SweepPoint` per parameter value."""

    name: str
    param_name: str
    points: "list[SweepPoint]"
    #: Randomness regime the sweep ran under (``"batched"`` on legacy files).
    rng_mode: str = "batched"

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
        if len(self.points) >= 3:
            fit = self.fit()
            table.add_footnote(f"fit: {fit.summary()}")
        else:
            table.add_footnote("fit: n/a (need at least three sweep points)")
        return table


def sweep_result_from_records(
    name: str,
    param_name: str,
    records,
    predicted: "Callable[[int], float]",
    rng_mode: str = "batched",
) -> SweepResult:
    """Study :class:`~repro.study.store.RunRecord`\\ s → a :class:`SweepResult`.

    The bridge the spec-driven front doors use to keep the sweep-report
    machinery (tables, power-law fits, persistence): each record becomes
    one sweep point at its ``params["n"]``, and the paper-scale
    prediction — a presentation concern, not provenance — is evaluated
    at conversion time.
    """
    points = [
        SweepPoint(
            param=int(record.params["n"]),
            samples=record.times,
            summary=summarize(record.times),
            predicted=float(predicted(int(record.params["n"]))),
            resolved_backend=record.resolved_backend,
        )
        for record in records
    ]
    return SweepResult(
        name=name, param_name=param_name, points=points, rng_mode=rng_mode
    )


def sweep_first_passage(
    name: str,
    process_factory: "Callable[[int], AgentProcess]",
    workload: "Callable[[int], Configuration]",
    stop: "Callable[[int], StoppingCondition]",
    n_values: Sequence,
    repetitions: int,
    seed: RandomSource,
    predicted: "Callable[[int], float]",
    max_rounds: "Callable[[int], int] | None" = None,
    backend: str = "auto",
    rng_mode: str = "batched",
    param_name: str = "n",
    scheduler: str = "synchronous",
    adversary=None,
) -> SweepResult:
    """Run a first-passage scaling sweep (legacy callable-parameterised API).

    Parameters are callables of ``n`` so a single harness covers all the
    experiments: ``process_factory(n)`` builds the protocol (some need
    ``n``, e.g. for thresholds), ``workload(n)`` the start configuration,
    ``stop(n)`` the stopping condition, ``predicted(n)`` the paper's
    scale.  Seeds derive deterministically from ``seed`` per sweep point.

    Every execution knob of the unified runtime threads through
    (``backend``, ``rng_mode``, ``scheduler``, ``adversary`` — an
    instance or a callable of ``n``); see
    :func:`repro.engine.batch.repeat_first_passage` for their meanings.

    .. deprecated:: 1.1
        This is now a shim over the study layer: each sweep point is
        compiled to a study cell and executed by
        :func:`repro.study.runner.execute_cells`.  Prefer
        :func:`repro.api.sweep` (declarative arguments, same result
        type) or a :class:`repro.study.StudySpec` with a ``zip``
        expansion when thresholds vary per ``n``.
    """
    from ..study.compile import StudyCell, cell_hash
    from ..study.runner import execute_cells

    cells = []
    for index, n in enumerate(n_values):
        n = int(n)
        point_seed = derive_seed(seed, index)
        plan = first_passage_plan(
            process_factory=lambda n=n: process_factory(n),
            initial=workload(n),
            stop=stop(n),
            repetitions=repetitions,
            rng=point_seed,
            max_rounds=max_rounds(n) if max_rounds is not None else None,
            backend=backend,
            rng_mode=rng_mode,
            scheduler=scheduler,
            adversary=adversary(n) if callable(adversary) else adversary,
        )
        params = {
            "sweep": name,
            "param_name": param_name,
            "n": n,
            "seed": point_seed,
            "repetitions": repetitions,
            "backend": backend,
            "rng_mode": rng_mode,
            "scheduler": scheduler,
        }
        cells.append(
            StudyCell(
                index=index, cell_id=cell_hash(params), params=params, plan=plan
            )
        )
    records = execute_cells(cells)
    return sweep_result_from_records(
        name, param_name, records, predicted, rng_mode=rng_mode
    )
