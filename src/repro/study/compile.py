"""Compile a :class:`StudySpec` into executable study cells.

``compile_study`` is the bridge between the declarative layer and the
unified runtime: each cell resolves one axis assignment into a
:class:`~repro.engine.plan.SimulationPlan`, with

* a stable per-cell seed derived from the spec seed and the cell index
  (:func:`repro.engine.rng.derive_seed`), so cell ``i`` of a one-axis
  study samples what ``repeat_first_passage(..., rng=derive_seed(seed,
  i))`` does, bit-for-bit;
* a content hash (``cell_id``) over the resolved parameters, which is
  what the resume machinery matches completed cells by;
* the adversary budget resolved at compile time (``budget = None`` means
  the [BCN+16] recommended tolerance scale for the cell's ``n`` and
  color count), so provenance records concrete numbers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field

from ..adversary.adversary import (
    Adversary,
    BoostRunnerUp,
    PlantInvalid,
    RandomNoise,
    recommended_corruption_budget,
)
from ..engine.batch import first_passage_plan
from ..engine.metrics import EnsembleMetricRecorder
from ..engine.plan import SimulationPlan
from ..engine.rng import derive_seed
from ..engine.runtime import backend_choices
from ..engine.stopping import (
    BiasAtLeast,
    ColorsAtMost,
    Consensus,
    MaxSupportAbove,
    StoppingCondition,
)
from ..experiments.workloads import resolve_workload
from ..faults import build_fault_schedule, encode_fault_value
from ..processes.registry import make_process
from .spec import AXIS_NAMES, StudySpec, spec_hash

__all__ = [
    "ADVERSARY_NAMES",
    "StudyCell",
    "build_adversary",
    "cell_hash",
    "compile_study",
    "describe_axes",
    "expand_axes",
    "parse_stop",
    "validate_study",
]

#: §5 adversary strategies a spec (or the CLI) can name declaratively.
#: Each builder takes the resolved budget, the cell's initial color count
#: and any explicit kwargs from the spec.
_ADVERSARY_BUILDERS = {
    "plant-invalid": lambda budget, colors, kwargs: PlantInvalid(
        budget, invalid_color=kwargs.get("invalid_color", colors + 5)
    ),
    "boost-runner-up": lambda budget, colors, kwargs: BoostRunnerUp(budget),
    "random-noise": lambda budget, colors, kwargs: RandomNoise(
        budget, kwargs.get("num_colors", colors)
    ),
}

ADVERSARY_NAMES = tuple(sorted(_ADVERSARY_BUILDERS))

_STOP_PATTERNS = (
    (re.compile(r"^colors<=(\d+)$"), lambda k: ColorsAtMost(int(k))),
    (re.compile(r"^max-support>(\d+)$"), lambda t: MaxSupportAbove(int(t))),
    (re.compile(r"^bias>=(\d+)$"), lambda t: BiasAtLeast(int(t))),
)


def parse_stop(rule: str) -> StoppingCondition:
    """A declarative stopping rule string → a stopping condition.

    ``"consensus"`` plus the threshold forms ``"colors<=K"``,
    ``"max-support>K"`` and ``"bias>=K"``.
    """
    if rule == "consensus":
        return Consensus()
    for pattern, build in _STOP_PATTERNS:
        match = pattern.match(rule)
        if match:
            return build(match.group(1))
    raise ValueError(
        f"unknown stop rule {rule!r}; expected 'consensus', 'colors<=K', "
        "'max-support>K' or 'bias>=K'"
    )


def build_adversary(
    value: "dict | str | None", n: int, colors: int
) -> "Adversary | None":
    """A canonical adversary axis value → an :class:`Adversary` instance.

    ``value`` is the spec's canonical dict (``{"name", "budget",
    "kwargs"}``), a bare strategy name, or ``None``; a missing budget
    resolves to ``max(1, recommended_corruption_budget(n, colors))``.
    """
    if value is None or value == "none":
        return None
    if isinstance(value, str):
        value = {"name": value, "budget": None, "kwargs": {}}
    name = value["name"]
    try:
        builder = _ADVERSARY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; available: {', '.join(ADVERSARY_NAMES)}"
        ) from None
    budget = value.get("budget")
    if budget is None:
        budget = max(1, recommended_corruption_budget(n, colors))
    return builder(int(budget), colors, value.get("kwargs", {}))


def expand_axes(spec: StudySpec) -> "list[dict]":
    """The spec's axis assignments per cell, in execution order."""
    axes = spec.axes
    if spec.expansion == "zip":
        length = max(len(values) for values in axes.values())
        cells = []
        for i in range(length):
            cells.append(
                {
                    axis: values[i if len(values) > 1 else 0]
                    for axis, values in axes.items()
                }
            )
        return cells
    combos = itertools.product(*(axes[axis] for axis in AXIS_NAMES))
    return [dict(zip(AXIS_NAMES, combo)) for combo in combos]


def cell_hash(params: dict) -> str:
    """Content hash of one cell's fully resolved parameters."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def describe_axes(params: dict) -> str:
    """The non-default axis assignments beyond (process, n), for display.

    The one formatting rule shared by :meth:`StudyCell.label` (progress
    lines) and :func:`repro.study.report.study_report` (the ``axes``
    column), so the two can never drift.  ``faults`` is absent from the
    params of fault-free cells (see :func:`compile_study`).
    """
    bits = []
    workload = params["workload"]
    if workload["name"] != "singletons" or workload["kwargs"]:
        kwargs = ",".join(f"{k}={v}" for k, v in workload["kwargs"].items())
        bits.append(workload["name"] + (f"({kwargs})" if kwargs else ""))
    if params["scheduler"] != "synchronous":
        bits.append(params["scheduler"])
    adversary = params["adversary"]
    if adversary is not None:
        bits.append(f"{adversary['name']} F={adversary['budget']}")
    if params["stop"] != "consensus":
        bits.append(params["stop"])
    faults = params.get("faults")
    if faults is not None:
        encoded = encode_fault_value(faults)
        inner = ",".join(f"{k}={v}" for k, v in encoded.items())
        bits.append(f"faults({inner})")
    return " ".join(bits)


@dataclass
class StudyCell:
    """One compiled cell: resolved parameters plus the executable plan."""

    index: int
    cell_id: str
    params: dict
    plan: SimulationPlan = field(repr=False)

    def label(self) -> str:
        """A short human-readable cell summary (for reports and logs)."""
        parts = [self.params["process"]["name"], f"n={self.params['n']}"]
        axes = describe_axes(self.params)
        if axes:
            parts.append(axes)
        return " ".join(parts)


def _cell_recorder(spec: StudySpec):
    if spec.record is None:
        return None
    return EnsembleMetricRecorder(
        names=tuple(spec.record["metrics"]),
        stride=spec.record["stride"],
        replica=spec.record["replica"],
        aggregate=spec.record["aggregate"],
    )


def compile_study(spec: StudySpec) -> "list[StudyCell]":
    """Expand a spec into compiled cells, validating every axis value.

    Validation happens eagerly for the *whole* grid before anything runs,
    so a typo in the last cell surfaces before hours of simulation.
    """
    cells = []
    for index, assignment in enumerate(expand_axes(spec)):
        if assignment["backend"] not in backend_choices():
            raise ValueError(
                f"cell {index}: unknown backend {assignment['backend']!r}; "
                f"valid: {', '.join(backend_choices())}"
            )
        n = assignment["n"]
        initial = resolve_workload(assignment["workload"], n)
        process_value = assignment["process"]
        # Build one instance eagerly to validate the name/kwargs...
        make_process(process_value["name"], **process_value["kwargs"])
        # ...but hand the plan a factory, so sequential backends get a
        # fresh instance per replica (the factory contract of the plan).
        factory = _process_factory(process_value)
        adversary_value = assignment["adversary"]
        adversary = build_adversary(adversary_value, n, initial.num_colors)
        if adversary is not None:
            # Record the resolved budget in the cell's provenance.
            adversary_value = {
                "name": adversary_value["name"],
                "budget": int(adversary.budget),
                "kwargs": dict(adversary_value["kwargs"]),
            }
        stop = parse_stop(assignment["stop"])
        faults_value = assignment["faults"]
        faults = build_fault_schedule(faults_value)
        params = {
            **assignment,
            "adversary": adversary_value,
            "repetitions": spec.repetitions,
            # Accepted and ignored (see StudySpec.workers); kept in
            # params so existing cell_ids (and resumes) hold.
            "workers": spec.workers,
            "check_every": spec.check_every,
            "stable_fraction": spec.stable_fraction,
            "stable_rounds": spec.stable_rounds,
            "raise_on_limit": spec.raise_on_limit,
            "record": spec.record,
        }
        if faults_value is None:
            # Elide the default so fault-free cells keep their pre-fault
            # cell_ids — the hashes resume matches completed cells by.
            del params["faults"]
        seed = derive_seed(spec.seed, index)
        params["seed"] = seed
        plan = first_passage_plan(
            process_factory=factory,
            initial=initial,
            stop=stop,
            repetitions=spec.repetitions,
            rng=seed,
            max_rounds=assignment["max_rounds"],
            backend=assignment["backend"],
            rng_mode=assignment["rng_mode"],
            scheduler=assignment["scheduler"],
            adversary=adversary,
            faults=faults,
            recorder=_cell_recorder(spec),
            check_every=spec.check_every,
            stable_fraction=spec.stable_fraction,
            stable_rounds=spec.stable_rounds,
            raise_on_limit=spec.raise_on_limit,
        )
        cells.append(
            StudyCell(index=index, cell_id=cell_hash(params), params=params, plan=plan)
        )
    return cells


def _process_factory(value: dict):
    name, kwargs = value["name"], value["kwargs"]
    return lambda: make_process(name, **kwargs)


def validate_study(spec: StudySpec) -> dict:
    """Compile-only validation: the whole grid is expanded, nothing runs.

    The gate behind ``repro study validate``; the daemon's ``POST
    /jobs`` calls :func:`compile_study` itself and runs the cells it
    gets.  Every axis value of every cell is resolved eagerly
    (:func:`compile_study`'s contract), so a typo in the last cell of a
    large grid is rejected *before* a job is accepted or an hour of
    simulation starts.  Returns a summary a client can print::

        {"name", "spec_hash", "num_cells", "repetitions", "cells"}

    where ``cells`` is the per-cell ``(index, cell_id, label)`` listing.
    Invalid specs raise the compiler's ``ValueError``/``KeyError``/
    ``TypeError`` unchanged.
    """
    cells = compile_study(spec)
    return {
        "name": spec.name,
        "spec_hash": spec_hash(spec),
        "num_cells": len(cells),
        "repetitions": int(spec.repetitions),
        "cells": [
            {"index": cell.index, "cell_id": cell.cell_id, "label": cell.label()}
            for cell in cells
        ],
    }
