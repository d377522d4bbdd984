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

One compile builds each immutable part once, at the first cell that
needs it, and hands it to every later cell with the same value: the
start configuration per (workload value, ``n``), the checked process
factory per process value, the stopping condition per rule string, the
fault schedule per faults value and the canonical JSON of each param
value, from which every ``cell_id`` is spliced (values are told apart
by identity within the compile, never re-encoded).  What carries
per-run state stays per cell: the adversary instance and the metric
recorder.  An invalid value therefore still fails on its first cell,
with the message it always had.  A workload that draws its start at
random must carry an integer ``rng`` kwarg, so that a cell (and its
``cell_id``) always means one start.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import numbers
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
from ..engine.rng import _child_seeds
from ..engine.runtime import backend_choices, resolve_backend
from ..engine.stopping import (
    BiasAtLeast,
    ColorsAtMost,
    Consensus,
    MaxSupportAbove,
    StoppingCondition,
)
from ..experiments.workloads import WORKLOADS, resolve_workload
from ..faults import build_fault_schedule, encode_fault_value
from ..processes.registry import make_process
from .spec import AXIS_NAMES, StudySpec, spec_hash

__all__ = [
    "ADVERSARY_NAMES",
    "StudyCell",
    "build_adversary",
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


#: A value as canonical JSON (sorted keys, no spaces): what
#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` gives,
#: without building an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    Cell ``i``'s seed is ``derive_seed(spec.seed, i)``; one vectorized
    pass derives every cell's seed per compile.  Starts, process factories,
    stopping conditions and fault schedules are built once per distinct
    axis value and shared by the cells that use it; adversaries and
    recorders are built per cell (see the module docstring).
    """
    choices = backend_choices()
    shared: dict = {}

    def once(key, build, *args):
        try:
            return shared[key]
        except KeyError:
            shared[key] = built = build(*args)
            return built

    # The params every cell shares.
    fixed = {
        "repetitions": spec.repetitions,
        # Accepted and ignored (see StudySpec.workers); kept in params
        # so existing cell_ids (and resumes) hold.
        "workers": spec.workers,
        "check_every": spec.check_every,
        "stable_fraction": spec.stable_fraction,
        "stable_rounds": spec.stable_rounds,
        "raise_on_limit": spec.raise_on_limit,
        "record": spec.record,
    }
    # id(value) -> its canonical JSON.  Every value stays referenced by
    # the compiled cells, so no id is reused within the compile.
    encoded: "dict[int, str]" = {}

    def cell_id(params: dict) -> str:
        """The content hash of a cell: the first 16 hex digits of the
        sha256 of ``params``' canonical JSON, spliced from each value's
        (a nested value encodes as it does alone; keys are plain names),
        so each distinct value is encoded once per compile."""
        parts = []
        for key in sorted(params):
            value = params[key]
            text = encoded.get(id(value))
            if text is None:
                text = encoded[id(value)] = _canonical(value)
            parts.append(f'"{key}":{text}')
        canonical = "{%s}" % ",".join(parts)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    assignments = expand_axes(spec)
    seeds = _child_seeds(spec.seed, len(assignments))
    cells = []
    for index, assignment in enumerate(assignments):
        if assignment["backend"] not in choices:
            raise ValueError(
                f"cell {index}: unknown backend {assignment['backend']!r}; "
                f"valid: {', '.join(choices)}"
            )
        n = assignment["n"]
        workload = assignment["workload"]
        initial = once(("start", id(workload), n), _start, workload, n, index)
        process_value = assignment["process"]
        factory = once(("process", id(process_value)), _process_factory, process_value)
        adversary_value = assignment["adversary"]
        adversary = None
        if adversary_value is not None:
            adversary = build_adversary(adversary_value, n, initial.num_colors)
            # Record the resolved budget in the cell's provenance.
            adversary_value = {
                "name": adversary_value["name"],
                "budget": int(adversary.budget),
                "kwargs": dict(adversary_value["kwargs"]),
            }
        stop = once(("stop", assignment["stop"]), parse_stop, assignment["stop"])
        faults_value = assignment["faults"]
        faults = once(("faults", id(faults_value)), build_fault_schedule, faults_value)
        params = {**assignment, "adversary": adversary_value, **fixed}
        if faults_value is None:
            # Elide the default so fault-free cells keep their pre-fault
            # cell_ids — the hashes resume matches completed cells by.
            del params["faults"]
        seed = seeds[index]
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
            StudyCell(index=index, cell_id=cell_id(params), params=params, plan=plan)
        )
    return cells


#: Workloads whose generator draws the start (it takes an ``rng``).  A
#: study cell must seed them, or one ``cell_id`` would mean many starts.
_DRAWING_WORKLOADS = frozenset(
    name
    for name, generator in WORKLOADS.items()
    if "rng" in inspect.signature(generator).parameters
)


def _start(workload: dict, n: int, index: int):
    """The start configuration of ``workload`` at ``n``, first needed by
    cell ``index``; a workload that draws must be seeded by its kwargs."""
    if workload["name"] in _DRAWING_WORKLOADS:
        rng = workload["kwargs"].get("rng")
        if isinstance(rng, bool) or not isinstance(rng, numbers.Integral):
            raise ValueError(
                f"cell {index}: workload {workload['name']!r} draws its start "
                f"at random and needs an integer 'rng' kwarg (got {rng!r}); "
                "without one the same cell_id would mean a new start on "
                "every compile"
            )
    return resolve_workload(workload, n)


def _process_factory(value: dict):
    """A factory for the process ``value`` names, after building one
    instance to validate the name and kwargs; the plan gets the factory,
    so sequential backends build a fresh instance per replica."""
    name, kwargs = value["name"], value["kwargs"]
    make_process(name, **kwargs)
    return lambda: make_process(name, **kwargs)


def _resolve_cells(cells: "list[StudyCell]") -> None:
    """Resolve each cell's backend as the runner will, raising the
    registry's ``ValueError``/``TypeError`` prefixed with the cell.  Not
    part of :func:`compile_study`: every ``grid`` pass compiles."""
    for cell in cells:
        try:
            resolve_backend(cell.plan)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"cell {cell.index} ({cell.label()}): {exc}") from None


def validate_study(spec: StudySpec) -> dict:
    """Compile-only validation: the whole grid is expanded, nothing runs.

    The gate behind ``repro study validate``; the daemon's ``POST
    /jobs`` calls :func:`compile_study` and :func:`_resolve_cells`
    itself and runs the cells it gets.  Every axis value and backend of
    every cell is resolved eagerly, so a typo in the last cell of a
    large grid is rejected *before* a job is accepted or an hour of
    simulation starts.  Returns a summary a client can print::

        {"name", "spec_hash", "num_cells", "repetitions", "cells"}

    where ``cells`` is the per-cell ``(index, cell_id, label)`` listing.
    Invalid specs raise the compiler's ``ValueError``/``KeyError``/
    ``TypeError`` unchanged.
    """
    cells = compile_study(spec)
    _resolve_cells(cells)
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
