"""Pins for the one-loop-per-family fold of the per-replica engines.

Per-replica plans (and batched plans of processes without a vectorized
``update_ensemble``) run the sequential loop once per spawned stream on
every backend name.  These tests hold that fold to what the separate
lock-step copies produced before it:

* the resolved backend name of every plan in a process × scheduler ×
  rng mode × recorder × faults × adversary × backend-name grid
  (``tests/data/resolved_backends.json``);
* a results digest per small study spec, computed before the fold.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.adversary import PlantInvalid
from repro.core import Configuration
from repro.engine import (
    Consensus,
    EnsembleMetricRecorder,
    SimulationPlan,
    backend_choices,
    backend_names,
    resolve_backend,
)
from repro.faults import CrashStop
from repro.processes import make_process
from repro.study import StudySpec, run_study

_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "resolved_backends.json")

_PROCESSES = (
    "3-majority", "2-choices", "voter", "2-median", "undecided-dynamics",
    "h-majority:5",
)
#: A narrow start, and one wider than the count chain's slot limit.
_INITIALS = {
    "narrow": lambda: Configuration.balanced(60, 3),
    "wide": lambda: Configuration.singletons(4200),
}


def _routing_cases():
    for case in itertools.product(
        _PROCESSES, _INITIALS, ("synchronous", "asynchronous"),
        ("batched", "per-replica"), ("none", "R=1", "R>1"),
        ("none", "crash"), ("none", "plant-invalid"),
    ):
        _process, _initial, scheduler, _rng, _rec, faults, adversary = case
        if scheduler == "asynchronous" and (faults, adversary) != ("none", "none"):
            continue  # rejected by SimulationPlan itself
        if faults != "none" and adversary != "none":
            continue
        yield case


def _resolve(case, name):
    process, initial_name, scheduler, rng_mode, recorder, faults, adversary = case
    initial = _INITIALS[initial_name]()
    plan = SimulationPlan(
        process=lambda: make_process(process),
        initial=initial,
        stop=Consensus(),
        repetitions=1 if recorder == "R=1" else 4,
        scheduler=scheduler,
        adversary=(
            PlantInvalid(2, invalid_color=initial.num_slots)
            if adversary != "none"
            else None
        ),
        faults=CrashStop(0.1) if faults != "none" else None,
        rng=5,
        rng_mode=rng_mode,
        recorder=None if recorder == "none" else EnsembleMetricRecorder(),
        backend=name,
    )
    try:
        return resolve_backend(plan).spec.name
    except (TypeError, ValueError) as exc:
        return "!" + type(exc).__name__


def _load_table():
    with open(_TABLE_PATH) as handle:
        return json.load(handle)


def test_registry_keeps_its_eleven_names():
    assert backend_names() == (
        "agent", "counts", "async", "adversary", "ensemble-agent",
        "ensemble-counts", "ensemble-async", "ensemble-adversary-agent",
        "ensemble-adversary-counts", "kernel-agent", "kernel-async",
    )
    assert tuple(_load_table()["columns"]) == backend_choices()


def test_resolved_backend_table():
    data = _load_table()
    columns = data["columns"]
    cases = list(_routing_cases())
    assert sorted("|".join(case) for case in cases) == sorted(data["table"])
    mismatches = []
    for case in cases:
        key = "|".join(case)
        for name, expected in zip(columns, data["table"][key].split()):
            got = _resolve(case, name)
            if got != expected:
                mismatches.append(f"{key}|{name}: {got} != {expected}")
    assert not mismatches, "\n".join(mismatches[:20])


def test_only_recorded_batches_on_sequential_names_resolve_anew():
    # Before the fold the sequential backends rejected recorded R > 1
    # plans; those cells raised and now resolve to agent or counts.
    # Every other cell of the table resolved as it does now.
    data = _load_table()
    columns = data["columns"]
    for entry in data["raised_before_fold"]:
        key, name = entry.rsplit("|", 1)
        _process, _initial, scheduler, _rng, recorder, _faults, adversary = key.split("|")
        assert (scheduler, recorder, adversary) == ("synchronous", "R>1", "none")
        assert name in ("agent", "counts", "sequential-auto")
        resolved = data["table"][key].split()[columns.index(name)]
        assert resolved in ("agent", "counts")


#: Small specs over every route the fold moved, with the results digest
#: each produced before it.
_DIGEST_SPECS = {
    "record-mean-r9": (dict(
        repetitions=9,
        record={"metrics": ["num_colors", "bias", "entropy", "collision_probability"],
                "aggregate": "mean"},
        axes={"process": ["2-choices", "3-majority"], "n": [40],
              "workload": {"name": "balanced", "kwargs": {"k": 6}},
              "rng_mode": ["per-replica", "batched"]},
    ), "e8d432bf0d3a5590"),
    "record-replica-2": (dict(
        repetitions=4,
        record={"metrics": ["num_colors", "max_support", "entropy"], "replica": 2},
        axes={"process": ["3-majority", "2-choices", "undecided-dynamics"], "n": [36],
              "workload": {"name": "balanced", "kwargs": {"k": 4}},
              "rng_mode": ["per-replica", "batched"]},
    ), "8c3e36eeb70c68ad"),
    "ensemble-per-replica": (dict(
        repetitions=3,
        axes={"process": ["3-majority", "2-choices", "voter", "2-median",
                          "undecided-dynamics"],
              "n": [32], "workload": {"name": "balanced", "kwargs": {"k": 4}},
              "backend": ["ensemble-auto", "ensemble-agent"],
              "rng_mode": "per-replica"},
    ), "0a9528fe928648ab"),
    "ensemble-agent-batched": (dict(
        repetitions=3,
        axes={"process": ["2-median", "undecided-dynamics"], "n": [32],
              "workload": {"name": "balanced", "kwargs": {"k": 4}},
              "backend": "ensemble-agent", "rng_mode": "batched"},
    ), "f0a5905703b7ab6c"),
    "faults-per-replica": (dict(
        repetitions=3,
        raise_on_limit=False,
        axes={"process": "3-majority", "n": [36],
              "workload": {"name": "balanced", "kwargs": {"k": 3}},
              "backend": ["agent", "counts", "ensemble-agent", "ensemble-counts"],
              "max_rounds": 300,
              "rng_mode": "per-replica",
              "faults": [{"loss": 0.2}, {"crash": 0.05, "recover": 0.5},
                         {"byzantine": 0.02, "color": 0, "start": 2}]},
    ), "67ef42c56ce9620a"),
    "adversary": (dict(
        repetitions=3,
        stable_rounds=2,
        axes={"process": ["3-majority", "2-median", "2-choices"], "n": [40],
              "workload": {"name": "balanced", "kwargs": {"k": 3}},
              "adversary": [{"name": "plant-invalid", "budget": 1},
                            {"name": "boost-runner-up", "budget": 1}],
              "max_rounds": 400,
              "backend": ["adversary", "ensemble-adversary-agent"],
              "rng_mode": ["per-replica", "batched"]},
    ), "92b7f95c73750d6d"),
}


def _results_digest(store) -> str:
    rows = [
        [r.cell_id, r.status, r.resolved_backend, r.unit,
         [int(t) for t in r.times], [bool(s) for s in r.stopped],
         r.trajectory, r.extras]
        for r in store.records()
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_DIGEST_SPECS))
def test_results_digest_unchanged_by_the_fold(name):
    fields, expected = _DIGEST_SPECS[name]
    store = run_study(StudySpec(name=name, seed=11, **fields))
    assert all(record.ok for record in store.records())
    assert _results_digest(store) == expected
