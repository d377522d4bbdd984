"""Pins what ``compile_study`` makes of a spec, cell by cell.

``tests/data/compile_cells.json`` holds, per cell of the specs below,
its ``cell_id`` and seed and the plan's backend, start counts, stopping
label, fault schedule, horizon, adversary and whether it records.  The
table was computed before compile shared its per-value work across
cells, so a refactor of the compiler that moves any of them fails here.

The specs cover every axis: processes with a name parameter and with
kwargs, every workload (the random ones seeded), both schedulers, every
stop form, backend names and aliases, both rng modes, adversaries with
and without a budget, fault environments (a trivial one included), a
``zip`` expansion and a ``[record]`` table.  The other tests check that
seeds are ``derive_seed``'s, that one compile builds one start per
distinct (workload, n), that no two cells share per-run state, and that
an invalid value fails on its first cell with the message it always had.
"""

import json
import os

import pytest

from repro.core import Configuration
from repro.engine.rng import derive_seed
from repro.study import StudySpec, compile_study

_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "compile_cells.json")

_WORKLOADS = [
    "singletons",
    {"name": "balanced", "kwargs": {"k": 2}},
    {"name": "biased", "kwargs": {"k": 3, "bias": 2}},
    {"name": "random_composition", "kwargs": {"k": 3, "rng": 7}},
    {"name": "bounded_support", "kwargs": {"max_support": 3, "rng": 5}},
    {"name": "power_law", "kwargs": {"k": 3, "rng": 11}},
]

SPECS = {
    "processes-workloads-stops": dict(
        seed=3,
        repetitions=2,
        axes={
            "process": [
                "3-majority",
                "h-majority:3",
                {"name": "lazy-voter", "kwargs": {"laziness": 0.25}},
            ],
            "workload": _WORKLOADS,
            "n": [9, 12],
            "stop": ["consensus", "colors<=2", "max-support>5", "bias>=3"],
        },
    ),
    "schedulers-backends-rng": dict(
        seed=5,
        repetitions=3,
        check_every=7,
        axes={
            "process": ["2-choices", "voter"],
            "n": [16],
            "scheduler": ["synchronous", "asynchronous"],
            "max_rounds": [None, 500],
            "backend": [
                "auto", "sequential-auto", "ensemble-auto", "kernel-auto",
                "agent", "counts", "ensemble-agent",
            ],
            "rng_mode": ["batched", "per-replica"],
        },
    ),
    "adversaries": dict(
        seed=8,
        repetitions=2,
        stable_fraction=0.9,
        stable_rounds=2,
        axes={
            "process": ["3-majority"],
            "workload": [{"name": "balanced", "kwargs": {"k": 4}}],
            "n": [16, 24],
            "adversary": [
                None,
                "plant-invalid",
                {"name": "boost-runner-up", "budget": 2},
                {"name": "random-noise", "kwargs": {"num_colors": 6}},
                {"name": "plant-invalid", "budget": 1, "kwargs": {"invalid_color": 9}},
            ],
            "backend": ["auto", "ensemble-auto"],
        },
    ),
    "faults": dict(
        seed=13,
        repetitions=2,
        raise_on_limit=False,
        axes={
            "process": ["3-majority", "voter"],
            "workload": [{"name": "balanced", "kwargs": {"k": 3}}],
            "n": [16],
            "max_rounds": [300],
            "faults": [
                None,
                {"crash": 0.01, "recover": 0.1},
                "loss:p=0.2",
                {"byzantine": 0.05, "color": 1},
                {"crash": 0.02, "start": 3, "stop": 40},
                {"loss": 0.0},
            ],
        },
    ),
    "zip": dict(
        seed=21,
        repetitions=2,
        expansion="zip",
        axes={
            "process": ["3-majority"],
            "workload": [{"name": "balanced", "kwargs": {"k": 6}}],
            "n": [16, 32, 64],
            "stop": ["colors<=4", "colors<=3", "consensus"],
            "max_rounds": [100, 200, None],
        },
    ),
    "record": dict(
        seed=34,
        repetitions=4,
        record={"metrics": ["num_colors", "entropy"], "stride": 2,
                "aggregate": "mean"},
        axes={
            "process": ["3-majority", "2-choices"],
            "n": [16, 24],
            "backend": ["auto", "ensemble-auto"],
            "rng_mode": ["batched", "per-replica"],
        },
    ),
}


def _spec(name: str) -> StudySpec:
    return StudySpec(name=name, **SPECS[name])


def _row(cell) -> dict:
    plan = cell.plan
    adversary = plan.adversary
    return {
        "cell_id": cell.cell_id,
        "seed": cell.params["seed"],
        "backend": plan.backend,
        "start": list(plan.initial.counts),
        "stop": plan.stop.label,
        "faults": None if plan.faults is None else plan.faults.describe(),
        "max_rounds": plan.max_rounds,
        "adversary": None
        if adversary is None
        else [type(adversary).__name__, int(adversary.budget)],
        "recorder": plan.recorder is not None,
    }


def compile_table() -> dict:
    """Every pinned spec's rows (how the committed table was computed)."""
    return {name: [_row(cell) for cell in compile_study(_spec(name))] for name in SPECS}


def _load_table() -> dict:
    with open(_TABLE_PATH) as handle:
        return json.load(handle)


def test_table_covers_every_spec():
    assert sorted(_load_table()) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_compiled_cells_match_the_table(name):
    spec = _spec(name)
    rows = [_row(cell) for cell in compile_study(spec)]
    assert len(rows) == spec.num_cells()
    assert rows == _load_table()[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cell_seeds_are_derive_seed(name):
    spec = _spec(name)
    for cell in compile_study(spec):
        assert cell.params["seed"] == cell.plan.rng == derive_seed(spec.seed, cell.index)


def test_one_compile_builds_one_start_per_distinct_workload_and_n(monkeypatch):
    spec = _spec("processes-workloads-stops")
    builds = []
    init = Configuration.__init__

    def counted(self, counts):
        builds.append(1)
        init(self, counts)

    monkeypatch.setattr(Configuration, "__init__", counted)
    cells = compile_study(spec)
    starts = len(spec.axes["workload"]) * len(spec.axes["n"])
    assert len(cells) == 144 and starts == 12
    assert len(builds) == starts
    assert len({id(cell.plan.initial) for cell in cells}) == starts


@pytest.mark.parametrize("name", ["adversaries", "record"])
def test_no_two_cells_share_a_recorder_or_an_adversary(name):
    cells = compile_study(_spec(name))
    for field in ("adversary", "recorder"):
        instances = [getattr(cell.plan, field) for cell in cells]
        live = [id(value) for value in instances if value is not None]
        assert len(live) == len(set(live)), field
    assert any(cell.plan.adversary is not None or cell.plan.recorder is not None
               for cell in cells)


def _invalid(axis, values, **axes):
    base = {"process": ["voter", "3-majority"], "n": [8, 12]}
    return StudySpec(name="invalid", seed=1, repetitions=2,
                     axes={**base, **axes, axis: values})


@pytest.mark.parametrize(
    "spec, error, message",
    [
        (_invalid("backend", ["auto", "no-such-backend"]), ValueError,
         r"^cell 1: unknown backend 'no-such-backend'; valid: auto, "),
        (_invalid("workload", ["singletons", "no-such-workload"]), ValueError,
         r"^unknown workload 'no-such-workload'; available: balanced, "),
        (_invalid("workload", [{"name": "balanced", "kwargs": {"k": 10}}]),
         ValueError, r"^need 1 <= k <= n, got k=10, n=8$"),
        (_invalid("workload", [{"name": "balanced", "kwargs": {"q": 2}}]),
         ValueError, r"^workload 'balanced': balanced\(\) got an unexpected "),
        (_invalid("process", ["voter", "no-such-process"]), KeyError,
         r"unknown process 'no-such-process'; available: "),
        (_invalid("stop", ["consensus", "colors<2"]), ValueError,
         r"^unknown stop rule 'colors<2'; expected 'consensus', "),
        (_invalid("adversary", [None, "no-such-adversary"]), ValueError,
         r"^unknown adversary 'no-such-adversary'; available: "),
        (_invalid("scheduler", ["asynchronous"], adversary=["plant-invalid"]),
         ValueError, r"^adversarial plans use the synchronous scheduler "),
    ],
    ids=["backend", "workload-name", "workload-value", "workload-kwarg",
         "process", "stop", "adversary", "plan"],
)
def test_an_invalid_value_fails_with_the_message_it_always_had(spec, error, message):
    with pytest.raises(error, match=message):
        compile_study(spec)
