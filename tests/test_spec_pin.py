"""Pins what a spec's declarative tables canonicalise to.

``tests/data/spec_hashes.json`` holds, per spec below, its ``spec_hash``
and the canonical JSON of its ``to_dict()`` (sorted keys, no spaces: the
bytes the hash is taken of).  The specs cover every shorthand of the
``[execution]``, ``[parallel]`` and ``[cache]`` tables and of the
``faults`` axis value: defaults that collapse, policies, worker counts,
bools, directories, CLI strings, ``"none"`` for a null key, ints where a
number is declared, and fault values of every model.

The table was computed before the four decoders became one, from
``StudySpec.from_dict(spec.to_dict())``: that is the spec itself for
every entry but the three ``faults-zero-*`` ones, whose single faults
value configures nothing and so hashes like a spec with no faults axis.
"""

import json
import os

import pytest

from repro.study import ExecutionPolicy, StudySpec, dumps_spec, loads_spec, spec_hash

_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "spec_hashes.json")

_AXES = {"process": ["voter", "3-majority"], "n": [8, 16]}

#: name → the StudySpec fields beyond ``name`` and ``axes`` (or, under
#: ``"faults"``, the faults axis values).
SPECS = {
    "plain": {},
    "execution-empty": {"execution": {}},
    "execution-default-policy": {"execution": ExecutionPolicy()},
    "execution-defaults-spelled": {
        "execution": {"max_attempts": 2, "deadline_s": "none", "degrade": True}
    },
    "execution-policy": {
        "execution": ExecutionPolicy(max_attempts=4, deadline_s=30.0, degrade=False)
    },
    "execution-attempts": {"execution": {"max_attempts": 3}},
    "execution-int-deadline": {"execution": {"deadline_s": 60}},
    "execution-every-key": {
        "execution": {
            "deadline_s": 1.5, "max_attempts": 5, "backoff_s": 0,
            "backoff_max_s": 2, "jitter": 1, "degrade": False,
        }
    },
    "parallel-one-worker": {"parallel": 1},
    "parallel-worker-count": {"parallel": 4},
    "parallel-workers-one": {"parallel": {"workers": 1}},
    "parallel-nulls": {"parallel": {"workers": "none", "max_inflight": "none"}},
    "parallel-both": {"parallel": {"workers": 2, "max_inflight": 3}},
    "parallel-inflight": {"parallel": {"max_inflight": 8}},
    "parallel-one-worker-inflight": {"parallel": {"workers": 1, "max_inflight": 2}},
    "cache-off": {"cache": False},
    "cache-on": {"cache": True},
    "cache-directory": {"cache": "/tmp/repro-cache"},
    "cache-table-off": {"cache": {"enabled": False}},
    "cache-table-on": {"cache": {"enabled": True}},
    "cache-table-dir": {"cache": {"dir": "/tmp/d"}},
    "cache-dir-switched-off": {"cache": {"enabled": False, "dir": "/tmp/e"}},
    "cache-dir-none": {"cache": {"enabled": True, "dir": "none"}},
    "cache-none-dir-off": {"cache": {"dir": "none"}},
    "every-table": {
        "execution": {"deadline_s": 10.0},
        "parallel": 2,
        "cache": "/tmp/c",
    },
    "faults-none": {"faults": ["none"]},
    "faults-off-strings": {"faults": ["off", "", None]},
    "faults-crash-cli": {"faults": ["crash:p=0.01,recover=0.1"]},
    "faults-loss-cli-window": {"faults": ["loss:p=0.05,start=2,stop=9"]},
    "faults-byzantine-cli": {"faults": ["byzantine:p=0.02,color=1"]},
    "faults-tables": {
        "faults": [
            None,
            {"crash": 0.02, "start": 3, "stop": 40},
            {"loss": 0.2, "start": 0},
            {"byzantine": 0.05, "color": "none"},
            {"crash": 1, "recover": 0.5},
        ]
    },
    "faults-mixed-zero": {"faults": [{"crash": 0.1}, {"loss": 0.0}]},
    "faults-zero-loss": {"faults": [{"loss": 0.0}]},
    "faults-zero-empty": {"faults": [{}]},
    "faults-zero-window": {"faults": [{"loss": 0.0, "start": 5}]},
}


def _spec(name: str) -> StudySpec:
    fields = dict(SPECS[name])
    axes = dict(_AXES)
    if "faults" in fields:
        axes["faults"] = fields.pop("faults")
    return StudySpec(name=name, axes=axes, **fields)


def _canonical_json(spec: StudySpec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def pin_table() -> dict:
    """Every pinned spec's hash and JSON (how the committed table was
    computed: through a round trip, see the module docstring)."""
    table = {}
    for name in SPECS:
        reloaded = StudySpec.from_dict(_spec(name).to_dict())
        table[name] = {
            "spec_hash": spec_hash(reloaded),
            "json": _canonical_json(reloaded),
        }
    return table


def _load_table() -> dict:
    with open(_TABLE_PATH) as handle:
        return json.load(handle)


def test_table_covers_every_spec():
    assert sorted(_load_table()) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_hash_and_json_match_the_table(name):
    spec = _spec(name)
    pinned = _load_table()[name]
    assert _canonical_json(spec) == pinned["json"]
    assert spec_hash(spec) == pinned["spec_hash"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_hash_survives_dict_and_toml_round_trips(name):
    spec = _spec(name)
    assert spec_hash(StudySpec.from_dict(spec.to_dict())) == spec_hash(spec)
    assert spec_hash(loads_spec(dumps_spec(spec))) == spec_hash(spec)
