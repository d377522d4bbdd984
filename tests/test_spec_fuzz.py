"""The spec decoder, fuzzed (hypothesis, ``derandomize=True``).

A payload with any name, description and process kwargs, and with
``[execution]``, ``[parallel]``, ``[cache]`` and faults values in every
shorthand (wrong types and unknown keys included), either fails
``StudySpec.from_dict`` with ``ValueError``, ``TypeError`` or
``KeyError``, or decodes to a spec whose ``spec_hash`` survives both
``to_dict`` → ``from_dict`` and ``dumps_spec`` → ``loads_spec``.  This
is the contract every stored, resumed or cached study leans on: the
hash a run writes is the hash its spec file reloads to.  A null at any
depth of a kwargs value (JSON can carry one; TOML has none) is refused
by the decoder itself, so every payload that decodes saves as TOML.
"""

import os
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.study import (
    ExecutionPolicy,
    StudySpec,
    dumps_spec,
    loads_spec,
    save_spec,
    spec_hash,
)

#: Any value a table key may be written with, well-typed or not, JSON
#: null and its ``"none"`` spelling included.
_JUNK = st.one_of(
    st.none(),
    st.just("none"),
    st.booleans(),
    st.integers(-3, 60),
    st.floats(0.0, 1.0),
    st.floats(),
    st.text(max_size=4),
)

#: Short ASCII text, control characters included (the ones TOML must
#: escape), cheaper to draw than any-codepoint text.
_ASCII = st.text(st.characters(max_codepoint=0x7F), max_size=6)
_SCALARS = st.one_of(_ASCII, st.integers(), st.floats(), st.booleans(), st.none())
#: A kwargs value: a scalar, an array or a table, with JSON null at any
#: depth, which TOML cannot write and the decoder must refuse.
_KWARG_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(_ASCII, _SCALARS, max_size=2),
)


_NULL = st.none() | st.just("none")
_RATE = st.floats(0.0, 1.0)


def _table(valid: dict, unknown: str):
    """Some of a table's keys with well-typed values, or with any values
    and perhaps a key the table does not declare."""
    return st.one_of(
        st.fixed_dictionaries({}, optional=valid),
        st.dictionaries(
            st.sampled_from([*valid, unknown]), _JUNK, max_size=len(valid)
        ),
    )


#: A whole table value of a wrong or trivial shape, as one choice.
_ODD = st.sampled_from([None, "none", True, False, 0, 3, 2.5, "x", [], [["jitter", 1]]])

_EXECUTION = st.one_of(
    _ODD,
    st.builds(
        ExecutionPolicy,
        deadline_s=st.none() | st.floats(0.5, 60.0),
        max_attempts=st.integers(1, 4),
        degrade=st.booleans(),
    ),
    _table(
        {
            "deadline_s": _NULL | st.floats(0.1, 100.0) | st.integers(1, 100),
            "max_attempts": st.integers(1, 5),
            "backoff_s": st.floats(0.0, 1.0) | st.integers(0, 2),
            "backoff_max_s": st.floats(0.0, 100.0),
            "jitter": _RATE,
            "degrade": st.booleans(),
        },
        "retries",
    ),
)
_COUNT = _NULL | st.integers(1, 8)
_PARALLEL = st.one_of(
    _ODD,
    st.integers(-1, 8),
    _table({"workers": _COUNT, "max_inflight": _COUNT}, "threads"),
)
_CACHE = st.one_of(
    _ODD,
    st.booleans(),
    st.text(max_size=6),
    _table({"enabled": st.booleans(), "dir": _NULL | st.text(max_size=6)}, "directory"),
)
_FAULT = st.one_of(
    _ODD,
    st.sampled_from([
        "off", "crash:p=0.01,recover=0.1", "loss:p=0.05,start=2,stop=9",
        "byzantine:p=0.02,color=1", "crash:p=0.0", "crash:start=4",
        "meteor:p=0.1", "crash",
    ]),
    _table(
        {
            "crash": _RATE, "recover": _RATE, "loss": _RATE, "byzantine": _RATE,
            "color": _NULL | st.integers(0, 5), "start": st.integers(0, 5),
            "stop": _NULL | st.integers(6, 20),
        },
        "chaos",
    ),
)


@st.composite
def _payloads(draw) -> dict:
    process = {
        "name": draw(st.sampled_from(["voter", "3-majority"]) | _ASCII),
        "kwargs": draw(st.dictionaries(_ASCII, _KWARG_VALUES, max_size=2)),
    }
    payload = {
        "name": draw(st.text(min_size=1, max_size=8)),
        "axes": {"process": [process], "n": [8]},
    }
    if draw(st.booleans()):
        payload["description"] = draw(st.text(max_size=8))
    if draw(st.booleans()):
        payload["axes"]["faults"] = draw(st.lists(_FAULT, min_size=1, max_size=2))
    for table, values in (
        ("execution", _EXECUTION), ("parallel", _PARALLEL), ("cache", _CACHE)
    ):
        if draw(st.booleans()):
            payload[table] = draw(values)
    return payload


@settings(max_examples=400, derandomize=True, deadline=None)
@given(payload=_payloads())
@example(payload={"name": "a\r\x00\x1b\x7fb", "axes": {"process": ["voter"], "n": [8]}})
@example(payload={"name": "zero", "axes": {"process": ["voter"], "n": [8],
                                           "faults": [{"loss": 0.0}]}})
def test_a_payload_decodes_to_a_stable_hash_or_a_typed_error(payload):
    try:
        spec = StudySpec.from_dict(payload)
    except (ValueError, TypeError, KeyError):
        return
    digest = spec_hash(spec)
    assert spec_hash(StudySpec.from_dict(spec.to_dict())) == digest
    assert spec_hash(loads_spec(dumps_spec(spec))) == digest


def test_a_spec_toml_cannot_hold_leaves_no_file(tmp_path):
    """A kwarg TOML has no type for (a complex number, which the decoder
    keeps as given) cannot be written: ``save_spec`` raises before it
    creates its temp file."""
    spec = StudySpec(
        name="complex kwarg",
        axes={"process": {"name": "voter", "kwargs": {"a": 1j}}, "n": 8},
    )
    with pytest.raises(TypeError, match="as TOML"):
        save_spec(spec, str(tmp_path / "s.toml"))
    assert os.listdir(tmp_path) == []


def test_a_null_kwarg_is_refused_at_construction_and_from_dict():
    """TOML has no null, so a null kwarg (which JSON can carry) is
    refused with a ``TypeError`` naming the axis and the key, at any
    depth of a process, workload or adversary kwargs value."""
    for axis, key, value in (
        ("process", "a", {"name": "voter", "kwargs": {"a": None}}),
        ("workload", "k", {"name": "balanced", "kwargs": {"k": [3, {"b": None}]}}),
        ("adversary", "c", {"name": "plant-invalid", "kwargs": {"c": {"d": [None]}}}),
    ):
        axes = {"process": "voter", "n": 8, axis: value}
        message = f"axis '{axis}': kwargs key '{key}' holds a null"
        with pytest.raises(TypeError, match=message):
            StudySpec(name="null kwarg", axes=axes)
        with pytest.raises(TypeError, match=message):
            StudySpec.from_dict({"name": "null kwarg", "axes": axes})


def test_a_kwarg_value_holding_itself_is_walked_once():
    """The null walk visits each container once, so a value that holds
    itself (only Python can build one) still constructs instead of
    looping forever."""
    looped = {"b": [1]}
    looped["self"] = looped
    axes = {"process": {"name": "voter", "kwargs": {"a": looped}}, "n": 8}
    built = []
    worker = threading.Thread(
        target=lambda: built.append(StudySpec(name="loop", axes=axes)), daemon=True
    )
    worker.start()
    worker.join(10)
    assert len(built) == 1
