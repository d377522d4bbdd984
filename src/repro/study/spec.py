"""The :class:`StudySpec` dataclass — the declarative experiment artifact.

A spec declares *what to measure* over *which axes* without any
imperative plumbing: every field is a plain value (string, int, float,
bool, list, dict), so a spec round-trips losslessly through TOML or JSON
and can be saved, diffed, hashed and shared.  Construction normalises
every axis value to one canonical form (shorthands like a bare process
name expand to ``{"name": ..., "kwargs": {}}``), which is what makes the
round-trip contract an equality: ``StudySpec.from_dict(spec.to_dict())
== spec`` for every valid spec.

Axes and expansion
------------------

``axes`` maps axis names (:data:`AXIS_NAMES`) to lists of values; a
scalar is shorthand for a one-element list.  ``expansion`` chooses how
the lists combine into cells:

* ``"grid"`` — the cartesian product, iterated in :data:`AXIS_NAMES`
  order with the later axes varying fastest;
* ``"zip"`` — parallel iteration: every multi-valued axis must have the
  same length and one-element axes broadcast (the way to express
  per-``n`` stopping thresholds or horizons).

Canonical axis value forms (what the shorthands normalise to):

===========  ==============================================================
axis         canonical value
===========  ==============================================================
process      ``{"name": <registry key>, "kwargs": {...}}``
workload     ``{"name": <WORKLOADS key>, "kwargs": {...}}``
n            ``int``
scheduler    ``"synchronous"`` | ``"asynchronous"``
adversary    ``None`` | ``{"name": ..., "budget": int | None, "kwargs": {}}``
             (``budget None`` = the [BCN+16] recommended scale per cell)
stop         ``"consensus"`` | ``"colors<=K"`` | ``"max-support>K"`` |
             ``"bias>=K"``
max_rounds   ``None`` | ``int`` (scheduler units: rounds or ticks)
backend      a runtime registry name or resolution alias
rng_mode     ``"batched"`` | ``"per-replica"``
faults       ``None`` | ``{"crash": p, "recover": q, "loss": r,
             "start": s, "stop": t}`` (default-valued keys elided, no
             positive rate = ``None``; also accepts the CLI string form
             ``"crash:p=0.01,recover=0.1"``)
===========  ==============================================================

``None`` appears in TOML/JSON as the string ``"none"`` (TOML has no
null); the canonical in-memory form is the Python ``None``.

Beyond the axes, a spec may carry three optional *supervision* tables,
all decoded by :func:`repro.tables.canonical_table` and sharing one
contract — elided from :meth:`to_dict` when they equal the defaults (so
pre-existing ``spec_hash``\\ es survive) and never entering cell params
(so cell ids stay independent of them):

* ``[execution]`` — the declarative
  :class:`~repro.study.policy.ExecutionPolicy` (``deadline_s``,
  ``max_attempts``, ``backoff_s``, ``backoff_max_s``, ``jitter``,
  ``degrade``): how cells are supervised;
* ``[parallel]`` — ``workers``, ``max_inflight``: accepted, validated
  and ignored (cells always run one after another), kept so specs
  written while it scheduled cells keep their hashes;
* ``[cache]`` — the :mod:`~repro.study.cache` knobs (``enabled``,
  ``dir``): where completed results may be replayed from.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Any, Mapping

from ..engine.plan import RNG_MODES, SCHEDULERS
from ..faults import canonical_fault_value, encode_fault_value
from .cache import canonical_cache_value, encode_cache_value
from .policy import canonical_policy_value, encode_policy_value
from .scheduler import canonical_parallel_value, encode_parallel_value

__all__ = ["AXIS_NAMES", "REQUIRED_AXES", "StudySpec", "spec_hash"]

#: Every axis a spec may sweep, in grid-expansion (and cell-id) order.
#: ``faults`` is appended last so pre-fault specs keep their historical
#: grid order (and, via the to_dict default-elision rule, their hashes).
AXIS_NAMES = (
    "process",
    "workload",
    "n",
    "scheduler",
    "adversary",
    "stop",
    "max_rounds",
    "backend",
    "rng_mode",
    "faults",
)

#: Axes a spec must declare; the rest default to one-element lists.
REQUIRED_AXES = ("process", "n")

_AXIS_DEFAULTS = {
    "workload": [{"name": "singletons", "kwargs": {}}],
    "scheduler": ["synchronous"],
    "adversary": [None],
    "stop": ["consensus"],
    "max_rounds": [None],
    "backend": ["auto"],
    "rng_mode": ["per-replica"],
    "faults": [None],
}

_EXPANSIONS = ("grid", "zip")

_RECORD_AGGREGATES = (None, "mean")

#: The supervision tables, in ``to_dict`` order: field → (canonicalise,
#: encode).  An all-default table canonicalises to ``None`` and encodes
#: to nothing.
_TABLES = {
    "execution": (canonical_policy_value, encode_policy_value),
    "parallel": (canonical_parallel_value, encode_parallel_value),
    "cache": (canonical_cache_value, encode_cache_value),
}


def _check_kwargs(kwargs: Any, context: str) -> dict:
    """A kwargs table with string keys and no null at any depth: a spec
    must save as TOML, which has no null (JSON, and so a ``POST /jobs``
    body, can carry one)."""
    if not isinstance(kwargs, Mapping):
        raise ValueError(f"{context}: kwargs must be a table, got {kwargs!r}")
    for key, value in kwargs.items():
        if not isinstance(key, str):
            raise ValueError(f"{context}: kwargs keys must be strings")
        # Walked with a stack, as a value may nest as deep as its decoder
        # allows; each container once, so a value holding itself ends.
        stack, seen = [value], set()
        while stack:
            item = stack.pop()
            if item is None:
                raise TypeError(
                    f"{context}: kwargs key {key!r} holds a null, which a spec "
                    "cannot save (TOML has no null); leave the key out instead"
                )
            if isinstance(item, (Mapping, list, tuple)) and id(item) not in seen:
                seen.add(id(item))
                stack.extend(item.values() if isinstance(item, Mapping) else item)
    return dict(kwargs)


def _normalize_named(value: Any, axis: str) -> dict:
    """``"name"`` or ``{"name": ..., "kwargs": {...}}`` → canonical dict."""
    if isinstance(value, str):
        return {"name": value, "kwargs": {}}
    if isinstance(value, Mapping):
        extra = set(value) - {"name", "kwargs"}
        if extra or "name" not in value:
            raise ValueError(
                f"axis {axis!r}: expected {{name, kwargs?}}, got {dict(value)!r}"
            )
        return {
            "name": str(value["name"]),
            "kwargs": _check_kwargs(value.get("kwargs", {}), f"axis {axis!r}"),
        }
    raise ValueError(f"axis {axis!r}: expected a name or table, got {value!r}")


def _normalize_adversary(value: Any) -> "dict | None":
    if value is None or value == "none":
        return None
    if isinstance(value, str):
        return {"name": value, "budget": None, "kwargs": {}}
    if isinstance(value, Mapping):
        extra = set(value) - {"name", "budget", "kwargs"}
        if extra or "name" not in value:
            raise ValueError(
                f"axis 'adversary': expected {{name, budget?, kwargs?}}, "
                f"got {dict(value)!r}"
            )
        budget = value.get("budget")
        if budget is not None:
            if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
                raise TypeError(
                    f"axis 'adversary': budget must be an int, got {budget!r}"
                )
            budget = int(budget)
            if budget < 1:
                raise ValueError("axis 'adversary': budget must be positive")
        return {
            "name": str(value["name"]),
            "budget": budget,
            "kwargs": _check_kwargs(value.get("kwargs", {}), "axis 'adversary'"),
        }
    raise ValueError(f"axis 'adversary': cannot normalise {value!r}")


def _normalize_optional_int(value: Any, axis: str) -> "int | None":
    if value is None or value == "none":
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"axis {axis!r}: expected an int or 'none', got {value!r}")
    if value < 1:
        raise ValueError(f"axis {axis!r}: must be positive, got {value}")
    return int(value)


def _normalize_axis_value(axis: str, value: Any) -> Any:
    if axis in ("process", "workload"):
        return _normalize_named(value, axis)
    if axis == "n":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"axis 'n': expected an int, got {value!r}")
        if value < 2:
            raise ValueError(f"axis 'n': need n >= 2, got {value}")
        return int(value)
    if axis == "scheduler":
        if value not in SCHEDULERS:
            raise ValueError(
                f"axis 'scheduler': {value!r} not in {SCHEDULERS}"
            )
        return str(value)
    if axis == "adversary":
        return _normalize_adversary(value)
    if axis == "stop":
        if not isinstance(value, str) or not value:
            raise ValueError(f"axis 'stop': expected a rule string, got {value!r}")
        return value
    if axis == "max_rounds":
        return _normalize_optional_int(value, axis)
    if axis == "backend":
        if not isinstance(value, str) or not value:
            raise ValueError(f"axis 'backend': expected a name, got {value!r}")
        return value
    if axis == "rng_mode":
        if value not in RNG_MODES:
            raise ValueError(f"axis 'rng_mode': {value!r} not in {RNG_MODES}")
        return str(value)
    if axis == "faults":
        try:
            return canonical_fault_value(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"axis 'faults': {exc}") from exc
    raise ValueError(f"unknown axis {axis!r}; valid axes: {AXIS_NAMES}")


def _normalize_axes(axes: Mapping) -> dict:
    unknown = set(axes) - set(AXIS_NAMES)
    if unknown:
        raise ValueError(
            f"unknown axes {sorted(unknown)}; valid axes: {list(AXIS_NAMES)}"
        )
    missing = [name for name in REQUIRED_AXES if name not in axes]
    if missing:
        raise ValueError(f"spec must declare the {missing} axes")
    normalized = {}
    for axis in AXIS_NAMES:
        if axis in axes:
            raw = axes[axis]
            values = list(raw) if isinstance(raw, (list, tuple)) else [raw]
        else:
            values = list(_AXIS_DEFAULTS[axis])
        if not values:
            raise ValueError(f"axis {axis!r} has no values")
        normalized[axis] = [_normalize_axis_value(axis, v) for v in values]
    return normalized


def _normalize_record(value: Any) -> "dict | None":
    """Canonical recorder request: which per-round metrics to keep."""
    if value is None or value == "none":
        return None
    from ..engine.metrics import METRICS

    if isinstance(value, (list, tuple)):
        value = {"metrics": list(value)}
    if not isinstance(value, Mapping):
        raise ValueError(f"record: expected a table or metric list, got {value!r}")
    extra = set(value) - {"metrics", "stride", "aggregate", "replica"}
    if extra:
        raise ValueError(f"record: unknown keys {sorted(extra)}")
    metrics = value.get("metrics", ())
    if not isinstance(metrics, (list, tuple)) or not all(
        isinstance(m, str) for m in metrics
    ):
        raise TypeError(f"record: metrics must be a list of strings, got {metrics!r}")
    metrics = list(metrics)
    if not metrics:
        raise ValueError("record: needs at least one metric name")
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise ValueError(f"record: unknown metrics {unknown}; have {sorted(METRICS)}")
    aggregate = value.get("aggregate")
    if aggregate == "none":
        aggregate = None
    if aggregate not in _RECORD_AGGREGATES:
        raise ValueError(
            f"record: aggregate must be one of {_RECORD_AGGREGATES}, got {aggregate!r}"
        )
    stride = value.get("stride", 1)
    replica = value.get("replica", 0)
    for key, number in (("stride", stride), ("replica", replica)):
        if isinstance(number, bool) or not isinstance(number, numbers.Integral):
            raise TypeError(f"record: {key} must be an int, got {number!r}")
    return {
        "metrics": metrics,
        "stride": int(stride),
        "aggregate": aggregate,
        "replica": int(replica),
    }


@dataclass
class StudySpec:
    """One declarative experiment suite (see the module docstring).

    Scalar fields apply to every cell; ``axes`` holds the swept values.
    Instances normalise on construction, so two specs describing the
    same study compare equal whatever shorthands built them.
    """

    name: str
    axes: dict
    seed: int = 0
    repetitions: int = 5
    expansion: str = "grid"
    #: Accepted, validated and ignored.  It stays in the spec and in cell
    #: params so existing spec hashes and cell ids hold.
    workers: "int | None" = None
    check_every: "int | None" = None
    stable_fraction: float = 0.95
    stable_rounds: int = 3
    raise_on_limit: bool = True
    record: "dict | None" = None
    description: str = ""
    #: Declarative execution policy (the ``[execution]`` TOML table);
    #: ``None`` = the all-defaults policy.  Supervision only — elided
    #: when default, never part of cell params or cell ids.
    execution: "dict | None" = None
    #: The ``[parallel]`` TOML table (``workers``, ``max_inflight``):
    #: accepted, validated and ignored at run time.  Same elision
    #: contract as ``execution``, so its hashes hold.
    parallel: "dict | None" = None
    #: Declarative result caching (the ``[cache]`` TOML table:
    #: ``enabled``, ``dir``); ``None`` = caching off.  Same elision
    #: contract as ``execution``.
    cache: "dict | None" = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("spec needs a non-empty name")
        # Checked, not coerced: to_dict hashes int(...) / bool(...), so a
        # coercible stand-in ("3", 2.5, "false") would hash as one study
        # and compile as another.
        for key in ("seed", "repetitions", "stable_rounds", "workers", "check_every"):
            value = getattr(self, key)
            if value is None and key in ("workers", "check_every"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{key} must be an int, got {value!r}")
            setattr(self, key, int(value))
        if not isinstance(self.raise_on_limit, bool):
            raise TypeError(
                f"raise_on_limit must be a bool, got {self.raise_on_limit!r}"
            )
        if isinstance(self.stable_fraction, bool) or not isinstance(
            self.stable_fraction, numbers.Real
        ):
            raise TypeError(
                f"stable_fraction must be a number, got {self.stable_fraction!r}"
            )
        if self.expansion not in _EXPANSIONS:
            raise ValueError(
                f"unknown expansion {self.expansion!r}; pick one of {_EXPANSIONS}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        if self.check_every is not None and self.check_every < 1:
            raise ValueError("check_every must be positive")
        if not 0.5 < self.stable_fraction <= 1.0:
            raise ValueError("stable_fraction must lie in (0.5, 1]")
        if self.stable_rounds < 1:
            raise ValueError("stable_rounds must be positive")
        self.axes = _normalize_axes(self.axes)
        self.record = _normalize_record(self.record)
        if self.record is not None and self.record["replica"] >= self.repetitions:
            raise ValueError(
                f"record: replica {self.record['replica']} does not exist "
                f"with {self.repetitions} repetitions"
            )
        for table, (canonical, _encode) in _TABLES.items():
            try:
                setattr(self, table, canonical(getattr(self, table)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{table}: {exc}") from exc
        if self.expansion == "zip":
            lengths = {len(v) for v in self.axes.values() if len(v) > 1}
            if len(lengths) > 1:
                raise ValueError(
                    "zip expansion needs every multi-valued axis to have the "
                    f"same length; got lengths {sorted(lengths)}"
                )

    # -- cell counting -----------------------------------------------------

    def num_cells(self) -> int:
        """How many cells the expansion rule produces."""
        if self.expansion == "zip":
            return max(len(v) for v in self.axes.values())
        product = 1
        for values in self.axes.values():
            product *= len(values)
        return product

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON/TOML-ready plain dict (``None`` encoded as ``"none"``)."""
        out: dict = {
            "name": self.name,
            "seed": int(self.seed),
            "repetitions": int(self.repetitions),
            "expansion": self.expansion,
            "stable_fraction": float(self.stable_fraction),
            "stable_rounds": int(self.stable_rounds),
            "raise_on_limit": bool(self.raise_on_limit),
        }
        if self.description:
            out["description"] = self.description
        if self.workers is not None:
            out["workers"] = int(self.workers)
        if self.check_every is not None:
            out["check_every"] = int(self.check_every)
        if self.record is not None:
            record = {"metrics": list(self.record["metrics"])}
            if self.record["stride"] != 1:
                record["stride"] = self.record["stride"]
            if self.record["aggregate"] is not None:
                record["aggregate"] = self.record["aggregate"]
            if self.record["replica"] != 0:
                record["replica"] = self.record["replica"]
            out["record"] = record
        for table, (_canonical, encode) in _TABLES.items():
            encoded = encode(getattr(self, table))
            if encoded:
                # Elided when default, like the faults axis: adding a
                # table must not orphan pre-existing spec hashes.
                out[table] = encoded
        axes: dict = {}
        for axis, values in self.axes.items():
            if axis == "faults" and values == [None]:
                # Elide the default so pre-fault specs keep their hashes
                # (spec_hash anchors resume; adding an axis must not
                # orphan every existing store).
                continue
            axes[axis] = [_encode_axis_value(axis, v) for v in values]
        out["axes"] = axes
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudySpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written data)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"spec payload must be a table, got {payload!r}")
        data = dict(payload)
        axes = data.pop("axes", None)
        if axes is None:
            raise ValueError("spec payload has no [axes] table")
        known = {
            "name", "seed", "repetitions", "expansion", "workers",
            "check_every", "stable_fraction", "stable_rounds",
            "raise_on_limit", "record", "description", "execution",
            "parallel", "cache",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown spec fields {sorted(unknown)}; valid: {sorted(known)}"
            )
        if "name" not in data:
            raise ValueError("spec payload has no name")
        return cls(axes=axes, **data)


def _encode_axis_value(axis: str, value: Any) -> Any:
    """Canonical in-memory value → its serialised (TOML-safe) form."""
    if axis == "faults":
        return encode_fault_value(value)
    if value is None:
        return "none"
    if axis in ("process", "workload"):
        if value["kwargs"]:
            return {"name": value["name"], "kwargs": dict(value["kwargs"])}
        return value["name"]
    if axis == "adversary":
        out = {"name": value["name"]}
        if value["budget"] is not None:
            out["budget"] = value["budget"]
        if value["kwargs"]:
            out["kwargs"] = dict(value["kwargs"])
        return out
    return value


def spec_hash(spec: StudySpec) -> str:
    """A short content hash of the spec (the store's provenance anchor)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
