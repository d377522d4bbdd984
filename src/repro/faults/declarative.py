"""The declarative ``faults`` vocabulary: dicts, TOML values, CLI strings.

One canonical value describes a whole fault environment::

    {"crash": 0.01, "recover": 0.1, "loss": 0.05, "byzantine": 0.02,
     "color": None, "start": 0, "stop": None}

* ``crash > 0, recover == 0`` → :class:`~repro.faults.CrashStop`
* ``crash > 0, recover > 0``  → :class:`~repro.faults.CrashRecovery`
* ``loss > 0``                → :class:`~repro.faults.MessageLoss`
* ``byzantine > 0``           → :class:`~repro.faults.Byzantine`
  (``color`` pins the hostile color; ``None`` = uniform-random lies)
* all rates zero              → no faults (canonicalises to ``None``)

``start``/``stop`` bound the shared injection window, exactly like the
adversary axis.  The encoders keep spec hashes honest: default-valued
keys are dropped on encode, refilled on decode, and a value with no
positive rate decodes to ``None``, so the same environment always
serialises to the same TOML fragment.
"""

from __future__ import annotations

from ..tables import canonical_table, encode_table
from .models import Byzantine, CrashRecovery, CrashStop, MessageLoss
from .schedule import FaultSchedule

__all__ = [
    "FAULT_KEYS",
    "build_fault_schedule",
    "canonical_fault_value",
    "encode_fault_value",
    "parse_fault_cli",
]

#: The faults table: ``(key, default, kind)`` in canonical order.
FAULT_KEYS = (
    ("crash", 0.0, "number"),
    ("recover", 0.0, "number"),
    ("loss", 0.0, "number"),
    ("byzantine", 0.0, "number"),
    ("color", None, "int"),
    ("start", 0, "int"),
    ("stop", None, "int"),
)

_PROBABILITIES = ("crash", "recover", "loss", "byzantine")


def _check_faults(out: dict, _items) -> "dict | None":
    for key in _PROBABILITIES:
        if not 0.0 <= out[key] <= 1.0:
            raise ValueError(
                f"faults.{key} must be a probability in [0, 1], got {out[key]!r}"
            )
    for key in ("color", "start"):
        if out[key] is not None and out[key] < 0:
            raise ValueError(f"faults.{key} must be non-negative")
    if out["stop"] is not None and out["stop"] <= out["start"]:
        raise ValueError("faults.stop must exceed faults.start")
    if out["recover"] > 0.0 and out["crash"] == 0.0:
        raise ValueError(
            "faults.recover is meaningless without a positive faults.crash"
        )
    if out["color"] is not None and out["byzantine"] == 0.0:
        raise ValueError(
            "faults.color is meaningless without a positive faults.byzantine"
        )
    if not (out["crash"] > 0.0 or out["loss"] > 0.0 or out["byzantine"] > 0.0):
        return None  # no positive rate: the fault-free environment
    return out


def canonical_fault_value(value) -> "dict | None":
    """Normalise a declarative faults value to its canonical dict (or None).

    Accepts ``None``, the string ``"none"``, a CLI-grammar string
    (``"crash:p=0.01,recover=0.1"`` — see :func:`parse_fault_cli`), or a
    mapping with any subset of the canonical keys (decoded by
    :func:`~repro.tables.canonical_table`).  A value with no positive
    rate collapses to ``None`` once its keys are checked: it configures
    no fault, so it hashes like the fault-free value.
    """
    if isinstance(value, str):
        return parse_fault_cli(value)
    return canonical_table(
        "faults", FAULT_KEYS, value,
        what="a mapping, a spec string or 'none'", rules=_check_faults,
    )


def encode_fault_value(value) -> "dict | str":
    """JSON/TOML-friendly form: drop defaults; ``None`` becomes ``"none"``."""
    encoded = encode_table(FAULT_KEYS, canonical_fault_value(value))
    return "none" if encoded is None else encoded


def build_fault_schedule(value) -> "FaultSchedule | None":
    """Compile a declarative faults value into a live :class:`FaultSchedule`."""
    value = canonical_fault_value(value)
    if value is None:
        return None
    models = []
    if value["crash"] > 0.0:
        if value["recover"] > 0.0:
            models.append(CrashRecovery(value["crash"], value["recover"]))
        else:
            models.append(CrashStop(value["crash"]))
    if value["loss"] > 0.0:
        models.append(MessageLoss(value["loss"]))
    if value["byzantine"] > 0.0:
        models.append(Byzantine(value["byzantine"], color=value["color"]))
    return FaultSchedule(tuple(models), start=value["start"], stop=value["stop"])


def parse_fault_cli(text: "str | None", loss: "float | None" = None) -> "dict | None":
    """Parse the CLI grammar ``kind:key=val,key=val`` (+ a ``--loss`` merge).

    ``kind`` is ``crash``, ``loss`` or ``byzantine``; ``p=`` aliases the
    kind's own rate, so ``--faults crash:p=0.01,recover=0.1 --loss 0.05``
    yields ``{"crash": 0.01, "recover": 0.1, "loss": 0.05}`` and
    ``--faults byzantine:p=0.02,color=0`` pins the hostile color.
    """
    items: dict = {}
    if text:
        kind, sep, rest = text.strip().partition(":")
        kind = kind.strip().lower()
        if kind in ("none", "off", ""):
            kind = None
        elif kind not in ("crash", "loss", "byzantine"):
            raise ValueError(
                f"unknown fault kind {kind!r}; expected 'crash', 'loss' "
                "or 'byzantine'"
            )
        if kind is not None:
            if not sep or not rest.strip():
                raise ValueError(
                    f"fault spec {text!r} needs parameters, e.g. "
                    f"'{kind}:p=0.01'"
                )
            for item in rest.split(","):
                key, eq, raw = item.partition("=")
                key = key.strip().lower()
                if not eq or not raw.strip():
                    raise ValueError(f"malformed fault parameter {item!r}")
                if key == "p":
                    key = kind
                if key in _PROBABILITIES:
                    items[key] = float(raw)
                elif key in ("color", "start", "stop"):
                    items[key] = int(raw)
                else:
                    raise ValueError(
                        f"unknown fault parameter {key!r} in {text!r}"
                    )
    if loss is not None:
        items["loss"] = float(loss)
    return canonical_fault_value(items)
