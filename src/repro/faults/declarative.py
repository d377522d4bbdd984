"""The declarative ``faults`` vocabulary: dicts, TOML values, CLI strings.

One canonical value describes a whole fault environment::

    {"crash": 0.01, "recover": 0.1, "loss": 0.05, "byzantine": 0.02,
     "color": None, "start": 0, "stop": None}

* ``crash > 0, recover == 0`` → :class:`~repro.faults.CrashStop`
* ``crash > 0, recover > 0``  → :class:`~repro.faults.CrashRecovery`
* ``loss > 0``                → :class:`~repro.faults.MessageLoss`
* ``byzantine > 0``           → :class:`~repro.faults.Byzantine`
  (``color`` pins the hostile color; ``None`` = uniform-random lies)
* all rates zero              → no faults (compiles to ``None``)

``start``/``stop`` bound the shared injection window, exactly like the
adversary axis.  The encoders keep spec hashes honest: default-valued
keys are dropped on encode, refilled on decode, so the same environment
always serialises to the same TOML fragment.
"""

from __future__ import annotations

import numbers

from .models import Byzantine, CrashRecovery, CrashStop, MessageLoss
from .schedule import FaultSchedule

__all__ = [
    "FAULT_KEYS",
    "build_fault_schedule",
    "canonical_fault_value",
    "encode_fault_value",
    "parse_fault_cli",
]

#: Canonical key order with default values.
FAULT_KEYS = (
    ("crash", 0.0),
    ("recover", 0.0),
    ("loss", 0.0),
    ("byzantine", 0.0),
    ("color", None),
    ("start", 0),
    ("stop", None),
)


def canonical_fault_value(value) -> "dict | None":
    """Normalise a declarative faults value to its canonical dict (or None).

    Accepts ``None``, the string ``"none"``, a CLI-grammar string
    (``"crash:p=0.01,recover=0.1"`` — see :func:`parse_fault_cli`), or a
    mapping with any subset of the canonical keys.
    """
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", "none", "off"):
            return None
        return parse_fault_cli(value)
    try:
        items = dict(value)
    except (TypeError, ValueError):
        raise TypeError(
            f"faults must be a mapping, a spec string or 'none', got {value!r}"
        ) from None
    known = {key for key, _default in FAULT_KEYS}
    unknown = set(items) - known
    if unknown:
        raise KeyError(
            f"unknown faults keys {sorted(unknown)}; known keys are "
            f"{sorted(known)}"
        )
    out = {}
    for key, default in FAULT_KEYS:
        raw = items.get(key, default)
        if key == "color" and raw == "none":
            raw = None
        if raw is None and key in ("color", "stop"):
            out[key] = None
            continue
        # Checked, not coerced: float(True) or int(2.7) would hash and run
        # as a value the spec never wrote.
        if key in ("crash", "recover", "loss", "byzantine"):
            if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
                raise TypeError(f"faults.{key} must be a number, got {raw!r}")
            raw = float(raw)
            if not 0.0 <= raw <= 1.0:
                raise ValueError(
                    f"faults.{key} must be a probability in [0, 1], got {raw!r}"
                )
        else:
            if isinstance(raw, bool) or not isinstance(raw, numbers.Integral):
                raise TypeError(f"faults.{key} must be an int, got {raw!r}")
            raw = int(raw)
            if key in ("color", "start") and raw < 0:
                raise ValueError(f"faults.{key} must be non-negative")
            if key == "stop" and raw <= out["start"]:
                raise ValueError("faults.stop must exceed faults.start")
        out[key] = raw
    if out["recover"] > 0.0 and out["crash"] == 0.0:
        raise ValueError(
            "faults.recover is meaningless without a positive faults.crash"
        )
    if out["color"] is not None and out["byzantine"] == 0.0:
        raise ValueError(
            "faults.color is meaningless without a positive faults.byzantine"
        )
    return out


def encode_fault_value(value) -> "dict | str":
    """JSON/TOML-friendly form: drop defaults; ``None`` becomes ``"none"``."""
    if value is None:
        return "none"
    value = canonical_fault_value(value)
    if value is None or (
        value["crash"] == 0.0
        and value["loss"] == 0.0
        and value["byzantine"] == 0.0
    ):
        # All rates zero compiles to no schedule — same environment,
        # same encoding (window bounds without a rate are meaningless).
        return "none"
    return {
        key: value[key]
        for key, default in FAULT_KEYS
        if value[key] != default and value[key] is not None
    }


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
    if not models:
        return None
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
                if key in ("crash", "recover", "loss", "byzantine"):
                    items[key] = float(raw)
                elif key == "color":
                    items[key] = int(raw)
                elif key == "start":
                    items[key] = int(raw)
                elif key == "stop":
                    items[key] = int(raw)
                else:
                    raise ValueError(
                        f"unknown fault parameter {key!r} in {text!r}"
                    )
    if loss is not None:
        items["loss"] = float(loss)
    if not items:
        return None
    return canonical_fault_value(items)
