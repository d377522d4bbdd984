"""One decoder for a spec's flat declarative tables.

``[execution]``, ``[parallel]``, ``[cache]`` and each value of the
``faults`` axis are flat tables of plain values, each declared once as
``(key, default, kind)`` rows.  :func:`canonical_table` turns a written
value into its canonical dict (every key present, in row order):

* the value converts to a mapping (``dict(value)``), else ``TypeError``;
* a key the table does not declare is a ``KeyError``;
* each value is checked against its kind, never coerced (a bool is not
  a number, ``"5"`` is not an int), then widened to ``float`` / ``int``;
* ``"none"`` reads as null where the default is null (TOML has no null);
* the table's own ``rules`` (ranges, cross-key constraints) run last,
  and a value that configures nothing — equal to the defaults, or
  dropped by the rules — collapses to ``None``.

:func:`encode_table` drops default-valued keys, so every shorthand of
one value serialises, and hashes, the same.  The shorthands themselves
(an ``ExecutionPolicy``, a worker count, a bool, a CLI string) stay with
their tables.  This module imports nothing from :mod:`repro`, so both
:mod:`repro.faults` and :mod:`repro.study` use it.
"""

from __future__ import annotations

import numbers

__all__ = ["canonical_table", "encode_table"]

#: kind → (accepted type, its name in errors, canonical conversion).
_KINDS = {
    "number": (numbers.Real, "a number", float),
    "int": (numbers.Integral, "an int", int),
    "bool": (bool, "a bool", bool),
    "str": (str, "a string", str),
}


def _checked(table: str, key: str, raw, default, kind: str):
    if default is None and (raw is None or (isinstance(raw, str) and raw == "none")):
        return None
    accepted, label, convert = _KINDS[kind]
    if not isinstance(raw, accepted) or (kind != "bool" and isinstance(raw, bool)):
        raise TypeError(f"{table}.{key} must be {label}, got {raw!r}")
    return convert(raw)


def canonical_table(table: str, keys, value, *, what: str, rules=None) -> "dict | None":
    """``value`` as the canonical dict of ``table`` (see the module docstring).

    ``keys`` are the ``(key, default, kind)`` rows, ``what`` names the
    accepted forms in the conversion error, and ``rules(out, items)``
    gets the checked dict and the written mapping, raises on a value the
    table forbids, and returns the dict (or ``None`` when it configures
    nothing).
    """
    if value is None:
        return None
    try:
        items = dict(value)
    except (TypeError, ValueError):
        raise TypeError(f"{table} must be {what}, got {value!r}") from None
    known = {key for key, _default, _kind in keys}
    unknown = set(items) - known
    if unknown:
        raise KeyError(
            f"unknown {table} keys {sorted(unknown, key=str)}; known keys "
            f"are {sorted(known)}"
        )
    out = {
        key: _checked(table, key, items.get(key, default), default, kind)
        for key, default, kind in keys
    }
    if rules is not None:
        out = rules(out, items)
    if out is None or out == {key: default for key, default, _kind in keys}:
        return None
    return out


def encode_table(keys, value: "dict | None") -> "dict | None":
    """A canonical value's JSON/TOML form: default-valued keys dropped."""
    if value is None:
        return None
    return {key: value[key] for key, default, _kind in keys if value[key] != default}
