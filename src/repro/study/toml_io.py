"""TOML round-trip for :class:`~repro.study.spec.StudySpec`.

Reading uses the standard library's :mod:`tomllib`; writing is a small
purpose-built emitter (the stdlib has no TOML writer and the container
pins its package set), covering exactly the value shapes a spec dict
contains: strings, ints, floats, booleans, homogeneous-or-mixed arrays,
and one level of sub-tables (``[record]``, ``[execution]``,
``[parallel]``, ``[cache]``, ``[axes]``) whose array
entries may be inline tables.  The contract is round-trip losslessness:

>>> loads_spec(dumps_spec(spec)) == spec   # doctest: +SKIP
True
"""

from __future__ import annotations

import os
import tomllib
from typing import Any, Mapping

from .spec import StudySpec

__all__ = ["dumps_spec", "loads_spec", "save_spec", "load_spec"]

_BARE_KEY = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def _key(key: str) -> str:
    if key and set(key) <= _BARE_KEY:
        return key
    return _string(key)


#: Basic-string escapes: backslash, quote, newline and tab by name, and
#: every other control character (U+0000–U+001F, U+007F: TOML forbids
#: them raw) as ``\uXXXX``.
_ESCAPES = {code: f"\\u{code:04x}" for code in (*range(0x20), 0x7F)}
_ESCAPES.update(
    {ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\t"): "\\t"}
)


def _string(value: str) -> str:
    return f'"{value.translate(_ESCAPES)}"'


def _value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        return text if any(c in text for c in ".einf") else f"{text}.0"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_value(item) for item in value) + "]"
    if isinstance(value, Mapping):
        inner = ", ".join(f"{_key(k)} = {_value(v)}" for k, v in value.items())
        return "{ " + inner + " }" if inner else "{}"
    raise TypeError(f"cannot emit {type(value).__name__} as TOML: {value!r}")


def dumps_spec(spec: StudySpec) -> str:
    """Serialise a spec to a TOML document string."""
    payload = spec.to_dict()
    axes = payload.pop("axes")
    tables = [
        (name, payload.pop(name, None))
        for name in ("record", "execution", "parallel", "cache")
    ]
    lines = [f"{_key(k)} = {_value(v)}" for k, v in payload.items()]
    for name, table in tables:
        if table is not None:
            lines.append("")
            lines.append(f"[{name}]")
            lines.extend(f"{_key(k)} = {_value(v)}" for k, v in table.items())
    lines.append("")
    lines.append("[axes]")
    lines.extend(f"{_key(k)} = {_value(v)}" for k, v in axes.items())
    lines.append("")
    return "\n".join(lines)


def loads_spec(text: str) -> StudySpec:
    """Parse a TOML document into a :class:`StudySpec`."""
    try:
        payload = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValueError(f"invalid study TOML: {exc}") from exc
    return StudySpec.from_dict(payload)


def save_spec(spec: StudySpec, path: str) -> None:
    """Write a spec to ``path`` as TOML (atomically)."""
    text = dumps_spec(spec)  # before the temp file: a failure leaves none
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_path, path)


def load_spec(path: str) -> StudySpec:
    """Read a spec previously written by :func:`save_spec` (or by hand)."""
    with open(path, "rb") as handle:
        try:
            payload = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"invalid study TOML in {path}: {exc}") from exc
    return StudySpec.from_dict(payload)
