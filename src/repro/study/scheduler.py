"""The :class:`CellScheduler` — ``run_study``'s one cell dispatch loop.

Study cells run one after another on the calling thread.  Every cell's
seed derives from ``(spec_seed, cell_index)`` (:mod:`repro.study.compile`),
never from execution order, so dispatching cells concurrently could only
change wall time — and a thread pool measured slower than this loop on
2 cores (GIL-bound numpy on small cells), so there is none.  The loop
yields each record in cell order, and its consumer — the runner — stays
the store's single writer.

The declarative ``[parallel]`` table is still accepted, canonicalised,
validated and elided when default, so every ``spec_hash`` written while
it scheduled cells stays valid — and it is ignored at run time.  Like
``[execution]``, it never enters cell params.
"""

from __future__ import annotations

__all__ = [
    "PARALLEL_KEYS",
    "CellScheduler",
    "canonical_parallel_value",
    "encode_parallel_value",
]

#: Canonical key order with default values (mirrors ``POLICY_KEYS``).
PARALLEL_KEYS = (
    ("workers", None),
    ("max_inflight", None),
)


def canonical_parallel_value(value) -> "dict | None":
    """Normalise a declarative parallel value to its canonical dict.

    Accepts ``None``, an int (a worker count), or a mapping with any
    subset of the canonical keys.  A value equal to the all-defaults
    table collapses to ``None`` — same encoding, same ``spec_hash``.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError("parallel must be a table or worker count, not a bool")
    if isinstance(value, int):
        items = {"workers": value}
    else:
        try:
            items = dict(value)
        except (TypeError, ValueError):
            raise TypeError(
                f"parallel must be a table or worker count, got {value!r}"
            ) from None
    known = {key for key, _default in PARALLEL_KEYS}
    unknown = set(items) - known
    if unknown:
        raise KeyError(
            f"unknown parallel keys {sorted(unknown)}; known keys are "
            f"{sorted(known)}"
        )
    out = {}
    for key, default in PARALLEL_KEYS:
        raw = items.get(key, default)
        if raw == "none":
            raw = None
        if raw is not None:
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise TypeError(f"parallel.{key} must be an int, got {raw!r}")
            if raw < 1:
                raise ValueError(f"parallel.{key} must be positive, got {raw}")
        out[key] = raw
    if out["workers"] == 1:
        out["workers"] = None  # one worker *is* the sequential default
    if out == dict(PARALLEL_KEYS):
        return None
    return out


def encode_parallel_value(value) -> "dict | None":
    """JSON/TOML-friendly form: drop default-valued keys; defaults vanish."""
    value = canonical_parallel_value(value)
    if value is None:
        return None
    return {
        key: value[key]
        for key, default in PARALLEL_KEYS
        if value[key] != default
    }


class CellScheduler:
    """Run each cell through ``run_cell`` in turn, on the calling thread.

    ``run_cell`` is the runner's supervised-execution entry point
    (``_record_cell`` with its policy already resolved); it returns the
    cell's record or raises, and an exception propagates from
    :meth:`run` (the ``on_error="raise"`` contract).
    """

    def __init__(self, run_cell):
        self._run_cell = run_cell

    def run(self, cells):
        """Yield ``(cell, record)`` for each cell, in order.

        Pulls lazily from ``cells``, so a stop requested between records
        leaves the remaining cells uncompiled and unrun.
        """
        for cell in cells:
            yield cell, self._run_cell(cell)
