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

import numbers

from ..tables import canonical_table, encode_table

__all__ = [
    "PARALLEL_KEYS",
    "CellScheduler",
    "canonical_parallel_value",
    "encode_parallel_value",
]

#: The ``[parallel]`` table: ``(key, default, kind)`` in canonical order.
PARALLEL_KEYS = (
    ("workers", None, "int"),
    ("max_inflight", None, "int"),
)


def _check_parallel(out: dict, _items) -> dict:
    for key, count in out.items():
        if count is not None and count < 1:
            raise ValueError(f"parallel.{key} must be positive, got {count}")
    if out["workers"] == 1:
        out["workers"] = None  # one worker *is* the sequential default
    return out


def canonical_parallel_value(value) -> "dict | None":
    """Normalise a declarative parallel value to its canonical dict.

    Accepts ``None``, an int (a worker count), or a mapping with any
    subset of the canonical keys (decoded by
    :func:`~repro.tables.canonical_table`).  A value equal to the
    all-defaults table collapses to ``None`` — same encoding, same
    ``spec_hash``.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = {"workers": value}
    return canonical_table(
        "parallel", PARALLEL_KEYS, value,
        what="a table or worker count", rules=_check_parallel,
    )


def encode_parallel_value(value) -> "dict | None":
    """JSON/TOML-friendly form: drop default-valued keys; defaults vanish."""
    return encode_table(PARALLEL_KEYS, canonical_parallel_value(value))


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
