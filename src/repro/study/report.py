"""Render a :class:`~repro.study.store.StudyStore` as report tables.

One summary table over all cells (axes, replica counts, first-passage
statistics, resolved backend), plus a power-law fit footnote for every
group of cells that differs only in ``n`` and covers at least three
sizes — the rule :meth:`~repro.experiments.SweepResult.to_table` follows
too, so a sweep's table and its store's report agree on the fit.
"""

from __future__ import annotations

import json

import numpy as np

from ..analysis.statistics import fit_power_law
from ..experiments.reporting import Table
from .compile import describe_axes
from .store import RunRecord, StudyStore

__all__ = ["study_report"]


def _group_key(record: RunRecord, expansion: str) -> str:
    """Cells that differ only in ``n`` (and seed) share a fit group.

    Under ``zip`` expansion the stopping rule and horizon co-vary with
    ``n`` (per-``n`` thresholds are what zip is for), so they are not
    grouping axes; under ``grid`` they are independent axes and distinct
    values measure distinct quantities — pooling them into one fit would
    average incompatible observables.
    """
    dropped = ("n", "seed") + (("stop", "max_rounds") if expansion == "zip" else ())
    params = {k: v for k, v in record.params.items() if k not in dropped}
    return json.dumps(params, sort_keys=True)


def _group_label(record: RunRecord) -> str:
    parts = [record.params["process"]["name"]]
    workload = record.params["workload"]
    if workload["name"] != "singletons":
        parts.append(workload["name"])
    if record.params["scheduler"] != "synchronous":
        parts.append(record.params["scheduler"])
    if record.params["adversary"] is not None:
        parts.append(record.params["adversary"]["name"])
    return " ".join(parts)


def study_report(store: StudyStore) -> Table:
    """The store's cells as one table (stats per cell, fits as footnotes)."""
    spec = store.spec
    total = spec.num_cells()
    broken = store.failed()
    timeouts = [r for r in broken if r.status == "timeout"]
    failed = [r for r in broken if r.status != "timeout"]
    ok_count = len(store) - len(broken)
    title = f"study {spec.name!r} — {ok_count}/{total} cells"
    notes = []
    if failed:
        notes.append(f"{len(failed)} failed")
    if timeouts:
        notes.append(f"{len(timeouts)} timed out")
    if notes:
        title += f" ({', '.join(notes)})"
    elif len(store) < total:
        title += " (incomplete)"
    table = Table(
        title=title,
        columns=[
            "cell", "process", "n", "axes", "unit", "runs", "stopped",
            "mean", "sem", "median", "max", "backend",
        ],
    )
    groups: "dict[str, list[RunRecord]]" = {}
    for record in store.records():
        params = record.params
        if not record.ok:
            # Broken cells report their outcome, not statistics, and are
            # excluded from fit groups (no data to pool).
            table.add_row(
                record.index,
                params["process"]["name"],
                params["n"],
                describe_axes(params) or "-",
                "-", 0, 0, "-", "-", "-", "-",
                record.status,
            )
            continue
        summary = record.summary()
        backend = record.resolved_backend
        if record.degraded_from:
            backend += "*"
        table.add_row(
            record.index,
            params["process"]["name"],
            params["n"],
            describe_axes(params) or "-",
            record.unit,
            int(record.times.size),
            int(record.stopped.sum()),
            summary.mean,
            summary.sem,
            summary.median,
            summary.maximum,
            backend,
        )
        groups.setdefault(_group_key(record, spec.expansion), []).append(record)
    for records in groups.values():
        by_n: "dict[int, list[float]]" = {}
        for record in records:
            by_n.setdefault(int(record.params["n"]), []).append(
                float(record.times.mean())
            )
        if len(by_n) < 3:
            continue
        label = _group_label(records[0])
        ns = np.asarray(sorted(by_n), dtype=float)
        means = np.asarray([np.mean(by_n[int(n)]) for n in ns])
        zero = [str(int(n)) for n, mean in zip(ns, means) if mean <= 0]
        if zero:
            table.add_footnote(
                f"fit [{label}]: n/a (mean 0 at n={', '.join(zero)}; "
                "a power law needs positive means)"
            )
            continue
        fit = fit_power_law(ns, means)
        table.add_footnote(f"fit [{label}]: {fit.summary()}")
    for record in store.records():
        if not record.ok or not record.degraded_from:
            continue
        table.add_footnote(
            f"DEGRADED cell {record.index}: ran on {record.resolved_backend} "
            f"after {record.degraded_from} failed transiently "
            "(results bit-for-bit by the per-replica rng contract)"
        )
    for record in broken:
        error = record.error or {}
        walls = error.get("attempt_walls_s")
        wall_note = (
            " (" + ", ".join(f"{w:.2f}s" for w in walls) + " per attempt)"
            if walls
            else ""
        )
        label = "TIMEOUT" if record.status == "timeout" else "FAILED"
        detail = (
            f"exceeded deadline_s={error.get('deadline_s')}"
            if record.status == "timeout"
            else f"{error.get('type', 'Error')}: {error.get('message', '')}"
        )
        table.add_footnote(
            f"{label} cell {record.index} [{describe_axes(record.params) or '-'}] "
            f"after {error.get('attempts', '?')} attempt(s){wall_note}: "
            f"{detail} (resume the study to retry)"
        )
    if store.salvage:
        table.add_footnote(
            f"SALVAGED journal {store.salvage['journal']}: "
            f"{store.salvage['records_salvaged']} record(s) recovered, "
            f"{store.salvage['bytes_discarded']} torn byte(s) discarded"
        )
    table.add_footnote(
        f"spec {store.spec_hash} · seed {spec.seed} · R={spec.repetitions} "
        f"per cell · repro {store.package_version} · "
        f"wall {sum(store.column('wall_time_s')):.2f}s"
    )
    return table
