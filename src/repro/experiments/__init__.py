"""Experiment building blocks: workloads, the sweep view, report tables."""

from .harness import SweepPoint, SweepResult, sweep_result_from_records
from .reporting import Table, format_table
from .workloads import (
    WORKLOADS,
    balanced,
    biased,
    bounded_support,
    power_law,
    random_composition,
    resolve_workload,
    singletons,
)

__all__ = [
    "SweepPoint",
    "SweepResult",
    "Table",
    "WORKLOADS",
    "balanced",
    "biased",
    "bounded_support",
    "format_table",
    "power_law",
    "random_composition",
    "resolve_workload",
    "singletons",
    "sweep_result_from_records",
]
