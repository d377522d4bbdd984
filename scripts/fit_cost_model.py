#!/usr/bin/env python
"""Fit the runtime cost-model constants from ``BENCH_engine.json``.

The ROADMAP's "keep ``auto`` honest" item: the backend registry ranks
strategies with hand-calibrated constants, two of which this script
fits (:data:`repro.engine.runtime._SEQ_OVERHEAD` and
:data:`~repro.engine.runtime._COUNTS_FACTOR`).  As kernels evolve the
measured timings drift away from what those constants encode, and
``resolve_backend`` starts ranking on stale folklore.  This script closes
the loop without touching the runtime:

1. rebuild the exact :class:`~repro.engine.plan.SimulationPlan` behind
   every timing ``benchmarks/bench_engine_throughput.py`` recorded
   (scenario definitions are imported from the bench module, so the two
   can never disagree about what was measured);
2. decompose each backend's ``cost(plan)`` affinely in the fitted
   constants — every cost formula is affine in them, so three evaluations
   with the constants patched to unit vectors recover the exact
   coefficients, whatever the formulas currently are;
3. least-squares fit ``seconds ≈ scale × cost`` over all observations
   (rows weighted by 1/seconds, so every section counts equally), and
4. print the fitted constants next to the hand-calibrated ones with the
   relative drift.

Usage::

    PYTHONPATH=src python scripts/fit_cost_model.py [--report PATH]
        [--max-drift PCT]

``--max-drift`` turns the drift report into a check: exit non-zero when
any fitted constant is further than PCT percent from its hand-calibrated
value (used ad hoc after kernel work; the default is informational).

The fit is deliberately crude — the cost model only needs to *rank*
strategies, and one global elements-per-second scale across kernels as
different as a multinomial chain and a python tick loop is an
approximation.  Treat large drift as "re-derive the constant", not as a
number to paste in blindly.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

import bench_engine_throughput as bench  # noqa: E402
from repro.engine import Consensus, SimulationPlan  # noqa: E402
from repro.engine import runtime  # noqa: E402
from repro.engine.runtime import get_backend  # noqa: E402

#: The constants the fit recovers (module attribute names in runtime.py).
CONSTANTS = ("_SEQ_OVERHEAD", "_COUNTS_FACTOR")


def _cost_coefficients(backend_name: str, plan: SimulationPlan) -> np.ndarray:
    """``[base, d/d_SEQ_OVERHEAD, d/d_COUNTS_FACTOR]``.

    Every registered cost formula is affine in the fitted constants (they
    never multiply each other), so evaluating with the constants patched
    to 0 and to unit vectors recovers the exact coefficients without
    duplicating any formula here.
    """
    backend = get_backend(backend_name)
    saved = {name: getattr(runtime, name) for name in CONSTANTS}
    try:
        for name in CONSTANTS:
            setattr(runtime, name, 0.0)
        base = backend.cost(plan)
        coefficients = [base]
        for name in CONSTANTS:
            setattr(runtime, name, 1.0)
            coefficients.append(backend.cost(plan) - base)
            setattr(runtime, name, 0.0)
    finally:
        for name, value in saved.items():
            setattr(runtime, name, value)
    return np.asarray(coefficients, dtype=float)


def _observations(report: dict) -> "list[tuple[str, str, SimulationPlan, float]]":
    """Pair every recorded timing with the plan and backend it measured."""
    smoke = report.get("mode") == "smoke"
    rng = report["seed"]
    observations = []

    scenarios = bench.SMOKE_SCENARIOS if smoke else bench.FULL_SCENARIOS
    for scenario, entry in zip(scenarios, report["scenarios"]):
        plan = SimulationPlan(
            process=scenario["factory"],
            initial=scenario["initial"](),
            stop=Consensus(),
            repetitions=scenario["repetitions"],
            rng=rng,
        )
        for key, backend_name in (
            ("sequential_seconds", scenario["sequential"]),
            ("ensemble_seconds", scenario["ensemble"]),
        ):
            observations.append(
                (entry["label"], backend_name, plan, float(entry[key]))
            )

    async_scenario = bench.SMOKE_ASYNC if smoke else bench.FULL_ASYNC
    entry = report["async"]
    plan = SimulationPlan(
        process=async_scenario["factory"],
        initial=async_scenario["initial"](),
        stop=Consensus(),
        repetitions=async_scenario["repetitions"],
        rng=rng,
        scheduler="asynchronous",
        max_rounds=int(entry["tick_budget"]),
    )
    observations.append(
        (entry["label"], "async", plan, float(entry["sequential_seconds"]))
    )
    observations.append(
        (entry["label"], "ensemble-async", plan, float(entry["ensemble_seconds"]))
    )

    adversary_scenario = bench.SMOKE_ADVERSARY if smoke else bench.FULL_ADVERSARY
    entry = report["adversary"]
    plan = SimulationPlan(
        process=adversary_scenario["factory"],
        initial=adversary_scenario["initial"](),
        repetitions=adversary_scenario["repetitions"],
        rng=rng,
        adversary=adversary_scenario["adversary"](),
        max_rounds=adversary_scenario["max_rounds"],
        stable_fraction=0.9,
    )
    for key, backend_name in (
        ("sequential_seconds", "adversary"),
        ("counts_ensemble_seconds", "ensemble-adversary-counts"),
        ("agent_ensemble_seconds", "ensemble-adversary-agent"),
    ):
        observations.append((entry["label"], backend_name, plan, float(entry[key])))

    # The fused-kernel section (PR 8).  Neither kernel cost formula uses
    # the fitted constants (their factors are separate knobs), so these
    # rows only constrain the global seconds-per-element scale — which is
    # exactly what keeps the kernel-vs-counts ranking honest.
    kernels = report.get("kernels")
    if kernels:
        sync = bench.SMOKE_KERNELS["sync"] if smoke else bench.FULL_KERNELS["sync"]
        plan = SimulationPlan(
            process=sync["factory"],
            initial=sync["initial"](),
            stop=Consensus(),
            repetitions=sync["repetitions"],
            rng=rng,
        )
        observations.append(
            (
                kernels["sync"]["label"],
                "kernel-agent",
                plan,
                float(kernels["sync"]["kernel_seconds"]),
            )
        )
        asynchronous = (
            bench.SMOKE_KERNELS["async"] if smoke else bench.FULL_KERNELS["async"]
        )
        plan = SimulationPlan(
            process=asynchronous["factory"],
            initial=asynchronous["initial"](),
            stop=Consensus(),
            repetitions=asynchronous["repetitions"],
            rng=rng,
            scheduler="asynchronous",
            max_rounds=int(kernels["async"]["tick_budget"]),
        )
        observations.append(
            (
                kernels["async"]["label"],
                "kernel-async",
                plan,
                float(kernels["async"]["kernel_seconds"]),
            )
        )

    return observations


def fit(report: dict) -> dict:
    """Least-squares fit of the constants against one bench report."""
    # Drop degenerate timings up front so the design matrix, the targets
    # and the reported observations stay aligned row for row.
    observations = [
        entry for entry in _observations(report) if entry[3] > 0.0
    ]
    design = np.asarray(
        [
            _cost_coefficients(backend_name, plan)
            for _label, backend_name, plan, _measured in observations
        ],
        dtype=float,
    )
    target = np.asarray([entry[3] for entry in observations], dtype=float)
    # Relative-error weighting: every observation contributes one unit row,
    # so the 4.8 s async loop cannot drown the 1.9 ms ensemble timing.
    weights = 1.0 / target
    solution, *_ = np.linalg.lstsq(
        design * weights[:, None], np.ones_like(target), rcond=None
    )
    scale = solution[0]
    if scale <= 0.0:
        raise RuntimeError(
            f"fit produced a non-positive seconds-per-element scale ({scale:.3e}); "
            "the recorded timings do not support the cost model's shape"
        )
    fitted = {
        name: float(solution[1 + i] / scale) for i, name in enumerate(CONSTANTS)
    }
    predicted = design @ solution
    return {
        "scale_seconds_per_element": float(scale),
        "fitted": fitted,
        "hand_calibrated": {
            name: float(getattr(runtime, name)) for name in CONSTANTS
        },
        "observations": [
            {
                "label": label,
                "backend": backend_name,
                "measured_seconds": measured,
                "predicted_seconds": float(p),
            }
            for (label, backend_name, _plan, measured), p in zip(
                observations, predicted
            )
        ],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        default=str(REPO / "BENCH_engine.json"),
        help="bench report to fit against (default: the committed one)",
    )
    parser.add_argument(
        "--max-drift",
        type=float,
        default=None,
        metavar="PCT",
        help="fail when any constant drifts further than PCT percent",
    )
    args = parser.parse_args(argv)

    report = json.loads(pathlib.Path(args.report).read_text())
    result = fit(report)

    print(f"cost-model fit against {args.report} (mode={report.get('mode')})")
    print(
        f"  global scale: {result['scale_seconds_per_element']:.3e} "
        "seconds per cost-model element"
    )
    print()
    print(f"  {'constant':<18} {'hand-calibrated':>16} {'fitted':>14} {'drift':>9}")
    worst_drift = 0.0
    for name in CONSTANTS:
        hand = result["hand_calibrated"][name]
        fitted = result["fitted"][name]
        drift = abs(fitted - hand) / abs(hand) * 100.0
        worst_drift = max(worst_drift, drift)
        flag = "" if fitted > 0 else "   (unconstrained by these timings)"
        print(f"  {name:<18} {hand:>16.4g} {fitted:>14.4g} {drift:>8.1f}%{flag}")
    print()
    print("  per-observation check (measured vs the fitted model):")
    for entry in result["observations"]:
        ratio = entry["predicted_seconds"] / entry["measured_seconds"]
        print(
            f"    {entry['backend']:<26} {entry['measured_seconds']:>9.4f}s "
            f"measured, {entry['predicted_seconds']:>9.4f}s fitted "
            f"(x{ratio:.2f})  [{entry['label']}]"
        )

    if args.max_drift is not None and worst_drift > args.max_drift:
        print(
            f"\nFAIL: worst drift {worst_drift:.1f}% exceeds "
            f"--max-drift {args.max_drift:.1f}% — re-derive the constants "
            "(see the cost-model comment block in src/repro/engine/runtime.py)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
