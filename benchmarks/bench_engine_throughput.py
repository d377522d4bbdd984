"""Engine throughput: sequential vs ensemble vs kernel execution paths.

The reproducible speedup report behind the engine layer, by section:

* ``scenarios`` — the PR-1 headline: ``repeat_first_passage`` through the
  sequential and vectorized-ensemble paths (3-Majority counts n=10⁴ k=2
  R=100; 2-Choices agent n=2048).  With ``rng_mode="per-replica"`` the
  ensemble engine must reproduce the sequential samples bit-for-bit.
* ``async`` — the one-node-per-tick scheduler: looping the sequential
  :func:`run_asynchronous` vs the lock-step
  :func:`run_asynchronous_ensemble` over a fixed tick budget.
* ``adversary`` — §5 robust runs: looping :func:`run_with_adversary` vs
  :func:`run_with_adversary_ensemble` (count-level fast path for the
  AC-process; agent-level timing reported alongside).
* ``faults`` — the fault-injection overhead: the same batched
  ensemble-counts workload over a fixed round budget with and without an
  active crash/recovery/loss schedule, reporting the wall-time ratio
  (fault-free plans skip the fault path entirely, so the interesting
  number is the cost of a *live* schedule per round).
* ``study-cache`` — the study layer's result cache: the shipped
  ``studies/consensus_scaling.toml`` run cold into a fresh cache
  directory, then again against the now-warm content-addressed cache
  (asserted ``results_equal`` to the cold run, 100% hits and, in full
  mode, a ≥5× wall-time reduction).
* ``kernels`` — the fused-kernel layer (:mod:`repro.engine.kernels`):
  the switch-and-redistribute agent kernel vs the sequential and
  lock-step agent paths on the 2-Choices headline (n=2048 k=8 R=50,
  where the plain ensemble only managed ~1×), and the dependency-
  wavefront async kernel vs the per-tick ensemble loop.  In full mode
  it also records a ``smoke_reference`` block that ``scripts/check.sh
  --kernels-check`` regression-gates fresh smoke runs against (>20%
  drop fails).

Each section also records which backend the unified runtime's
``resolve_backend`` cost model picks for its representative plan
(``resolved_backend``), so the report documents the registry's decisions
alongside the measured speedups.

Run as a script to (re)generate ``BENCH_engine.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--smoke]

``--smoke`` shrinks every section to a ≤30 s sanity check (used by tier-1
via ``tests/test_bench_engine_smoke.py`` and ``scripts/check.sh``) and
does not overwrite the committed full-size report unless asked to.
"""

import argparse
import json
import os
import pathlib
import shutil
import tempfile
import time

import numpy as np

from repro.adversary import PlantInvalid, run_with_adversary, run_with_adversary_ensemble
from repro.core import Configuration
from repro.engine import (
    Consensus,
    MaxSupportAbove,
    SimulationPlan,
    repeat_first_passage,
    resolve_backend,
    run_agent_ensemble,
    run_asynchronous,
    run_asynchronous_ensemble,
    run_counts_ensemble,
    run_fused_agent_ensemble,
    run_fused_asynchronous_ensemble,
    spawn_generators,
)
from repro.faults import build_fault_schedule
from repro.processes import ThreeMajority, TwoChoices
from repro.study import StudySpec, load_spec, run_study


def _resolved(**plan_kwargs) -> str:
    """Which backend the runtime's cost model picks for this section."""
    return resolve_backend(SimulationPlan(backend="auto", **plan_kwargs)).spec.name

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"

FULL_SCENARIOS = [
    # (label, process factory, initial, repetitions, sequential backend, ensemble backend)
    {
        "label": "3-majority counts n=10^4 k=2 R=100",
        "factory": ThreeMajority,
        "initial": lambda: Configuration.balanced(10_000, 2),
        "repetitions": 100,
        "sequential": "counts",
        "ensemble": "ensemble-counts",
    },
    {
        "label": "2-choices agent n=2048 k=8 R=50",
        "factory": TwoChoices,
        "initial": lambda: Configuration.biased(2048, 8, 64),
        "repetitions": 50,
        "sequential": "agent",
        "ensemble": "ensemble-agent",
    },
]

SMOKE_SCENARIOS = [
    {
        "label": "3-majority counts n=2000 k=2 R=30 (smoke)",
        "factory": ThreeMajority,
        "initial": lambda: Configuration.balanced(2000, 2),
        "repetitions": 30,
        "sequential": "counts",
        "ensemble": "ensemble-counts",
    },
]

FULL_ASYNC = {
    "label": "3-majority async n=2048 k=2 R=50 T=2n",
    "factory": ThreeMajority,
    "initial": lambda: Configuration.balanced(2048, 2),
    "repetitions": 50,
    "tick_budget": lambda n: 2 * n,
}

SMOKE_ASYNC = {
    "label": "3-majority async n=256 k=2 R=8 T=2n (smoke)",
    "factory": ThreeMajority,
    "initial": lambda: Configuration.balanced(256, 2),
    "repetitions": 8,
    "tick_budget": lambda n: 2 * n,
}

FULL_ADVERSARY = {
    "label": "3-majority vs plant-invalid n=2048 k=3 F=5 R=50",
    "factory": ThreeMajority,
    "initial": lambda: Configuration.balanced(2048, 3),
    "adversary": lambda: PlantInvalid(5, invalid_color=8),
    "repetitions": 50,
    "max_rounds": 4000,
}

SMOKE_ADVERSARY = {
    "label": "3-majority vs plant-invalid n=400 k=3 F=2 R=20 (smoke)",
    "factory": ThreeMajority,
    "initial": lambda: Configuration.balanced(400, 3),
    "adversary": lambda: PlantInvalid(2, invalid_color=8),
    "repetitions": 20,
    "max_rounds": 3000,
}

FULL_FAULTS = {
    "label": "3-majority ensemble-counts fault overhead n=10^4 k=2 R=100 T=200",
    "factory": ThreeMajority,
    "initial": lambda: Configuration.balanced(10_000, 2),
    "repetitions": 100,
    "max_rounds": 200,
    "faults": {"crash": 0.001, "recover": 0.05, "loss": 0.01},
}

SMOKE_FAULTS = {
    "label": "3-majority ensemble-counts fault overhead n=2000 k=2 R=20 T=100 (smoke)",
    "factory": ThreeMajority,
    "initial": lambda: Configuration.balanced(2000, 2),
    "repetitions": 20,
    "max_rounds": 100,
    "faults": {"crash": 0.001, "recover": 0.05, "loss": 0.01},
}

STUDY_SPEC_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "studies"
    / "consensus_scaling.toml"
)

FULL_STUDY = {
    "label": "consensus-scaling study (9 cells) cold vs warm result cache",
    "spec": lambda: load_spec(str(STUDY_SPEC_PATH)),
}

SMOKE_STUDY = {
    "label": "study 4 cells cold vs warm result cache (smoke)",
    "spec": lambda: StudySpec(
        name="bench study smoke",
        seed=13,
        repetitions=2,
        axes={
            "process": ["3-majority", "voter"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        },
    ),
}

FULL_KERNELS = {
    "sync": {
        # The scenario the plain agent ensemble failed to accelerate
        # (≈1× in the PR-1 report): wide-k 2-Choices first passage.
        "label": "2-choices kernel-agent n=2048 k=8 R=50",
        "factory": TwoChoices,
        "initial": lambda: Configuration.biased(2048, 8, 64),
        "repetitions": 50,
    },
    "async": {
        "label": "3-majority kernel-async n=2048 k=2 R=50 T=2n",
        "factory": ThreeMajority,
        "initial": lambda: Configuration.balanced(2048, 2),
        "repetitions": 50,
        "tick_budget": lambda n: 2 * n,
    },
}

SMOKE_KERNELS = {
    "sync": {
        "label": "2-choices kernel-agent n=512 k=4 R=16 (smoke)",
        "factory": TwoChoices,
        "initial": lambda: Configuration.biased(512, 4, 32),
        "repetitions": 16,
    },
    "async": {
        "label": "3-majority kernel-async n=512 k=2 R=16 T=2n (smoke)",
        "factory": ThreeMajority,
        "initial": lambda: Configuration.balanced(512, 2),
        "repetitions": 16,
        "tick_budget": lambda n: 2 * n,
    },
}

SEED = 20170725  # PODC'17 presentation date


def _time_backend(scenario, backend: str) -> "tuple[float, np.ndarray]":
    factory = scenario["factory"]
    initial = scenario["initial"]()
    # One warm-up replica keeps allocator/JIT-free numpy setup noise out of
    # the measured section.
    repeat_first_passage(
        lambda: factory(), initial, Consensus(), 1, rng=SEED, backend=backend
    )
    start = time.perf_counter()
    times = repeat_first_passage(
        lambda: factory(),
        initial,
        Consensus(),
        scenario["repetitions"],
        rng=SEED,
        backend=backend,
    )
    return time.perf_counter() - start, times


def _exactness_check(scenario) -> bool:
    """Per-replica ensemble must equal the sequential counts samples."""
    factory = scenario["factory"]
    initial = scenario["initial"]()
    repetitions = min(scenario["repetitions"], 25)
    sequential = repeat_first_passage(
        lambda: factory(), initial, Consensus(), repetitions, rng=SEED, backend="counts"
    )
    ensemble = run_counts_ensemble(
        factory(), initial, repetitions, rng=SEED, rng_mode="per-replica"
    )
    return bool(np.array_equal(sequential, ensemble.times))


def _agent_exactness_check(scenario) -> bool:
    """Per-replica agent ensemble must equal the sequential agent samples.

    This is the exact-stream contract the fused kernel must *not* claim:
    ``rng_mode="per-replica"`` keeps routing through the loop engines, so
    the sequential bit-for-bit guarantee survives the kernel layer.
    """
    factory = scenario["factory"]
    initial = scenario["initial"]()
    repetitions = min(scenario["repetitions"], 25)
    sequential = repeat_first_passage(
        lambda: factory(), initial, Consensus(), repetitions, rng=SEED, backend="agent"
    )
    ensemble = run_agent_ensemble(
        factory(), initial, repetitions, rng=SEED, rng_mode="per-replica"
    )
    return bool(np.array_equal(sequential, ensemble.times))


def _best_seconds(fn, repeats: int = 7) -> float:
    """Min-of-N wall time.  The kernel sections are ms-scale, and under
    load (single-core CI, worker threads from earlier sections) any mean or
    median is dominated by interference; the minimum is the run the OS
    left alone, which is the quantity the regression gate can compare
    across sessions."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def _measure_scenarios(scenarios) -> list:
    entries = []
    for scenario in scenarios:
        seq_seconds, seq_times = _time_backend(scenario, scenario["sequential"])
        ens_seconds, ens_times = _time_backend(scenario, scenario["ensemble"])
        entry = {
            "label": scenario["label"],
            "repetitions": scenario["repetitions"],
            "sequential_backend": scenario["sequential"],
            "ensemble_backend": scenario["ensemble"],
            "resolved_backend": _resolved(
                process=scenario["factory"],
                initial=scenario["initial"](),
                stop=Consensus(),
                repetitions=scenario["repetitions"],
                rng=SEED,
            ),
            "sequential_seconds": round(seq_seconds, 4),
            "ensemble_seconds": round(ens_seconds, 4),
            "speedup": round(seq_seconds / ens_seconds, 2),
            "sequential_mean_rounds": round(float(seq_times.mean()), 2),
            "ensemble_mean_rounds": round(float(ens_times.mean()), 2),
        }
        if scenario["sequential"] == "counts":
            entry["per_replica_rng_exact_match"] = _exactness_check(scenario)
        elif scenario["sequential"] == "agent":
            entry["per_replica_rng_exact_match"] = _agent_exactness_check(scenario)
        entries.append(entry)
        print(
            f"{entry['label']}: sequential {entry['sequential_seconds']}s, "
            f"ensemble {entry['ensemble_seconds']}s -> {entry['speedup']}x"
        )
    return entries


def _measure_async(scenario) -> dict:
    """Fixed-tick-budget throughput: sequential loop vs lock-step ensemble."""
    factory = scenario["factory"]
    initial = scenario["initial"]()
    repetitions = scenario["repetitions"]
    budget = scenario["tick_budget"](initial.num_nodes)
    # Warm-up.
    run_asynchronous(factory(), initial, rng=SEED, max_ticks=16)
    generators = spawn_generators(SEED, repetitions)
    start = time.perf_counter()
    for generator in generators:
        run_asynchronous(factory(), initial, rng=generator, max_ticks=budget)
    seq_seconds = time.perf_counter() - start
    start = time.perf_counter()
    run_asynchronous_ensemble(
        factory(), initial, repetitions, rng=SEED, max_ticks=budget
    )
    ens_seconds = time.perf_counter() - start
    entry = {
        "label": scenario["label"],
        "repetitions": repetitions,
        "tick_budget": budget,
        "resolved_backend": _resolved(
            process=factory,
            initial=initial,
            stop=Consensus(),
            repetitions=repetitions,
            scheduler="asynchronous",
            rng=SEED,
            max_rounds=budget,
        ),
        "sequential_seconds": round(seq_seconds, 4),
        "ensemble_seconds": round(ens_seconds, 4),
        "speedup": round(seq_seconds / ens_seconds, 2),
    }
    print(
        f"{entry['label']}: sequential {entry['sequential_seconds']}s, "
        f"ensemble {entry['ensemble_seconds']}s -> {entry['speedup']}x"
    )
    return entry


def _measure_adversary(scenario) -> dict:
    """§5 robust runs: sequential loop vs count-level/agent-level ensemble."""
    factory = scenario["factory"]
    initial = scenario["initial"]()
    adversary = scenario["adversary"]
    repetitions = scenario["repetitions"]
    max_rounds = scenario["max_rounds"]
    generators = spawn_generators(SEED, repetitions)
    start = time.perf_counter()
    sequential = [
        run_with_adversary(
            factory(), initial, adversary(), rng=generator,
            max_rounds=max_rounds, stable_fraction=0.9,
        )
        for generator in generators
    ]
    seq_seconds = time.perf_counter() - start
    start = time.perf_counter()
    counts_result = run_with_adversary_ensemble(
        factory(), initial, adversary(), repetitions, rng=SEED,
        max_rounds=max_rounds, stable_fraction=0.9, backend="counts",
    )
    counts_seconds = time.perf_counter() - start
    start = time.perf_counter()
    agent_result = run_with_adversary_ensemble(
        factory(), initial, adversary(), repetitions, rng=SEED,
        max_rounds=max_rounds, stable_fraction=0.9, backend="agent",
    )
    agent_seconds = time.perf_counter() - start
    entry = {
        "label": scenario["label"],
        "repetitions": repetitions,
        "resolved_backend": _resolved(
            process=factory,
            initial=initial,
            adversary=adversary(),
            repetitions=repetitions,
            rng=SEED,
            max_rounds=max_rounds,
            stable_fraction=0.9,
        ),
        "sequential_seconds": round(seq_seconds, 4),
        "counts_ensemble_seconds": round(counts_seconds, 4),
        "agent_ensemble_seconds": round(agent_seconds, 4),
        "speedup": round(seq_seconds / counts_seconds, 2),
        "agent_speedup": round(seq_seconds / agent_seconds, 2),
        "sequential_stabilized": sum(r.stabilized for r in sequential),
        "counts_stabilized": int(counts_result.stabilized.sum()),
        "agent_stabilized": int(agent_result.stabilized.sum()),
        "counts_all_valid": bool(
            np.all(counts_result.winner_is_valid[counts_result.stabilized])
        ),
    }
    print(
        f"{entry['label']}: sequential {entry['sequential_seconds']}s, "
        f"counts-ensemble {entry['counts_ensemble_seconds']}s -> "
        f"{entry['speedup']}x (agent {entry['agent_speedup']}x)"
    )
    return entry


def _measure_faults(scenario) -> dict:
    """Fault-path overhead on a fixed round budget (never-firing stop).

    Both runs advance exactly ``max_rounds`` rounds — the stopping
    condition cannot fire below ``n+1`` support — so the ratio isolates
    the per-round fault-mask cost from any change in trajectory length.
    """
    factory = scenario["factory"]
    initial = scenario["initial"]()
    repetitions = scenario["repetitions"]
    max_rounds = scenario["max_rounds"]
    stop = MaxSupportAbove(initial.num_nodes)
    schedule = build_fault_schedule(scenario["faults"])
    kwargs = dict(rng=SEED, stop=stop, raise_on_limit=False)
    # Warm-up both paths.
    run_counts_ensemble(factory(), initial, 2, max_rounds=8, **kwargs)
    run_counts_ensemble(factory(), initial, 2, max_rounds=8, faults=schedule, **kwargs)
    start = time.perf_counter()
    run_counts_ensemble(factory(), initial, repetitions, max_rounds=max_rounds, **kwargs)
    base_seconds = time.perf_counter() - start
    start = time.perf_counter()
    run_counts_ensemble(
        factory(), initial, repetitions, max_rounds=max_rounds,
        faults=schedule, **kwargs,
    )
    fault_seconds = time.perf_counter() - start
    entry = {
        "label": scenario["label"],
        "repetitions": repetitions,
        "max_rounds": max_rounds,
        "faults": dict(scenario["faults"]),
        "resolved_backend": _resolved(
            process=factory,
            initial=initial,
            stop=stop,
            repetitions=repetitions,
            rng=SEED,
            max_rounds=max_rounds,
            faults=schedule,
            raise_on_limit=False,
        ),
        "fault_free_seconds": round(base_seconds, 4),
        "faulted_seconds": round(fault_seconds, 4),
        "overhead_ratio": round(fault_seconds / base_seconds, 2),
    }
    print(
        f"{entry['label']}: fault-free {entry['fault_free_seconds']}s, "
        f"faulted {entry['faulted_seconds']}s -> "
        f"{entry['overhead_ratio']}x overhead"
    )
    return entry


def _measure_study_cache(scenario) -> dict:
    """Study result cache: a cold run into a fresh cache, then a warm one.

    The cold run simulates every cell and memoizes it; the warm run must
    replay every cell from the cache (``results_equal`` to the cold run),
    so its wall time is the cache's lookup cost.
    """
    spec = scenario["spec"]()
    cells = spec.num_cells()
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        start = time.perf_counter()
        cold = run_study(spec, cache=cache_dir)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_study(spec, cache=cache_dir)
        warm_seconds = time.perf_counter() - start
        hits = sum(record.cache_hit for record in warm.records())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    entry = {
        "label": scenario["label"],
        "cells": cells,
        "cold_seconds": round(cold_seconds, 4),
        "cells_per_second_cold": round(cells / cold_seconds, 2),
        "warm_cache_seconds": round(warm_seconds, 4),
        "warm_results_equal": bool(warm.results_equal(cold)),
        "cache_hit_rate": round(hits / cells, 4),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
    }
    print(
        f"{entry['label']}: cold {entry['cold_seconds']}s, "
        f"warm cache {entry['warm_cache_seconds']}s "
        f"(results_equal={entry['warm_results_equal']}) -> "
        f"{entry['warm_speedup']}x at {entry['cache_hit_rate']:.0%} hits"
    )
    return entry


def _measure_kernel_sync(scenario) -> dict:
    """Fused agent kernel vs the sequential and lock-step agent paths."""
    factory = scenario["factory"]
    initial = scenario["initial"]()
    repetitions = scenario["repetitions"]
    stop = Consensus()
    # Warm-ups.
    repeat_first_passage(lambda: factory(), initial, stop, 1, rng=SEED, backend="agent")
    run_agent_ensemble(factory(), initial, 2, rng=SEED)
    kernel_result = run_fused_agent_ensemble(factory(), initial, 2, rng=SEED)
    seq_seconds = _best_seconds(
        lambda: repeat_first_passage(
            lambda: factory(), initial, stop, repetitions, rng=SEED, backend="agent"
        )
    )
    ens_seconds = _best_seconds(
        lambda: run_agent_ensemble(factory(), initial, repetitions, rng=SEED)
    )
    kern_seconds = _best_seconds(
        lambda: run_fused_agent_ensemble(factory(), initial, repetitions, rng=SEED)
    )
    kernel_result = run_fused_agent_ensemble(factory(), initial, repetitions, rng=SEED)
    entry = {
        "label": scenario["label"],
        "repetitions": repetitions,
        "resolved_backend": _resolved(
            process=factory,
            initial=scenario["initial"](),
            stop=stop,
            repetitions=repetitions,
            rng=SEED,
        ),
        "sequential_seconds": round(seq_seconds, 4),
        "ensemble_agent_seconds": round(ens_seconds, 4),
        "kernel_seconds": round(kern_seconds, 4),
        "speedup_vs_sequential": round(seq_seconds / kern_seconds, 2),
        "speedup_vs_ensemble": round(ens_seconds / kern_seconds, 2),
        "kernel_mean_rounds": round(float(kernel_result.times.mean()), 2),
    }
    print(
        f"{entry['label']}: sequential {entry['sequential_seconds']}s, "
        f"ensemble {entry['ensemble_agent_seconds']}s, "
        f"kernel {entry['kernel_seconds']}s -> "
        f"{entry['speedup_vs_sequential']}x vs sequential"
    )
    return entry


def _measure_kernel_async(scenario) -> dict:
    """Dependency-wavefront tick batching vs the per-tick ensemble loop."""
    factory = scenario["factory"]
    initial = scenario["initial"]()
    repetitions = scenario["repetitions"]
    budget = scenario["tick_budget"](initial.num_nodes)
    run_asynchronous_ensemble(factory(), initial, 2, rng=SEED, max_ticks=64)
    run_fused_asynchronous_ensemble(factory(), initial, 2, rng=SEED, max_ticks=64)
    ens_seconds = _best_seconds(
        lambda: run_asynchronous_ensemble(
            factory(), initial, repetitions, rng=SEED, max_ticks=budget
        ),
        repeats=5,
    )
    kern_seconds = _best_seconds(
        lambda: run_fused_asynchronous_ensemble(
            factory(), initial, repetitions, rng=SEED, max_ticks=budget
        ),
        repeats=5,
    )
    entry = {
        "label": scenario["label"],
        "repetitions": repetitions,
        "tick_budget": budget,
        "resolved_backend": _resolved(
            process=factory,
            initial=initial,
            stop=Consensus(),
            repetitions=repetitions,
            scheduler="asynchronous",
            rng=SEED,
            max_rounds=budget,
        ),
        "ensemble_seconds": round(ens_seconds, 4),
        "kernel_seconds": round(kern_seconds, 4),
        "speedup_vs_ensemble": round(ens_seconds / kern_seconds, 2),
    }
    print(
        f"{entry['label']}: ensemble {entry['ensemble_seconds']}s, "
        f"kernel {entry['kernel_seconds']}s -> "
        f"{entry['speedup_vs_ensemble']}x vs ensemble"
    )
    return entry


def _measure_kernels(scenario, smoke_reference: bool = False) -> dict:
    """The fused-kernel section; in full mode also records the smoke-size
    baselines that ``--kernels-check`` regression-gates against."""
    entry = {
        "sync": _measure_kernel_sync(scenario["sync"]),
        "async": _measure_kernel_async(scenario["async"]),
    }
    if smoke_reference:
        # Median of three full measurements: one favorable run would set
        # a floor that fresh --kernels-check runs keep tripping over.
        syncs = [_measure_kernel_sync(SMOKE_KERNELS["sync"]) for _ in range(3)]
        asyncs = [_measure_kernel_async(SMOKE_KERNELS["async"]) for _ in range(3)]
        entry["smoke_reference"] = {
            "sync_speedup_vs_sequential": sorted(
                s["speedup_vs_sequential"] for s in syncs
            )[1],
            "async_speedup_vs_ensemble": sorted(
                a["speedup_vs_ensemble"] for a in asyncs
            )[1],
        }
    return entry


def run_benchmark(smoke: bool = False, output: "pathlib.Path | None" = None) -> dict:
    """Measure every section and (optionally) write the JSON report."""
    report = {
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "scenarios": _measure_scenarios(SMOKE_SCENARIOS if smoke else FULL_SCENARIOS),
        "async": _measure_async(SMOKE_ASYNC if smoke else FULL_ASYNC),
        "adversary": _measure_adversary(
            SMOKE_ADVERSARY if smoke else FULL_ADVERSARY
        ),
        "faults": _measure_faults(SMOKE_FAULTS if smoke else FULL_FAULTS),
        "study-cache": _measure_study_cache(SMOKE_STUDY if smoke else FULL_STUDY),
        "kernels": _measure_kernels(
            SMOKE_KERNELS if smoke else FULL_KERNELS, smoke_reference=not smoke
        ),
    }
    if output is not None:
        output = pathlib.Path(output)
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {output}")
    return report


def bench_engine_throughput(benchmark):
    """pytest-benchmark entry point (full scenarios, asserts the targets)."""
    report = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    headline = report["scenarios"][0]
    assert headline["speedup"] >= 10.0, headline
    assert headline["per_replica_rng_exact_match"], headline
    agent = report["scenarios"][1]
    assert agent["per_replica_rng_exact_match"], agent
    assert report["async"]["speedup"] >= 5.0, report["async"]
    assert report["adversary"]["speedup"] >= 5.0, report["adversary"]
    # See main(): the draw-free tie-break sped the sequential baseline, so
    # the fused agent path's honest ratio here sits around 0.7-1.0x.
    assert report["adversary"]["agent_speedup"] >= 0.6, report["adversary"]
    kernels = report["kernels"]
    assert kernels["sync"]["speedup_vs_sequential"] >= 5.0, kernels["sync"]
    assert kernels["async"]["speedup_vs_ensemble"] >= 1.0, kernels["async"]
    study = report["study-cache"]
    assert study["warm_results_equal"], study
    assert study["cache_hit_rate"] == 1.0, study
    assert study["warm_speedup"] >= 5.0, study


def _kernels_check(report_path: "pathlib.Path") -> int:
    """Regression gate for scripts/check.sh: re-measure the smoke-size
    kernel scenarios and fail on a >20% drop vs the committed report's
    ``kernels.smoke_reference`` block."""
    report_path = pathlib.Path(report_path)
    if not report_path.exists():
        print(f"FAIL: no recorded report at {report_path}")
        return 1
    reference = json.loads(report_path.read_text()).get("kernels", {}).get(
        "smoke_reference"
    )
    if not reference:
        print(f"FAIL: {report_path} has no kernels.smoke_reference baselines")
        return 1
    # The measurement window is milliseconds, so one preempted attempt
    # can fake a regression — a real one fails every retry.
    for attempt in range(3):
        fresh = _measure_kernels(SMOKE_KERNELS)
        checks = [
            (
                "sync kernel vs sequential",
                fresh["sync"]["speedup_vs_sequential"],
                reference["sync_speedup_vs_sequential"],
            ),
            (
                "async kernel vs ensemble",
                fresh["async"]["speedup_vs_ensemble"],
                reference["async_speedup_vs_ensemble"],
            ),
        ]
        failures = []
        for label, measured, recorded in checks:
            floor = 0.8 * recorded
            status = "OK" if measured >= floor else "FAIL"
            print(
                f"{status}: {label} {measured}x "
                f"(recorded {recorded}x, floor {round(floor, 2)}x, "
                f"attempt {attempt + 1})"
            )
            if measured < floor:
                failures.append(label)
        if not failures:
            return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="≤30 s sanity mode")
    parser.add_argument(
        "--output",
        default=None,
        help=f"report path (default: {DEFAULT_OUTPUT} in full mode, none in smoke)",
    )
    parser.add_argument(
        "--kernels-check",
        nargs="?",
        const=str(DEFAULT_OUTPUT),
        default=None,
        metavar="REPORT",
        help="only re-measure the smoke-size kernel scenarios and fail on a "
        ">20%% speedup regression vs the recorded report (default: "
        f"{DEFAULT_OUTPUT})",
    )
    args = parser.parse_args()
    if args.kernels_check is not None:
        return _kernels_check(args.kernels_check)
    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    report = run_benchmark(smoke=args.smoke, output=output)
    headline = report["scenarios"][0]
    floor = 2.0 if args.smoke else 10.0
    failures = []
    if headline["speedup"] < floor:
        failures.append(
            f"headline speedup {headline['speedup']}x below the {floor}x target"
        )
    if headline.get("per_replica_rng_exact_match") is False:
        failures.append("per-replica ensemble diverged from the sequential samples")
    async_floor = 1.5 if args.smoke else 5.0
    if report["async"]["speedup"] < async_floor:
        failures.append(
            f"async ensemble speedup {report['async']['speedup']}x "
            f"below the {async_floor}x target"
        )
    if report["adversary"]["speedup"] < async_floor:
        failures.append(
            f"adversary ensemble speedup {report['adversary']['speedup']}x "
            f"below the {async_floor}x target"
        )
    # The agent-ensemble floor sits below 1.0 by design: the draw-free
    # 3-Majority tie-break (paper footnote 1) cut the *sequential* loop's
    # per-round draw count, while the fused switch-law step's cost never
    # depended on the tie-break — so the honest agent-path ratio on this
    # scenario now hovers around 0.7-1.0x.  The number stays recorded for
    # tracking; a real kernel regression would push it far below.
    if report["adversary"]["agent_speedup"] < 0.6:
        failures.append(
            f"adversary agent-ensemble {report['adversary']['agent_speedup']}x "
            "is far below sequential (fused colors kernel regression)"
        )
    study = report["study-cache"]
    if not study["warm_results_equal"]:
        failures.append("warm-cache study diverged from the cold run")
    if study["cache_hit_rate"] < 1.0:
        failures.append(
            f"warm cache hit rate {study['cache_hit_rate']:.0%} below 100%"
        )
    if not args.smoke and study["warm_speedup"] < 5.0:
        failures.append(
            f"warm-cache speedup {study['warm_speedup']}x below the 5x target"
        )
    kernels = report["kernels"]
    kernel_floor = 2.0 if args.smoke else 5.0
    if kernels["sync"]["speedup_vs_sequential"] < kernel_floor:
        failures.append(
            f"fused agent kernel {kernels['sync']['speedup_vs_sequential']}x "
            f"below the {kernel_floor}x target"
        )
    if kernels["async"]["speedup_vs_ensemble"] < 1.0:
        failures.append(
            f"async tick-batching kernel "
            f"{kernels['async']['speedup_vs_ensemble']}x is slower than the "
            "per-tick ensemble loop"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: headline {headline['speedup']}x, async {report['async']['speedup']}x, "
        f"adversary {report['adversary']['speedup']}x, "
        f"kernel-agent {kernels['sync']['speedup_vs_sequential']}x, "
        f"kernel-async {kernels['async']['speedup_vs_ensemble']}x, "
        f"study warm-cache {study['warm_speedup']}x "
        f"(cpu_count={report['cpu_count']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
