"""Tier-1 smoke wrapper for the engine-throughput benchmark.

Runs :mod:`benchmarks.bench_engine_throughput` in its ≤30 s smoke mode so
every tier-1 run notices an ensemble-engine performance or correctness
regression.  Deselect with ``-m "not bench_smoke"`` when only the
functional suite is wanted.
"""

import pathlib
import sys

import pytest

_BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS_DIR))

from bench_engine_throughput import run_benchmark  # noqa: E402

pytestmark = pytest.mark.bench_smoke


def test_engine_throughput_smoke(tmp_path):
    # Timing in tier-1 only guards against the ensemble paths regressing to
    # *slower than sequential*; the real ≥10×/≥5× targets are enforced by
    # the committed BENCH_engine.json and
    # `benchmarks/bench_engine_throughput.py` (which scripts/check.sh runs
    # with smoke floors).  The measurement window at smoke scale is
    # milliseconds, so a scheduler preemption can distort one attempt —
    # retry before declaring a regression.
    for attempt in range(3):
        report = run_benchmark(smoke=True, output=tmp_path / "BENCH_engine.json")
        assert report["mode"] == "smoke"
        headline = report["scenarios"][0]
        # Correctness gate (deterministic): per-replica rng must reproduce
        # the sequential samples exactly.
        assert headline["per_replica_rng_exact_match"] is True
        if (
            headline["speedup"] > 1.0
            and report["async"]["speedup"] > 1.0
            and report["adversary"]["speedup"] > 1.0
        ):
            break
    assert headline["speedup"] > 1.0, headline
    assert report["async"]["speedup"] > 1.0, report["async"]
    assert report["adversary"]["speedup"] > 1.0, report["adversary"]
    assert report["adversary"]["counts_all_valid"] is True
    # Study-layer correctness gates (deterministic): the second pass over
    # the warm result cache must replay every cell, bit-for-bit the cold run.
    study = report["study-cache"]
    assert study["warm_results_equal"] is True, study
    assert study["cache_hit_rate"] == 1.0, study
    # Every section records the runtime cost model's backend decision.
    assert headline["resolved_backend"] == "ensemble-counts"
    assert report["async"]["resolved_backend"] == "kernel-async"
    assert report["adversary"]["resolved_backend"] == "ensemble-adversary-counts"
    assert (tmp_path / "BENCH_engine.json").exists()
