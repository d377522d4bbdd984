"""E1 — Theorem 4: unconditional sublinear consensus for 3-Majority.

Paper claim: from *any* configuration (we use the hardest symmetric one,
``k = n`` pairwise-distinct colors), 3-Majority reaches consensus w.h.p.
in ``O(n^{3/4} log^{7/8} n)`` rounds.

Regenerated series: mean consensus time vs ``n`` over a geometric sweep,
the ratio against the paper's scale, and the fitted growth exponent.
Expected shape: exponent clearly below 1 (ours lands well below 3/4 —
the paper's bound is an upper bound, not a tight estimate).

Since PR 5 the measurement is a declarative :class:`repro.StudySpec`
(one ``n`` axis, everything else scalar) executed by
:func:`repro.run_study`; the per-cell seed derivation matches the old
harness exactly, so the committed assertions see the same samples the
imperative sweep produced.
"""

import os

import numpy as np

from repro import StudySpec, run_study
from repro.analysis import three_majority_consensus_upper
from repro.experiments import sweep_result_from_records

from conftest import emit, env_backend

N_VALUES = [256, 512, 1024, 2048, 4096, 8192]
REPETITIONS = 5
SEED = 20170217  # the paper's arXiv date
# Execution knobs shared by the sweep benches, validated against the
# runtime's backend registry: REPRO_BACKEND picks any registered backend
# or resolution alias, and REPRO_SCHEDULER moves the whole sweep onto the asynchronous one-node-per-tick model
# (tick counts; predictions are scaled by n to match).
BACKEND = env_backend("ensemble-auto")
SCHEDULER = os.environ.get("REPRO_SCHEDULER", "synchronous")
_ASYNC = SCHEDULER == "asynchronous"

SPEC = StudySpec(
    name="E1  3-Majority consensus time from n distinct colors (Theorem 4)",
    seed=SEED,
    repetitions=REPETITIONS,
    axes={
        "process": ["3-majority"],
        "workload": ["singletons"],
        "n": N_VALUES,
        "scheduler": [SCHEDULER],
        "backend": [BACKEND],
        "rng_mode": ["batched"],
    },
)


def _run_sweep():
    store = run_study(SPEC)
    return sweep_result_from_records(
        SPEC.name,
        "n",
        store.records(),
        predicted=(
            (lambda n: three_majority_consensus_upper(n) * n)
            if _ASYNC
            else three_majority_consensus_upper
        ),
    )


def bench_e1_three_majority_sublinear(benchmark):
    result = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    table = result.to_table(
        predicted_label="n^1.75*log^0.875" if _ASYNC else "n^0.75*log^0.875"
    )
    fit = result.fit()
    emit(table)

    # Theorem 4's qualitative content: sublinear growth (ticks carry an
    # extra factor n), bounded by the paper's scale with a constant below
    # 1 (it is a generous upper bound).
    assert fit.exponent < (1.85 if _ASYNC else 0.85), fit.summary()
    assert np.all(result.means() <= result.predictions()), "exceeded paper bound"
