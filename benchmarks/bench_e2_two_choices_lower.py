"""E2 — Theorem 5: the 2-Choices symmetry-breaking lower bound.

Paper claim: starting from any configuration with maximum support ``ℓ``,
w.h.p. no color exceeds ``ℓ' = max(2ℓ, γ log n)`` for ``n / (γ ℓ')``
rounds; from the n-color configuration, no color reaches support
``γ log n`` for ``n / (γ² log n)`` rounds.

Regenerated series:
  (a) the *budget table* — fraction of runs in which symmetry broke within
      the theorem's round budget (paper: ≈ 0), with the 3-Majority
      contrast column (breaks essentially always);
  (b) the *scaling series* — measured rounds until some color exceeds
      ``c·log n``, fitted against ``n / log n`` growth.

Since PR 5 each series is a declarative :class:`repro.StudySpec` with a
``zip`` expansion — the per-``n`` stopping thresholds
(``max-support>ℓ'``) and round budgets are parallel axes zipped against
``n``, which is exactly the shape the spec layer's ``zip`` rule exists
for.
"""

import math

import numpy as np

from repro import StudySpec, run_study
from repro.analysis import fit_power_law_with_log_correction
from repro.experiments import Table

from conftest import emit

GAMMA = 3.0
N_VALUES = [1024, 2048, 4096, 8192]
REPLICAS = 5
SEED = 20170502  # the paper's PODC acceptance season
# Per-cell seeds derive from (SEED, cell index), so these sample streams
# are the spec layer's own, validated against the committed thresholds.


def _thresholds():
    return [max(2, int(math.ceil(GAMMA * math.log(n)))) for n in N_VALUES]


def _budget_spec(process: str, backend: str) -> StudySpec:
    """E2a: stop at support ℓ', horizon = the Theorem-5 round budget."""
    thresholds = _thresholds()
    budgets = [
        max(2, int(n / (GAMMA * t))) for n, t in zip(N_VALUES, thresholds)
    ]
    return StudySpec(
        name=f"e2a-budget-{process}",
        seed=SEED,
        repetitions=REPLICAS,
        expansion="zip",
        raise_on_limit=False,
        axes={
            "process": [process],
            "n": N_VALUES,
            "stop": [f"max-support>{t}" for t in thresholds],
            "max_rounds": budgets,
            "backend": [backend],
            "rng_mode": ["batched"],
        },
    )


def _scaling_spec() -> StudySpec:
    """E2b: same thresholds, generous 50·n horizon (all runs must stop)."""
    return StudySpec(
        name="e2b-scaling-2-choices",
        seed=SEED + 1,
        repetitions=REPLICAS,
        expansion="zip",
        raise_on_limit=False,
        axes={
            "process": ["2-choices"],
            "n": N_VALUES,
            "stop": [f"max-support>{t}" for t in _thresholds()],
            "max_rounds": [50 * n for n in N_VALUES],
            "backend": ["ensemble-auto"],
            "rng_mode": ["batched"],
        },
    )


def _budget_table():
    table = Table(
        title=(
            "E2a  symmetry breaks within the Theorem-5 budget n/(γℓ')? "
            f"(γ={GAMMA:g}, start: n distinct colors)"
        ),
        columns=["n", "threshold ℓ'", "budget rounds", "2-choices broke", "3-majority broke"],
    )
    store_2c = run_study(_budget_spec("2-choices", "ensemble-auto"))
    store_3m = run_study(_budget_spec("3-majority", "ensemble-agent"))
    outcomes = []
    for rec_2c, rec_3m, threshold in zip(
        store_2c.records(), store_3m.records(), _thresholds()
    ):
        broke_2c = int(rec_2c.stopped.sum())
        broke_3m = int(rec_3m.stopped.sum())
        table.add_row(
            rec_2c.params["n"],
            threshold,
            rec_2c.params["max_rounds"],
            f"{broke_2c}/{REPLICAS}",
            f"{broke_3m}/{REPLICAS}",
        )
        outcomes.append((broke_2c, broke_3m))
    return table, outcomes


def _scaling_series():
    table = Table(
        title="E2b  2-Choices rounds until max support > 3·log n (scaling)",
        columns=["n", "mean rounds", "n/log n"],
    )
    store = run_study(_scaling_spec())
    means = []
    for record in store.records():
        assert record.stopped.all(), "raise the horizon"
        n = record.params["n"]
        mean = float(record.times.mean())
        means.append(mean)
        table.add_row(n, mean, n / math.log(n))
    fit = fit_power_law_with_log_correction(
        np.asarray(N_VALUES, dtype=float), np.asarray(means), log_exponent=-1.0
    )
    table.add_footnote(f"fit of mean·log(n)/n-shape: {fit.summary()}")
    return table, fit, means


def bench_e2_two_choices_lower(benchmark):
    (budget_table, outcomes), (scaling_table, fit, _means) = benchmark.pedantic(
        lambda: (_budget_table(), _scaling_series()), rounds=1, iterations=1
    )
    emit(budget_table)
    emit(scaling_table)

    # Theorem 5: 2-Choices essentially never breaks within the budget; the
    # 3-Majority contrast breaks essentially always.
    total_2c = sum(b for b, _ in outcomes)
    total_3m = sum(b for _, b in outcomes)
    assert total_2c <= 1, f"2-Choices broke symmetry {total_2c} times"
    assert total_3m >= len(N_VALUES) * REPLICAS - 1
    # Growth compatible with Omega(n / log n): exponent near 1 after
    # dividing out the 1/log n.
    assert fit.exponent > 0.75, fit.summary()
