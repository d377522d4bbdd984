"""E3 — Theorem 1: the polynomial separation between 2-Choices and 3-Majority.

Paper claim: from configurations with many colors and no bias, 3-Majority
needs ``Õ(n^{3/4})`` rounds while 2-Choices needs ``Ω(n / log n)`` — a
polynomial gap, despite the two processes having *identical* expected
one-round behaviour (footnote 2, regenerated as E7).

Regenerated series: consensus time of both processes from the n-color
configuration, their ratio (growing with n), and fitted exponents.
"""

import numpy as np

from repro.analysis import fit_power_law
from repro.core import Configuration
from repro.engine import Consensus, repeat_first_passage
from repro.experiments import Table
from repro.processes import ThreeMajority, TwoChoices

from conftest import emit, env_backend

N_VALUES = [512, 1024, 2048, 4096, 8192]
REPLICAS = 3
# REPRO_BACKEND accepts any runtime-registry backend or alias; the
# default is the lock-step ensemble.
BACKEND = env_backend("ensemble-auto")


def _measure():
    rows = []
    for n in N_VALUES:
        t2c = repeat_first_passage(
            lambda: TwoChoices(),
            Configuration.singletons(n),
            Consensus(),
            REPLICAS,
            rng=n,
            max_rounds=10**7,
            backend=BACKEND,
        ).mean()
        t3m = repeat_first_passage(
            lambda: ThreeMajority(),
            Configuration.singletons(n),
            Consensus(),
            REPLICAS,
            rng=n,
            backend=BACKEND,
        ).mean()
        rows.append((n, float(t2c), float(t3m), float(t2c / t3m)))
    return rows


def bench_e3_separation(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = Table(
        title="E3  consensus time from n distinct colors: 2-Choices vs 3-Majority",
        columns=["n", "2-choices", "3-majority", "ratio"],
    )
    for row in rows:
        table.add_row(*row)
    n_arr = np.asarray([r[0] for r in rows], dtype=float)
    fit_2c = fit_power_law(n_arr, np.asarray([r[1] for r in rows]))
    fit_3m = fit_power_law(n_arr, np.asarray([r[2] for r in rows]))
    table.add_footnote(f"2-choices fit: {fit_2c.summary()}")
    table.add_footnote(f"3-majority fit: {fit_3m.summary()}")
    emit(table)

    ratios = [r[3] for r in rows]
    # The separation: ratio grows, 2-Choices near-linear, 3-Majority
    # clearly sublinear, exponent gap comfortably polynomial.
    assert ratios[-1] > 2 * ratios[0]
    assert fit_2c.exponent > 0.75, fit_2c.summary()
    assert fit_3m.exponent < 0.85, fit_3m.summary()
    assert fit_2c.exponent - fit_3m.exponent > 0.25
