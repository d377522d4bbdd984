"""Statistical estimators for the experiment harness.

Asymptotic statements (``O(n^{3/4})``, ``Ω(n / log n)``) are validated by
fitting growth exponents on geometric sweeps of ``n`` and comparing the
fitted exponent against the theorem's.  This module provides the log-log
regression, confidence intervals, and the one-sided dominance tests used
by the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_power_law_with_log_correction",
    "mean_confidence_interval",
    "mann_whitney_less",
]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y ≈ a · x^b`` on log-log scale."""

    exponent: float
    prefactor: float
    exponent_stderr: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.prefactor * x**self.exponent

    def exponent_ci95(self) -> "tuple[float, float]":
        half = 1.96 * self.exponent_stderr
        return (self.exponent - half, self.exponent + half)

    def summary(self) -> str:
        lo, hi = self.exponent_ci95()
        return (
            f"y ≈ {self.prefactor:.3g} · x^{self.exponent:.3f} "
            f"(95% CI [{lo:.3f}, {hi:.3f}], R²={self.r_squared:.4f})"
        )


def fit_power_law(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Fit ``y = a x^b`` by ordinary least squares in log-log coordinates.

    ``scipy.stats.linregress`` on the logs, in closed form over centred
    sums so that the study path never imports scipy: ``b = Sxy / Sxx``,
    ``r = Sxy / √(Sxx·Syy)``, and the slope's standard error from the
    residuals, ``√(SSE / (m − 2) / Sxx)``.  A constant ``y`` fits
    ``b = 0`` with ``r²`` and the standard error undefined (NaN), as
    linregress has it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least three aligned (x, y) points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fitting requires positive data")
    log_x = np.log(x)
    log_y = np.log(y)
    if np.ptp(log_x) == 0:
        raise ValueError("power-law fitting needs at least two distinct x values")
    if np.ptp(log_y) == 0:
        return PowerLawFit(
            exponent=0.0,
            prefactor=float(y[0]),
            exponent_stderr=math.nan,
            r_squared=math.nan,
        )
    mean_x = float(log_x.mean())
    mean_y = float(log_y.mean())
    dx = log_x - mean_x
    dy = log_y - mean_y
    sxx = float(dx @ dx)
    sxy = float(dx @ dy)
    slope = sxy / sxx
    r = sxy / math.sqrt(sxx * float(dy @ dy))
    sse = float(np.sum((dy - slope * dx) ** 2))
    return PowerLawFit(
        exponent=slope,
        prefactor=math.exp(mean_y - slope * mean_x),
        exponent_stderr=math.sqrt(sse / (x.size - 2) / sxx),
        r_squared=min(r * r, 1.0),
    )


def fit_power_law_with_log_correction(
    x: np.ndarray, y: np.ndarray, log_exponent: float
) -> PowerLawFit:
    """Fit ``y = a · x^b · (log x)^{log_exponent}`` by dividing out the log.

    The paper's bounds carry polylog factors (``log^{7/8} n`` in Theorem 4,
    ``1/log n`` in Theorem 5); dividing them out before the log-log fit
    gives a cleaner estimate of the polynomial exponent ``b``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    corrected = y / np.log(x) ** log_exponent
    return fit_power_law(x, corrected)


def mean_confidence_interval(samples: np.ndarray, confidence: float = 0.95) -> "tuple[float, float, float]":
    """``(mean, lo, hi)`` with a Student-t interval."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples for an interval")
    from scipy import stats

    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    half = float(stats.t.ppf((1 + confidence) / 2, arr.size - 1)) * sem
    return mean, mean - half, mean + half


def mann_whitney_less(fast: np.ndarray, slow: np.ndarray) -> float:
    """One-sided Mann-Whitney U p-value for ``fast <_st slow``.

    Small p-values support the hypothesis that the ``fast`` sample is
    stochastically smaller — the empirical form of Theorem 2's conclusion.
    """
    from scipy import stats

    result = stats.mannwhitneyu(fast, slow, alternative="less")
    return float(result.pvalue)
