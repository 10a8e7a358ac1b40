"""Statistical helpers used by the evaluation.

Thin, explicit wrappers so every test and bench computes moments the
same way the paper describes (kurtosis for Figure 3's fat tails, the
paired t-test for the 2023/2024 comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return float(np.mean(values))


def std(values: list[float]) -> float:
    """Population standard deviation (matching the paper's Figure 2 text)."""
    if not values:
        raise ValueError("std of empty sequence")
    return float(np.std(values))


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    return float(np.median(values))


def excess_kurtosis(values: list[float]) -> float:
    """Fisher (excess) kurtosis: 0 for a normal distribution.

    The paper reports kurtosis 8.4 / 6.8 for the timedelta distributions
    and reads them as fat-tailed; any value well above 0 carries the
    same interpretation.

    Computed as ``scipy.stats.kurtosis(values, bias=False)`` does (the
    bias-corrected Fisher estimator), without importing ``scipy.stats``
    at CLI start-up; near-constant input gives ``nan`` as it does there.
    """
    if len(values) < 4:
        raise ValueError("kurtosis needs at least 4 samples")
    samples = np.asarray(values, dtype=np.float64)
    n = len(samples)
    center = samples.mean()
    squared = (samples - center) ** 2
    m2 = squared.mean()
    m4 = (squared**2).mean()
    if m2 <= (np.finfo(np.float64).eps * center) ** 2:
        return math.nan
    # scipy's operation order, down to the +3 / -3 round trip, so the
    # two agree to the last bit.
    kurtosis = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1) ** 2.0)
    return float(kurtosis + 3.0 - 3)


@dataclass(frozen=True)
class PairedTTestResult:
    t_statistic: float
    p_value: float
    mean_difference: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def paired_t_test(series_a: list[float], series_b: list[float]) -> PairedTTestResult:
    """Two-sided paired t-test (scipy ``ttest_rel``)."""
    # Imported here: scipy.stats costs about a second of start-up, and
    # only the Figure 2 comparison needs it.
    from scipy import stats as scipy_stats

    if len(series_a) != len(series_b):
        raise ValueError("paired t-test requires equal-length series")
    result = scipy_stats.ttest_rel(series_a, series_b)
    differences = [a - b for a, b in zip(series_a, series_b)]
    return PairedTTestResult(
        t_statistic=float(result.statistic),
        p_value=float(result.pvalue),
        mean_difference=float(np.mean(differences)),
    )


def rank_paired_t_test(series_a: list[float], series_b: list[float]) -> PairedTTestResult:
    """Paired t-test after sorting both series descending.

    The paper pairs the ten 2023 months with the ten 2024 months but does
    not state the pairing; pairing by within-year volume rank compares
    the month-volume *distributions* and is the variant we report (see
    EXPERIMENTS.md for the discussion).
    """
    return paired_t_test(sorted(series_a, reverse=True), sorted(series_b, reverse=True))


def histogram_days(values_hours: list[float], max_days: int = 90) -> list[int]:
    """Counts per whole day for values under ``max_days`` (Figure 3)."""
    counts = [0] * max_days
    for value in values_hours:
        day = int(value // 24)
        if 0 <= day < max_days:
            counts[day] += 1
    return counts


def fraction(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else math.nan
