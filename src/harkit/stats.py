"""Confidence intervals and paired t-tests on per-unit accuracies.

The Student-t CDF is evaluated through the regularized incomplete beta
function (Lentz continued fraction), and quantiles are obtained by bisection,
so no external statistics library or quantile table is needed. Both routines
are accurate well below 1e-6 over the degrees of freedom used here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, TooFewUnits

_MAX_ITER = 500
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    ib = _betainc(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - 0.5 * ib if t > 0 else 0.5 * ib


def t_quantile(p: float, df: float) -> float:
    """Inverse t CDF by bisection; |error| < 1e-12 in probability."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
        if lo < -1e12:
            break
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def confidence_interval(
    unit_accuracies: np.ndarray, level: float = 0.98
) -> tuple[float, float]:
    """Student-t interval for the mean: (mean, t_{1-a/2, n-1} * s / sqrt(n))."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    a = np.asarray(unit_accuracies, dtype=float)
    n = a.size
    if n < 2:
        raise TooFewUnits("need at least 2 unit accuracies")
    mean = float(a.mean())
    s = float(a.std(ddof=1))
    if s == 0.0:
        return mean, 0.0
    tq = t_quantile(1.0 - (1.0 - level) / 2.0, n - 1)
    return mean, tq * s / math.sqrt(n)


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_two_sided: float


def paired_t_test(a: np.ndarray, b: np.ndarray) -> TTestResult:
    """Classic paired t on a - b; all-zero diffs give t = 0, p = 1, and constant
    nonzero diffs (zero variance) give t = ±inf, p = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch("paired t-test needs two equal-length vectors")
    n = a.size
    if n < 2:
        raise LengthMismatch("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    s = float(d.std(ddof=1))
    if s == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0)
        return TTestResult(math.inf if mean > 0 else -math.inf, 0.0)
    t = mean / (s / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), n - 1))
    return TTestResult(t, min(max(p, 0.0), 1.0))
