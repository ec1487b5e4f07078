"""Feature primitives and the two fixed-width feature banks.

Every primitive takes an (n, w) block of signals, one per row, and returns one
row per signal: an (n,) or (n, k) array. average_resultant takes the (3, n, w)
block of n windows' x, y and z axes. The sequential estimators run their
recursions element-wise across the rows.

Bank A (width 43) = 14 per-axis slots x 3 axes + average resultant:
    mean, median, variance, std, IQR, acf lag-1, pacf lag-2,
    AR(2) coefficients (2), MA(1) coefficient, ARMA(1,1) coefficients (2),
    Haar approximation energy, Haar detail energy.

Bank B (width 70) = 23 per-axis slots x 3 axes + average resultant:
    mean, mean absolute deviation, std, average peak gap,
    10 binned-distribution fractions, min, max, range, RMS, mean energy,
    zero-crossing count about the mean, skewness (excess-free m3/m2^1.5),
    excess kurtosis, median.

Every slot has a 0 sentinel for degenerate inputs (constant signal, window
too short for a model fit). Finite windows give finite vectors unless a sum or
square overflows: samples large enough (1e200, say) give inf or nan, which
`evaluation.feature_matrices` rejects.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SignalTooShort
from .ingest import Activity
from .preprocess import Window

_EPS = 1e-12


def _block(signals) -> np.ndarray:
    """The (n, w) block of signals as floats; any other shape raises ValueError."""
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, w) block of signals, got shape {x.shape}")
    return x


def _lag_products(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_t c[t] * c[t + k] of each row, for k = 0..max_lag."""
    w = centered.shape[1]
    return np.stack(
        [np.vecdot(centered[:, : w - k], centered[:, k:]) for k in range(max_lag + 1)], axis=1)


def _sample_acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample ACF r(0..max_lag) of each row; constant rows yield all zeros."""
    centered = x - x.mean(axis=1, keepdims=True)
    denom = np.sum(centered * centered, axis=1)
    varying = denom > _EPS * np.maximum(1.0, np.sum(np.square(x), axis=1))
    return np.divide(_lag_products(centered, max_lag), denom[:, None],
                     out=np.zeros((len(x), max_lag + 1)), where=varying[:, None])


def autocorrelation(signals: np.ndarray, lag: int) -> np.ndarray:
    if lag < 0:
        raise ValueError("lag must be non-negative")
    x = _block(signals)
    if x.shape[1] < lag + 2:
        raise SignalTooShort(f"need at least {lag + 2} samples for lag {lag}")
    return _sample_acf(x, lag)[:, lag]


def _durbin_levinson(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson recursion on each row's ACF r(0..order); returns (phi, pacf per order)."""
    phi = np.zeros((len(r), order))
    pacf = np.zeros((len(r), order))
    sigma2 = r[:, 0]
    for k in range(1, order + 1):
        # a contiguous copy of r(k-1..1): np.dot copies a reversed view before
        # its BLAS dot, and vecdot matches it only on the same operands
        lagged = np.ascontiguousarray(r[:, k - 1 : 0 : -1])
        acc = r[:, k] - np.vecdot(phi[:, : k - 1], lagged)
        kappa = np.divide(acc, sigma2, out=np.zeros(len(r)), where=sigma2 > _EPS)
        pacf[:, k - 1] = kappa
        phi[:, : k - 1] -= kappa[:, None] * phi[:, : k - 1][:, ::-1]
        phi[:, k - 1] = kappa
        sigma2 = sigma2 * (1.0 - kappa * kappa)
    return phi, pacf


def partial_autocorrelation(signals: np.ndarray, lag: int) -> np.ndarray:
    if lag < 1:
        raise ValueError("lag must be positive")
    x = _block(signals)
    if x.shape[1] < lag + 2:
        raise SignalTooShort(f"need at least {lag + 2} samples for lag {lag}")
    _, pacf = _durbin_levinson(_sample_acf(x, lag), lag)
    return pacf[:, lag - 1]


def fit_ar(signals: np.ndarray, order: int) -> np.ndarray:
    """Yule-Walker AR coefficients via the Levinson recursion."""
    if order < 1:
        raise ValueError("order must be positive")
    x = _block(signals)
    if x.shape[1] < 10 * order:
        raise SignalTooShort(f"need at least {10 * order} samples for AR({order})")
    phi, _ = _durbin_levinson(_sample_acf(x, order), order)
    return phi


def fit_ma(signals: np.ndarray, order: int) -> np.ndarray:
    """Innovations-algorithm MA coefficient estimates (Brockwell & Davis, 5.2)."""
    if order < 1:
        raise ValueError("order must be positive")
    x = _block(signals)
    n, w = x.shape
    if w < 10 * order:
        raise SignalTooShort(f"need at least {10 * order} samples for MA({order})")
    m = min(w - 1, max(20, 2 * order))
    gamma = _lag_products(x - x.mean(axis=1, keepdims=True), m) / w
    varying = gamma[:, 0] > _EPS * np.maximum(1.0, np.mean(np.square(x), axis=1))
    # theta[:, i, j] holds theta_{i,i-j}; column j of all rows i > j is one step:
    # gamma(i-j) minus theta_{j,j-l} * theta_{i,i-l} * v_l, l = 0..j-1 in order.
    theta = np.zeros((n, m + 1, m + 1))
    v = np.empty((n, m + 1))
    v[:, 0] = gamma[:, 0]
    for j in range(m):
        terms = theta[:, j, None, :j] * theta[:, j + 1 :, :j] * v[:, None, :j]
        acc = np.subtract.reduce(
            np.concatenate([gamma[:, 1 : m - j + 1, None], terms], axis=2), axis=2)
        np.divide(acc, v[:, j, None], out=theta[:, j + 1 :, j], where=v[:, j, None] > _EPS)
        v[:, j + 1] = np.maximum(
            gamma[:, 0] - np.vecdot(theta[:, j + 1, : j + 1] ** 2, v[:, : j + 1]), _EPS)
    coef = theta[:, m, m - order : m][:, ::-1]  # theta_{m,1..order}
    return np.where(varying[:, None], coef, 0.0)


def fit_arma(signals: np.ndarray, p: int, q: int) -> np.ndarray:
    """Hannan-Rissanen two-stage ARMA estimate: long-AR residuals, then OLS.

    Each row gets p AR coefficients followed by q MA coefficients, or zeros when
    it is constant or its second-stage regression is rank deficient.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    x = _block(signals)
    n, w = x.shape
    if w < 10 * (p + q):
        raise SignalTooShort(f"need at least {10 * (p + q)} samples for ARMA({p},{q})")
    h = min(max(20, 2 * (p + q)), w // 4)
    r = _sample_acf(x, h)
    live = np.flatnonzero(np.any(r, axis=1))  # constant rows keep the zero sentinel
    phi_long, _ = _durbin_levinson(r[live], h)
    centered = x[live] - x[live].mean(axis=1, keepdims=True)
    resid = centered[:, h:].copy()
    for j in range(1, h + 1):
        resid -= phi_long[:, j - 1, None] * centered[:, h - j : w - j]
    e = np.concatenate([np.zeros((len(live), h)), resid], axis=1)

    start = h + max(p, q)
    design = np.stack([centered[:, start - j : w - j] for j in range(1, p + 1)]
                      + [e[:, start - j : w - j] for j in range(1, q + 1)], axis=2)
    rcond = np.finfo(float).eps * max(w - start, p + q)
    # np.linalg.lstsq's own gufunc over the stack: one LAPACK gelsd per row,
    # with the rcond and signature lstsq passes
    with np.errstate(invalid="raise"):
        sol, _, rank, _ = _umath_linalg.lstsq(
            design, centered[:, start:, None], rcond, signature="ddd->ddid")
    deficient = rank < p + q
    coef = np.zeros((n, p + q))
    coef[live] = np.where(deficient[:, None], 0.0, sol[..., 0])
    return coef


def haar_dwt_energies(signals: np.ndarray) -> np.ndarray:
    """One-level orthonormal Haar band energies (mean squared coefficient):
    approximation, then detail."""
    x = _block(signals)
    if x.shape[1] < 2:
        raise SignalTooShort("need at least 2 samples for the Haar transform")
    n = x.shape[1] - (x.shape[1] % 2)
    a = x[:, :n:2]
    b = x[:, 1:n:2]
    approx = (a + b) / np.sqrt(2.0)
    detail = (a - b) / np.sqrt(2.0)
    return np.column_stack([np.mean(approx**2, axis=1), np.mean(detail**2, axis=1)])


def binned_distribution(signals: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Fraction of samples per equal-width bin spanning [min, max]."""
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    x = _block(signals)
    if x.shape[1] == 0:
        raise ValueError("signals must be non-empty")
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    span = np.where(hi > lo, hi - lo, 1.0)  # a constant row falls wholly in bin 0
    idx = np.floor((x - lo) / span * n_bins).astype(int)
    idx = np.clip(idx, 0, n_bins - 1)  # max value lands in the last bin
    counts = np.sum(idx[:, :, None] == np.arange(n_bins), axis=1)
    return counts / x.shape[1]


def peak_interval_stats(signals: np.ndarray) -> np.ndarray:
    """Mean gap in samples between consecutive strict local maxima; <2 peaks -> 0."""
    x = _block(signals)
    if x.shape[1] < 3:
        raise SignalTooShort("need at least 3 samples to find peaks")
    peaks = (x[:, 1:-1] > x[:, :-2]) & (x[:, 1:-1] > x[:, 2:])
    count = peaks.sum(axis=1)
    # the gaps between consecutive peaks add up to the last peak minus the first
    span = peaks.shape[1] - 1 - peaks[:, ::-1].argmax(axis=1) - peaks.argmax(axis=1)
    return np.divide(span, count - 1, out=np.zeros(len(x)), where=count >= 2)


def average_resultant(xyz: np.ndarray) -> np.ndarray:
    """Mean length of the (x, y, z) sample vectors of each window of a (3, n, w) block."""
    xyz = np.asarray(xyz, dtype=float)
    if xyz.ndim != 3 or len(xyz) != 3 or xyz.shape[2] == 0:
        raise ValueError(
            f"expected a (3, n, w) block of axis signals, w > 0, got shape {xyz.shape}")
    x, y, z = xyz
    return np.mean(np.sqrt(x**2 + y**2 + z**2), axis=1)


class Bank(Enum):
    A43 = "a"
    B70 = "b"


BANK_WIDTH = {Bank.A43: 43, Bank.B70: 70}

_AXES = ("x", "y", "z")

_BANK_A_AXIS_SLOTS = [
    "mean", "median", "variance", "std", "iqr",
    "acf_lag1", "pacf_lag2",
    "ar2_c1", "ar2_c2", "ma1_c1", "arma11_ar", "arma11_ma",
    "haar_approx_energy", "haar_detail_energy",
]
_BANK_B_AXIS_SLOTS = (
    ["mean", "mean_abs_dev", "std", "avg_peak_gap"]
    + [f"bin{i}" for i in range(10)]
    + ["min", "max", "range", "rms", "energy",
       "zero_crossings", "skewness", "kurtosis", "median"]
)

BANK_A_LAYOUT: tuple[tuple[str, str], ...] = tuple(
    (name, axis) for axis in _AXES for name in _BANK_A_AXIS_SLOTS
) + (("avg_resultant", "xyz"),)
BANK_B_LAYOUT: tuple[tuple[str, str], ...] = tuple(
    (name, axis) for axis in _AXES for name in _BANK_B_AXIS_SLOTS
) + (("avg_resultant", "xyz"),)

assert len(BANK_A_LAYOUT) == 43
assert len(BANK_B_LAYOUT) == 70


@dataclass(frozen=True)
class FeatureVector:
    bank: Bank
    values: np.ndarray
    activity: Activity
    subject_id: str
    window: int  # samples per window the values were computed from

    def __post_init__(self):
        if len(self.values) != BANK_WIDTH[self.bank]:
            raise ValueError(
                f"bank {self.bank.name} expects width {BANK_WIDTH[self.bank]}, "
                f"got {len(self.values)}"
            )


def _zero_on_short(fn, block: np.ndarray, *args, width: int = 1):
    """fn over the block, or its 0 sentinel when the block's width is too short for fn."""
    try:
        return fn(block, *args)
    except SignalTooShort:
        return np.zeros((len(block), width))


def _float_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent with Python floats, i.e. the C library's pow, which
    NumPy's vectorised power does not match to the last bit on every CPU."""
    return np.array([b**exponent for b in base.tolist()], dtype=float)


def _bank_a_slots(block: np.ndarray) -> np.ndarray:
    """Bank A's 14 per-axis slots for every row of an (n, w) block."""
    q75, q25 = np.percentile(block, [75, 25], axis=1)
    return np.column_stack([
        np.mean(block, axis=1),
        np.median(block, axis=1),
        np.var(block, axis=1),
        np.std(block, axis=1),
        q75 - q25,
        _zero_on_short(autocorrelation, block, 1),
        _zero_on_short(partial_autocorrelation, block, 2),
        _zero_on_short(fit_ar, block, 2, width=2),
        _zero_on_short(fit_ma, block, 1),
        _zero_on_short(fit_arma, block, 1, 1, width=2),
        haar_dwt_energies(block),
    ])


def _bank_b_slots(block: np.ndarray) -> np.ndarray:
    """Bank B's 23 per-axis slots for every row of an (n, w) block."""
    mean = np.mean(block, axis=1)
    centered = block - mean[:, None]
    m2 = np.mean(centered**2, axis=1)
    # zero crossings: sign changes between consecutive non-zero samples of a row
    rows, cols = np.nonzero(centered)
    positive = centered[rows, cols] > 0
    change = (positive[1:] != positive[:-1]) & (rows[1:] == rows[:-1])
    crossings = np.bincount(rows[1:][change], minlength=len(block))
    varying = m2 > _EPS
    skew = np.divide(np.mean(centered**3, axis=1), _float_pow(m2, 1.5),
                     out=np.zeros(len(block)), where=varying)
    kurt = np.divide(np.mean(centered**4, axis=1), _float_pow(m2, 2.0),
                     out=np.full(len(block), 3.0), where=varying) - 3.0  # constant: 0
    return np.column_stack([
        mean,
        np.mean(np.abs(centered), axis=1),
        np.sqrt(m2),
        _zero_on_short(peak_interval_stats, block),
        binned_distribution(block, 10),
        block.min(axis=1),
        block.max(axis=1),
        np.ptp(block, axis=1),
        np.sqrt(np.mean(block**2, axis=1)),
        np.mean(block**2, axis=1),
        crossings,
        skew,
        kurt,
        np.median(block, axis=1),
    ])


def bank_matrix(bank: Bank, xyz: np.ndarray) -> np.ndarray:
    """The bank's values of n windows whose axes form one (3, n, w) array: (n, width).

    Every slot is computed once, over the (3n, w) block of all axis signals.
    """
    xyz = np.asarray(xyz, dtype=float)
    _, n, w = xyz.shape
    slots = (_bank_a_slots if bank is Bank.A43 else _bank_b_slots)(xyz.reshape(3 * n, w))
    return np.column_stack([*np.split(slots, 3), average_resultant(xyz)])


def extract_bank_a(w: Window) -> FeatureVector:
    values = bank_matrix(Bank.A43, np.stack([w.x, w.y, w.z])[:, None])[0]
    return FeatureVector(Bank.A43, values, w.activity, w.subject_id, len(w.x))


def extract_bank_b(w: Window) -> FeatureVector:
    values = bank_matrix(Bank.B70, np.stack([w.x, w.y, w.z])[:, None])[0]
    return FeatureVector(Bank.B70, values, w.activity, w.subject_id, len(w.x))


def feature_matrix(
    vectors: list[FeatureVector],
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack FeatureVectors into (X, y class codes, subject ids)."""
    X = np.vstack([fv.values for fv in vectors])
    y = np.array([fv.activity.value for fv in vectors], dtype=int)
    subjects = [fv.subject_id for fv in vectors]
    return X, y, subjects
