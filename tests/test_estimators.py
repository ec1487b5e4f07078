"""Time-series model estimators: parameter recovery and edge cases."""
import numpy as np
import pytest

from harkit.errors import SignalTooShort
from harkit.features import fit_ar, fit_arma, fit_ma

from conftest import one


def simulate_ar(phi, n, seed):
    rng = np.random.default_rng(seed)
    burn = 200
    x = np.zeros(n + burn)
    e = rng.standard_normal(n + burn)
    p = len(phi)
    for t in range(p, n + burn):
        x[t] = np.dot(phi, x[t - p: t][::-1]) + e[t]
    return x[burn:]


def simulate_ma(theta, n, seed):
    rng = np.random.default_rng(seed)
    q = len(theta)
    e = rng.standard_normal(n + q)
    x = e[q:].copy()
    for j, th in enumerate(theta, start=1):
        x += th * e[q - j: q - j + n]
    return x


def simulate_arma(phi, theta, n, seed):
    rng = np.random.default_rng(seed)
    burn = 200
    p, q = len(phi), len(theta)
    e = rng.standard_normal(n + burn)
    x = np.zeros(n + burn)
    for t in range(max(p, q), n + burn):
        x[t] = (
            np.dot(phi, x[t - p: t][::-1])
            + e[t]
            + np.dot(theta, e[t - q: t][::-1])
        )
    return x[burn:]


class TestFitAr:
    def test_recovers_ar1(self):
        x = simulate_ar([0.6], 20000, seed=0)
        assert one(fit_ar, x, 1)[0] == pytest.approx(0.6, abs=0.03)

    def test_recovers_ar2(self):
        x = simulate_ar([0.5, -0.25], 20000, seed=1)
        np.testing.assert_allclose(one(fit_ar, x, 2), [0.5, -0.25], atol=0.03)

    def test_constant_signal_gives_zeros(self):
        np.testing.assert_array_equal(one(fit_ar, np.full(100, 2.0), 2), 0.0)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            one(fit_ar, np.ones(19), 2)

    def test_bad_order_raises(self):
        with pytest.raises(ValueError):
            one(fit_ar, np.ones(100), 0)


class TestFitMa:
    def test_recovers_ma1(self):
        x = simulate_ma([0.5], 20000, seed=2)
        assert one(fit_ma, x, 1)[0] == pytest.approx(0.5, abs=0.06)

    def test_constant_signal_gives_zeros(self):
        np.testing.assert_array_equal(one(fit_ma, np.full(100, -1.0), 1), 0.0)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            one(fit_ma, np.ones(9), 1)


class TestFitArma:
    def test_recovers_arma11(self):
        x = simulate_arma([0.5], [0.3], 20000, seed=3)
        np.testing.assert_allclose(one(fit_arma, x, 1, 1), [0.5, 0.3], atol=0.08)

    def test_short_but_allowed_signal_is_finite(self):
        # windows as short as 25 samples must produce finite coefficients
        rng = np.random.default_rng(4)
        out = one(fit_arma, rng.normal(size=25), 1, 1)
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_constant_signal_gives_zeros(self):
        np.testing.assert_array_equal(one(fit_arma, np.full(60, 5.0), 1, 1), 0.0)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            one(fit_arma, np.ones(19), 1, 1)

    def test_bad_orders_raise(self):
        with pytest.raises(ValueError):
            one(fit_arma, np.ones(100), 0, 1)
        with pytest.raises(ValueError):
            one(fit_arma, np.ones(100), 1, 0)


# One-signal loops the block estimators replaced. The block forms keep each
# signal's arithmetic in the same order, so they must agree bit for bit.

def _acf_reference(c, max_lag):
    return np.array([float(np.dot(c[: len(c) - k], c[k:])) for k in range(max_lag + 1)])


def _levinson_reference(r, order):
    phi, prev, sigma2 = np.zeros(order), np.zeros(order), r[0]
    for k in range(1, order + 1):
        acc = r[k] - float(np.dot(prev[: k - 1], r[1:k][::-1]))
        kappa = acc / sigma2 if sigma2 > 1e-12 else 0.0
        phi[: k - 1] = prev[: k - 1] - kappa * prev[: k - 1][::-1]
        phi[k - 1] = kappa
        sigma2 *= 1.0 - kappa * kappa
        prev[:k] = phi[:k]
    return phi


def fit_ar_reference(x, order):
    c = x - x.mean()
    denom = float(np.sum(c * c))
    if denom <= 1e-12 * max(1.0, float(np.sum(np.square(x)))):
        return np.zeros(order)
    return _levinson_reference(_acf_reference(c, order) / denom, order)


def fit_ma_reference(x, order):
    n = len(x)
    m = min(n - 1, max(20, 2 * order))
    gamma = _acf_reference(x - x.mean(), m) / n
    if gamma[0] <= 1e-12 * max(1.0, float(np.mean(np.square(x)))):
        return np.zeros(order)
    theta, v = np.zeros((m + 1, m + 1)), np.zeros(m + 1)
    v[0] = gamma[0]
    for i in range(1, m + 1):
        for k in range(i):
            acc = gamma[i - k]
            for j in range(k):
                acc -= theta[k, k - j] * theta[i, i - j] * v[j]
            theta[i, i - k] = acc / v[k] if v[k] > 1e-12 else 0.0
        v[i] = max(gamma[0] - float(np.dot(theta[i, 1: i + 1][::-1] ** 2, v[:i])), 1e-12)
    return theta[m, 1: order + 1].copy()


def fit_arma11_reference(x):
    n, c = len(x), x - x.mean()
    denom = float(np.sum(c * c))
    if denom <= 1e-12 * max(1.0, float(np.sum(np.square(x)))):
        return np.zeros(2)
    h = min(20, n // 4)
    phi = _levinson_reference(_acf_reference(c, h) / denom, h)
    resid = c[h:].copy()
    for j in range(1, h + 1):
        resid -= phi[j - 1] * c[h - j: n - j]
    e = np.concatenate([np.zeros(h), resid])
    design = np.column_stack([c[h: n - 1], e[h: n - 1]])
    coef, _, rank, _ = np.linalg.lstsq(design, c[h + 1:], rcond=None)
    return coef if rank == 2 else np.zeros(2)


class TestBlockEstimatorsMatchLoops:
    @pytest.mark.parametrize("fn,reference", [
        (lambda x: fit_ar(x, 2), lambda x: fit_ar_reference(x, 2)),
        (lambda x: fit_ma(x, 1), lambda x: fit_ma_reference(x, 1)),
        (lambda x: fit_ma(x, 2), lambda x: fit_ma_reference(x, 2)),
        (lambda x: fit_arma(x, 1, 1), fit_arma11_reference),
    ], ids=["ar2", "ma1", "ma2", "arma11"])
    @pytest.mark.parametrize("w", [20, 31, 75, 300])
    def test_bit_equal(self, fn, reference, w):
        rng = np.random.default_rng(w)
        block = np.cumsum(rng.normal(size=(6, w)), axis=1)
        block[1] = 2.5
        block[2] = 2.5 + 1e-12 * rng.normal(size=w)
        got = fn(block)
        for row, expect in zip(got, map(reference, block)):
            assert row.tobytes() == np.asarray(expect, dtype=float).tobytes()
