"""Student-t machinery against scipy oracles, plus degenerate-case rules."""
import math

import numpy as np
import pytest
from scipy import stats as sps

from harkit.errors import LengthMismatch, TooFewUnits
from harkit.stats import (
    TTestResult,
    confidence_interval,
    paired_t_test,
    t_cdf,
    t_quantile,
)


class TestTCdf:
    @pytest.mark.parametrize("df", [1, 2, 5, 9, 30, 100])
    @pytest.mark.parametrize("t", [-5.0, -1.3, 0.0, 0.7, 2.5, 8.0])
    def test_matches_scipy(self, t, df):
        assert t_cdf(t, df) == pytest.approx(sps.t.cdf(t, df), abs=1e-12)

    def test_symmetry(self):
        assert t_cdf(1.7, 6) + t_cdf(-1.7, 6) == pytest.approx(1.0, abs=1e-14)

    def test_bad_df_raises(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)


class TestTQuantile:
    @pytest.mark.parametrize("df", [1, 4, 9, 25])
    @pytest.mark.parametrize("p", [0.01, 0.2, 0.5, 0.9, 0.99, 0.995])
    def test_matches_scipy(self, p, df):
        assert t_quantile(p, df) == pytest.approx(sps.t.ppf(p, df), abs=1e-8)

    def test_heavy_tail_table_value(self):
        # df=1, 99th percentile: the classic 31.82 table entry
        assert t_quantile(0.99, 1) == pytest.approx(31.8205, abs=1e-3)

    def test_bad_p_raises(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            t_quantile(1.0, 5)


class TestConfidenceInterval:
    def test_matches_scipy_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 15))
            acc = rng.uniform(0.5, 1.0, n)
            mean, half = confidence_interval(acc, level=0.98)
            assert mean == pytest.approx(acc.mean())
            expect = sps.t.ppf(0.99, n - 1) * acc.std(ddof=1) / math.sqrt(n)
            assert half == pytest.approx(expect, abs=1e-9)

    def test_constant_input_has_zero_halfwidth(self):
        mean, half = confidence_interval(np.full(6, 0.9))
        assert mean == 0.9 and half == 0.0

    def test_needs_two_units(self):
        with pytest.raises(TooFewUnits):
            confidence_interval(np.array([0.5]))

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            confidence_interval(np.array([0.5, 0.6]), level=1.0)


class TestPairedTTest:
    def test_matches_scipy_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 20))
            a = rng.uniform(0, 1, n)
            b = a + rng.normal(0, 0.1, n)
            res = paired_t_test(a, b)
            expect = sps.ttest_rel(a, b)
            assert res.t_stat == pytest.approx(expect.statistic, abs=1e-9)
            assert res.p_two_sided == pytest.approx(expect.pvalue, abs=1e-9)
            assert math.isfinite(res.t_stat)

    def test_identical_vectors(self):
        a = np.array([0.9, 0.8, 0.85])
        res = paired_t_test(a, a.copy())
        assert (res.t_stat, res.p_two_sided) == (0.0, 1.0)
        assert math.isfinite(res.t_stat)

    def test_constant_nonzero_difference_is_degenerate(self):
        # use exactly representable values so the differences are truly constant
        a = np.array([1.0, 0.75, 0.5])
        b = a - 0.25
        res = paired_t_test(a, b)
        assert res.t_stat == math.inf
        assert res.p_two_sided == 0.0
        res2 = paired_t_test(b, a)
        assert res2.t_stat == -math.inf

    def test_result_unpacks_as_pair(self):
        res = paired_t_test(np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.0, 2.1]))
        t, p = res.t_stat, res.p_two_sided
        assert isinstance(t, float) and isinstance(p, float)
        assert TTestResult(t, p) == TTestResult(t, p)

    def test_shape_errors(self):
        with pytest.raises(LengthMismatch):
            paired_t_test(np.zeros(3), np.zeros(4))
        with pytest.raises(LengthMismatch):
            paired_t_test(np.zeros(1), np.zeros(1))
