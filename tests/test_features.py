"""Feature primitives against brute-force oracles, plus bank invariants."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from harkit.errors import SignalTooShort
from harkit.features import (
    BANK_A_LAYOUT,
    BANK_B_LAYOUT,
    BANK_WIDTH,
    Bank,
    FeatureVector,
    autocorrelation,
    bank_matrix,
    average_resultant,
    binned_distribution,
    extract_bank_a,
    extract_bank_b,
    feature_matrix,
    fit_ar,
    fit_arma,
    fit_ma,
    haar_dwt_energies,
    partial_autocorrelation,
    peak_interval_stats,
)
from harkit.ingest import Activity, SensorKind
from harkit.preprocess import Window

from conftest import one

signal_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def is_degenerate(signal):
    """Near-constant inputs take the all-zero convention."""
    c = signal - signal.mean()
    return np.sum(c * c) <= 1e-12 * max(1.0, float(np.sum(signal**2)))


def acf_oracle(signal, lag):
    """Biased sample autocorrelation straight from the definition."""
    c = signal - signal.mean()
    denom = np.sum(c * c)
    if denom == 0:
        return 0.0
    return float(np.sum(c[: len(c) - lag] * c[lag:]) / denom)


def pacf_oracle(signal, lag):
    """Last coefficient of the order-`lag` Yule-Walker system."""
    r = np.array([acf_oracle(signal, k) for k in range(lag + 1)])
    if not np.any(r):
        return 0.0
    R = np.array([[r[abs(i - j)] for j in range(lag)] for i in range(lag)])
    phi = np.linalg.solve(R, r[1: lag + 1])
    return float(phi[-1])


def make_window(x, y=None, z=None):
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    z = x if z is None else np.asarray(z, dtype=float)
    return Window("s0", Activity.Walking, SensorKind.Accelerometer, x, y, z)


class TestAutocorrelation:
    @given(arrays(np.float64, st.integers(4, 128), elements=signal_values),
           st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_matches_definition(self, signal, lag):
        got = one(autocorrelation, signal, lag)
        expect = 0.0 if is_degenerate(signal) else acf_oracle(signal, lag)
        assert got == pytest.approx(expect, abs=1e-9)

    def test_constant_signal_is_zero(self):
        assert one(autocorrelation, np.full(32, 4.2), 1) == 0.0

    def test_lag_zero_of_varying_signal_is_one(self):
        assert one(autocorrelation, np.array([1.0, 2.0, 0.5, 3.0]), 0) == pytest.approx(1.0)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            one(autocorrelation, np.array([1.0, 2.0]), 1)

    def test_negative_lag_raises(self):
        with pytest.raises(ValueError):
            one(autocorrelation, np.ones(10), -1)


class TestPartialAutocorrelation:
    @given(arrays(np.float64, st.integers(8, 128), elements=signal_values),
           st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_yule_walker_solve(self, signal, lag):
        if is_degenerate(signal):
            assert one(partial_autocorrelation, signal, lag) == 0.0
            return
        r1 = np.array([acf_oracle(signal, k) for k in range(lag + 1)])
        R = np.array([[r1[abs(i - j)] for j in range(lag)] for i in range(lag)])
        if abs(np.linalg.det(R)) < 1e-8:  # oracle itself ill-conditioned
            return
        got = one(partial_autocorrelation, signal, lag)
        assert got == pytest.approx(pacf_oracle(signal, lag), abs=1e-6)

    def test_lag_one_equals_acf_lag_one(self):
        sig = np.random.default_rng(3).normal(size=200)
        assert one(partial_autocorrelation, sig, 1) == pytest.approx(
            one(autocorrelation, sig, 1), abs=1e-12
        )

    def test_white_noise_pacf2_near_zero(self):
        sig = np.random.default_rng(0).normal(size=20000)
        assert abs(one(partial_autocorrelation, sig, 2)) < 0.05

    def test_bad_lag_raises(self):
        with pytest.raises(ValueError):
            one(partial_autocorrelation, np.ones(10), 0)


class TestHaarEnergies:
    def test_matches_pairwise_definition(self, rng):
        sig = rng.normal(size=64)
        a, d = one(haar_dwt_energies, sig)
        pairs = sig.reshape(-1, 2)
        approx = (pairs[:, 0] + pairs[:, 1]) / np.sqrt(2)
        detail = (pairs[:, 0] - pairs[:, 1]) / np.sqrt(2)
        assert a == pytest.approx(np.mean(approx**2))
        assert d == pytest.approx(np.mean(detail**2))

    def test_odd_length_drops_last_sample(self):
        sig = np.array([1.0, 3.0, 99.0])
        a, d = one(haar_dwt_energies, sig)
        assert a == pytest.approx((4.0 / np.sqrt(2)) ** 2)
        assert d == pytest.approx((2.0 / np.sqrt(2)) ** 2)

    def test_energy_conservation(self, rng):
        # orthonormality: per-pair energies sum to the pair's sample energy,
        # and the band means average over n/2 pairs instead of n samples
        sig = rng.normal(size=50)
        a, d = one(haar_dwt_energies, sig)
        assert a + d == pytest.approx(2.0 * np.mean(sig**2))

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            one(haar_dwt_energies, np.array([1.0]))


class TestBinnedDistribution:
    @given(arrays(np.float64, st.integers(1, 200), elements=signal_values))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, signal):
        bins = one(binned_distribution, signal, 10)
        assert bins.sum() == pytest.approx(1.0)
        lo, hi = signal.min(), signal.max()
        if hi == lo:
            expect = np.zeros(10)
            expect[0] = 1.0
        else:
            edges = lo + (hi - lo) * np.arange(11) / 10
            expect = np.zeros(10)
            for v in signal:
                b = int(np.floor((v - lo) / (hi - lo) * 10))
                expect[min(b, 9)] += 1
            expect /= len(signal)
        np.testing.assert_allclose(bins, expect, atol=1e-9)

    def test_max_value_falls_in_last_bin(self):
        bins = one(binned_distribution, np.array([0.0, 1.0]), 10)
        assert bins[0] == 0.5 and bins[9] == 0.5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            one(binned_distribution, np.array([1.0]), 0)
        with pytest.raises(ValueError):
            one(binned_distribution, np.array([]), 10)


class TestPeakIntervalStats:
    @given(arrays(np.float64, st.integers(3, 200), elements=signal_values))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, signal):
        peaks = [
            i for i in range(1, len(signal) - 1)
            if signal[i] > signal[i - 1] and signal[i] > signal[i + 1]
        ]
        expect = float(np.mean(np.diff(peaks))) if len(peaks) >= 2 else 0.0
        assert one(peak_interval_stats, signal) == pytest.approx(expect, abs=1e-9)

    def test_periodic_signal(self):
        t = np.arange(200)
        sig = np.sin(2 * np.pi * t / 20.0)
        assert one(peak_interval_stats, sig) == pytest.approx(20.0, abs=0.1)

    def test_monotone_has_no_peaks(self):
        assert one(peak_interval_stats, np.arange(10.0)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            one(peak_interval_stats, np.array([1.0, 2.0]))


class TestAverageResultant:
    @given(arrays(np.float64, st.integers(1, 100), elements=signal_values))
    @settings(max_examples=100, deadline=None)
    def test_matches_definition(self, x):
        rng = np.random.default_rng(0)
        y = rng.normal(size=len(x))
        z = rng.normal(size=len(x))
        got = average_resultant(np.stack([x, y, z])[:, None])[0]
        assert got == pytest.approx(np.mean(np.sqrt(x**2 + y**2 + z**2)), rel=1e-12)

    def test_length_mismatch_raises(self):
        # the axes are one (3, n, w) block, so they cannot differ in length
        for shape in [(3, 4), (2, 1, 4), (3, 1, 0)]:
            with pytest.raises(ValueError, match=r"\(3, n, w\)"):
                average_resultant(np.zeros(shape))


WIDTHS = (4, 9, 10, 19, 20, 75, 300)  # on both sides of every too-short threshold


@st.composite
def signal_blocks(draw, n_blocks=1):
    """n_blocks (n, w) blocks of one shape; rows are random, tied, constant or near-constant."""
    w = draw(st.sampled_from(WIDTHS))
    n = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_blocks * n):
        level = draw(st.floats(-1e3, 1e3))
        kind = draw(st.sampled_from(["random", "ties", "constant", "near_constant"]))
        if kind == "random":
            row = level + draw(st.floats(1e-3, 1e3)) * rng.normal(size=w)
        elif kind == "ties":
            row = rng.integers(-2, 3, size=w).astype(float)
        elif kind == "constant":
            row = np.full(w, level)
        else:
            row = level + 1e-12 * rng.normal(size=w)
        rows.append(row)
    return np.array(rows).reshape(n_blocks, n, w)


BLOCK_PRIMITIVES = [
    (autocorrelation, (0,)),
    (autocorrelation, (1,)),
    (partial_autocorrelation, (2,)),
    (fit_ar, (2,)),
    (fit_ma, (1,)),
    (fit_arma, (1, 1)),
    (haar_dwt_energies, ()),
    (binned_distribution, (10,)),
    (peak_interval_stats, ()),
]
ONE_OF_EACH = [*BLOCK_PRIMITIVES[1:], (average_resultant, ())]


def row_blocks(block):
    """The one-row blocks of a block's rows (or, for (3, n, w), of its windows)."""
    return [block[..., i : i + 1, :] for i in range(block.shape[-2])]


class TestBlockPath:
    """A primitive given an (n, w) block equals its one-row blocks, bit for bit."""

    @pytest.mark.parametrize("fn,args", BLOCK_PRIMITIVES,
                             ids=[f"{fn.__name__}{args}" for fn, args in BLOCK_PRIMITIVES])
    @given(blocks=signal_blocks())
    @settings(max_examples=60, deadline=None)
    def test_primitive_rows_equal_single_calls(self, fn, args, blocks):
        block = blocks[0]
        try:
            got = fn(block, *args)
        except SignalTooShort:
            for row in row_blocks(block):
                with pytest.raises(SignalTooShort):
                    fn(row, *args)
            return
        assert len(got) == len(block)
        if len(block):
            expect = np.concatenate([fn(row, *args) for row in row_blocks(block)])
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("fn,args", ONE_OF_EACH, ids=[fn.__name__ for fn, _ in ONE_OF_EACH])
    def test_one_signal_raises(self, fn, args):
        shape = "(3, n, w)" if fn is average_resultant else "(n, w)"
        with pytest.raises(ValueError, match=re.escape(shape)):
            fn(np.ones(300), *args)

    @pytest.mark.parametrize("w", WIDTHS)
    def test_empty_block(self, w):
        empty = np.empty((0, w))
        for fn, args in BLOCK_PRIMITIVES:
            try:
                out = fn(empty, *args)
            except SignalTooShort:
                continue
            assert len(out) == 0
        assert average_resultant(np.empty((3, 0, w))).shape == (0,)
        for bank in Bank:
            assert bank_matrix(bank, np.empty((3, 0, w))).shape == (0, BANK_WIDTH[bank])

    @given(blocks=signal_blocks(n_blocks=3))
    @settings(max_examples=60, deadline=None)
    def test_average_resultant_rows_equal_single_calls(self, blocks):
        got = average_resultant(blocks)
        expect = np.array([average_resultant(xyz)[0] for xyz in row_blocks(blocks)])
        assert got.shape == (blocks.shape[1],) and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("bank,extract", [(Bank.A43, extract_bank_a), (Bank.B70, extract_bank_b)])
    @given(xyz=signal_blocks(n_blocks=3))
    @settings(max_examples=40, deadline=None)
    def test_bank_rows_equal_per_window_extraction(self, bank, extract, xyz):
        got = bank_matrix(bank, xyz)
        assert got.shape == (xyz.shape[1], BANK_WIDTH[bank])
        for i in range(xyz.shape[1]):
            fv = extract(make_window(*xyz[:, i]))
            assert got[i].tobytes() == fv.values.tobytes()


class TestBanks:
    def test_layout_sizes(self):
        assert len(BANK_A_LAYOUT) == BANK_WIDTH[Bank.A43] == 43
        assert len(BANK_B_LAYOUT) == BANK_WIDTH[Bank.B70] == 70

    @pytest.mark.parametrize("extract,width", [(extract_bank_a, 43), (extract_bank_b, 70)])
    def test_width_and_finiteness(self, extract, width, rng):
        w = make_window(rng.normal(size=75), rng.normal(size=75), rng.normal(size=75))
        fv = extract(w)
        assert len(fv.values) == width
        assert np.all(np.isfinite(fv.values))
        assert fv.subject_id == "s0"
        assert fv.activity is Activity.Walking

    @pytest.mark.parametrize("extract", [extract_bank_a, extract_bank_b])
    def test_constant_window_is_finite(self, extract):
        fv = extract(make_window(np.full(25, 3.0)))
        assert np.all(np.isfinite(fv.values))

    def test_minimal_window_uses_sentinels(self):
        # 4 samples: all model-fit slots (ar/ma/arma, pacf) fall back to 0
        fv = extract_bank_a(make_window(np.array([1.0, 5.0, 2.0, 4.0])))
        by_slot = dict(zip(BANK_A_LAYOUT, fv.values))
        for slot in ("ar2_c1", "ar2_c2", "ma1_c1", "arma11_ar", "arma11_ma"):
            assert by_slot[(slot, "x")] == 0.0
        assert np.all(np.isfinite(fv.values))

    def test_bank_b_simple_slot_values(self):
        sig = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fv = extract_bank_b(make_window(sig))
        by_slot = dict(zip(BANK_B_LAYOUT, fv.values))
        assert by_slot[("mean", "x")] == pytest.approx(3.0)
        assert by_slot[("min", "x")] == 1.0
        assert by_slot[("max", "x")] == 5.0
        assert by_slot[("range", "x")] == 4.0
        assert by_slot[("median", "x")] == 3.0
        assert by_slot[("rms", "x")] == pytest.approx(np.sqrt(np.mean(sig**2)))
        assert by_slot[("energy", "x")] == pytest.approx(np.mean(sig**2))
        assert by_slot[("avg_resultant", "xyz")] == pytest.approx(
            np.mean(np.sqrt(3 * sig**2))
        )

    def test_bank_b_moments_equal_scalar_formula(self, rng):
        # m2 ** 1.5 and m2 ** 2 as Python floats take them, bit for bit
        xyz = rng.normal(size=(3, 200, 75)) * rng.uniform(0.1, 10.0, size=(3, 200, 1))
        X = bank_matrix(Bank.B70, xyz)
        for axis, block in zip("xyz", xyz):
            skew = X[:, BANK_B_LAYOUT.index(("skewness", axis))]
            kurt = X[:, BANK_B_LAYOUT.index(("kurtosis", axis))]
            for sig, s, k in zip(block, skew, kurt):
                c = sig - float(np.mean(sig))
                m2 = float(np.mean(c**2))
                assert s == float(np.mean(c**3) / m2**1.5)
                assert k == float(np.mean(c**4) / m2**2 - 3.0)

    def test_feature_vector_width_validated(self):
        with pytest.raises(ValueError):
            FeatureVector(Bank.A43, np.zeros(10), Activity.Walking, "s0", 75)


class TestFeatureMatrix:
    def test_stacking(self, rng):
        vecs = [
            FeatureVector(Bank.B70, rng.normal(size=70), Activity(i % 5), f"s{i % 2}", 75)
            for i in range(8)
        ]
        X, y, subjects = feature_matrix(vecs)
        assert X.shape == (8, 70)
        assert list(y) == [i % 5 for i in range(8)]
        assert subjects == [f"s{i % 2}" for i in range(8)]
