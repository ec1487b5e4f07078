"""Filtering, windowing, and normalization behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from harkit.errors import EmptySignal, EmptyTrainingSet, SchemaError, WidthMismatch
from harkit.ingest import Activity, Recording, SensorKind, samples_from_columns
from harkit.preprocess import (
    Normalizer,
    Window,
    apply_normalizer,
    filter_recording,
    fit_normalizer,
    moving_average_filter,
    segment_windows,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def make_recording(n, subject="s0"):
    rng = np.random.default_rng(7)
    xyz = rng.normal(size=(n, 3))
    return Recording(
        subject_id=subject,
        activity=Activity.Walking,
        sensor=SensorKind.Accelerometer,
        samples=samples_from_columns(np.arange(n) * 50, *xyz.T),
    )


class TestMovingAverage:
    @given(arrays(np.float64, st.integers(1, 60), elements=finite_floats),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, signal, order):
        out = moving_average_filter(signal, order)
        expect = [np.mean(signal[max(0, i - order + 1): i + 1]) for i in range(len(signal))]
        np.testing.assert_allclose(out, expect, rtol=1e-9, atol=1e-8)

    def test_order_one_is_identity(self):
        sig = np.array([3.0, -1.0, 4.0])
        np.testing.assert_array_equal(moving_average_filter(sig, 1), sig)

    def test_prefix_ramp(self):
        out = moving_average_filter(np.array([2.0, 4.0, 6.0, 8.0]), 3)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0, 6.0])

    def test_empty_raises(self):
        with pytest.raises(EmptySignal):
            moving_average_filter(np.array([]), 3)

    def test_bad_order_raises(self):
        with pytest.raises(ValueError):
            moving_average_filter(np.array([1.0]), 0)


class TestFilterRecording:
    def test_keeps_metadata_and_timestamps(self):
        rec = make_recording(10)
        out = filter_recording(rec, 3)
        assert out.subject_id == rec.subject_id
        assert out.activity is rec.activity
        assert out.sensor is rec.sensor
        assert [s.t_ms for s in out.samples] == [s.t_ms for s in rec.samples]

    def test_filters_each_axis(self):
        rec = make_recording(10)
        out = filter_recording(rec, 3)
        for axis in range(3):
            raw = np.array([getattr(s, "xyz"[axis]) for s in rec.samples])
            got = np.array([getattr(s, "xyz"[axis]) for s in out.samples])
            np.testing.assert_allclose(got, moving_average_filter(raw, 3))


class TestWindow:
    def test_rejects_mismatched_axes(self):
        with pytest.raises(WidthMismatch):
            Window("s0", Activity.Walking, SensorKind.Accelerometer,
                   np.zeros(5), np.zeros(5), np.zeros(4))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            Window("s0", Activity.Walking, SensorKind.Accelerometer,
                   np.zeros(3), np.zeros(3), np.zeros(3))


class TestSegmentWindows:
    @pytest.mark.parametrize("n,w,expected", [(100, 25, 4), (99, 25, 3), (24, 25, 0),
                                              (12000, 300, 40)])
    def test_counts(self, n, w, expected):
        assert len(segment_windows(make_recording(n), w)) == expected

    def test_contents_are_consecutive_blocks(self):
        rec = make_recording(50)
        x, _, _ = rec.axes()
        wins = segment_windows(rec, 10)
        for i, win in enumerate(wins):
            np.testing.assert_array_equal(win.x, x[i * 10:(i + 1) * 10])
            assert win.subject_id == rec.subject_id
            assert win.activity is rec.activity

    def test_too_small_window_raises(self):
        with pytest.raises(ValueError):
            segment_windows(make_recording(50), 3)


class TestNormalizer:
    def test_train_stats(self, rng):
        X = rng.normal(size=(40, 6)) * 3.0 + 2.0
        norm = fit_normalizer(X)
        np.testing.assert_allclose(norm.mean, X.mean(axis=0))
        np.testing.assert_allclose(norm.std, X.std(axis=0))
        Z = apply_normalizer(norm, X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_test_rows_use_train_stats(self, rng):
        Xtr = rng.normal(size=(30, 4))
        Xte = rng.normal(size=(10, 4)) + 100.0
        norm = fit_normalizer(Xtr)
        Z = apply_normalizer(norm, Xte)
        np.testing.assert_allclose(Z, (Xte - Xtr.mean(axis=0)) / Xtr.std(axis=0))

    def test_zero_variance_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        Z = apply_normalizer(fit_normalizer(X), X)
        np.testing.assert_array_equal(Z[:, 1], 0.0)
        assert np.all(np.isfinite(Z))

    def test_width_mismatch_raises(self):
        norm = Normalizer(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(WidthMismatch):
            apply_normalizer(norm, np.zeros((2, 4)))

    def test_empty_raises(self):
        with pytest.raises(EmptyTrainingSet):
            fit_normalizer(np.zeros((0, 3)))

    @pytest.mark.parametrize("column", [[1e308, 1e308, 1e308], [1e308, -1e308, 1e308]],
                             ids=["mean", "std"])
    def test_overflowing_column_is_named(self, column):
        X = np.ones((3, 4))
        X[:, 2] = column
        with pytest.raises(SchemaError, match="^feature column 2 is too large to normalize: "
                                              "its mean or standard deviation overflows$"):
            fit_normalizer(X)

    def test_overflowing_z_score_is_named(self):
        """Training statistics that are finite still overflow on a test row far outside them."""
        norm = fit_normalizer(np.array([[0.0, 0.0], [2e-150, 1.0]]))  # std 1e-150
        with pytest.raises(SchemaError, match="^feature column 0 is too large to normalize: "
                                              "its z-score overflows$"):
            apply_normalizer(norm, np.array([[0.5, 0.5], [1e200, 0.5]]))
