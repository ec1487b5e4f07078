"""Filtering, windowing, and normalization."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySignal, EmptyTrainingSet, SchemaError, WidthMismatch
from .ingest import Activity, Recording, SensorKind, samples_from_columns

MIN_WINDOW = 4  # samples; the fewest a window may hold


@dataclass(frozen=True)
class Window:
    subject_id: str
    activity: Activity
    sensor: SensorKind
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise WidthMismatch("axis lengths differ")
        if len(self.x) < MIN_WINDOW:
            raise ValueError(f"window must hold at least {MIN_WINDOW} samples")


def moving_average_filter(signal: np.ndarray, order: int = 3) -> np.ndarray:
    """Causal moving average; the first order-1 outputs average a shorter prefix."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise EmptySignal("cannot filter an empty signal")
    if order < 1:
        raise ValueError("order must be >= 1")
    csum = np.concatenate(([0.0], np.cumsum(signal)))
    idx = np.arange(signal.size)
    lo = np.maximum(0, idx - order + 1)
    return (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)


def filter_recording(rec: Recording, order: int = 3) -> Recording:
    """Apply the moving-average filter to each axis, keeping timestamps."""
    fx, fy, fz = (moving_average_filter(a, order) for a in rec.axes())
    return replace(rec, samples=samples_from_columns(rec.samples.t_ms, fx, fy, fz))


def window_block(rec: Recording, samples_per_window: int) -> np.ndarray:
    """The x, y and z axes cut into non-overlapping, in-order windows: one
    C-contiguous (3, n_windows, w) array; the trailing partial window is dropped."""
    if samples_per_window < MIN_WINDOW:
        raise ValueError(f"samples_per_window must be >= {MIN_WINDOW}")
    n = len(rec.samples) // samples_per_window
    return np.stack([a[: n * samples_per_window] for a in rec.axes()]).reshape(
        3, n, samples_per_window)


def segment_windows(rec: Recording, samples_per_window: int) -> list[Window]:
    """One Window per window of window_block; its axes are rows of that block."""
    return [
        Window(subject_id=rec.subject_id, activity=rec.activity, sensor=rec.sensor,
               x=x, y=y, z=z)
        for x, y, z in zip(*window_block(rec, samples_per_window))
    ]


@dataclass(frozen=True)
class Normalizer:
    mean: np.ndarray
    std: np.ndarray


def _overflow(what: str, finite: np.ndarray) -> None:
    """SchemaError naming the first feature column that is not all `finite`."""
    bad = np.flatnonzero(~finite.reshape(-1, finite.shape[-1]).all(axis=0))
    if bad.size:
        raise SchemaError(f"feature column {bad[0]} is too large to normalize: {what} "
                          "overflows")


def fit_normalizer(train_features: np.ndarray) -> Normalizer:
    """Column means and population stds, computed on the training split only;
    SchemaError names a column whose mean or std overflows."""
    train_features = np.asarray(train_features, dtype=float)
    if train_features.ndim != 2 or train_features.shape[0] < 1:
        raise EmptyTrainingSet("need at least one training row")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = Normalizer(
            mean=train_features.mean(axis=0),
            std=train_features.std(axis=0),  # ddof=0
        )
    _overflow("its mean or standard deviation", np.isfinite(norm.mean) & np.isfinite(norm.std))
    return norm


def apply_normalizer(norm: Normalizer, features: np.ndarray) -> np.ndarray:
    """Z-score using fitted stats; zero-variance columns map to all zeros. SchemaError
    names a column whose z-score overflows."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != norm.mean.shape[0]:
        raise WidthMismatch(
            f"feature width {features.shape[-1]} != normalizer width {norm.mean.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = features - norm.mean
        nonzero = norm.std > 0
        out[..., nonzero] /= norm.std[nonzero]
    out[..., ~nonzero] = 0.0
    _overflow("its z-score", np.isfinite(out))
    return out
