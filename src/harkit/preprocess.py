"""Filtering, windowing, and normalization."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySignal, EmptyTrainingSet, WidthMismatch
from .ingest import Activity, Recording, SensorKind


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
        if len(self.x) < 4:
            raise ValueError("window must hold at least 4 samples")


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
    x, y, z = rec.axes()
    fx, fy, fz = (moving_average_filter(a, order) for a in (x, y, z))
    from .ingest import Sample

    samples = tuple(
        Sample(s.t_ms, float(a), float(b), float(c))
        for s, a, b, c in zip(rec.samples, fx, fy, fz)
    )
    return Recording(
        subject_id=rec.subject_id,
        activity=rec.activity,
        sensor=rec.sensor,
        samples=samples,
        sample_rate_hz=rec.sample_rate_hz,
        session_id=rec.session_id,
    )


def segment_windows(rec: Recording, samples_per_window: int) -> list[Window]:
    """Non-overlapping, in-order blocks; the trailing partial block is dropped."""
    if samples_per_window < 4:
        raise ValueError("samples_per_window must be >= 4")
    x, y, z = rec.axes()
    n = len(x) // samples_per_window
    out = []
    for i in range(n):
        sl = slice(i * samples_per_window, (i + 1) * samples_per_window)
        out.append(
            Window(
                subject_id=rec.subject_id,
                activity=rec.activity,
                sensor=rec.sensor,
                x=x[sl].copy(),
                y=y[sl].copy(),
                z=z[sl].copy(),
            )
        )
    return out


@dataclass(frozen=True)
class Normalizer:
    mean: np.ndarray
    std: np.ndarray


def fit_normalizer(train_features: np.ndarray) -> Normalizer:
    """Column means and population stds, computed on the training split only."""
    train_features = np.asarray(train_features, dtype=float)
    if train_features.ndim != 2 or train_features.shape[0] < 1:
        raise EmptyTrainingSet("need at least one training row")
    return Normalizer(
        mean=train_features.mean(axis=0),
        std=train_features.std(axis=0),  # ddof=0
    )


def apply_normalizer(norm: Normalizer, features: np.ndarray) -> np.ndarray:
    """Z-score using fitted stats; zero-variance columns map to all zeros."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != norm.mean.shape[0]:
        raise WidthMismatch(
            f"feature width {features.shape[-1]} != normalizer width {norm.mean.shape[0]}"
        )
    out = features - norm.mean
    nonzero = norm.std > 0
    out[..., nonzero] /= norm.std[nonzero]
    out[..., ~nonzero] = 0.0
    return out
