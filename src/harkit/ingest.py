"""Dataset ingestion: CSV parsing, synthetic generation, and summaries.

On-disk layout is one recordings CSV plus one subject manifest CSV:

    recordings: subject_id,session_id,activity,sensor,timestamp_ms,x,y,z
    manifest:   subject_id,gender,age_years,handedness
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    MalformedRow,
    NonFiniteValue,
    NonMonotonicTimestamps,
    UnknownActivity,
    UnknownSensor,
)


class SensorKind(Enum):
    Accelerometer = "accel"
    Gyroscope = "gyro"
    Magnetometer = "mag"


class Activity(Enum):
    Walking = 0
    WalkingUpstairs = 1
    WalkingDownstairs = 2
    Running = 3
    Jogging = 4


ACTIVITY_CSV_NAMES = {
    Activity.Walking: "walking",
    Activity.WalkingUpstairs: "upstairs",
    Activity.WalkingDownstairs: "downstairs",
    Activity.Running: "running",
    Activity.Jogging: "jogging",
}
CSV_NAME_TO_ACTIVITY = {v: k for k, v in ACTIVITY_CSV_NAMES.items()}
CSV_NAME_TO_SENSOR = {s.value: s for s in SensorKind}

RECORDINGS_HEADER = [
    "subject_id",
    "session_id",
    "activity",
    "sensor",
    "timestamp_ms",
    "x",
    "y",
    "z",
]
MANIFEST_HEADER = ["subject_id", "gender", "age_years", "handedness"]


# One recording's samples: a structured array viewed as np.recarray, so
# `samples.x` is a column and `samples[i].t_ms` one element.
SAMPLE_DTYPE = np.dtype([("t_ms", np.int64), ("x", np.float64), ("y", np.float64),
                         ("z", np.float64)])
_INT64 = np.iinfo(np.int64)


def samples_from_columns(t_ms, x, y, z) -> np.recarray:
    """A read-only samples array built from equal-length columns."""
    samples = np.empty(len(t_ms), dtype=SAMPLE_DTYPE)
    samples["t_ms"], samples["x"], samples["y"], samples["z"] = t_ms, x, y, z
    samples.flags.writeable = False
    return samples.view(np.recarray)


@dataclass(frozen=True, eq=False)
class Recording:
    subject_id: str
    activity: Activity
    sensor: SensorKind
    samples: np.recarray  # SAMPLE_DTYPE, built by samples_from_columns
    sample_rate_hz: float = 20.0
    session_id: str = "s0"

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.samples.x, self.samples.y, self.samples.z

    def __eq__(self, other) -> bool:
        if not isinstance(other, Recording):
            return NotImplemented
        return (
            (self.subject_id, self.activity, self.sensor, self.sample_rate_hz, self.session_id)
            == (other.subject_id, other.activity, other.sensor, other.sample_rate_hz,
                other.session_id)
            and bool(np.array_equal(self.samples, other.samples))
        )


@dataclass(frozen=True)
class SubjectMeta:
    subject_id: str
    gender: str  # "F" or "M"
    age_years: int
    handedness: str  # "Left" or "Right"


@dataclass(frozen=True)
class SynthParams:
    n_subjects: int = 6
    minutes_per_activity: float = 10.0
    sample_rate_hz: float = 20.0
    seed: int = 7
    subject_variability: float = 1.0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be positive")
        if self.minutes_per_activity <= 0:
            raise ValueError("minutes_per_activity must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.subject_variability < 0:
            raise ValueError("subject_variability must be non-negative")


# Synthetic signal model, per activity:
#   axis(t) = base + A * sin(2*pi*f*t + phase) + h * A * sin(2*pi*2f*t + phase2) + noise
# Fundamental frequency f separates gait cadences; amplitude A separates
# intensity. Columns: fundamental_hz, amplitude, harmonic_ratio, noise_std.
# These constants are pinned; the acceptance suite depends on them.
ACTIVITY_SIGNAL_TABLE: dict[Activity, tuple[float, float, float, float]] = {
    Activity.Walking: (1.25, 1.0, 0.30, 0.2975),
    Activity.WalkingUpstairs: (0.875, 1.4, 0.50, 0.2975),
    Activity.WalkingDownstairs: (1.75, 0.8, 0.20, 0.2975),
    Activity.Running: (3.25, 3.0, 0.35, 0.3825),
    Activity.Jogging: (2.25, 2.35, 0.40, 0.3825),
}

# Subject-offset scales (multiplied by subject_variability): log-amplitude
# sigma, relative frequency jitter sigma, additive per-axis baseline sigma,
# and log-sigma of the per-subject harmonic-ratio multiplier (waveform shape).
SUBJ_AMP_SIGMA = 0.10
SUBJ_FREQ_SIGMA = 0.035
SUBJ_BASE_SIGMA = 0.20
SUBJ_HARM_SIGMA = 0.35

# Per-axis multipliers so x/y/z carry the oscillation with different weight;
# z additionally carries a gravity-like offset for the accelerometer.
AXIS_WEIGHTS = (1.0, 0.6, 0.35)
SENSOR_SCALE = {
    SensorKind.Accelerometer: 1.0,
    SensorKind.Gyroscope: 0.5,
    SensorKind.Magnetometer: 0.1,
}


def generate_synthetic(params: SynthParams) -> tuple[list[Recording], list[SubjectMeta]]:
    """Deterministic synthetic dataset: one Recording per subject x activity x sensor.

    Each axis is two sinusoids (fundamental + second harmonic) plus Gaussian
    noise. Subjects get random amplitude/phase offsets scaled by
    ``subject_variability``, which makes impersonal evaluation strictly harder
    than personal evaluation.
    """
    n_samples = int(round(params.minutes_per_activity * 60 * params.sample_rate_hz))
    root = np.random.SeedSequence(params.seed)
    subject_seqs = root.spawn(params.n_subjects)

    recordings: list[Recording] = []
    metas: list[SubjectMeta] = []
    for si in range(params.n_subjects):
        subject_id = f"subj{si:02d}"
        meta_rng = np.random.default_rng(subject_seqs[si])
        # subject-level offsets, scaled by variability
        sv = params.subject_variability
        amp_mult = float(np.exp(meta_rng.normal(0.0, SUBJ_AMP_SIGMA * sv)))
        freq_mult = 1.0 + SUBJ_FREQ_SIGMA * sv * float(meta_rng.standard_normal())
        base_shift = SUBJ_BASE_SIGMA * sv * meta_rng.standard_normal(3)
        harm_mult = float(np.exp(meta_rng.normal(0.0, SUBJ_HARM_SIGMA * sv)))
        age = int(meta_rng.integers(20, 31))
        metas.append(
            SubjectMeta(
                subject_id=subject_id,
                gender="F" if si % 2 == 0 else "M",
                age_years=age,
                handedness="Right" if meta_rng.random() < 0.85 else "Left",
            )
        )

        t = np.arange(n_samples) / params.sample_rate_hz
        t_ms = np.round(t * 1000.0).astype(int)
        for activity in Activity:
            f0, amp, harm, noise_std = ACTIVITY_SIGNAL_TABLE[activity]
            rec_seqs = subject_seqs[si].spawn(len(Activity))[activity.value].spawn(3)
            f_subj = f0 * freq_mult
            a_subj = amp * amp_mult
            for ki, sensor in enumerate(SensorKind):
                rng = np.random.default_rng(rec_seqs[ki])
                scale = SENSOR_SCALE[sensor]
                cols = []
                for ai in range(3):
                    phase1 = rng.uniform(0, 2 * math.pi)
                    phase2 = rng.uniform(0, 2 * math.pi)
                    base = scale * base_shift[ai]
                    if sensor is SensorKind.Accelerometer and ai == 2:
                        base += 9.8
                    w = AXIS_WEIGHTS[ai] * scale
                    sig = (
                        base
                        + w * a_subj * np.sin(2 * math.pi * f_subj * t + phase1)
                        + w * a_subj * harm * harm_mult * np.sin(2 * math.pi * 2 * f_subj * t + phase2)
                        + scale * noise_std * rng.standard_normal(n_samples)
                    )
                    cols.append(sig)
                recordings.append(
                    Recording(
                        subject_id=subject_id,
                        activity=activity,
                        sensor=sensor,
                        samples=samples_from_columns(t_ms, *cols),
                        sample_rate_hz=params.sample_rate_hz,
                        session_id="s0",
                    )
                )
    return recordings, metas


def parse_recordings_csv(path: str | Path) -> list[Recording]:
    """Parse a recordings CSV into Recordings grouped by (subject, session, activity, sensor).

    The whole parse fails on the first malformed row; groups keep their order
    of first appearance and samples are sorted by timestamp.
    """
    path = Path(path)
    groups: dict[tuple[str, str, Activity, SensorKind], list[tuple[int, float, float, float]]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "empty file, header row required")
        if header != RECORDINGS_HEADER:
            raise MalformedRow(1, f"bad header {header!r}, expected {RECORDINGS_HEADER!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 8:
                raise MalformedRow(line_no, f"expected 8 fields, got {len(row)}")
            subject_id, session_id, act_name, sensor_name, ts, xs, ys, zs = row
            if act_name not in CSV_NAME_TO_ACTIVITY:
                raise UnknownActivity(f"line {line_no}: unknown activity {act_name!r}")
            if sensor_name not in CSV_NAME_TO_SENSOR:
                raise UnknownSensor(f"line {line_no}: unknown sensor {sensor_name!r}")
            try:
                t_ms = int(ts)
            except ValueError:
                raise MalformedRow(line_no, f"bad timestamp {ts!r}")
            if not _INT64.min <= t_ms <= _INT64.max:
                raise MalformedRow(line_no, f"timestamp {ts!r} out of the int64 range")
            vals = []
            for fname, s in (("x", xs), ("y", ys), ("z", zs)):
                try:
                    v = float(s)
                except ValueError:
                    raise MalformedRow(line_no, f"bad number {s!r} in column '{fname}'")
                if not math.isfinite(v):
                    raise NonFiniteValue(line_no, fname)
                vals.append(v)
            key = (subject_id, session_id, CSV_NAME_TO_ACTIVITY[act_name], CSV_NAME_TO_SENSOR[sensor_name])
            groups.setdefault(key, []).append((t_ms, *vals))

    recordings = []
    for (subject_id, session_id, activity, sensor), rows in groups.items():
        t_ms, x, y, z = (np.array(col) for col in zip(*rows))
        order = np.argsort(t_ms, kind="stable")
        samples = samples_from_columns(t_ms[order], x[order], y[order], z[order])
        # compared pairwise, not by np.diff, which wraps around near the int64 limits
        repeats = np.flatnonzero(samples.t_ms[1:] <= samples.t_ms[:-1])
        if repeats.size:
            raise NonMonotonicTimestamps(
                f"duplicate/backward timestamp {samples.t_ms[repeats[0] + 1]} for "
                f"({subject_id}, {session_id}, {activity.name}, {sensor.name})"
            )
        recordings.append(
            Recording(
                subject_id=subject_id,
                activity=activity,
                sensor=sensor,
                samples=samples,
                session_id=session_id,
            )
        )
    return recordings


def write_recordings_csv(recordings: Iterable[Recording], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDINGS_HEADER)
        for rec in recordings:
            act = ACTIVITY_CSV_NAMES[rec.activity]
            sensor = rec.sensor.value
            for t_ms, x, y, z in rec.samples.tolist():
                writer.writerow(
                    [rec.subject_id, rec.session_id, act, sensor,
                     t_ms, repr(x), repr(y), repr(z)]
                )


def write_manifest_csv(metas: Iterable[SubjectMeta], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for m in metas:
            writer.writerow([m.subject_id, m.gender, m.age_years, m.handedness])


def parse_manifest_csv(path: str | Path) -> list[SubjectMeta]:
    metas = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise MalformedRow(1, f"bad manifest header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
            try:
                age = int(row[2])
            except ValueError:
                raise MalformedRow(line_no, f"bad age {row[2]!r}")
            metas.append(SubjectMeta(row[0], row[1], age, row[3]))
    return metas


@dataclass(frozen=True)
class SummaryRow:
    subject_id: str
    activity: Activity
    sensor: SensorKind
    n_samples: int
    duration_s: float


@dataclass(frozen=True)
class DatasetSummary:
    rows: tuple[SummaryRow, ...]
    class_balance: dict[Activity, float] = field(default_factory=dict)


def _duration_s(rec: Recording) -> float:
    """n samples times the mean timestamp step; the nominal rate when there is no step."""
    n = len(rec.samples)
    if n < 2:
        return n / rec.sample_rate_hz
    span_ms = int(rec.samples.t_ms[-1]) - int(rec.samples.t_ms[0])  # no int64 wrap-around
    return n * span_ms / (n - 1) / 1000.0


def dataset_summary(recordings: list[Recording]) -> DatasetSummary:
    rows = []
    counts: dict[Activity, int] = {}
    for rec in recordings:
        n = len(rec.samples)
        rows.append(SummaryRow(rec.subject_id, rec.activity, rec.sensor, n, _duration_s(rec)))
        counts[rec.activity] = counts.get(rec.activity, 0) + n
    total = sum(counts.values())
    balance = {a: c / total for a, c in counts.items()} if total else {}
    return DatasetSummary(rows=tuple(rows), class_balance=balance)
