"""Dataset ingestion: CSV parsing, synthetic generation, and summaries.

On-disk layout is one recordings CSV plus one subject manifest CSV (written only):

    recordings: subject_id,session_id,activity,sensor,timestamp_ms,x,y,z
    manifest:   subject_id,gender,age_years,handedness
"""
from __future__ import annotations

import csv
import io
import math
import os
from contextlib import closing, contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, TextIO

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
    samples: np.recarray  # SAMPLE_DTYPE, read-only, as samples_from_columns builds it
    session_id: str = "s0"

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.samples.x, self.samples.y, self.samples.z

    def __eq__(self, other) -> bool:
        if not isinstance(other, Recording):
            return NotImplemented
        return (
            (self.subject_id, self.activity, self.sensor, self.session_id)
            == (other.subject_id, other.activity, other.sensor, other.session_id)
            and bool(np.array_equal(self.samples, other.samples))
        )


@dataclass(frozen=True)
class SubjectMeta:
    subject_id: str
    gender: str  # "F" or "M"
    age_years: int
    handedness: str  # "Left" or "Right"


# Samples per synthetic recording, at most: 139 hours per activity at 20 Hz. A
# recording takes 32 bytes a sample, and a subject 15 recordings.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class SynthParams:
    n_subjects: int = 6
    minutes_per_activity: float = 10.0
    sample_rate_hz: float = 20.0
    seed: int = 7
    subject_variability: float = 1.0

    def __post_init__(self):
        for name, least in (("n_subjects", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not 0 < self.minutes_per_activity < math.inf:
            raise ValueError("minutes_per_activity must be positive and finite")
        if not 0 < self.sample_rate_hz <= 1000:
            raise ValueError("sample_rate_hz must be positive and at most 1000: "
                             "timestamps are whole milliseconds")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError("minutes_per_activity * 60 * sample_rate_hz must round to "
                             "at least 1 sample and be finite, and to at most "
                             f"{MAX_SAMPLES:,} samples per recording")
        if not 0 <= self.subject_variability < math.inf:
            raise ValueError("subject_variability must be non-negative and finite")

    @property
    def n_samples(self) -> float:
        """Samples per recording: minutes * 60 * rate, rounded (inf if that overflows)."""
        n = self.minutes_per_activity * 60 * self.sample_rate_hz
        return round(n) if math.isfinite(n) else n


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
    n_samples = params.n_samples
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
            # each spawn call advances the subject's spawn counter, so activity a
            # draws from spawn key (si, 6a), not from child a of one spawn; kept
            # as is, since the pinned dataset depends on it
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
                        session_id="s0",
                    )
                )
    return recordings, metas


def parse_recordings_csv(path: str | Path) -> list[Recording]:
    """Parse a recordings CSV into Recordings grouped by (subject, session, activity, sensor).

    Groups keep their order of first appearance and samples are sorted by
    timestamp. A well-formed file is read on a fast path: one ``np.loadtxt``
    pass for the numbers, one pass over the lines for the keys, and vectorised
    checks. Only a file the fast path rejects is parsed again row by row, so
    the whole parse fails on the first malformed row, naming its line.
    """
    try:
        rows = _parse_fast(Path(path))
    except Exception:  # whatever went wrong, a UnicodeDecodeError included, the row path names it
        rows = None
    return _parse_rows(path) if rows is None else _recordings(*rows)


_HEADER_LINE = ",".join(RECORDINGS_HEADER) + "\n"
_LINES_PER_READ = 1 << 16  # characters of whole lines taken per read of the key pass
# np.loadtxt skips these as blanks around a number, where int() and float() refuse them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_Key = tuple[str, str, Activity, SensorKind]  # (subject_id, session_id, activity, sensor)


def _parse_fast(path: Path) -> tuple[list[_Key], np.ndarray, np.ndarray] | None:
    """A well-formed file's rows for ``_recordings``, or None when the row path must judge it.

    It accepts only what ``_parse_rows`` accepts, with the same values: no field
    is quoted, and the numbers are ASCII, which np.loadtxt reads as int() and
    float() do (non-ASCII characters can pass its digit test).
    """
    groups: dict[str, int] = {}  # key "subject,session,activity,sensor" -> group
    run_groups, run_starts = [], []  # each run of rows with one key: its group, first row
    with path.open(encoding="utf-8") as fh:
        if fh.readline() != _HEADER_LINE:
            return None
        n_rows, run_key = 0, None
        while lines := fh.readlines(_LINES_PER_READ):
            block = "".join(lines)
            if any(c in block for c in _LOADTXT_ONLY_SPACE):
                return None
            if not block.isascii() and not all(
                    line[len(line.rsplit(",", 4)[0]):].isascii() for line in lines):
                return None
            for line in lines:
                key = line.rsplit(",", 4)[0]
                if key != run_key:
                    run_key = key
                    run_groups.append(groups.setdefault(key, len(groups)))
                    run_starts.append(n_rows)
                n_rows += 1
        if not n_rows:
            return [], np.zeros(0, np.intp), np.zeros(0, SAMPLE_DTYPE)
        keys = [key.split(",") for key in groups]
        # a quote needs csv's reading; csv before Python 3.11 refuses a NUL
        if any(len(k) != 4 or '"' in key or "\0" in key
               or k[2] not in CSV_NAME_TO_ACTIVITY or k[3] not in CSV_NAME_TO_SENSOR
               for k, key in zip(keys, groups)):
            return None
        fh.seek(0)
        data = np.loadtxt(fh, dtype=SAMPLE_DTYPE, comments=None, delimiter=",", skiprows=1,
                          usecols=(4, 5, 6, 7), ndmin=1)
    # both passes must have seen the same rows (np.loadtxt skips blank lines)
    if len(data) != n_rows:
        return None
    if not all(np.isfinite(data[axis]).all() for axis in "xyz"):
        return None
    keys = [(s, sess, CSV_NAME_TO_ACTIVITY[act], CSV_NAME_TO_SENSOR[sensor])
            for s, sess, act, sensor in keys]
    return keys, np.repeat(run_groups, np.diff(run_starts + [n_rows])), data


def _recordings(keys: list[_Key], group: np.ndarray, samples: np.ndarray) -> list[Recording]:
    """One Recording per key, in order, from parsed rows (`samples`) and each row's index
    into `keys`: read-only slices of the rows sorted stably by (group, timestamp). A
    repeated or backward timestamp raises NonMonotonicTimestamps for the first key with one."""
    order = np.lexsort((samples["t_ms"], group))
    samples, group = samples[order], group[order]
    same = group[1:] == group[:-1]
    # compared pairwise, not by np.diff, which wraps around near the int64 limits
    repeats = np.flatnonzero(same & (samples["t_ms"][1:] <= samples["t_ms"][:-1]))
    if repeats.size:
        subject_id, session_id, activity, sensor = keys[group[repeats[0]]]
        raise NonMonotonicTimestamps(
            f"duplicate/backward timestamp {samples['t_ms'][repeats[0] + 1]} for "
            f"({subject_id}, {session_id}, {activity.name}, {sensor.name})")
    samples.flags.writeable = False
    bounds = np.flatnonzero(np.r_[True, ~same, True])
    return [
        Recording(subject_id=subject_id, activity=activity, sensor=sensor,
                  samples=samples[lo:hi].view(np.recarray), session_id=session_id)
        for (subject_id, session_id, activity, sensor), lo, hi
        in zip(keys, bounds[:-1], bounds[1:])
    ]


def csv_records(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Every record of a CSV file as (line, fields), header first, where `line` is the
    physical line the record starts on (a quoted field may span lines). Each later
    record must have the header's field count, and the file must be UTF-8 text: else
    MalformedRow names the line."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = None
        while True:
            line = reader.line_num + 1
            try:
                fields = next(reader)
            except StopIteration:
                return
            except UnicodeDecodeError:
                data = Path(path).read_bytes()
                try:
                    data.decode("utf-8")  # the stream's error holds no offset in the file
                except UnicodeDecodeError as e:
                    raise MalformedRow(data.count(b"\n", 0, e.start) + 1,
                                       f"{path} is not UTF-8 text") from None
                raise
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise MalformedRow(line, f"expected {width} fields, got {len(fields)}")
            yield line, fields


def _parse_rows(path: str | Path) -> list[Recording]:
    """The row-by-row parse: fails on the first malformed row, naming its line."""
    groups: dict[_Key, int] = {}
    group, rows = [], []  # per row: its index into groups, and its (t_ms, x, y, z)
    with closing(csv_records(path)) as records:
        _, header = next(records, (1, None))
        if header is None:
            raise MalformedRow(1, "empty file, header row required")
        if header != RECORDINGS_HEADER:
            raise MalformedRow(1, f"bad header {header!r}, expected {RECORDINGS_HEADER!r}")
        for line_no, row in records:
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
            group.append(groups.setdefault(key, len(groups)))
            rows.append((t_ms, *vals))
    return _recordings(list(groups), np.array(group, dtype=np.intp),
                       np.array(rows, dtype=SAMPLE_DTYPE))


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A new UTF-8 text file (newline="") beside `path` that replaces it whole when the
    block ends and is deleted if the block raises, so `path` holds the old file or the
    new one, never part of one. The file gets the mode open(path, "w") would give."""
    name, path = os.fspath(path), Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = tmp.open("x", newline="", encoding="utf-8")
    except OSError as e:
        raise OSError(e.errno, e.strerror, name) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise OSError(e.errno, e.strerror, name) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_recordings_csv(recordings: Iterable[Recording], path: str | Path) -> None:
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(RECORDINGS_HEADER)
        for rec in recordings:
            # the key once, quoted as csv quotes it; then each sample as csv writes
            # it, the float as its repr, so the samples round-trip exactly
            buf = io.StringIO()
            csv.writer(buf).writerow((rec.subject_id, rec.session_id,
                                      ACTIVITY_CSV_NAMES[rec.activity], rec.sensor.value, ""))
            key = buf.getvalue()[:-2]  # "subject,session,activity,sensor," less the \r\n
            fh.write("".join([f"{key}{t},{x!r},{y!r},{z!r}\r\n"
                              for t, x, y, z in rec.samples.tolist()]))


def write_manifest_csv(metas: Iterable[SubjectMeta], path: str | Path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for m in metas:
            writer.writerow([m.subject_id, m.gender, m.age_years, m.handedness])


# The recordings CSV stores no rate: a one-sample recording's duration assumes this one.
NOMINAL_RATE_HZ = 20.0


def duration_s(rec: Recording) -> float:
    """n samples times the mean timestamp step; NOMINAL_RATE_HZ when there is no step."""
    n = len(rec.samples)
    if n < 2:
        return n / NOMINAL_RATE_HZ
    span_ms = int(rec.samples.t_ms[-1]) - int(rec.samples.t_ms[0])  # no int64 wrap-around
    return n * span_ms / (n - 1) / 1000.0
