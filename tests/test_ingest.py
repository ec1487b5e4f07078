"""CSV schema, synthetic generation, and summary behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harkit.errors import (
    MalformedRow,
    NonFiniteValue,
    NonMonotonicTimestamps,
    UnknownActivity,
    UnknownSensor,
)
from harkit.ingest import (
    ACTIVITY_CSV_NAMES,
    Activity,
    Recording,
    SensorKind,
    SynthParams,
    dataset_summary,
    generate_synthetic,
    parse_manifest_csv,
    parse_recordings_csv,
    samples_from_columns,
    write_manifest_csv,
    write_recordings_csv,
)
from harkit.preprocess import filter_recording

HEADER = "subject_id,session_id,activity,sensor,timestamp_ms,x,y,z"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSynthParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_subjects": 0},
            {"minutes_per_activity": 0.0},
            {"sample_rate_hz": -1.0},
            {"subject_variability": -0.5},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            SynthParams(**kwargs)


class TestGenerateSynthetic:
    def test_shape(self, small_dataset):
        params, recordings, metas = small_dataset
        assert len(recordings) == params.n_subjects * len(Activity) * len(SensorKind)
        assert len(metas) == params.n_subjects
        expected = int(params.minutes_per_activity * 60 * params.sample_rate_hz)
        for rec in recordings:
            assert len(rec.samples) == expected

    def test_covers_every_subject_activity_sensor(self, small_dataset):
        params, recordings, _ = small_dataset
        keys = {(r.subject_id, r.activity, r.sensor) for r in recordings}
        assert len(keys) == len(recordings)
        assert {r.subject_id for r in recordings} == {f"subj{i:02d}" for i in range(3)}

    def test_deterministic(self):
        p = SynthParams(n_subjects=2, minutes_per_activity=0.2, seed=9)
        a, _ = generate_synthetic(p)
        b, _ = generate_synthetic(p)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_seed_changes_data(self):
        a, _ = generate_synthetic(SynthParams(n_subjects=1, minutes_per_activity=0.2, seed=1))
        b, _ = generate_synthetic(SynthParams(n_subjects=1, minutes_per_activity=0.2, seed=2))
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_accelerometer_z_carries_gravity(self, small_dataset):
        _, recordings, _ = small_dataset
        for rec in recordings:
            _, _, z = rec.axes()
            if rec.sensor is SensorKind.Accelerometer:
                assert 8.0 < np.mean(z) < 12.0
            else:
                assert abs(np.mean(z)) < 2.0

    def test_timestamps_match_sample_rate(self, small_dataset):
        _, recordings, _ = small_dataset
        rec = recordings[0]
        t = np.array([s.t_ms for s in rec.samples])
        assert t[0] == 0
        assert np.all(np.diff(t) == 50)  # 20 Hz


class TestRecordingsCsvRoundTrip:
    def test_round_trip_exact(self, small_dataset, tmp_path):
        _, recordings, _ = small_dataset
        subset = recordings[:6]
        path = tmp_path / "recs.csv"
        write_recordings_csv(subset, path)
        back = parse_recordings_csv(path)
        assert sorted(back, key=lambda r: (r.subject_id, r.activity.value, r.sensor.value)) == sorted(
            subset, key=lambda r: (r.subject_id, r.activity.value, r.sensor.value)
        )

    def test_unsorted_rows_are_sorted_by_timestamp(self, tmp_path):
        path = write_lines(
            tmp_path / "r.csv",
            [
                HEADER,
                "s0,s0,walking,accel,100,1.0,2.0,3.0",
                "s0,s0,walking,accel,0,4.0,5.0,6.0",
                "s0,s0,walking,accel,50,7.0,8.0,9.0",
            ],
        )
        (rec,) = parse_recordings_csv(path)
        assert [s.t_ms for s in rec.samples] == [0, 50, 100]
        assert rec.samples[0].x == 4.0


INT64 = np.iinfo(np.int64)
# subnormals, the largest magnitudes and both zeros, besides any other finite float
edge_floats = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def recordings(draw):
    """1-3 recordings of distinct activities, samples in drawn (unsorted) timestamp order."""
    activities = draw(st.lists(st.sampled_from(list(Activity)), min_size=1, max_size=3,
                               unique=True))
    out = []
    for activity in activities:
        t_ms = draw(st.lists(st.one_of(st.sampled_from([INT64.min, INT64.max]),
                                       st.integers(INT64.min, INT64.max)),
                             min_size=1, max_size=20, unique=True))
        n = len(t_ms)
        x, y, z = (draw(st.lists(edge_floats, min_size=n, max_size=n)) for _ in range(3))
        out.append(Recording("s0", activity, SensorKind.Gyroscope,
                             samples_from_columns(t_ms, x, y, z), session_id="s1"))
    return out


class TestRecordingsCsvProperties:
    @given(recordings())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, recs):
        path = tmp_path_factory.mktemp("rt") / "r.csv"
        write_recordings_csv(recs, path)
        back = parse_recordings_csv(path)
        assert len(back) == len(recs)
        for got, rec in zip(back, recs):
            assert (got.subject_id, got.session_id, got.activity, got.sensor) == (
                rec.subject_id, rec.session_id, rec.activity, rec.sensor)
            expected = rec.samples[np.argsort(rec.samples.t_ms)]
            # bytes, not ==, so -0.0 read back as 0.0 fails
            assert got.samples.tobytes() == expected.tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                filtered = filter_recording(got, 3)
            assert filtered.samples.t_ms.tobytes() == got.samples.t_ms.tobytes()
            assert (filtered.subject_id, filtered.session_id, filtered.activity,
                    filtered.sensor, filtered.sample_rate_hz) == (
                got.subject_id, got.session_id, got.activity, got.sensor, got.sample_rate_hz)


class TestRecordingsCsvErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 1

    def test_bad_header(self, tmp_path):
        path = write_lines(tmp_path / "h.csv", ["a,b,c"])
        with pytest.raises(MalformedRow):
            parse_recordings_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write_lines(
            tmp_path / "w.csv",
            [HEADER, "s0,s0,walking,accel,0,1.0,2.0,3.0", "s0,s0,walking,accel,50,1.0"],
        )
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 3

    def test_unknown_activity(self, tmp_path):
        path = write_lines(tmp_path / "a.csv", [HEADER, "s0,s0,flying,accel,0,1,2,3"])
        with pytest.raises(UnknownActivity):
            parse_recordings_csv(path)

    def test_unknown_sensor(self, tmp_path):
        path = write_lines(tmp_path / "s.csv", [HEADER, "s0,s0,walking,sonar,0,1,2,3"])
        with pytest.raises(UnknownSensor):
            parse_recordings_csv(path)

    def test_timestamp_outside_int64_is_malformed(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv",
            [HEADER, "s0,s0,walking,accel,0,1,2,3", "s0,s0,walking,accel,99999999999999999999,1,2,3"],
        )
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 3

    def test_bad_number(self, tmp_path):
        path = write_lines(tmp_path / "n.csv", [HEADER, "s0,s0,walking,accel,0,1,oops,3"])
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 2

    def test_non_finite_value(self, tmp_path):
        path = write_lines(tmp_path / "f.csv", [HEADER, "s0,s0,walking,accel,0,1,nan,3"])
        with pytest.raises(NonFiniteValue) as ei:
            parse_recordings_csv(path)
        assert ei.value.field == "y"

    def test_duplicate_timestamp(self, tmp_path):
        path = write_lines(
            tmp_path / "d.csv",
            [HEADER, "s0,s0,walking,accel,0,1,2,3", "s0,s0,walking,accel,0,4,5,6"],
        )
        with pytest.raises(NonMonotonicTimestamps):
            parse_recordings_csv(path)


class TestManifestCsv:
    def test_round_trip(self, small_dataset, tmp_path):
        _, _, metas = small_dataset
        path = tmp_path / "m.csv"
        write_manifest_csv(metas, path)
        assert parse_manifest_csv(path) == metas

    def test_empty_file_is_malformed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(MalformedRow) as ei:
            parse_manifest_csv(path)
        assert ei.value.line_no == 1

    def test_non_integer_age_is_malformed(self, tmp_path):
        path = write_lines(tmp_path / "m.csv",
                           ["subject_id,gender,age_years,handedness", "s0,F,thirty,Left"])
        with pytest.raises(MalformedRow) as ei:
            parse_manifest_csv(path)
        assert ei.value.line_no == 2


class TestDatasetSummary:
    def test_rows_and_balance(self, small_dataset):
        params, recordings, _ = small_dataset
        summary = dataset_summary(recordings)
        assert len(summary.rows) == len(recordings)
        assert summary.class_balance.keys() == set(Activity)
        assert sum(summary.class_balance.values()) == pytest.approx(1.0)
        # equal minutes per activity -> uniform balance
        for frac in summary.class_balance.values():
            assert frac == pytest.approx(1.0 / len(Activity))

    def test_duration(self):
        rec = Recording(
            subject_id="s0",
            activity=Activity.Walking,
            sensor=SensorKind.Accelerometer,
            samples=samples_from_columns(np.arange(40) * 50, *np.zeros((3, 40))),
        )
        summary = dataset_summary([rec])
        assert summary.rows[0].duration_s == pytest.approx(2.0)

    def test_one_sample_recording_uses_nominal_rate(self):
        rec = Recording(
            subject_id="s0",
            activity=Activity.Walking,
            sensor=SensorKind.Accelerometer,
            samples=samples_from_columns([0], [1.0], [2.0], [3.0]),
        )
        assert dataset_summary([rec]).rows[0].duration_s == pytest.approx(1 / 20.0)

    def test_activity_names_cover_all(self):
        assert set(ACTIVITY_CSV_NAMES) == set(Activity)
        assert len(set(ACTIVITY_CSV_NAMES.values())) == len(Activity)
