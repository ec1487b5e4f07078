"""CSV schema, synthetic generation, and summary behavior."""
import csv
import inspect
import io
import re
from pathlib import Path

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
from harkit import ingest
from harkit.ingest import (
    ACTIVITY_CSV_NAMES,
    RECORDINGS_HEADER,
    Activity,
    Recording,
    SensorKind,
    SubjectMeta,
    SynthParams,
    _parse_rows,
    csv_records,
    dataset_summary,
    generate_synthetic,
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
            {"sample_rate_hz": 1000.5},  # samples closer than 1 ms share a timestamp
            {"subject_variability": -0.5},
            {"seed": -1},  # NumPy's SeedSequence takes only non-negative entropy
            # a nan or infinite value would pass a plain sign check
            {"minutes_per_activity": float("nan")},
            {"minutes_per_activity": float("inf")},
            {"subject_variability": float("nan")},
            {"subject_variability": float("inf")},
            # round(0.0001 * 60 * 20) = 0: a recording without samples
            {"minutes_per_activity": 0.0001},
            # finite, but minutes * 60 * rate overflows to inf
            {"minutes_per_activity": 1e308},
            # finite, but 1.2e13 samples per recording
            {"minutes_per_activity": 1e10},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            SynthParams(**kwargs)

    @pytest.mark.parametrize("rate", [20.0, 1000.0])
    def test_sample_count_cap(self, rate):
        """A recording may take MAX_SAMPLES samples and no more; the check runs before
        any sample is made."""
        at_cap = ingest.MAX_SAMPLES / (60 * rate)
        assert SynthParams(minutes_per_activity=at_cap, sample_rate_hz=rate).n_samples == \
            ingest.MAX_SAMPLES
        with pytest.raises(ValueError, match="at most 10,000,000 samples per recording"):
            SynthParams(minutes_per_activity=at_cap + 1 / (60 * rate), sample_rate_hz=rate)


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

    def test_round_trip_at_50_hz(self, tmp_path):
        """The CSV stores no rate, so a recording holds none that could read back different."""
        recordings, _ = generate_synthetic(
            SynthParams(n_subjects=1, minutes_per_activity=0.05, sample_rate_hz=50))
        path = tmp_path / "recs.csv"
        write_recordings_csv(recordings, path)
        assert parse_recordings_csv(path) == recordings

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
                    filtered.sensor) == (got.subject_id, got.session_id, got.activity, got.sensor)


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


def _rec(subject_id="s0", t_ms=(0, 50), activity=Activity.Walking):
    n = len(t_ms)
    return Recording(subject_id, activity, SensorKind.Accelerometer,
                     samples_from_columns(t_ms, np.arange(n) + 0.5, -np.arange(n) / 3,
                                          np.full(n, 9.8)))


class TestRecordingsCsvEdges:
    ROWS = ["s0,s0,walking,accel,0,1.0,2.0,3.0", "s0,s0,walking,accel,50,4.0,5.0,6.0"]

    def test_blank_line_mid_file_is_malformed_at_its_line(self, tmp_path):
        path = write_lines(tmp_path / "b.csv", [HEADER, self.ROWS[0], "", self.ROWS[1]])
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 3
        assert str(ei.value) == "line 3: expected 8 fields, got 0"

    def test_extra_blank_line_at_end_is_malformed_at_its_line(self, tmp_path):
        path = write_lines(tmp_path / "e.csv", [HEADER, *self.ROWS, ""])
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 4
        assert str(ei.value) == "line 4: expected 8 fields, got 0"

    @pytest.mark.parametrize("ending", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
    def test_line_endings_parse_the_same(self, tmp_path, ending):
        path = tmp_path / "r.csv"
        path.write_bytes(ending.join([HEADER, *self.ROWS, ""]).encode())
        (rec,) = parse_recordings_csv(path)
        assert rec.samples.tolist() == [(0, 1.0, 2.0, 3.0), (50, 4.0, 5.0, 6.0)]
        assert (rec.subject_id, rec.session_id) == ("s0", "s0")

    @pytest.mark.parametrize("subject_id", ['a,b', 'say "hi"', '"', ',"x",'])
    def test_subject_id_needing_quotes_round_trips(self, tmp_path, subject_id):
        recs = [_rec(subject_id), _rec("plain", activity=Activity.Running)]
        path = tmp_path / "q.csv"
        write_recordings_csv(recs, path)
        assert parse_recordings_csv(path) == recs

    @pytest.mark.parametrize("column,value", [("timestamp", "\x1c7"), ("timestamp", "7\x1f"),
                                              ("timestamp", "Ǿ5"), ("timestamp", "5ǿ"),
                                              ("x", "\x1c7")])
    def test_numbers_np_loadtxt_would_misread_are_malformed(self, tmp_path, column, value):
        """np.loadtxt reads these as 7, 7, 4625, 513 and 7.0; int() and float() refuse them."""
        row = "s0,s0,walking,accel,{},{},2,3".format(
            *((value, "1") if column == "timestamp" else ("0", value)))
        path = write_lines(tmp_path / "m.csv", [HEADER, self.ROWS[0], row])
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 3
        assert str(ei.value).startswith("line 3: bad ")

    def test_underscore_numbers_after_a_valid_row_parse_as_int_and_float_do(self, tmp_path):
        path = write_lines(tmp_path / "u.csv",
                           [HEADER, "s0,s0,walking,accel,0,1,2,3", "s0,s0,walking,accel,1_0,1_5,2,3"])
        (rec,) = parse_recordings_csv(path)
        assert rec.samples.tolist() == [(0, 1.0, 2.0, 3.0), (10, 15.0, 2.0, 3.0)]


class TestCsvRecords:
    """csv_records numbers records by the physical line they start on."""

    def two_quoted_lines(self, tmp_path):
        """A recordings CSV whose two records span lines 2-3 and 4-5."""
        path = tmp_path / "q.csv"
        write_recordings_csv([_rec("a\nb", t_ms=(0,)),
                              _rec("c\nd", t_ms=(0,), activity=Activity.Running)], path)
        return path

    def test_yields_the_line_each_record_starts_on(self, tmp_path):
        path = self.two_quoted_lines(tmp_path)
        assert [(line, fields[0]) for line, fields in csv_records(path)] == [
            (1, "subject_id"), (2, "a\nb"), (4, "c\nd")]

    @pytest.mark.parametrize("row, error, message", [
        ("s0,s0,walking,accel,50,1.0,nan,3.0", NonFiniteValue,
         "line 7: non-finite value in column 'y'"),
        ("s0,s0,walking,accel", MalformedRow, "line 7: expected 8 fields, got 4"),
        ("s0,s0,flying,accel,50,1.0,2.0,3.0", UnknownActivity,
         "line 7: unknown activity 'flying'"),
    ], ids=["non-finite", "field-count", "activity"])
    def test_recordings_error_names_the_physical_line(self, tmp_path, row, error, message):
        path = self.two_quoted_lines(tmp_path)
        with path.open("a", newline="") as fh:
            fh.write("s0,s0,walking,accel,0,1.0,2.0,3.0\r\n" + row + "\r\n")
        with pytest.raises(error, match=f"^{message}$"):
            parse_recordings_csv(path)

    def test_non_utf8_recordings_are_malformed_at_the_byte_s_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + b"\ns0,s0,walking,accel,0,1,2,3\ns0,\xe9\n")
        with pytest.raises(MalformedRow) as ei:
            parse_recordings_csv(path)
        assert ei.value.line_no == 3
        assert str(ei.value) == f"line 3: {path} is not UTF-8 text"


def test_csv_reader_is_called_only_in_csv_records():
    """One reader owns line numbers, field counts and UTF-8 errors for every CSV input."""
    calls = {module.name: module.read_text().count("csv.reader(")
             for module in Path(ingest.__file__).parent.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"ingest.py": 1}
    assert "csv.reader(" in inspect.getsource(ingest.csv_records)


def reference_write(recs, fh):
    """The row-at-a-time csv.writer the recordings CSV is defined by."""
    writer = csv.writer(fh)
    writer.writerow(RECORDINGS_HEADER)
    for rec in recs:
        key = (rec.subject_id, rec.session_id, ACTIVITY_CSV_NAMES[rec.activity], rec.sensor.value)
        writer.writerows(key + row for row in rec.samples.tolist())


# ids that csv writes as they are (one of them not ASCII), and ids that csv must quote
PLAIN_KEYS = ["s0", "subj01", "", " s ", "josé"]
QUOTED_KEYS = ["a,b", 'say "hi"', "line\nbreak"]


@st.composite
def any_recordings(draw, key_text=st.sampled_from(PLAIN_KEYS + QUOTED_KEYS) | st.text(),
                   min_size=0, max_size=6):
    """0-3 recordings with any keys and sensors; by default a recording may hold no sample."""
    out = []
    for _ in range(draw(st.integers(min(min_size, 1), 3))):
        t_ms = draw(st.lists(st.one_of(st.sampled_from([INT64.min, INT64.max, 0, -1]),
                                       st.integers(INT64.min, INT64.max)),
                             min_size=min_size, max_size=max_size, unique=True))
        n = len(t_ms)
        x, y, z = (draw(st.lists(edge_floats, min_size=n, max_size=n)) for _ in range(3))
        out.append(Recording(draw(key_text), draw(st.sampled_from(list(Activity))),
                             draw(st.sampled_from(list(SensorKind))),
                             samples_from_columns(t_ms, x, y, z), session_id=draw(key_text)))
    return out


NAMES = [*ACTIVITY_CSV_NAMES.values(), *(s.value for s in SensorKind)]
# np.loadtxt reads " 7 " and "+7" as int() does, "\x1c7" and "Ǿ5" where int() fails
BAD_VALUES = ["nan", "inf", "-Infinity", "1e400", "99999999999999999999", "-9223372036854775809",
              "1_0", "1.5", " 7 ", "+7", "", "0x10", "\x1c7", "7\x1f", "Ǿ5", "5ǿ", "７", '"7"']


@st.composite
def corrupted_csv(draw):
    """The bytes of a written recordings CSV, with samples, after 0-2 random corruptions."""
    # one file in four may quote a key, which sends it down the row path as a whole
    keys = PLAIN_KEYS + (QUOTED_KEYS if draw(st.integers(0, 3)) == 0 else [])
    recs = draw(any_recordings(key_text=st.sampled_from(keys), min_size=1, max_size=4))
    buf = io.StringIO(newline="")
    reference_write(recs, buf)
    lines = buf.getvalue().split("\r\n")[:-1]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop_field", "add_field", "blank_line", "bad_value",
                                     "bad_value", "bad_value", "bad_name", "duplicate_row",
                                     "quote"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "blank_line":
            lines.insert(draw(st.integers(1, len(lines))), "")
        elif kind == "duplicate_row":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif kind == "bad_name":
            lines[i] = lines[i].replace(draw(st.sampled_from(NAMES)), "flying", 1)
        elif kind == "quote":
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + '"' + lines[i][j:]
        else:
            fields = lines[i].rsplit(",", 4)  # the key, then the numbers
            j = draw(st.integers(min(1, len(fields) - 1), len(fields) - 1))
            if kind == "drop_field":
                del fields[j]
            elif kind == "add_field":
                fields.insert(j, "7")
            else:
                fields[j] = draw(st.sampled_from(BAD_VALUES))
            lines[i] = ",".join(fields)
    ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:len(text) - len(ends[-1])]
    return text.encode("utf-8")


def parse_outcome(parse, path):
    """What a parser makes of a file: its error (class, message, line) or its recordings."""
    try:
        recs = parse(path)
    except Exception as e:
        return type(e), str(e), getattr(e, "line_no", None)
    return [(r.subject_id, r.session_id, r.activity, r.sensor, r.samples.dtype,
             r.samples.tobytes()) for r in recs]


class TestRecordingsCsvFastPath:
    @given(corrupted_csv())
    @settings(max_examples=500, deadline=None)
    def test_parse_matches_the_row_path(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fp") / "r.csv"
        path.write_bytes(data)
        assert parse_outcome(parse_recordings_csv, path) == parse_outcome(_parse_rows, path)

    @given(any_recordings())
    @settings(max_examples=150, deadline=None)
    def test_written_bytes_match_csv_writer(self, tmp_path_factory, recs):
        tmp = tmp_path_factory.mktemp("wr")
        write_recordings_csv(recs, tmp / "fast.csv")
        with (tmp / "ref.csv").open("w", newline="", encoding="utf-8") as fh:
            reference_write(recs, fh)
        assert (tmp / "fast.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    def test_repeated_timestamp_raises_without_the_row_path(self, tmp_path, monkeypatch):
        """A file the fast path reads, holding one repeated timestamp, raises the row path's
        error at once: the recording that holds the repeat, and the timestamp."""
        path = write_lines(tmp_path / "r.csv", [
            HEADER, "s0,s0,walking,accel,50,1,2,3", "s0,s0,running,accel,100,1,2,3",
            "s0,s0,walking,accel,0,1,2,3", "s0,s0,running,accel,0,1,2,3",
            "s0,s0,running,accel,100,4,5,6"])
        message = "duplicate/backward timestamp 100 for (s0, s0, Running, Accelerometer)"
        assert parse_outcome(_parse_rows, path) == (NonMonotonicTimestamps, message, None)
        assert ingest._parse_fast(path) is not None

        def row_path(path):
            raise AssertionError("the row path parsed a file the fast path read")
        monkeypatch.setattr(ingest, "_parse_rows", row_path)
        with pytest.raises(NonMonotonicTimestamps, match=rf"^{re.escape(message)}$"):
            parse_recordings_csv(path)

    def test_parsed_samples_are_read_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_recordings_csv([_rec(t_ms=(50, 0, 100))], path)
        (rec,) = parse_recordings_csv(path)
        assert rec.samples.t_ms.tolist() == [0, 50, 100]
        with pytest.raises(ValueError):
            rec.samples.x[0] = 1.0


class TestAtomicWrites:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, error):
        """A write whose recordings raise part way leaves the file it would replace as it
        was, and no temporary file beside it."""
        path = tmp_path / "recordings.csv"
        write_recordings_csv([_rec()], path)
        before = path.read_bytes()

        def recordings():
            yield _rec("s1", t_ms=(0, 50, 100))
            raise error
        with pytest.raises(error):
            write_recordings_csv(recordings(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestManifestCsv:
    def test_round_trip(self, small_dataset, tmp_path):
        _, _, metas = small_dataset
        path = tmp_path / "m.csv"
        write_manifest_csv(metas, path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "gender", "age_years", "handedness"]
        assert [SubjectMeta(s, g, int(a), h) for s, g, a, h in rows[1:]] == metas


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
