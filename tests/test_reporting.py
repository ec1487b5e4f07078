"""File formats: feature CSV, results CSV, treatment report, SVG, manifests."""
import hashlib
import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from harkit.classifiers import ModelKind, ModelSpec
from harkit.errors import MalformedRow
from harkit.evaluation import NR_RP, EvalConfig, Protocol, evaluate
from harkit.features import Bank, FeatureVector, feature_matrix
from harkit.ingest import Activity
from harkit.reporting import (
    RESULTS_HEADER,
    RunManifest,
    atomic_write_text,
    is_features_csv,
    read_features_csv,
    read_results_csv,
    report_rows,
    sha256_file,
    sweep_svg,
    treatment_report,
    write_features_csv,
    write_results_csv,
)


@pytest.fixture
def vectors(rng):
    return [
        FeatureVector(Bank.B70, rng.normal(size=70), Activity(i % 5), f"s{i % 3}", 75)
        for i in range(30)
    ]


@pytest.fixture
def config_and_report(vectors):
    config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
                        NR_RP, Protocol.Impersonal, seed=1)
    X, y, subjects = feature_matrix(vectors)
    return config, evaluate(config, X, y, subjects)


class TestAtomicWrite:
    def test_creates_and_overwrites(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files


class TestFeaturesCsv:
    def test_round_trip_exact(self, vectors, tmp_path):
        path = tmp_path / "f.csv"
        write_features_csv(vectors, path)
        assert is_features_csv(path)
        back = read_features_csv(path)
        assert len(back) == len(vectors)
        for a, b in zip(vectors, back):
            assert a.bank is b.bank
            assert a.activity is b.activity
            assert a.subject_id == b.subject_id
            np.testing.assert_array_equal(a.values, b.values)  # bit-exact

    def test_window_round_trip(self, vectors, tmp_path):
        path = tmp_path / "f.csv"
        write_features_csv([replace(fv, window=80) for fv in vectors], path)
        assert path.read_text().splitlines()[1].split(",")[2:4] == ["b", "80"]
        assert {fv.window for fv in read_features_csv(path)} == {80}

    def test_mixed_windows_rejected(self, vectors, tmp_path):
        with pytest.raises(ValueError):
            write_features_csv([vectors[0], replace(vectors[1], window=100)], tmp_path / "m.csv")
        path = tmp_path / "f.csv"
        write_features_csv(vectors[:3], path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",75,", ",100,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as ei:
            read_features_csv(path)
        assert ei.value.line_no == 4

    @pytest.mark.parametrize("cell", ["0", "-75", "x", ""])
    def test_bad_window_reports_line(self, vectors, tmp_path, cell):
        path = tmp_path / "f.csv"
        write_features_csv(vectors[:2], path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",75,", f",{cell},", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as ei:
            read_features_csv(path)
        assert ei.value.line_no == 3

    def test_header_without_window_column_rejected(self, vectors, tmp_path):
        path = tmp_path / "old.csv"
        write_features_csv(vectors[:2], path)
        path.write_text("\n".join(",".join(line.split(",")[:3] + line.split(",")[4:])
                                  for line in path.read_text().splitlines()) + "\n")
        with pytest.raises(MalformedRow) as ei:
            read_features_csv(path)
        assert ei.value.line_no == 1

    def test_mixed_banks_rejected(self, rng, tmp_path):
        mixed = [
            FeatureVector(Bank.B70, rng.normal(size=70), Activity.Walking, "s0", 75),
            FeatureVector(Bank.A43, rng.normal(size=43), Activity.Walking, "s0", 75),
        ]
        with pytest.raises(ValueError):
            write_features_csv(mixed, tmp_path / "m.csv")

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(MalformedRow):
            read_features_csv(path)
        assert not is_features_csv(path)

    def test_bad_row_reports_line(self, vectors, tmp_path):
        path = tmp_path / "t.csv"
        write_features_csv(vectors[:2], path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drop one field from row 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as ei:
            read_features_csv(path)
        assert ei.value.line_no == 3


    def test_error_names_the_physical_line_after_quoted_newlines(self, vectors, tmp_path):
        """The first record spans lines 2-3, so the second starts on line 4."""
        path = tmp_path / "q.csv"
        write_features_csv([replace(vectors[0], subject_id="a\nb"), vectors[1]], path)
        path.write_bytes(b",0,".join(path.read_bytes().rsplit(b",75,", 1)))
        with pytest.raises(MalformedRow) as ei:
            read_features_csv(path)
        assert ei.value.line_no == 4
        assert str(ei.value).startswith("line 4: window 0 is not positive")


class TestResultsCsv:
    def test_row_shape_and_round_trip(self, config_and_report, tmp_path):
        config, report = config_and_report
        rows = report_rows(config, report)
        # 5 activity recalls + overall, then the same per evaluation unit
        assert len(rows) == 6 + report.n_units * 6
        assert all(len(r) == len(RESULTS_HEADER) for r in rows)
        path = tmp_path / "r.csv"
        write_results_csv(rows, path)
        back = read_results_csv(path)
        assert len(back) == len(rows)
        assert back[0]["protocol"] == "impersonal"
        assert back[0]["metric"] == "recall"
        overall = [r for r in back if r["metric"] == "accuracy"]
        assert float(overall[0]["value"]) == report.overall_accuracy

    def test_per_unit_rows_tagged_with_unit(self, config_and_report, tmp_path):
        config, report = config_and_report
        path = tmp_path / "r.csv"
        write_results_csv(report_rows(config, report), path)
        units = {
            r["metric"].split(":", 1)[1]
            for r in read_results_csv(path) if ":" in r["metric"]
        }
        assert units == set(report.unit_ids)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MalformedRow):
            read_results_csv(path)

    @pytest.mark.parametrize("window", ["0", "-75", "7.5", "abc", ""])
    def test_window_that_is_no_positive_integer_reports_line(self, tmp_path, window):
        path = tmp_path / "r.csv"
        row = ["personal", "nb", "b", "nr-rp", "75", "overall", "accuracy", "0.5", "", "2"]
        write_results_csv([row, row[:4] + [window] + row[5:]], path)
        with pytest.raises(MalformedRow) as ei:
            read_results_csv(path)
        assert ei.value.line_no == 3
        assert str(ei.value) == f"line 3: window {window!r} is not a positive integer"



@pytest.mark.parametrize("read, header", [
    (read_features_csv, "subject_id,activity,bank,window,f0"),
    (read_results_csv, ",".join(RESULTS_HEADER)),
], ids=["features", "results"])
def test_non_utf8_file_is_malformed_at_the_byte_s_line(tmp_path, read, header):
    path = tmp_path / "latin1.csv"
    path.write_bytes(header.encode() + b"\n\n\xe9\n")
    with pytest.raises(MalformedRow) as ei:
        read(path)
    assert ei.value.line_no == 3
    assert str(ei.value) == f"line 3: {path} is not UTF-8 text"

def result_rows(treatment, activity, values, window="75"):
    """Results-CSV rows of one impersonal nb cell: a summary row plus one row per unit."""
    base = {"protocol": "impersonal", "classifier": "nb", "bank": "b", "treatment": treatment,
            "window": window, "activity": activity, "ci_halfwidth": "",
            "n_units": str(len(values))}
    rows = [{**base, "metric": "accuracy", "value": "0.5"}]
    rows += [{**base, "metric": f"accuracy:s{i}", "value": repr(v)} for i, v in enumerate(values)]
    return rows


class TestTreatmentReport:
    def test_pair_gets_t_test_row(self):
        rows = (result_rows("nr-rp", "overall", [0.9, 0.92, 0.88, 0.91])
                + result_rows("unr-rp", "overall", [0.5, 0.52, 0.49, 0.51])
                + result_rows("nr-rp", "walking", [0.7, 0.8]))  # no UNR-RP: no row
        lines = treatment_report(rows).splitlines()
        assert lines[:2] == ["# Treatment comparison report", ""]
        assert lines[5] == "| protocol | classifier | bank | window | activity | NR-RP | UNR-RP | t | p |"
        (row,) = lines[7:]
        assert row.startswith("| impersonal | nb | b | 75 | overall | **0.9025** | 0.5050 | ")
        t, p = (float(v) for v in row.strip("| ").split(" | ")[-2:])
        assert t > 10 and p < 0.02

    def test_without_pair_lists_means(self):
        rows = (result_rows("nr-rp", "overall", [0.9, 0.8])
                + result_rows("nr-nrp", "overall", [0.6, 0.7]))
        assert treatment_report(rows) == "\n".join([
            "# Treatment comparison report",
            "",
            "_Note: no NR-RP / UNR-RP pair found; t-test column omitted._",
            "",
            "| protocol | classifier | bank | window | activity | treatment | mean |",
            "|---|---|---|---|---|---|---|",
            "| impersonal | nb | b | 75 | overall | nr-nrp | 0.6500 |",
            "| impersonal | nb | b | 75 | overall | nr-rp | 0.8500 |",
        ]) + "\n"


    @pytest.mark.parametrize("treatments", [("nr-rp", "unr-rp"), ("nr-rp", "nr-nrp")])
    def test_windows_in_numeric_order(self, treatments):
        """Windows 150, 25 and 75 are listed 25, 75, 150, not in their text order."""
        rows = [row for window in ("150", "25", "75") for treatment in treatments
                for row in result_rows(treatment, "overall", [0.9, 0.8, 0.85], window)]
        lines = treatment_report(rows).splitlines()
        windows = [line.split(" | ")[3] for line in lines if line.startswith("| impersonal")]
        per_window = 1 if "unr-rp" in treatments else 2  # a t-test row, or a mean each
        assert windows == [w for w in ("25", "75", "150") for _ in range(per_window)]


class TestSweepSvg:
    def test_well_formed_xml_with_polylines(self):
        series = {
            "dtree": {25: 0.9, 150: 0.95, 300: 0.93},
            "knn": {25: 0.7, 150: 0.65, 300: 0.6},
        }
        svg = sweep_svg(series)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:polyline", ns)) == 2
        texts = [t.text for t in root.findall("s:text", ns)]
        assert "samples per window" in texts
        assert "overall accuracy" in texts

    @pytest.mark.parametrize("n_series", [8, 13])
    def test_series_past_the_palette_get_their_own_dash(self, n_series):
        series = {f"s{i:02d}": {w: 0.3 + 0.05 * i + w / 1000 for w in (25, 75, 150)}
                  for i in range(n_series)}
        svg = sweep_svg(series)
        root = ET.fromstring(svg)
        ns = {"s": "http://www.w3.org/2000/svg"}
        styles = [(p.get("stroke"), p.get("stroke-dasharray"))
                  for p in root.findall("s:polyline", ns)]
        assert len(set(styles)) == len(styles) == n_series
        assert all(dash is None for _, dash in styles[:6])
        # the legend shows each dashed series' stroke and dash
        swatches = [(e.get("stroke"), e.get("stroke-dasharray"))
                    for e in root.findall("s:line", ns) if e.get("stroke-dasharray")]
        assert swatches == styles[6:]
        # the first six series draw exactly as in a chart of those six alone
        six = sweep_svg(dict(list(series.items())[:6])).splitlines()[:-1]
        assert svg.splitlines()[:len(six)] == six

    def test_single_point_degenerates_to_marker(self):
        svg = sweep_svg({"knn": {75: 0.8}})
        root = ET.fromstring(svg)
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:polyline", ns)) == 0
        assert len(root.findall("s:circle", ns)) == 1


class TestManifest:
    def test_json_fields(self):
        m = RunManifest(command="grid", config={"window": 75}, seed=7,
                        input_digests={"a.csv": "ff"}, duration_s=1.5)
        data = json.loads(m.to_json())
        assert data["command"] == "grid"
        assert data["seed"] == 7
        assert data["config"] == {"window": 75}
        assert "toolkit_version" in data

    def test_sha256_file(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"hello")
        assert sha256_file(path) == hashlib.sha256(b"hello").hexdigest()
