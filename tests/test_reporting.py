"""File formats: feature CSV, results CSV, treatment report, SVG, manifests."""
import hashlib
import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from harkit.classifiers import ModelKind, ModelSpec
from harkit.errors import MalformedRow, SchemaError
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
from harkit.stats import paired_t_test


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
        assert str(ei.value).startswith("line 4: window '0' is not a positive integer")


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
        assert str(ei.value) == (f"line 3: window {window!r} is not a positive integer in "
                                 "ASCII digits without a leading zero")

    BAD_KEYS = [
        ("protocol", "Personal", "is none of personal, impersonal"),
        ("classifier", "dtreee", "is none of dtree, nb, knn, svm, bag"),
        ("bank", "B", "is none of a, b"),
        ("treatment", "NR-RP", "is none of nr-rp, nr-nrp, unr-rp, unr-nrp"),
        ("treatment", "bogus", "is none of nr-rp, nr-nrp, unr-rp, unr-nrp"),
        ("activity", "Walking", "is none of walking, upstairs, downstairs, "),
        ("activity", "", "is none of walking, upstairs, downstairs, "),
        ("metric", "precision", "is not recall or accuracy, optionally followed by :<unit>"),
        ("metric", "accuracy:", "is not recall or accuracy, optionally followed by :<unit>"),
        ("metric", "recall_s0", "is not recall or accuracy, optionally followed by :<unit>"),
        ("metric", " accuracy", "is not recall or accuracy, optionally followed by :<unit>"),
    ]

    @pytest.mark.parametrize("column, text, rule", BAD_KEYS,
                             ids=[f"{column}={text!r}" for column, text, _ in BAD_KEYS])
    def test_key_that_grid_does_not_write_reports_line_and_column(self, tmp_path, column,
                                                                   text, rule):
        """A treatment is matched exactly, not lowercased as `Treatment.from_name` does:
        a baseline written NR-RP would get no t-test against it."""
        path = tmp_path / "r.csv"
        row = ["personal", "nb", "b", "nr-rp", "75", "overall", "accuracy:s0", "0.5", "", "2"]
        bad = list(row)
        bad[RESULTS_HEADER.index(column)] = text
        write_results_csv([row, bad], path)
        with pytest.raises(MalformedRow) as ei:
            read_results_csv(path)
        assert ei.value.line_no == 3
        assert str(ei.value).startswith(f"line 3: {column} {text!r} {rule}")

    @pytest.mark.parametrize("metric", ["accuracy:a:b", "recall:\u00e9 x"])
    def test_any_non_empty_unit_is_read(self, tmp_path, metric):
        path = tmp_path / "r.csv"
        write_results_csv([["impersonal", "bag", "a", "unr-nrp", "150", "walking", metric,
                            "0.5", "", "2"]], path)
        assert read_results_csv(path)[0]["metric"] == metric



@pytest.mark.parametrize("window", ["7_5", " 75", "75 ", "+75", "075", "\u0667\u0665", "0"],
                         ids=repr)
@pytest.mark.parametrize("kind", ["features", "results"])
def test_both_readers_take_only_ascii_digits_without_a_leading_zero(
        vectors, config_and_report, tmp_path, kind, window):
    """int() reads each of these windows as 75 (or 0), and str.isdecimal() passes the
    Arabic-Indic "75"; both readers refuse them all, naming the line."""
    path = tmp_path / "w.csv"
    if kind == "features":
        write_features_csv(vectors[:2], path)
        read = read_features_csv
    else:
        write_results_csv(report_rows(*config_and_report)[:2], path)
        read = read_results_csv
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",75,", f",{window},", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as ei:
        read(path)
    assert ei.value.line_no == 3
    assert str(ei.value).startswith(f"line 3: window {window!r} is not a positive integer")


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
    HEADER = [
        "# Treatment comparison report",
        "",
        "Each treatment is paired with nr-rp over the units they share; t > 0 means it "
        "scored higher. p ≤ 0.02 (α) is in **boldface**.",
        "",
        "| protocol | classifier | bank | window | activity | treatment | mean | t | p |",
        "|---|---|---|---|---|---|---|---|---|",
    ]

    def test_pair_gets_t_test_row(self):
        rows = (result_rows("nr-rp", "overall", [0.9, 0.92, 0.88, 0.91])
                + result_rows("unr-rp", "overall", [0.5, 0.52, 0.49, 0.51])
                + result_rows("nr-rp", "walking", [0.7, 0.8]))  # no UNR-RP: a mean row
        lines = treatment_report(rows).splitlines()
        assert lines[:6] == self.HEADER
        base, pair, walking = lines[6:]
        assert base == "| impersonal | nb | b | 75 | overall | nr-rp | 0.9025 |  |  |"
        assert pair.startswith("| impersonal | nb | b | 75 | overall | unr-rp | 0.5050 | ")
        t, p = pair.strip("| ").split(" | ")[-2:]
        assert float(t) < -10
        assert p.startswith("**") and p.endswith("**") and float(p.strip("*")) < 0.02
        assert walking == "| impersonal | nb | b | 75 | walking | nr-rp | 0.7500 |  |  |"

    def test_without_pair_lists_means(self):
        """A cell without UNR-RP lists every treatment's mean and pairs NR-NRP with NR-RP."""
        rows = (result_rows("nr-rp", "overall", [0.9, 0.8])
                + result_rows("nr-nrp", "overall", [0.6, 0.7]))
        assert treatment_report(rows) == "\n".join(self.HEADER + [
            "| impersonal | nb | b | 75 | overall | nr-rp | 0.8500 |  |  |",
            "| impersonal | nb | b | 75 | overall | nr-nrp | 0.6500 | -2.000 | 0.2952 |",
        ]) + "\n"

    def test_every_grid_treatment_is_paired_with_nr_rp(self):
        rows = (result_rows("unr-rp", "overall", [0.95, 0.9, 0.97])
                + result_rows("nr-nrp", "overall", [0.8, 0.7, 0.85])
                + result_rows("nr-rp", "overall", [0.81, 0.75, 0.83]))
        lines = treatment_report(rows).splitlines()[6:]
        assert [line.split(" | ")[5] for line in lines] == ["nr-rp", "nr-nrp", "unr-rp"]
        assert lines[0].endswith(" | 0.7967 |  |  |")
        for line, (a, b) in zip(lines[1:], [([0.8, 0.7, 0.85], [0.81, 0.75, 0.83]),
                                             ([0.95, 0.9, 0.97], [0.81, 0.75, 0.83])]):
            res = paired_t_test(np.array(a), np.array(b))
            p = f"{res.p_two_sided:.4f}"
            assert line.endswith(f" | {res.t_stat:.3f} | "
                                 + (f"**{p}**" if res.p_two_sided <= 0.02 else p) + " |")

    def test_infinite_t_keeps_its_sign(self):
        """A treatment below NR-RP by the same amount in every unit has t = -inf."""
        rows = (result_rows("nr-rp", "overall", [0.25, 0.5, 0.75])
                + result_rows("unr-rp", "overall", [0.0, 0.25, 0.5])
                + result_rows("nr-nrp", "overall", [0.5, 0.75, 1.0]))
        lines = treatment_report(rows).splitlines()[6:]
        assert lines[1] == "| impersonal | nb | b | 75 | overall | nr-nrp | 0.7500 | inf | **0.0000** |"
        assert lines[2] == "| impersonal | nb | b | 75 | overall | unr-rp | 0.2500 | -inf | **0.0000** |"

    def test_unit_given_twice_raises(self):
        """A second value of one unit would replace the first and move the mean."""
        rows = result_rows("nr-rp", "overall", [0.5, 0.6, 0.7])
        rows.append(dict(rows[1], value="0.99"))
        with pytest.raises(SchemaError, match="unit 's0' of impersonal nb b 75 overall "
                                              "nr-rp is given twice"):
            treatment_report(rows)

    def test_fewer_than_two_shared_units_get_no_t_test(self):
        rows = (result_rows("nr-rp", "overall", [0.9, 0.8])
                + [dict(r, metric=r["metric"].replace("s1", "s9"))
                   for r in result_rows("unr-rp", "overall", [0.6, 0.7])])
        assert treatment_report(rows).splitlines()[7:] == [
            "| impersonal | nb | b | 75 | overall | unr-rp | 0.6500 |  |  |"]

    @pytest.mark.parametrize("treatments", [("nr-rp", "unr-rp"), ("nr-rp", "nr-nrp")])
    def test_windows_in_numeric_order(self, treatments):
        """Windows 150, 25 and 75 are listed 25, 75, 150, not in their text order, with
        one row per treatment each."""
        rows = [row for window in ("150", "25", "75") for treatment in treatments
                for row in result_rows(treatment, "overall", [0.9, 0.8, 0.85], window)]
        lines = treatment_report(rows).splitlines()
        windows = [line.split(" | ")[3] for line in lines if line.startswith("| impersonal")]
        assert windows == [w for w in ("25", "75", "150") for _ in treatments]


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
