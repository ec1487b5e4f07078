"""Command-line behavior: artifacts, determinism, exit codes."""
import ast
import errno
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import harkit
import harkit.classifiers as classifiers
import harkit.errors as errors
import harkit.evaluation as ev
from harkit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_SCHEMA,
    EXIT_USAGE,
    build_parser,
    main,
)
from harkit.ingest import Activity, SensorKind, duration_s, parse_recordings_csv
from harkit.reporting import RESULTS_HEADER, read_results_csv, write_results_csv

README = Path(__file__).resolve().parents[1] / "README.md"

HEADER = "subject_id,session_id,activity,sensor,timestamp_ms,x,y,z"
SVG = {"s": "http://www.w3.org/2000/svg"}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small synthetic dataset generated through the CLI itself."""
    out = tmp_path_factory.mktemp("synth")
    code = main(["--seed", "3", "synth", "--subjects", "2", "--minutes", "0.5",
                 "-o", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def recordings_csv(data_dir):
    return data_dir / "recordings.csv"


@pytest.fixture
def extraction_calls(monkeypatch):
    """How often the feature builder has filtered a recording and called a bank."""
    calls = {"filter": 0, "bank": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ev, "filter_recording", counting("filter", ev.filter_recording))
    monkeypatch.setattr(ev, "bank_matrix", counting("bank", ev.bank_matrix))
    return calls


@pytest.fixture(scope="module")
def bank_b_csv(recordings_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("features") / "features.csv"
    assert main(["extract", str(recordings_csv), "--bank", "b", "-o", str(out)]) == EXIT_OK
    return out


class TestSynth:
    def test_writes_expected_files(self, data_dir):
        assert (data_dir / "recordings.csv").exists()
        assert (data_dir / "manifest.csv").exists()
        manifest = json.loads((data_dir / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["config"]["n_subjects"] == 2

    def test_har_seed_env_provides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAR_SEED", "55")
        out = tmp_path / "env"
        assert main(["synth", "--subjects", "1", "--minutes", "0.1",
                     "-o", str(out)]) == EXIT_OK
        assert json.loads((out / "synth_manifest.json").read_text())["seed"] == 55

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAR_SEED", "55")
        out = tmp_path / "flag"
        assert main(["--seed", "8", "synth", "--subjects", "1", "--minutes", "0.1",
                     "-o", str(out)]) == EXIT_OK
        assert json.loads((out / "synth_manifest.json").read_text())["seed"] == 8

    def test_rate_above_1000_hz_is_usage_error(self, tmp_path, capsys):
        """Timestamps are whole milliseconds: faster samples would share one."""
        out = tmp_path / "fast"
        assert main(["synth", "--subjects", "1", "--minutes", "0.01", "--rate", "3000",
                     "-o", str(out)]) == EXIT_USAGE
        assert "at most 1000" in capsys.readouterr().err
        assert not out.exists()
        assert main(["synth", "--subjects", "1", "--minutes", "0.01", "--rate", "1000",
                     "-o", str(out)]) == EXIT_OK
        assert main(["summary", str(out / "recordings.csv")]) == EXIT_OK

    def test_non_integer_har_seed_is_usage_error(self, recordings_csv, monkeypatch, capsys):
        monkeypatch.setenv("HAR_SEED", "abc")
        assert main(["summary", str(recordings_csv)]) == EXIT_USAGE
        assert "HAR_SEED must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["synth", "--subjects", "1", "--minutes", "0.05"],
        ["grid", "RECORDINGS", "--model", "nb", "--treatment", "nr-rp",
         "--protocol", "personal"],
    ])
    def test_negative_seed_flag_is_usage_error(self, recordings_csv, tmp_path, capsys,
                                               command):
        """NumPy seeds only from non-negative entropy."""
        out = tmp_path / "neg"
        argv = [str(recordings_csv) if a == "RECORDINGS" else a for a in command]
        with pytest.raises(SystemExit) as ei:
            main(["--seed", "-3", *argv, "-o", str(out)])
        assert ei.value.code == EXIT_USAGE
        assert "--seed: must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_har_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HAR_SEED", "-2")
        out = tmp_path / "neg"
        assert main(["synth", "--subjects", "1", "--minutes", "0.05",
                     "-o", str(out)]) == EXIT_USAGE
        assert "HAR_SEED must be a non-negative integer, got '-2'" in capsys.readouterr().err
        assert not out.exists()


class TestSummary:
    def test_prints_rows_and_balance(self, recordings_csv, capsys):
        """One row per recording; each activity has equal minutes per subject, so each
        holds a fifth of the samples."""
        assert main(["summary", str(recordings_csv)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "subject_id,activity,sensor,n_samples,duration_s"
        recordings = parse_recordings_csv(recordings_csv)
        assert lines[1:-1] == [f"{r.subject_id},{r.activity.name},{r.sensor.name},"
                               f"{len(r.samples)},{duration_s(r):.1f}" for r in recordings]
        label, _, balance = lines[-1].partition(": ")
        assert label == "class balance"
        assert ast.literal_eval(balance) == {a.name: 0.2 for a in Activity}

    def test_duration_follows_timestamps(self, tmp_path, capsys):
        out = tmp_path / "fast"
        assert main(["--seed", "1", "synth", "--subjects", "1", "--minutes", "0.5",
                     "--rate", "50", "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["summary", str(out / "recordings.csv")]) == EXIT_OK
        rows = [tuple(line.split(",")) for line in capsys.readouterr().out.splitlines()
                if line.startswith("subj00,")]
        assert len(rows) == 15  # 5 activities x 3 sensors
        assert {row[3:] for row in rows} == {("1500", "30.0")}


class TestExtract:
    def test_writes_feature_csv(self, recordings_csv, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["extract", str(recordings_csv), "--bank", "b",
                     "--window", "75", "-o", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[0]
        assert first.startswith("subject_id,activity,bank,window,f0,")
        assert first.count(",") == 4 + 70 - 1
        assert {line.split(",")[3] for line in out.read_text().splitlines()[1:]} == {"75"}

    @pytest.mark.parametrize("window", ["2", "0"])
    def test_window_too_small_is_usage_error(self, recordings_csv, tmp_path, capsys, window):
        """One rule for every size below 4, the one grid's --window states too."""
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as ei:
            main(["extract", str(recordings_csv), "--window", window, "-o", str(out)])
        assert ei.value.code == EXIT_USAGE
        assert f"--window: must be an integer >= 4, got {window}" in capsys.readouterr().err
        assert not out.exists()


class TestCell:
    """`grid` with one value per axis runs a single evaluation cell."""

    def test_one_cell_artifacts(self, recordings_csv, tmp_path):
        out = tmp_path / "cell"
        assert main(["--seed", "4", "grid", str(recordings_csv),
                     "--model", "dtree", "--bank", "b", "--window", "75",
                     "--protocol", "personal", "--treatment", "nr-rp",
                     "-o", str(out)]) == EXIT_OK
        results = (out / "grid_results.csv").read_text()
        assert results.splitlines()[0] == (
            "protocol,classifier,bank,treatment,window,activity,metric,value,ci_halfwidth,n_units"
        )
        assert "walking" in results
        summary = (out / "summary.md").read_text().splitlines()
        assert len(summary) == 5 and summary[4].startswith(
            "| dtree | nr-rp | personal | b | 75 | ")
        assert json.loads((out / "grid_manifest.json").read_text())["command"] == "grid"

    def test_manifest_holds_output_digests(self, recordings_csv, tmp_path):
        out = tmp_path / "cell"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "nb",
                     "--treatment", "nr-rp", "--protocol", "personal", "--bank", "b",
                     "-o", str(out)]) == EXIT_OK
        manifest = json.loads((out / "grid_manifest.json").read_text())
        results = out / "grid_results.csv"
        digest = hashlib.sha256(results.read_bytes()).hexdigest()
        assert manifest["output_digests"][str(results)] == digest
        assert set(manifest["output_digests"]) == {str(results), str(out / "summary.md")}

    def test_same_seed_same_output(self, recordings_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--seed", "4", "grid", str(recordings_csv),
                "--model", "knn", "--bank", "b", "--window", "100",
                "--treatment", "nr-rp", "--protocol", "impersonal"]
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert (a / "grid_results.csv").read_bytes() == (b / "grid_results.csv").read_bytes()

    def test_accepts_feature_csv_and_matches_recordings_path(self, recordings_csv, tmp_path):
        features = tmp_path / "features.csv"
        assert main(["extract", str(recordings_csv), "--bank", "b",
                     "--window", "100", "-o", str(features)]) == EXIT_OK
        direct, staged = tmp_path / "direct", tmp_path / "staged"
        cell = ["--model", "nb", "--bank", "b", "--window", "100", "--treatment", "nr-rp",
                "--protocol", "impersonal"]
        assert main(["--seed", "4", "grid", str(recordings_csv), *cell,
                     "-o", str(direct)]) == EXIT_OK
        assert main(["--seed", "4", "grid", str(features), *cell, "-o", str(staged)]) == EXIT_OK
        assert ((direct / "grid_results.csv").read_bytes()
                == (staged / "grid_results.csv").read_bytes())

    def test_features_csv_supplies_its_window(self, recordings_csv, tmp_path):
        """Results and manifest carry the window the features were extracted at,
        not --window's default."""
        features = tmp_path / "features.csv"
        assert main(["extract", str(recordings_csv), "--bank", "b",
                     "--window", "100", "-o", str(features)]) == EXIT_OK
        cell = ["--seed", "4", "grid", str(features), "--model", "nb", "--treatment", "nr-rp",
                "--protocol", "personal"]
        out = tmp_path / "cell"
        assert main(cell + ["-o", str(out)]) == EXIT_OK
        assert {r["window"] for r in read_results_csv(out / "grid_results.csv")} == {"100"}
        manifest = json.loads((out / "grid_manifest.json").read_text())
        assert manifest["config"]["window"] == [100]
        same = tmp_path / "same"
        assert main(cell + ["--window", "100", "-o", str(same)]) == EXIT_OK
        assert (same / "grid_results.csv").read_bytes() == (out / "grid_results.csv").read_bytes()

    def test_window_disagreeing_with_features_csv_is_usage_error(
            self, bank_b_csv, tmp_path, capsys):
        assert main(["grid", str(bank_b_csv), "--window", "100",
                     "-o", str(tmp_path / "x")]) == EXIT_USAGE
        assert "extracted at window 75" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_window_range_is_checked_against_features_csv(self, bank_b_csv, tmp_path):
        """A range of the CSV's one window agrees; a huge one disagrees without being listed."""
        cell = ["grid", str(bank_b_csv), "--model", "nb", "--treatment", "nr-rp",
                "--protocol", "personal"]
        assert main([*cell, "--window", "75:75:1", "-o", str(tmp_path / "one")]) == EXIT_OK
        assert main([*cell, "--window", "75:10000000000:1",
                     "-o", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", [["--bank", "a"], ["--sensor", "gyro"],
                                      ["--sensor", "accel"], ["--filter-order", "9"],
                                      ["--filter-order", "3"]])
    def test_recordings_flags_on_features_csv_are_usage_errors(self, bank_b_csv, tmp_path, flag):
        """A features CSV fixes bank, sensor and filter order: a disagreeing --bank,
        or any --sensor or --filter-order, would be silently ignored."""
        assert main(["grid", str(bank_b_csv), *flag, "-o", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    def test_features_csv_manifest_records_its_settings(self, bank_b_csv, tmp_path):
        out = tmp_path / "cell"
        assert main(["--seed", "4", "grid", str(bank_b_csv), "--model", "nb", "--bank", "b",
                     "--treatment", "nr-rp", "--protocol", "personal", "-o", str(out)]) == EXIT_OK
        config = json.loads((out / "grid_manifest.json").read_text())["config"]
        assert (config["bank"], config["window"]) == (["b"], [75])
        assert config["sensor"] is None and config["filter_order"] is None

    def test_manifest_config_records_every_flag(self, recordings_csv, tmp_path):
        configs = []
        for learners in ("2", "3"):
            out = tmp_path / learners
            assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "bag",
                         "--bank", "b", "--window", "100", "--treatment", "nr-rp",
                         "--protocol", "personal", "--bag-learners", learners,
                         "-o", str(out)]) == EXIT_OK
            configs.append(json.loads((out / "grid_manifest.json").read_text())["config"])
        assert configs[0] != configs[1]
        assert configs[0] == {
            "model": ["bag"], "bank": ["b"], "window": [100], "treatment": ["nr-rp"],
            "protocol": ["personal"], "folds": 10,
            "knn_k": 10, "bag_learners": 2, "svm_c": 1.0, "tree_splits": 85,
            "filter_order": 3, "sensor": "accel",
        }


class TestGridWindows:
    """`grid` over a window axis: what `sweep` did, as one more grid axis."""

    ONE_MODEL = ["--model", "dtree", "--treatment", "nr-rp", "--protocol", "impersonal",
                 "--bank", "b"]

    def test_rows_for_every_window(self, recordings_csv, tmp_path):
        out = tmp_path / "grid"
        assert main(["--seed", "4", "grid", str(recordings_csv), *self.ONE_MODEL,
                     "--window", "100,300", "-o", str(out)]) == EXIT_OK
        root = ET.fromstring((out / "sweep.svg").read_text())  # well-formed XML
        assert root.tag.endswith("svg")
        rows = read_results_csv(out / "grid_results.csv")
        assert [r["window"] for r in rows if r["metric"] == "accuracy"] == ["100", "300"]
        assert {r["n_units"] for r in rows} == {"2"}

    def test_colon_range_windows(self, recordings_csv, tmp_path):
        out = tmp_path / "grid"
        assert main(["--seed", "4", "grid", str(recordings_csv), *self.ONE_MODEL,
                     "--window", "100:300:100", "-o", str(out)]) == EXIT_OK
        manifest = json.loads((out / "grid_manifest.json").read_text())
        assert manifest["config"]["window"] == [100, 200, 300]

    @pytest.mark.parametrize("window", ["2", "a:b", "100:300", "100:300:0", "300:100:100", "",
                                        "100:25:-25"])
    def test_malformed_or_small_window_is_usage_error(self, recordings_csv, tmp_path, window):
        assert main(["grid", str(recordings_csv), "--window", window,
                     "-o", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    def test_window_longer_than_recordings_is_protocol_error(self, recordings_csv, tmp_path):
        assert main(["grid", str(recordings_csv), *self.ONE_MODEL, "--window", "100000",
                     "-o", str(tmp_path / "x")]) == EXIT_PROTOCOL

    def test_window_no_recording_holds_fails_before_extraction(
            self, recordings_csv, tmp_path, capsys, extraction_calls):
        assert main(["grid", str(recordings_csv), *self.ONE_MODEL, "--window", "100,100000",
                     "-o", str(tmp_path / "x")]) == EXIT_PROTOCOL
        assert "no windows of 100000 samples" in capsys.readouterr().err
        assert extraction_calls["bank"] == 0
        assert not (tmp_path / "x").exists()

    def test_huge_window_range_is_protocol_error(self, recordings_csv, tmp_path, capsys):
        """A range is checked against the recordings, never listed: the first size past
        the longest recording (600 samples) fails."""
        assert main(["grid", str(recordings_csv), *self.ONE_MODEL,
                     "--window", "4:10000000000:1", "-o", str(tmp_path / "x")]) == EXIT_PROTOCOL
        assert "no windows of 601 samples" in capsys.readouterr().err

    def test_one_model_outputs_are_unchanged(self, recordings_csv, tmp_path):
        # sha256 of the files the one-model window sweep wrote before it became a
        # grid axis; its rows and chart must stay byte for byte
        out = tmp_path / "one"
        assert main(["--seed", "4", "grid", str(recordings_csv), *self.ONE_MODEL,
                     "--window", "100,300", "-o", str(out)]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("grid_results.csv", "sweep.svg")}
        assert digests == {
            "grid_results.csv": "85bcb2eac0494cf232896034377e6e692441bc1c2eebb6595afe425ccd7d0b76",
            "sweep.svg": "b96c0fc5652f40dbb4209c8aeb69d2be4afd9be2b4b313cfbbccf8cf53e0b500",
        }

    def test_several_models(self, recordings_csv, tmp_path):
        common = ["--seed", "4", "grid", str(recordings_csv), "--bank", "b",
                  "--window", "100,300", "--protocol", "impersonal", "--treatment", "nr-rp"]
        both, single = tmp_path / "both", tmp_path / "single"
        assert main(common + ["--model", "nb", "dtree", "-o", str(both)]) == EXIT_OK
        assert main(common + ["--model", "nb", "-o", str(single)]) == EXIT_OK
        rows = read_results_csv(both / "grid_results.csv")
        assert {r["classifier"] for r in rows} == {"nb", "dtree"}
        assert [r for r in rows if r["classifier"] == "nb"] == read_results_csv(
            single / "grid_results.csv")
        # one overall-accuracy series per model, no per-activity series
        root = ET.fromstring((both / "sweep.svg").read_text())
        assert len(root.findall("s:polyline", SVG)) == 2
        assert sorted(e.text for e in root.findall("s:text", SVG)
                      if e.text in ("nb", "dtree")) == ["dtree", "nb"]
        manifest = json.loads((both / "grid_manifest.json").read_text())
        assert manifest["config"]["model"] == ["nb", "dtree"]

    def test_filters_once_and_extracts_once_per_bank_and_window(
            self, recordings_csv, tmp_path, extraction_calls):
        calls = extraction_calls
        out = tmp_path / "grid"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "nb", "dtree",
                     "--treatment", "nr-rp", "--protocol", "impersonal", "personal",
                     "--bank", "a", "b", "--window", "100:300:100", "-o", str(out)]) == EXIT_OK
        accel = sum(r.sensor is SensorKind.Accelerometer
                    for r in parse_recordings_csv(recordings_csv))
        assert calls == {"filter": accel, "bank": accel * 2 * 3}
        rows = read_results_csv(out / "grid_results.csv")
        assert len([r for r in rows if r["metric"] == "accuracy"]) == 2 * 2 * 2 * 3
        labels = {e.text for e in ET.fromstring((out / "sweep.svg").read_text())
                  .findall("s:text", SVG) if e.text.startswith(("nb", "dtree"))}
        assert labels == {f"{m}, bank {b}, {p}" for m in ("nb", "dtree") for b in "ab"
                          for p in ("impersonal", "personal")}

    def test_duplicate_axis_values_run_once(self, recordings_csv, tmp_path):
        out = tmp_path / "dup"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "nb", "nb",
                     "--treatment", "nr-rp", "nr-rp", "--protocol", "impersonal", "impersonal",
                     "--bank", "b", "b", "--window", "100,100,300", "-o", str(out)]) == EXIT_OK
        rows = read_results_csv(out / "grid_results.csv")
        assert [r["window"] for r in rows if r["metric"] == "accuracy"] == ["100", "300"]
        config = json.loads((out / "grid_manifest.json").read_text())["config"]
        assert [config[k] for k in ("model", "treatment", "protocol", "bank", "window")] == [
            ["nb"], ["nr-rp"], ["impersonal"], ["b"], [100, 300]]


class TestGrid:
    @pytest.fixture(scope="class")
    def grid_dir(self, recordings_csv, tmp_path_factory):
        out = tmp_path_factory.mktemp("grid")
        assert main(["--seed", "4", "grid", str(recordings_csv), "--bank", "b",
                     "--bag-learners", "2", "-o", str(out)]) == EXIT_OK
        return out

    def test_every_cell_and_report(self, grid_dir, tmp_path):
        rows = read_results_csv(grid_dir / "grid_results.csv")
        cells = {(r["classifier"], r["treatment"], r["protocol"]) for r in rows}
        assert cells == {(m, t, p) for m in ("dtree", "nb", "knn", "svm", "bag")
                         for t in ("nr-rp", "nr-nrp", "unr-rp")
                         for p in ("personal", "impersonal")}
        summary = (grid_dir / "summary.md").read_text().splitlines()
        assert summary[2] == ("| model | treatment | protocol | bank | window | accuracy "
                              "| seconds |")
        assert len(summary) == 4 + len(cells)
        manifest = json.loads((grid_dir / "grid_manifest.json").read_text())
        assert manifest["command"] == "grid"
        assert set(manifest["output_digests"]) == {
            str(grid_dir / "grid_results.csv"), str(grid_dir / "summary.md")}
        report = tmp_path / "report.md"
        assert main(["report", str(grid_dir / "grid_results.csv"),
                     "-o", str(report)]) == EXIT_OK
        md = report.read_text()
        assert "| p |" in md
        assert "| impersonal | svm | b | 75 | overall |" in md
        assert "| nr-nrp |" in md

    def test_one_cell_rows_equal_its_block(self, grid_dir, recordings_csv, tmp_path):
        out = tmp_path / "cell"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--bank", "b",
                     "--bag-learners", "2", "--model", "bag", "--treatment", "unr-rp",
                     "--protocol", "personal", "-o", str(out)]) == EXIT_OK
        block = [r for r in read_results_csv(grid_dir / "grid_results.csv")
                 if (r["classifier"], r["treatment"], r["protocol"])
                 == ("bag", "unr-rp", "personal")]
        assert block == read_results_csv(out / "grid_results.csv")

    def test_results_csv_is_unchanged(self, tmp_path):
        # sha256 of the rows a small grid writes on a three-subject dataset: both
        # protocols, so pooled and per-unit recall, accuracy and the CI stay byte for byte
        data, out = tmp_path / "data", tmp_path / "grid"
        assert main(["--seed", "4", "synth", "--subjects", "3", "--minutes", "0.5",
                     "-o", str(data)]) == EXIT_OK
        assert main(["--seed", "4", "grid", str(data / "recordings.csv"), "--model", "nb",
                     "dtree", "--bank", "b", "--treatment", "nr-rp", "unr-rp",
                     "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256((out / "grid_results.csv").read_bytes()).hexdigest() == (
            "7c44cebc5b8680b4d1611b877de9ef5cacfaf7fe0702cc56ee82ea3a4a212d36")

    def test_svm_results_csv_is_unchanged(self, tmp_path):
        # sha256 of the SVM rows of both banks, both protocols and two treatments on the
        # three-subject dataset, as the SVM wrote them when it trained one machine at a time
        data, out = tmp_path / "data", tmp_path / "grid"
        assert main(["--seed", "4", "synth", "--subjects", "3", "--minutes", "0.5",
                     "-o", str(data)]) == EXIT_OK
        assert main(["--seed", "4", "grid", str(data / "recordings.csv"), "--model", "svm",
                     "--bank", "a", "b", "--treatment", "nr-rp", "unr-rp",
                     "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256((out / "grid_results.csv").read_bytes()).hexdigest() == (
            "96b4db42128966ffc084f8727164d52e26759e35048757cc5a72b9294e05db66")

    def test_features_csv_supplies_its_window(self, recordings_csv, tmp_path):
        features = tmp_path / "features.csv"
        assert main(["extract", str(recordings_csv), "--bank", "b",
                     "--window", "100", "-o", str(features)]) == EXIT_OK
        out = tmp_path / "grid"
        assert main(["--seed", "4", "grid", str(features), "--bag-learners", "2",
                     "-o", str(out)]) == EXIT_OK
        assert {r["window"] for r in read_results_csv(out / "grid_results.csv")} == {"100"}
        assert json.loads((out / "grid_manifest.json").read_text())["config"]["window"] == [100]


class TestSvmBudgetHealth:
    """The grid manifest counts, per cell, the SVM pairs that stopped at the SMO step
    budget and the SMO steps of all its pairs; a run with a pair at the budget prints one
    line on stderr."""

    def test_one_cell_counts_pairs_at_the_budget(self, recordings_csv, tmp_path, capsys,
                                                 monkeypatch):
        args = ["--seed", "4", "grid", str(recordings_csv), "--model", "svm", "--bank", "b",
                "--treatment", "nr-rp", "--protocol", "impersonal", "-o"]
        assert main(args + [str(tmp_path / "full")]) == EXIT_OK
        assert "budget" not in capsys.readouterr().err
        monkeypatch.setattr(classifiers, "_SMO_STEPS_PER_ROW", 0)
        assert main(args + [str(tmp_path / "tiny")]) == EXIT_OK
        # 2 held-out subjects x 10 one-vs-one pairs
        assert "svm: 20/20 pairs hit the step budget" in capsys.readouterr().err
        full, tiny = (json.loads((tmp_path / d / "grid_manifest.json").read_text())
                      for d in ("full", "tiny"))
        # the steps are the sum over the cell's 20 machines that `_smo_binary` gives
        assert full.pop("health") == {"svm_budget_hits": {"svm nr-rp impersonal b 75": 0},
                                      "svm_steps": {"svm nr-rp impersonal b 75": 716}}
        assert tiny.pop("health") == {"svm_budget_hits": {"svm nr-rp impersonal b 75": 20},
                                      "svm_steps": {"svm nr-rp impersonal b 75": 0}}
        # nothing else in the manifest moves but the timing and the outputs' digests
        for manifest in (full, tiny):
            del manifest["duration_s"]
            manifest["output_digests"] = sorted(Path(p).name for p in manifest["output_digests"])
        assert full == tiny

    def test_grid_records_every_cell(self, recordings_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(classifiers, "_SMO_STEPS_PER_ROW", 0)
        out = tmp_path / "grid"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "svm", "nb",
                     "--treatment", "nr-rp", "--protocol", "impersonal", "--bank", "b",
                     "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.count("svm: 20/20 pairs hit the step budget") == 1
        health = json.loads((out / "grid_manifest.json").read_text())["health"]
        assert health == {"svm_budget_hits": {"svm nr-rp impersonal b 75": 20,
                                              "nb nr-rp impersonal b 75": 0},
                          "svm_steps": {"svm nr-rp impersonal b 75": 0,
                                        "nb nr-rp impersonal b 75": 0}}

    def test_other_manifests_have_no_health(self, data_dir):
        assert "health" not in json.loads((data_dir / "synth_manifest.json").read_text())


class TestRunManifest:
    def test_exact_fields_sorted_with_trailing_newline(self, data_dir, recordings_csv,
                                                       tmp_path):
        """Each command writes the same fields but grid's run-health counters, as JSON
        with sorted keys, indented by 2, ending in a newline."""
        out = tmp_path / "cell"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "nb",
                     "--treatment", "nr-rp", "--protocol", "personal", "--bank", "b",
                     "-o", str(out)]) == EXIT_OK
        fields = {"command", "config", "seed", "input_digests", "output_digests",
                  "duration_s", "toolkit_version"}
        for path, extra in ((data_dir / "synth_manifest.json", set()),
                            (out / "grid_manifest.json", {"health"})):
            text = path.read_text()
            manifest = json.loads(text)
            assert set(manifest) == fields | extra
            assert manifest["toolkit_version"] == harkit.__version__
            assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


class TestReport:
    def test_treatment_pair_gets_t_test_table(self, recordings_csv, tmp_path):
        dirs = {}
        for treatment in ("nr-rp", "unr-rp"):
            d = tmp_path / treatment
            assert main(["--seed", "4", "grid", str(recordings_csv),
                         "--model", "dtree", "--bank", "b", "--window", "100",
                         "--protocol", "impersonal", "--treatment", treatment,
                         "-o", str(d)]) == EXIT_OK
            dirs[treatment] = d / "grid_results.csv"
        out = tmp_path / "report.md"
        assert main(["report", str(dirs["nr-rp"]), str(dirs["unr-rp"]),
                     "-o", str(out)]) == EXIT_OK
        md = out.read_text()
        assert "| t | p |" in md
        (row,) = [line for line in md.splitlines()
                  if line.startswith("| impersonal | dtree | b | 100 | overall | unr-rp | ")]
        t, p = row.strip("| ").split(" | ")[-2:]
        assert not math.isnan(float(t)) and 0 <= float(p.strip("*")) <= 1

    def test_without_pair_emits_note(self, recordings_csv, tmp_path):
        """One treatment lists its means, with empty t and p."""
        d = tmp_path / "single"
        assert main(["--seed", "4", "grid", str(recordings_csv),
                     "--model", "nb", "--bank", "b", "--window", "100", "--treatment", "nr-rp",
                     "--protocol", "impersonal", "-o", str(d)]) == EXIT_OK
        out = tmp_path / "report.md"
        assert main(["report", str(d / "grid_results.csv"), "-o", str(out)]) == EXIT_OK
        rows = [line for line in out.read_text().splitlines() if line.startswith("| impersonal")]
        assert len(rows) == 6  # five activities and overall
        assert all(row.startswith("| impersonal | nb | b | 100 | ") and " | nr-rp | " in row
                   and row.endswith(" |  |  |") for row in rows)


    def test_same_results_twice_is_schema_error(self, recordings_csv, tmp_path, capsys):
        d = tmp_path / "once"
        assert main(["--seed", "4", "grid", str(recordings_csv), "--model", "nb", "--bank", "b",
                     "--window", "100", "--treatment", "nr-rp", "--protocol", "impersonal",
                     "-o", str(d)]) == EXIT_OK
        results, out = d / "grid_results.csv", tmp_path / "report.md"
        assert main(["report", str(results), str(results), "-o", str(out)]) == EXIT_SCHEMA
        assert ("error (SchemaError): unit 'subj00' of impersonal nb b 100 walking nr-rp is "
                "given twice" in capsys.readouterr().err)
        assert not out.exists()


class TestOutputModes:
    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_outputs_get_the_mode_plain_open_gives(self, recordings_csv, tmp_path, umask_022):
        """Every file synth and grid write has the mode open(path, "w") gives in the same
        directory, whether or not it is staged under a temporary name first."""
        data, grid = tmp_path / "data", tmp_path / "grid"
        assert main(["synth", "--subjects", "1", "--minutes", "0.1", "-o", str(data)]) == EXIT_OK
        assert main(["grid", str(recordings_csv), "--model", "nb", "--treatment", "nr-rp",
                     "--protocol", "personal", "--bank", "b", "--window", "40,75",
                     "-o", str(grid)]) == EXIT_OK
        written = {data: {"recordings.csv", "manifest.csv", "synth_manifest.json"},
                   grid: {"grid_results.csv", "summary.md", "sweep.svg", "grid_manifest.json"}}
        for out, names in written.items():
            with (out / "plain").open("w"):
                pass
            mode = (out / "plain").stat().st_mode
            assert {p.name: p.stat().st_mode for p in out.iterdir()} == {
                name: mode for name in names | {"plain"}}


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["summary", str(tmp_path / "missing.csv")]) == EXIT_IO

    def test_unwritable_synth_output_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["synth", "--subjects", "1", "--minutes", "0.1",
                     "-o", str(blocker / "out")]) == EXIT_IO
        assert str(blocker / "out") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "report"])
    @pytest.mark.parametrize("target, code", [("missing/out", errno.ENOENT), ("", errno.EISDIR)],
                             ids=["missing-dir", "is-dir"])
    def test_unwritable_output_is_named_as_given(self, recordings_csv, tmp_path, capsys,
                                                 command, target, code):
        """The error names the output path as given, not the temporary file a write
        stages first beside it."""
        results = tmp_path / "results.csv"
        write_results_csv([], results)
        out = tmp_path / target
        inputs = {"extract": recordings_csv, "report": results}
        assert main([command, str(inputs[command]), "-o", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"

    def test_malformed_csv_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "\ns0,s0,walking,accel,0,1,2\n")
        assert main(["summary", str(bad)]) == EXIT_SCHEMA

    def test_unknown_activity_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad2.csv"
        bad.write_text(HEADER + "\ns0,s0,flying,accel,0,1,2,3\n")
        assert main(["summary", str(bad)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("treatment", ["nr-rp", "unr-rp"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_is_schema_error(self, bank_b_csv, tmp_path, capsys,
                                                treatment, value):
        lines = bank_b_csv.read_text().splitlines()
        fields = lines[5].split(",")
        fields[11] = value  # f7: four key columns come first
        lines[5] = ",".join(fields)
        bad = tmp_path / "non_finite.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["grid", str(bad), "--model", "nb", "--treatment", treatment,
                     "-o", str(tmp_path / "res")]) == EXIT_SCHEMA
        assert "line 6: non-finite value in column 'f7'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["grid", "extract"])
    @pytest.mark.parametrize("bank", ["a", "b"])
    def test_samples_that_overflow_features_are_schema_error(self, recordings_csv, tmp_path,
                                                            capsys, command, bank):
        """Finite samples of 1e308 overflow the filter's and the banks' sums: the
        recording is named, and no output is written."""
        lines = recordings_csv.read_text().splitlines()
        for i, line in enumerate(lines):
            fields = line.split(",")
            if fields[0] == "subj01" and fields[2:4] == ["jogging", "accel"]:
                fields[5] = "1e308"
                lines[i] = ",".join(fields)
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = ["grid", str(big), "--model", "nb", "-o", str(out)] if command == "grid" \
            else ["extract", str(big), "-o", str(out)]
        assert main([*argv, "--bank", bank]) == EXIT_SCHEMA
        assert ("error (SchemaError): the features of subject subj01, activity jogging, "
                "sensor accel are not finite" in capsys.readouterr().err)
        assert not out.exists()

    @staticmethod
    def f7_of_1e308(bank_b_csv, tmp_path) -> Path:
        """bank_b_csv with its column f7 alternating +1e308 and -1e308."""
        lines = bank_b_csv.read_text().splitlines()
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            fields[11] = "1e308" if i % 2 else "-1e308"  # f7: four key columns come first
            lines[i] = ",".join(fields)
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        return big

    @pytest.mark.parametrize("model", ["dtree", "nb", "knn", "svm", "bag"])
    def test_features_too_large_to_normalize_are_schema_error(self, bank_b_csv, tmp_path,
                                                              capsys, model):
        """A column of +-1e308 is finite, but its standard deviation overflows."""
        big = self.f7_of_1e308(bank_b_csv, tmp_path)
        out = tmp_path / "res"
        assert main(["grid", str(big), "--model", model, "--treatment", "nr-rp",
                     "-o", str(out)]) == EXIT_SCHEMA
        assert ("error (SchemaError): feature column 7 is too large to normalize: its mean "
                "or standard deviation overflows" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("model", ["dtree", "nb", "knn", "svm", "bag"])
    def test_features_too_large_for_a_model_are_schema_error(self, bank_b_csv, tmp_path,
                                                             capsys, model):
        """Unnormalized, a column of +-1e308 overflows the sums and products of naive
        Bayes, KNN and the SVM (the suite turns NumPy's warnings into errors, so none is
        printed); the trees only compare values, and run."""
        out = tmp_path / "res"
        code = main(["grid", str(self.f7_of_1e308(bank_b_csv, tmp_path)), "--model", model,
                     "--treatment", "unr-rp", "--protocol", "impersonal", "-o", str(out)])
        err = capsys.readouterr().err
        if model in ("dtree", "bag"):
            assert (code, err) == (EXIT_OK, "")
        else:
            assert (code, err) == (EXIT_SCHEMA, f"error (SchemaError): feature column 7 is "
                                   f"too large for model {model}: its arithmetic on the "
                                   "features overflows\n")
            assert not out.exists()

    def test_treatment_is_matched_exactly(self, recordings_csv, tmp_path, capsys):
        """`report` reads treatments as grid writes them, so grid takes no other spelling."""
        with pytest.raises(SystemExit) as ei:
            main(["grid", str(recordings_csv), "--treatment", "NR-RP", "-o", str(tmp_path)])
        assert ei.value.code == EXIT_USAGE
        assert "invalid choice: 'NR-RP'" in capsys.readouterr().err

    def test_bank_tag_of_other_width_is_schema_error(self, bank_b_csv, tmp_path, capsys):
        bad = tmp_path / "relabelled.csv"
        bad.write_text(bank_b_csv.read_text().replace(",b,", ",a,"))
        assert main(["grid", str(bad), "--model", "nb", "-o", str(tmp_path / "res")]) == EXIT_SCHEMA
        assert "MalformedRow" in capsys.readouterr().err

    def test_subject_with_fewer_rows_than_folds_is_named(self, recordings_csv, tmp_path,
                                                         capsys):
        """Each subject has 8 windows of 75 samples per activity, 40 rows in all."""
        assert main(["grid", str(recordings_csv), "--model", "nb", "--treatment", "nr-rp",
                     "--protocol", "personal", "--bank", "b", "--folds", "50",
                     "-o", str(tmp_path / "x")]) == EXIT_PROTOCOL
        assert ("error (TooFewInstances): need at least 50 instances of subject subj00, "
                "got 40" in capsys.readouterr().err)

    def test_input_without_the_sensor_names_it(self, recordings_csv, tmp_path, capsys):
        lines = recordings_csv.read_text().splitlines()
        accel = tmp_path / "accel.csv"
        accel.write_text("\n".join([lines[0], *(line for line in lines[1:]
                                                if line.split(",")[3] == "accel")]) + "\n")
        out = tmp_path / "f.csv"
        assert main(["extract", str(accel), "--sensor", "gyro", "-o", str(out)]) == EXIT_PROTOCOL
        assert ("error (TooFewInstances): no recordings of sensor gyro in the input"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_single_subject_impersonal_is_protocol_error(self, tmp_path):
        out = tmp_path / "one"
        assert main(["--seed", "1", "synth", "--subjects", "1", "--minutes", "0.5",
                     "-o", str(out)]) == EXIT_OK
        assert main(["--seed", "1", "grid", str(out / "recordings.csv"), "--model", "dtree",
                     "--treatment", "nr-rp", "--bank", "b", "--window", "75",
                     "--protocol", "impersonal", "-o", str(tmp_path / "res")]) == EXIT_PROTOCOL

    @pytest.mark.parametrize("command", ["extract", "grid"])
    def test_negative_filter_order_is_usage_error(self, recordings_csv, tmp_path, capsys,
                                                  command):
        out = "-o", str(tmp_path / "x")
        with pytest.raises(SystemExit) as ei:
            main([command, str(recordings_csv), "--filter-order", "-1", *out])
        assert ei.value.code == EXIT_USAGE
        assert ("--filter-order: must be an integer >= 0 (0 turns the filter off), got -1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["summary", "extract", "grid", "report",
                                         "grid-features-csv"])
    def test_non_utf8_input_is_schema_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.csv"
        if command == "grid-features-csv":
            bad.write_bytes(b"subject_id,activity,bank,window,f0\ns0,walking,b,75,1\xff\n")
        else:
            bad.write_bytes(HEADER.encode() + b"\ns0,s0,walking,accel,0,1,2,3\xff\n")
        good = tmp_path / "results.csv"
        good.write_text(",".join(RESULTS_HEADER) + "\n")
        out = ["-o", str(tmp_path / "out")]
        argv = {"summary": [str(bad)], "extract": [str(bad), *out],
                "grid": [str(bad), *out], "grid-features-csv": [str(bad), *out],
                "report": [str(good), str(bad), *out]}
        assert main([command.split("-")[0], *argv[command]]) == EXIT_SCHEMA
        assert f"line 2: {bad} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("row, error, message", [
        ("personal,nb,a", "MalformedRow", "line 3: expected 10 fields, got 3"),
        ("personal,nb,b,nr-rp,75,overall,accuracy:s0,abc,,2", "MalformedRow",
         "line 3: unparseable value"),
        ("personal,nb,b,nr-rp,75,overall,accuracy:s0,nan,,2", "NonFiniteValue",
         "line 3: non-finite value in column 'value'"),
        ("personal,nb,b,nr-rp,75,overall,accuracy:s0,-inf,,2", "NonFiniteValue",
         "line 3: non-finite value in column 'value'"),
        ("personal,nb,b,NR_RP,75,overall,accuracy:s0,0.5,,2", "MalformedRow",
         "line 3: treatment 'NR_RP' is none of nr-rp, nr-nrp, unr-rp, unr-nrp"),
        ("personal,nb,b,nr-rp,75,overall,accuracy:s1,0.99,,2", "SchemaError",
         "unit 's1' of personal nb b 75 overall nr-rp is given twice"),
    ])
    def test_malformed_results_row_is_schema_error(self, tmp_path, capsys, row, error,
                                                   message):
        results = tmp_path / "results.csv"
        results.write_text(",".join(RESULTS_HEADER) + "\n"
                           "personal,nb,b,nr-rp,75,overall,accuracy:s1,0.5,,2\n" + row + "\n")
        out = tmp_path / "report.md"
        assert main(["report", str(results), "-o", str(out)]) == EXIT_SCHEMA
        assert f"error ({error}): {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_results_error_names_the_physical_line(self, tmp_path, capsys):
        """A unit id holding a newline makes its row span lines 2-3."""
        results = tmp_path / "results.csv"
        write_results_csv([["personal", "nb", "b", "nr-rp", "75", "overall", "accuracy:a\nb",
                            "0.5", "", "2"],
                           ["personal", "nb", "b", "nr-rp", "75", "overall", "accuracy:c",
                            "abc", "", "2"]], results)
        assert main(["report", str(results), "-o", str(tmp_path / "report.md")]) == EXIT_SCHEMA
        assert "error (MalformedRow): line 4: unparseable value" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["personal", "impersonal"])
    def test_fewer_than_two_folds_is_usage_error(self, recordings_csv, tmp_path, capsys,
                                                 protocol):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as ei:
            main(["grid", str(recordings_csv), "--protocol", protocol, "--folds", "1",
                  "-o", str(out)])
        assert ei.value.code == EXIT_USAGE
        assert "--folds: must be an integer >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_variability_is_usage_error(self, tmp_path, capsys, value):
        """A nan variability would write a recordings CSV that harkit itself rejects."""
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as ei:
            main(["synth", "--subjects", "1", "--minutes", "0.01", "--variability", value,
                  "-o", str(out)])
        assert ei.value.code == EXIT_USAGE
        assert (f"--variability: must be a finite number >= 0, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_minutes_that_round_to_no_sample_are_usage_error(self, tmp_path, capsys):
        """round(0.0001 * 60 * 20) = 0: the CSV could hold no sample of a recording."""
        out = tmp_path / "x"
        assert main(["synth", "--subjects", "1", "--minutes", "0.0001",
                     "-o", str(out)]) == EXIT_USAGE
        assert "must round to at least 1 sample" in capsys.readouterr().err
        assert not out.exists()

    def test_minutes_whose_sample_count_overflows_are_usage_error(self, tmp_path, capsys):
        """1e308 * 60 * 20 is inf: no recording could hold that many samples."""
        out = tmp_path / "x"
        assert main(["synth", "--subjects", "1", "--minutes", "1e308",
                     "-o", str(out)]) == EXIT_USAGE
        assert "and be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--minutes", "1e10"],
                                       ["--minutes", "200", "--rate", "1000"]])
    def test_sample_count_above_cap_is_usage_error(self, tmp_path, capsys, flags):
        """1.2e13 and 1.2e7 samples per recording: above the 10,000,000 a recording may
        hold, refused before any sample is made."""
        out = tmp_path / "x"
        assert main(["synth", "--subjects", "1", *flags, "-o", str(out)]) == EXIT_USAGE
        assert "at most 10,000,000 samples per recording" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_variability_is_allowed(self, tmp_path):
        out = tmp_path / "x"
        assert main(["synth", "--subjects", "1", "--minutes", "0.01", "--variability", "0",
                     "-o", str(out)]) == EXIT_OK
        assert main(["summary", str(out / "recordings.csv")]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["grid", "in.csv", "--folds", "x"], ["grid", "in.csv", "--knn-k", "x"],
        ["grid", "in.csv", "--svm-c", "x"], ["grid", "in.csv", "--svm-c", "nan"],
        ["grid", "in.csv", "--bag-learners", "x"], ["synth", "--rate", "x"],
        ["synth", "--subjects", "x"], ["extract", "in.csv", "--window", "x"],
        ["grid", "in.csv", "--filter-order", "x"],
    ])
    def test_non_number_is_usage_error_naming_the_rule(self, tmp_path, capsys, argv):
        flag, value = argv[-2:]
        with pytest.raises(SystemExit) as ei:
            main([*argv, "-o", str(tmp_path / "out")])
        assert ei.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: must be " in err and f", got {value}" in err
        assert "invalid" not in err and not re.search(r"\b_[a-z]", err)

    @pytest.mark.parametrize("command", ["grid", "eval"])
    def test_unknown_flag_or_command_is_usage_error(self, command):
        with pytest.raises(SystemExit) as ei:
            main([command, "--no-such-flag"])
        assert ei.value.code == EXIT_USAGE


SCHEMA_ERRORS = {"SchemaError", "MalformedRow", "NonFiniteValue", "NonMonotonicTimestamps",
                 "UnknownActivity", "UnknownSensor"}


@pytest.mark.parametrize("error", [c for c in vars(errors).values()
                                   if isinstance(c, type) and issubclass(c, errors.HarkitError)],
                         ids=lambda c: c.__name__)
def test_error_exit_code_is_the_documented_one(error):
    documented = {kind: int(code) for code, kind
                  in re.findall(r"(\d) (usage|schema|protocol)", README.read_text())}
    assert documented == {"usage": 2, "schema": 4, "protocol": 5}
    kind = ("usage" if error is errors.UsageError
            else "schema" if error.__name__ in SCHEMA_ERRORS else "protocol")
    assert error.exit_code == documented[kind]


def test_cli_imports_only_the_standard_library_and_numpy():
    """NumPy is the one runtime dependency: importing the command line loads nothing else."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import harkit.cli\n"
             "for name in sorted(set(sys.modules) - before):\n"
             "    print(name.partition('.')[0])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(harkit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert set(out.stdout.split()) - set(sys.stdlib_module_names) == {"harkit", "numpy"}


def test_entry_point_runs_synth_to_report_without_stderr(tmp_path):
    """`python -m harkit.cli` end to end, outside pytest's warnings-as-errors: each
    command exits 0 and writes nothing to stderr, so a NumPy warning shows up here, from
    any of the five models."""
    env = {**os.environ, "PYTHONPATH": str(Path(harkit.__file__).resolve().parents[1])}
    env.pop("HAR_SEED", None)
    data, res = tmp_path / "data", tmp_path / "res"
    for argv in (["synth", "--subjects", "2", "--minutes", "0.5", "-o", str(data)],
                 ["summary", str(data / "recordings.csv")],
                 ["grid", str(data / "recordings.csv"), "--model", "nb", "dtree", "knn",
                  "svm", "bag", "--bag-learners", "3", "--folds", "2", "-o", str(res)],
                 ["report", str(res / "grid_results.csv"), "-o", str(tmp_path / "r.md")]):
        run = subprocess.run([sys.executable, "-m", "harkit.cli", *argv], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (EXIT_OK, ""), argv[0]
    assert "nr-rp" in (tmp_path / "r.md").read_text()


def readme_commands() -> list[str]:
    """Every `harkit ...` line of the README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("harkit "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    parser = build_parser()
    parsed = {parser.parse_args(shlex.split(c)[1:]).command for c in readme_commands()}
    assert parsed == {"synth", "summary", "extract", "grid", "report"}
