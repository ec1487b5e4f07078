"""Command-line behavior: artifacts, determinism, exit codes."""
import hashlib
import json
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from harkit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_SCHEMA,
    EXIT_USAGE,
    build_parser,
    main,
)
from harkit.reporting import read_results_csv

README = Path(__file__).resolve().parents[1] / "README.md"

HEADER = "subject_id,session_id,activity,sensor,timestamp_ms,x,y,z"


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


class TestSummary:
    def test_prints_rows_and_balance(self, recordings_csv, capsys):
        assert main(["summary", str(recordings_csv)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "subj00" in out
        assert "class balance" in out

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
        assert first.startswith("subject_id,activity,bank")
        assert first.count(",") == 3 + 70 - 1

    def test_window_too_small_is_usage_error(self, recordings_csv, tmp_path):
        assert main(["extract", str(recordings_csv), "--window", "2",
                     "-o", str(tmp_path / "f.csv")]) == EXIT_USAGE


class TestEval:
    def test_personal_eval_artifacts(self, recordings_csv, tmp_path):
        out = tmp_path / "eval"
        assert main(["--seed", "4", "eval", str(recordings_csv),
                     "--model", "dtree", "--bank", "b", "--window", "75",
                     "--protocol", "personal", "--treatment", "nr-rp",
                     "-o", str(out)]) == EXIT_OK
        results = (out / "results.csv").read_text()
        assert results.splitlines()[0] == (
            "protocol,classifier,bank,treatment,window,activity,metric,value,ci_halfwidth,n_units"
        )
        assert "walking" in results
        assert (out / "table.md").exists()
        assert json.loads((out / "eval_manifest.json").read_text())["command"] == "eval"

    def test_manifest_holds_output_digests(self, recordings_csv, tmp_path):
        out = tmp_path / "eval"
        assert main(["--seed", "4", "eval", str(recordings_csv), "--model", "nb",
                     "--bank", "b", "-o", str(out)]) == EXIT_OK
        manifest = json.loads((out / "eval_manifest.json").read_text())
        results = out / "results.csv"
        digest = hashlib.sha256(results.read_bytes()).hexdigest()
        assert manifest["output_digests"][str(results)] == digest
        assert set(manifest["output_digests"]) == {str(results), str(out / "table.md")}

    def test_same_seed_same_output(self, recordings_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--seed", "4", "eval", str(recordings_csv),
                "--model", "knn", "--bank", "b", "--window", "100",
                "--protocol", "impersonal"]
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_eval_accepts_feature_csv_and_matches_recordings_path(
            self, recordings_csv, tmp_path):
        features = tmp_path / "features.csv"
        assert main(["extract", str(recordings_csv), "--bank", "b",
                     "--window", "100", "-o", str(features)]) == EXIT_OK
        direct, staged = tmp_path / "direct", tmp_path / "staged"
        common = ["--seed", "4", "eval", "--model", "nb", "--bank", "b",
                  "--window", "100", "--protocol", "impersonal"]
        assert main(common + [str(recordings_csv), "-o", str(direct)]) == EXIT_OK
        assert main(common + [str(features), "-o", str(staged)]) == EXIT_OK
        assert (direct / "results.csv").read_bytes() == (staged / "results.csv").read_bytes()

    def test_permute_columns_leaves_knn_results_unchanged(self, recordings_csv, tmp_path):
        plain, permuted = tmp_path / "plain", tmp_path / "perm"
        args = ["--seed", "4", "eval", str(recordings_csv),
                "--model", "knn", "--bank", "b", "--window", "100",
                "--protocol", "impersonal"]
        assert main(args + ["-o", str(plain)]) == EXIT_OK
        assert main(args + ["--permute-columns", "-o", str(permuted)]) == EXIT_OK
        assert (plain / "results.csv").read_bytes() == (permuted / "results.csv").read_bytes()


    def test_manifest_config_records_every_flag(self, recordings_csv, tmp_path):
        configs = []
        for learners in ("2", "3"):
            out = tmp_path / learners
            assert main(["--seed", "4", "eval", str(recordings_csv), "--model", "bag",
                         "--bank", "b", "--window", "100", "--bag-learners", learners,
                         "-o", str(out)]) == EXIT_OK
            configs.append(json.loads((out / "eval_manifest.json").read_text())["config"])
        assert configs[0] != configs[1]
        assert configs[0] == {
            "model": "bag", "bank": "b", "window": 100, "treatment": "nr-rp",
            "protocol": "personal", "folds": 10, "permute_columns": False,
            "knn_k": 10, "bag_learners": 2, "svm_c": 1.0, "tree_splits": 85,
            "filter_order": 3, "sensor": "accel",
        }


class TestSweep:
    def test_single_size_artifacts(self, recordings_csv, tmp_path):
        out = tmp_path / "sweep"
        assert main(["--seed", "4", "sweep", str(recordings_csv),
                     "--model", "dtree", "--bank", "b", "--sizes", "100,300",
                     "--protocol", "impersonal", "-o", str(out)]) == EXIT_OK
        svg = (out / "sweep.svg").read_text()
        root = ET.fromstring(svg)  # well-formed XML
        assert root.tag.endswith("svg")
        results = (out / "sweep_results.csv").read_text()
        assert ",100," in results and ",300," in results

    def test_colon_range_sizes(self, recordings_csv, tmp_path):
        out = tmp_path / "sweep2"
        assert main(["--seed", "4", "sweep", str(recordings_csv),
                     "--model", "nb", "--bank", "b", "--sizes", "100:300:100",
                     "--protocol", "impersonal", "-o", str(out)]) == EXIT_OK
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["config"]["sizes"] == [100, 200, 300]

    def test_bad_sizes_is_usage_error(self, recordings_csv, tmp_path):
        assert main(["sweep", str(recordings_csv), "--sizes", "2",
                     "-o", str(tmp_path / "x")]) == EXIT_USAGE

    @pytest.mark.parametrize("sizes", ["a:b", "100:300", "100:300:0"])
    def test_malformed_sizes_is_usage_error(self, recordings_csv, tmp_path, sizes):
        assert main(["sweep", str(recordings_csv), "--sizes", sizes,
                     "-o", str(tmp_path / "x")]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", [["--window", "9999"], ["--permute-columns"]])
    def test_flags_sweep_does_not_read_are_usage_errors(self, recordings_csv, tmp_path, flag):
        with pytest.raises(SystemExit) as ei:
            main(["sweep", str(recordings_csv), "--sizes", "100", *flag,
                  "-o", str(tmp_path / "x")])
        assert ei.value.code == EXIT_USAGE

    def test_one_model_outputs_are_unchanged(self, recordings_csv, tmp_path):
        # sha256 of the files the single-model sweep wrote before --model took
        # several models; one model must keep its rows and chart byte for byte
        out = tmp_path / "one"
        assert main(["--seed", "4", "sweep", str(recordings_csv), "--model", "dtree",
                     "--bank", "b", "--sizes", "100,300", "--protocol", "impersonal",
                     "-o", str(out)]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("sweep_results.csv", "sweep.svg")}
        assert digests == {
            "sweep_results.csv": "85bcb2eac0494cf232896034377e6e692441bc1c2eebb6595afe425ccd7d0b76",
            "sweep.svg": "b96c0fc5652f40dbb4209c8aeb69d2be4afd9be2b4b313cfbbccf8cf53e0b500",
        }

    def test_several_models(self, recordings_csv, tmp_path):
        common = ["--seed", "4", "sweep", str(recordings_csv), "--bank", "b",
                  "--sizes", "100,300", "--protocol", "impersonal"]
        both, single = tmp_path / "both", tmp_path / "single"
        assert main(common + ["--model", "nb", "dtree", "-o", str(both)]) == EXIT_OK
        assert main(common + ["--model", "nb", "-o", str(single)]) == EXIT_OK
        rows = read_results_csv(both / "sweep_results.csv")
        assert {r["classifier"] for r in rows} == {"nb", "dtree"}
        assert [r for r in rows if r["classifier"] == "nb"] == read_results_csv(
            single / "sweep_results.csv")
        # one overall-accuracy series per model, no per-activity series
        root = ET.fromstring((both / "sweep.svg").read_text())
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:polyline", ns)) == 2
        assert sorted(e.text for e in root.findall("s:text", ns)
                      if e.text in ("nb", "dtree")) == ["dtree", "nb"]
        manifest = json.loads((both / "sweep_manifest.json").read_text())
        assert manifest["config"]["model"] == ["nb", "dtree"]


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
        assert summary[2] == "| model | treatment | protocol | accuracy | seconds |"
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

    def test_cell_rows_equal_eval(self, grid_dir, recordings_csv, tmp_path):
        out = tmp_path / "eval"
        assert main(["--seed", "4", "eval", str(recordings_csv), "--bank", "b",
                     "--bag-learners", "2", "--model", "bag", "--treatment", "unr-rp",
                     "--protocol", "personal", "-o", str(out)]) == EXIT_OK
        cell = [r for r in read_results_csv(grid_dir / "grid_results.csv")
                if (r["classifier"], r["treatment"], r["protocol"])
                == ("bag", "unr-rp", "personal")]
        assert cell == read_results_csv(out / "results.csv")


class TestReport:
    def test_treatment_pair_gets_t_test_table(self, recordings_csv, tmp_path):
        dirs = {}
        for treatment in ("nr-rp", "unr-rp"):
            d = tmp_path / treatment
            assert main(["--seed", "4", "eval", str(recordings_csv),
                         "--model", "dtree", "--bank", "b", "--window", "100",
                         "--protocol", "impersonal", "--treatment", treatment,
                         "-o", str(d)]) == EXIT_OK
            dirs[treatment] = d / "results.csv"
        out = tmp_path / "report.md"
        assert main(["report", str(dirs["nr-rp"]), str(dirs["unr-rp"]),
                     "-o", str(out)]) == EXIT_OK
        md = out.read_text()
        assert "NR-RP" in md and "UNR-RP" in md
        assert "| p |" in md

    def test_without_pair_emits_note(self, recordings_csv, tmp_path):
        d = tmp_path / "single"
        assert main(["--seed", "4", "eval", str(recordings_csv),
                     "--model", "nb", "--bank", "b", "--window", "100",
                     "--protocol", "impersonal", "-o", str(d)]) == EXIT_OK
        out = tmp_path / "report.md"
        assert main(["report", str(d / "results.csv"), "-o", str(out)]) == EXIT_OK
        assert "t-test column omitted" in out.read_text()


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["summary", str(tmp_path / "missing.csv")]) == EXIT_IO

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
        fields[10] = value
        lines[5] = ",".join(fields)
        bad = tmp_path / "non_finite.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(bad), "--model", "nb", "--treatment", treatment,
                     "-o", str(tmp_path / "res")]) == EXIT_SCHEMA
        assert "line 6: non-finite value in column 'f7'" in capsys.readouterr().err

    def test_bank_tag_of_other_width_is_schema_error(self, bank_b_csv, tmp_path, capsys):
        bad = tmp_path / "relabelled.csv"
        bad.write_text(bank_b_csv.read_text().replace(",b,", ",a,"))
        assert main(["eval", str(bad), "--model", "nb", "-o", str(tmp_path / "res")]) == EXIT_SCHEMA
        assert "MalformedRow" in capsys.readouterr().err

    def test_single_subject_impersonal_is_protocol_error(self, tmp_path):
        out = tmp_path / "one"
        assert main(["--seed", "1", "synth", "--subjects", "1", "--minutes", "0.5",
                     "-o", str(out)]) == EXIT_OK
        assert main(["--seed", "1", "eval", str(out / "recordings.csv"),
                     "--bank", "b", "--window", "75", "--protocol", "impersonal",
                     "-o", str(tmp_path / "res")]) == EXIT_PROTOCOL

    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_negative_filter_order_is_usage_error(self, recordings_csv, tmp_path, command):
        out = "-o", str(tmp_path / "x")
        assert main([command, str(recordings_csv), "--filter-order", "-1", *out]) == EXIT_USAGE

    def test_negative_variability_is_usage_error(self, tmp_path):
        assert main(["synth", "--variability", "-1", "-o", str(tmp_path / "x")]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            main(["eval", "--no-such-flag"])
        assert ei.value.code == EXIT_USAGE


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
    assert parsed == {"synth", "summary", "extract", "eval", "grid", "sweep", "report"}
