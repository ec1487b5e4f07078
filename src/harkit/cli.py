"""Batch command-line front end.

Exit codes: 0 ok, 2 usage, 3 I/O failure, 4 schema violation, 5 protocol
precondition failure. `HAR_SEED` provides a default seed; an explicit
--seed flag wins. `grid` is the one experiment command: it crosses models,
treatments, protocols, banks and windows over one input, and one value per
axis runs a single cell.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .classifiers import ModelKind, ModelSpec
from .errors import HarkitError, SchemaError, TooFewInstances, UsageError
from .evaluation import (
    TREATMENTS,
    EvalConfig,
    Protocol,
    evaluate,
    feature_matrices,
    recordings_to_features,
)
from .features import Bank, feature_matrix
from .ingest import (
    ACTIVITY_CSV_NAMES,
    Activity,
    SensorKind,
    SynthParams,
    duration_s,
    generate_synthetic,
    parse_recordings_csv,
    write_manifest_csv,
    write_recordings_csv,
)
from .preprocess import MIN_WINDOW
from .reporting import (
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

EXIT_OK = 0
EXIT_USAGE = UsageError.exit_code
EXIT_IO = 3
EXIT_SCHEMA = SchemaError.exit_code
EXIT_PROTOCOL = HarkitError.exit_code

GRID_TREATMENTS = list(TREATMENTS)[:3]  # grid's default; `--treatment unr-nrp` stays available
DEFAULT_WINDOW = 75


def _default_seed() -> int:
    env = os.environ.get("HAR_SEED")
    try:
        seed = int(env) if env else 7
    except ValueError:
        raise UsageError(f"HAR_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise UsageError(f"HAR_SEED must be a non-negative integer, got {env!r}")
    return seed


def _number(parse, rule: str, holds):
    """An argparse type: `parse` the text, then check `holds`; any failure is a usage
    error that states `rule`."""
    def convert(value: str):
        try:
            number = parse(value)
        except ValueError:
            number = None
        if number is None or not holds(number):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return number
    return convert


_seed = _number(int, "a non-negative integer", lambda n: n >= 0)
_positive_int = _number(int, "a positive integer", lambda n: n >= 1)
_fold_count = _number(int, "an integer >= 2", lambda n: n >= 2)
_positive_float = _number(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_window_size = _number(int, f"an integer >= {MIN_WINDOW}", lambda n: n >= MIN_WINDOW)
_nonnegative_float = _number(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
_filter_order = _number(int, "an integer >= 0 (0 turns the filter off)", lambda n: n >= 0)


def _axis(values: list[str] | None, default) -> list[str]:
    """A grid axis: the given values, else `default`, without repeats, in first-seen order."""
    return list(dict.fromkeys(values or default))


def _window_axis(text: str) -> tuple[int, ...] | range:
    """--window's sizes, each >= MIN_WINDOW: lo:hi:step (hi included, step >= 1) as a range,
    never listed (it ascends: its first size is its least), or a comma list without repeats."""
    try:
        if ":" in text:
            lo, hi, step = (int(p) for p in text.split(":"))
            sizes = range(lo, hi + 1, step) if step >= 1 else ()
        else:
            sizes = tuple(dict.fromkeys(int(p) for p in text.split(",")))
    except ValueError:
        sizes = ()
    if not sizes or (sizes[0] if isinstance(sizes, range) else min(sizes)) < MIN_WINDOW:
        raise UsageError("--window must be lo:hi:step with step >= 1 or a comma list of "
                         f"window sizes >= {MIN_WINDOW}, got {text!r}")
    return sizes


def _recording_settings(args) -> tuple[str, int]:
    """(--sensor, --filter-order) for recordings: accel and 3 unless given."""
    sensor = args.sensor or SensorKind.Accelerometer.value
    return sensor, 3 if args.filter_order is None else args.filter_order


def _write_run_manifest(out_dir: Path, command: str, config: dict, seed: int,
                        inputs: list[Path], outputs: list[Path], started: float,
                        health: dict | None = None) -> None:
    """Write <command>_manifest.json, its keys sorted; duration_s runs from `started`
    (time.monotonic), and `health` (grid's run-health counters) is left out when None."""
    manifest = {"command": command, "config": config, "seed": seed,
                "input_digests": {str(p): sha256_file(p) for p in inputs},
                "output_digests": {str(p): sha256_file(p) for p in outputs},
                "duration_s": round(time.monotonic() - started, 3), "toolkit_version": __version__}
    if health is not None:
        manifest["health"] = health
    atomic_write_text(out_dir / f"{command}_manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _report_svm_budget(reports) -> None:
    """One stderr line when any SVM pair of `reports` stopped at the SMO step budget."""
    hits = sum(r.svm_budget_hits for r in reports)
    if hits:
        pairs = sum(r.svm_pairs for r in reports)
        print(f"svm: {hits}/{pairs} pairs hit the step budget", file=sys.stderr)


def _eval_config(args, kind: ModelKind, treatment: str, protocol: str,
                 bank: Bank, window: int) -> EvalConfig:
    """The cell (kind, treatment, protocol, bank, window); every other setting comes from the flags."""
    return EvalConfig(
        model_spec=ModelSpec(
            kind=kind,
            seed=args.seed,
            k=args.knn_k,
            n_learners=args.bag_learners,
            C=args.svm_c,
            max_splits=args.tree_splits,
        ),
        bank=bank,
        samples_per_window=window,
        treatment=TREATMENTS[treatment],
        protocol=Protocol(protocol),
        folds=args.folds,
        seed=args.seed,
    )


def _manifest_config(args, **resolved) -> dict:
    """Every flag the command read, with `resolved` values (parsed, or read from the
    input) in place of the raw ones; the seed, input and outputs are recorded apart."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "seed", "input", "out_dir")}
    return {**flags, **resolved}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harkit",
                                     description="Smartwatch activity-recognition experiment toolkit")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="global seed (default: HAR_SEED env var, else 7)")
    sub = parser.add_subparsers(dest="command", required=True)
    models = [k.value for k in ModelKind]
    protocols = [proto.value for proto in Protocol]
    banks = [b.value for b in Bank]

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    p.add_argument("--subjects", type=_positive_int, default=6)
    p.add_argument("--minutes", type=_positive_float, default=10.0)
    p.add_argument("--rate", type=_positive_float, default=20.0)
    p.add_argument("--variability", type=_nonnegative_float, default=1.0)
    p.add_argument("-o", "--out-dir", required=True)

    extract = sub.add_parser("extract", help="filter, segment, and extract features")
    extract.add_argument("input", help="recordings CSV")
    extract.add_argument("-o", "--output", required=True, help="feature CSV path")
    extract.add_argument("--bank", choices=banks, default="a")
    extract.add_argument("--window", type=_window_size, default=DEFAULT_WINDOW)

    grid = sub.add_parser(
        "grid", help="every cell of model x treatment x protocol x bank x window",
        description="Each setting takes one or more values; one value each runs a single "
                    "cell. Defaults: every model and protocol, treatments "
                    f"{' '.join(GRID_TREATMENTS)}, and a features CSV's own bank and "
                    f"window, else bank a and window {DEFAULT_WINDOW}.")
    grid.add_argument("input", help="recordings CSV or feature CSV")
    grid.add_argument("--model", nargs="+", choices=models)
    grid.add_argument("--treatment", nargs="+", choices=TREATMENTS)
    grid.add_argument("--protocol", nargs="+", choices=protocols)
    grid.add_argument("--bank", nargs="+", choices=banks,
                      help="default: a features CSV's own, else a")
    grid.add_argument("--window", help="samples per window: 75, a comma list (25,75,150) "
                                       "or lo:hi:step, hi included (25:300:25)")
    # each shared flag once, on the commands that read it
    for p in (extract, grid):
        p.add_argument("--filter-order", type=_filter_order, help="recordings only (default 3)")
        p.add_argument("--sensor", choices=[s.value for s in SensorKind],
                       help=f"recordings only (default {SensorKind.Accelerometer.value})")
    grid.add_argument("--folds", type=_fold_count, default=10)
    grid.add_argument("--knn-k", type=_positive_int, default=10)
    grid.add_argument("--bag-learners", type=_positive_int, default=50)
    grid.add_argument("--svm-c", type=_positive_float, default=1.0)
    grid.add_argument("--tree-splits", type=_positive_int, default=85)
    grid.add_argument("-o", "--out-dir", required=True)

    p = sub.add_parser("report", help="combine results CSVs with treatment t-tests")
    p.add_argument("inputs", nargs="+", help="results CSV files")
    p.add_argument("-o", "--output", required=True, help="markdown output path")

    p = sub.add_parser("summary", help="describe a recordings CSV")
    p.add_argument("input", help="recordings CSV")
    return parser


def cmd_synth(args) -> int:
    started = time.monotonic()
    try:
        params = SynthParams(
            n_subjects=args.subjects,
            minutes_per_activity=args.minutes,
            sample_rate_hz=args.rate,
            seed=args.seed,
            subject_variability=args.variability,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    recordings, metas = generate_synthetic(params)
    outputs = [out_dir / "recordings.csv", out_dir / "manifest.csv"]
    write_recordings_csv(recordings, outputs[0])
    write_manifest_csv(metas, outputs[1])
    _write_run_manifest(out_dir, "synth", asdict(params), args.seed, [], outputs, started)
    print(f"wrote {len(recordings)} recordings to {outputs[0]}")
    return EXIT_OK


def cmd_extract(args) -> int:
    sensor, order = _recording_settings(args)
    recordings = parse_recordings_csv(args.input)
    vectors = recordings_to_features(recordings, Bank(args.bank), args.window, order,
                                     SensorKind(sensor))
    write_features_csv(vectors, args.output)
    print(f"wrote {len(vectors)} feature vectors to {args.output}")
    return EXIT_OK


def _load_matrices(args):
    """The input's {(bank, window): (X, y, subjects)} and the sensor and filter order
    behind it. A features CSV brings its one bank and window, which --bank and --window
    may only repeat; recordings are filtered once, then extracted once per bank (default
    a) and window (default 75)."""
    banks = _axis(args.bank, ())
    windows = () if args.window is None else _window_axis(args.window)
    if is_features_csv(args.input):
        vectors = read_features_csv(args.input)
        if not vectors:
            raise TooFewInstances("no feature vectors available")
        bank, window = vectors[0].bank, vectors[0].window
        if banks not in ([], [bank.value]):
            raise UsageError(f"--bank {' '.join(banks)} disagrees with {args.input}, "
                             f"whose features are bank {bank.value}")
        if windows and tuple(windows[:2]) != (window,):
            raise UsageError(f"--window {args.window} disagrees with {args.input}, "
                             f"whose features were extracted at window {window}")
        if args.sensor is not None or args.filter_order is not None:
            raise UsageError(f"--sensor and --filter-order apply to recordings; "
                             f"{args.input} holds features")
        matrices = {(bank, window): feature_matrix(vectors)}
        sensor, order = None, None
    else:
        sensor, order = _recording_settings(args)
        matrices = feature_matrices(parse_recordings_csv(args.input),
                                    [Bank(b) for b in banks or ["a"]],
                                    windows or (DEFAULT_WINDOW,), order,
                                    SensorKind(sensor))
    return matrices, {"sensor": sensor, "filter_order": order}


def _window_series(curves: dict[tuple[str, str, str, str], dict]) -> dict:
    """Overall accuracy against window, one series per (model, bank, treatment, protocol)
    curve, named after its model and whichever of the others vary. A lone curve also
    charts its recall per activity."""
    varying = [i for i in (1, 2, 3) if len({key[i] for key in curves}) > 1]
    series = {", ".join([key[0], *(key[i] for i in varying)]):
              {w: r.overall_accuracy for w, r in reports.items()}
              for key, reports in curves.items()}
    if len(curves) == 1:
        reports = next(iter(curves.values()))
        series.update({ACTIVITY_CSV_NAMES[act]: {w: r.per_activity_recall[act]
                                                for w, r in reports.items()} for act in Activity})
    return series


def cmd_grid(args) -> int:
    started = time.monotonic()
    models = _axis(args.model, [k.value for k in ModelKind])
    treatments = _axis(args.treatment, GRID_TREATMENTS)
    protocols = _axis(args.protocol, [p.value for p in Protocol])
    matrices, settings = _load_matrices(args)
    banks = list(dict.fromkeys(bank.value for bank, _ in matrices))
    windows = list(dict.fromkeys(window for _, window in matrices))
    rows = []
    curves = {}  # (model, bank, treatment, protocol) -> {window: report}
    reports = {}  # "model treatment protocol bank window" -> report
    summary = ["| model | treatment | protocol | bank | window | accuracy | seconds |",
               "| --- | --- | --- | --- | --- | --- | --- |"]
    for model, treatment, protocol, ((bank, window), (X, y, subjects)) in itertools.product(
            models, treatments, protocols, matrices.items()):
        config = _eval_config(args, ModelKind(model), treatment, protocol, bank, window)
        cell_started = time.monotonic()
        report = evaluate(config, X, y, subjects)
        rows.extend(report_rows(config, report))
        curves.setdefault((model, f"bank {bank.value}", treatment, protocol), {})[window] = report
        reports[f"{model} {treatment} {protocol} {bank.value} {window}"] = report
        summary.append(f"| {model} | {treatment} | {protocol} | {bank.value} | {window} "
                       f"| {report.overall_accuracy:.4f} | {time.monotonic() - cell_started:.1f} |")
        print(summary[-1])
    out_dir = Path(args.out_dir)  # made once every cell has run, so a failed cell leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / "grid_results.csv", out_dir / "summary.md"]
    write_results_csv(rows, outputs[0])
    atomic_write_text(outputs[1], "# Settings grid\n\n" + "\n".join(summary) + "\n")
    if len(windows) > 1:
        outputs.append(out_dir / "sweep.svg")
        atomic_write_text(outputs[2], sweep_svg(_window_series(curves)))
    config = _manifest_config(args, model=models, treatment=treatments, protocol=protocols,
                              bank=banks, window=windows, **settings)
    health = {"svm_budget_hits": {cell: r.svm_budget_hits for cell, r in reports.items()},
              "svm_steps": {cell: r.svm_steps for cell, r in reports.items()}}
    _write_run_manifest(out_dir, "grid", config, args.seed, [Path(args.input)], outputs, started,
                        health)
    _report_svm_budget(reports.values())
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        rows.extend(read_results_csv(path))
    atomic_write_text(args.output, treatment_report(rows))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_summary(args) -> int:
    recordings = parse_recordings_csv(args.input)
    counts: dict[Activity, int] = {}  # samples per activity, in first-seen order
    print("subject_id,activity,sensor,n_samples,duration_s")
    for rec in recordings:
        n = len(rec.samples)
        print(f"{rec.subject_id},{rec.activity.name},{rec.sensor.name},{n},{duration_s(rec):.1f}")
        counts[rec.activity] = counts.get(rec.activity, 0) + n
    total = sum(counts.values())
    print("class balance:", {a.name: round(c / total, 4) for a, c in counts.items()})
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "grid": cmd_grid,
    "report": cmd_report,
    "summary": cmd_summary,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return COMMANDS[args.command](args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except HarkitError as e:
        kind = "" if isinstance(e, UsageError) else f" ({type(e).__name__})"
        print(f"error{kind}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
