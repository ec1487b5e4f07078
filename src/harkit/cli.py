"""Batch command-line front end.

Exit codes: 0 ok, 2 usage, 3 I/O failure, 4 schema violation, 5 protocol
precondition failure. `HAR_SEED` provides a default seed; an explicit
--seed flag wins.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .classifiers import ModelKind, ModelSpec
from .errors import (
    HarkitError,
    MalformedRow,
    NonFiniteValue,
    NonMonotonicTimestamps,
    SingleSubject,
    TooFewInstances,
    UnknownActivity,
    UnknownSensor,
    UsageError,
)
from .evaluation import (
    EvalConfig,
    Protocol,
    Treatment,
    evaluate,
    recordings_to_features,
    window_sweep,
)
from .features import Bank, feature_matrix
from .ingest import (
    ACTIVITY_CSV_NAMES,
    Activity,
    SensorKind,
    SynthParams,
    dataset_summary,
    generate_synthetic,
    parse_recordings_csv,
    write_manifest_csv,
    write_recordings_csv,
)
from .reporting import (
    RunManifest,
    atomic_write_text,
    is_features_csv,
    read_features_csv,
    read_results_csv,
    report_markdown,
    report_rows,
    sha256_file,
    sweep_svg,
    treatment_report,
    write_features_csv,
    write_results_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4
EXIT_PROTOCOL = 5

SCHEMA_ERRORS = (MalformedRow, NonFiniteValue, NonMonotonicTimestamps,
                 UnknownActivity, UnknownSensor)
PROTOCOL_ERRORS = (SingleSubject, TooFewInstances)

# The treatments the grid compares; `eval --treatment unr-nrp` stays available.
GRID_TREATMENTS = ("nr-rp", "nr-nrp", "unr-rp")
DEFAULT_WINDOW = 75


def _default_seed() -> int:
    env = os.environ.get("HAR_SEED")
    return int(env) if env else 7


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return n


def _positive_float(value: str) -> float:
    v = float(value)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return v


def _parse_sizes(text: str) -> tuple[int, ...]:
    """lo:hi:step (hi included) or a comma list; () when the text is neither."""
    try:
        if ":" in text:
            lo, hi, step = (int(p) for p in text.split(":"))
            return tuple(range(lo, hi + 1, step))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        return ()


def _check_preprocess_flags(args, sizes: tuple[int, ...], sizes_error: str) -> None:
    """Usage checks shared by the commands that filter and segment recordings."""
    if not sizes or min(sizes) < 4:
        raise UsageError(sizes_error)
    if args.filter_order < 0:
        raise UsageError("--filter-order must be >= 0 (0 turns the filter off)")


def _write_run_manifest(out_dir: Path, command: str, config: dict, seed: int,
                        inputs: list[Path], outputs: list[Path], started: float) -> None:
    """Write <command>_manifest.json; duration_s runs from `started` (time.monotonic)."""
    manifest = RunManifest(
        command=command,
        config=config,
        seed=seed,
        input_digests={str(p): sha256_file(p) for p in inputs},
        output_digests={str(p): sha256_file(p) for p in outputs},
        duration_s=round(time.monotonic() - started, 3),
    )
    atomic_write_text(out_dir / f"{command}_manifest.json", manifest.to_json())


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
        treatment=Treatment.from_name(treatment),
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
    parser.add_argument("--seed", type=int, default=None,
                        help="global seed (default: HAR_SEED env var, else 7)")
    sub = parser.add_subparsers(dest="command", required=True)
    models = [k.value for k in ModelKind]

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    p.add_argument("--subjects", type=_positive_int, default=6)
    p.add_argument("--minutes", type=_positive_float, default=10.0)
    p.add_argument("--rate", type=_positive_float, default=20.0)
    p.add_argument("--variability", type=float, default=1.0)
    p.add_argument("-o", "--out-dir", required=True)

    extract = sub.add_parser("extract", help="filter, segment, and extract features")
    extract.add_argument("input", help="recordings CSV")
    extract.add_argument("-o", "--output", required=True, help="feature CSV path")

    eval_ = sub.add_parser("eval", help="run one evaluation cell")
    eval_.add_argument("input", help="recordings CSV or feature CSV")
    eval_.add_argument("--model", choices=models, default="dtree")

    grid = sub.add_parser("grid", help="every model x treatment x protocol on one input")
    grid.add_argument("input", help="recordings CSV or feature CSV")

    sweep = sub.add_parser("sweep", help="window-size sweep")
    sweep.add_argument("input", help="recordings CSV")
    sweep.add_argument("--model", nargs="+", choices=models, default=["dtree"])
    sweep.add_argument("--sizes", default="25:300:25",
                       help="lo:hi:step or comma list, e.g. 75 or 25,75,150")

    # each shared flag once, on the commands that read it
    for p in (extract, eval_, grid, sweep):
        p.add_argument("--bank", choices=["a", "b"], default="a")
        p.add_argument("--filter-order", type=int, default=3)
        p.add_argument("--sensor", choices=["accel", "gyro", "mag"], default="accel")
    extract.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW)
    for p in (eval_, grid):
        p.add_argument("--window", type=_positive_int, default=None,
                       help=f"samples per window (default: a features CSV's own, "
                            f"else {DEFAULT_WINDOW})")
    for p in (eval_, sweep):
        p.add_argument("--protocol", choices=[proto.value for proto in Protocol],
                       default="personal")
        p.add_argument("--treatment", default="nr-rp",
                       choices=["nr-rp", "nr-nrp", "unr-rp", "unr-nrp"])
    for p in (eval_, grid, sweep):
        p.add_argument("--folds", type=_positive_int, default=10)
        p.add_argument("--knn-k", type=_positive_int, default=10)
        p.add_argument("--bag-learners", type=_positive_int, default=50)
        p.add_argument("--svm-c", type=_positive_float, default=1.0)
        p.add_argument("--tree-splits", type=_positive_int, default=85)
        p.add_argument("-o", "--out-dir", required=True)
    for p in (eval_, grid):
        p.add_argument("--permute-columns", action="store_true",
                       help="apply a seeded feature-column permutation to train and test")

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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create {out_dir}: {e}", file=sys.stderr)
        return EXIT_IO
    recordings, metas = generate_synthetic(params)
    outputs = [out_dir / "recordings.csv", out_dir / "manifest.csv"]
    try:
        write_recordings_csv(recordings, outputs[0])
        write_manifest_csv(metas, outputs[1])
    except OSError as e:
        print(f"error: write failed: {e}", file=sys.stderr)
        return EXIT_IO
    _write_run_manifest(out_dir, "synth", asdict(params), args.seed, [], outputs, started)
    print(f"wrote {len(recordings)} recordings to {outputs[0]}")
    return EXIT_OK


def cmd_extract(args) -> int:
    _check_preprocess_flags(args, (args.window,), "--window must be at least 4")
    recordings = parse_recordings_csv(args.input)
    vectors = recordings_to_features(
        recordings, Bank(args.bank), args.window, args.filter_order,
        SensorKind(args.sensor),
    )
    if not vectors:
        print("error: no windows produced (recordings too short?)", file=sys.stderr)
        return EXIT_PROTOCOL
    write_features_csv(vectors, args.output)
    print(f"wrote {len(vectors)} feature vectors to {args.output}")
    return EXIT_OK


def _load_vectors(args):
    """The input's feature vectors: a features CSV brings its own window, recordings
    are cut at --window."""
    window = args.window or DEFAULT_WINDOW
    _check_preprocess_flags(args, (window,), "--window must be at least 4")
    if not is_features_csv(args.input):
        return recordings_to_features(
            parse_recordings_csv(args.input), Bank(args.bank), window, args.filter_order,
            SensorKind(args.sensor),
        )
    vectors = read_features_csv(args.input)
    if vectors and args.window not in (None, vectors[0].window):
        raise UsageError(f"--window {args.window} disagrees with {args.input}, "
                         f"whose features were extracted at window {vectors[0].window}")
    return vectors


def _load_matrix(args):
    """(bank, window, X, y, subjects) of the input, columns permuted if asked."""
    vectors = _load_vectors(args)
    if not vectors:
        raise TooFewInstances("no feature vectors available")
    X, y, subjects = feature_matrix(vectors)
    if args.permute_columns:
        col_order = np.random.default_rng(args.seed).permutation(X.shape[1])
        X = X[:, col_order]
    return vectors[0].bank, vectors[0].window, X, y, subjects


def cmd_eval(args) -> int:
    started = time.monotonic()
    bank, window, X, y, subjects = _load_matrix(args)
    config = _eval_config(args, ModelKind(args.model), args.treatment, args.protocol, bank,
                          window)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate(config, X, y, subjects)
    outputs = [out_dir / "results.csv", out_dir / "table.md"]
    write_results_csv(report_rows(config, report), outputs[0])
    atomic_write_text(outputs[1], report_markdown(config, report))
    _write_run_manifest(out_dir, "eval", _manifest_config(args, bank=bank.value, window=window),
                        args.seed, [Path(args.input)], outputs, started)
    print(f"overall accuracy {report.overall_accuracy:.4f} "
          f"± {report.ci_halfwidth:.4f} (98% CI, n={report.n_units})")
    return EXIT_OK


def cmd_grid(args) -> int:
    started = time.monotonic()
    bank, window, X, y, subjects = _load_matrix(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    summary = ["| model | treatment | protocol | accuracy | seconds |",
               "| --- | --- | --- | --- | --- |"]
    for kind in ModelKind:
        for treatment in GRID_TREATMENTS:
            for protocol in Protocol:
                config = _eval_config(args, kind, treatment, protocol.value, bank, window)
                cell_started = time.monotonic()
                report = evaluate(config, X, y, subjects)
                rows.extend(report_rows(config, report))
                summary.append(
                    f"| {kind.value} | {treatment} | {protocol.value} "
                    f"| {report.overall_accuracy:.4f} | {time.monotonic() - cell_started:.1f} |"
                )
                print(summary[-1])
    outputs = [out_dir / "grid_results.csv", out_dir / "summary.md"]
    write_results_csv(rows, outputs[0])
    atomic_write_text(outputs[1], "# Treatment grid\n\n" + "\n".join(summary) + "\n")
    config = _manifest_config(
        args, bank=bank.value, window=window, models=[k.value for k in ModelKind],
        treatments=list(GRID_TREATMENTS), protocols=[p.value for p in Protocol],
    )
    _write_run_manifest(out_dir, "grid", config, args.seed, [Path(args.input)], outputs, started)
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.monotonic()
    sizes = _parse_sizes(args.sizes)
    _check_preprocess_flags(args, sizes, "--sizes must be lo:hi:step or a comma list of "
                            f"window sizes >= 4, got {args.sizes!r}")
    models = list(dict.fromkeys(args.model))
    recordings = parse_recordings_csv(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    rows = []
    for model in models:
        config = _eval_config(args, ModelKind(model), args.treatment, args.protocol,
                              Bank(args.bank), sizes[0])
        results[model] = window_sweep(config, recordings, sizes,
                                      args.filter_order, SensorKind(args.sensor))
        for size in sizes:
            rows.extend(report_rows(replace(config, samples_per_window=size),
                                    results[model][size]))
    series = {m: {s: reports[s].overall_accuracy for s in sizes}
              for m, reports in results.items()}
    if len(models) == 1:
        # a single model's chart also shows its recall per activity
        for act in Activity:
            series[ACTIVITY_CSV_NAMES[act]] = {
                s: results[models[0]][s].per_activity_recall[act] for s in sizes
            }
    outputs = [out_dir / "sweep_results.csv", out_dir / "sweep.svg"]
    write_results_csv(rows, outputs[0])
    atomic_write_text(outputs[1], sweep_svg(series))
    _write_run_manifest(out_dir, "sweep", _manifest_config(args, model=models, sizes=list(sizes)),
                        args.seed, [Path(args.input)], outputs, started)
    for model, reports in results.items():
        prefix = f"{model} " if len(models) > 1 else ""
        for size in sizes:
            print(f"{prefix}window {size:4d}: "
                  f"overall accuracy {reports[size].overall_accuracy:.4f}")
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
    summary = dataset_summary(recordings)
    print("subject_id,activity,sensor,n_samples,duration_s")
    for row in summary.rows:
        print(f"{row.subject_id},{row.activity.name},{row.sensor.name},"
              f"{row.n_samples},{row.duration_s:.1f}")
    print("class balance:", {a.name: round(f, 4) for a, f in summary.class_balance.items()})
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "eval": cmd_eval,
    "grid": cmd_grid,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "summary": cmd_summary,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = _default_seed()
    try:
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PROTOCOL_ERRORS as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except SCHEMA_ERRORS as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except HarkitError as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
