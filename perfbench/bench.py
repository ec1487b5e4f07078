"""Workloads, correctness checks and metrics of the harkit benchmark.

Import this module through ``run.py``, which pins BLAS to one thread and
puts the checkout's ``src`` first on the import path. Every call into harkit
goes through a public module attribute (``ingest.parse_recordings_csv``, not
a name imported from it), so the traced run can patch those attributes to
record spans while the untraced run calls the functions unwrapped.

Settings follow the paper's defaults: window 75, moving-average filter of
order 3, treatment NR-RP, model seed 1 and evaluation seed 11.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from harkit import classifiers, evaluation, features, ingest, preprocess, reporting
from harkit.classifiers import ModelKind, ModelSpec
from harkit.evaluation import NR_RP, EvalConfig, Protocol
from harkit.features import Bank
from harkit.ingest import SensorKind, SynthParams

from spans import Recorder

WINDOW = 75
FILTER_ORDER = 3
MODEL_SEED = 1
EVAL_SEED = 11
SETUP_REPEATS = 7

MODELS = tuple(kind.value for kind in ModelKind)
LAYERS = ("ingest", "preprocess", "features", "classifiers", "evaluation", "reporting")

# Times are reported in reference seconds: seconds on a host where probe()
# reads REFERENCE_PROBE_S, as it does on the 2-vCPU Xeon host the baseline in
# README.md was measured on when nothing slows it. Each stage is scaled by the
# probes taken right before and after it. The host's speed drifted by up to
# 1.8x over stretches of 10-30 s, and every run of the benchmark moved with
# it. Over 4 minutes of alternating probes with prep passes and bagging fits,
# 15-second medians of the raw times spread 0.34 and 0.32 of their median
# (quartile distance); scaled by the arithmetic loop alone 0.15 and 0.09, by
# the allocating loop alone 0.13 and 0.08, by their geometric mean 0.06 and
# 0.04.
PROBE_LOOPS = 50_000
PROBE_ROWS = 20_000
REFERENCE_PROBE_S = 0.009

# Banks A and B of a fixed input, compared within this tolerance on every
# run. It admits the last-bit changes a reordered float reduction makes and
# nothing a wrong formula makes.
REFERENCE = Path(__file__).with_name("reference_seed7.npz")
REFERENCE_PARAMS = SynthParams(n_subjects=2, minutes_per_activity=0.5, seed=7)
RTOL, ATOL = 1e-9, 1e-12

SPLIT = "evaluation.split"
PREP_STAGES = ("write_csv", "parse_csv", "filter", "segment", "bank_a", "bank_b", "features_csv")


@dataclass(frozen=True)
class Size:
    subjects: int
    minutes: float  # per activity; 2 minutes at 20 Hz is 32 windows of 75 samples

    def params(self, seed: int) -> SynthParams:
        return SynthParams(n_subjects=self.subjects, minutes_per_activity=self.minutes, seed=seed)


# Sizes keep a pass short enough to repeat several times in one run, so that
# a stage slowed by a probe-to-probe change of speed is outvoted by the median
# of its repeats. A bagged tree costs about the same
# at 72 rows as at 144, so personal's 10 folds x 50 trees stay near 7 s even
# on one subject.
FULL = {"prep": Size(2, 1.0), "personal": Size(1, 1.0), "loso": Size(3, 2.0)}

# personal and loso always evaluate the subjects of the default seed; the
# workload seed draws their instance order, which changes every fold,
# bootstrap sample and SMO pair choice. How far synthetic subjects overlap
# varies with the synth seed, and with it the size of every bagged tree:
# bagging's loso fit time differed 1.5x between synth seeds 2 and 4, the same
# in every repeat.
POPULATION_SEED = 7
TINY = {"prep": Size(2, 0.25), "personal": Size(1, 0.25), "loso": Size(2, 0.25)}

class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# --------------------------------------------------------------------------
# timing: stages of a pass, scaled by the probe to reference seconds
# --------------------------------------------------------------------------

def probe() -> float:
    """How fast the host runs Python at this moment, in seconds.

    The geometric mean of the times of two fixed loops: integer arithmetic,
    which stays in the core's own caches, and building, reading and sorting
    some 3 MB of tuples, floats and strings, which contends for the shared
    cache and memory as parsing and feature extraction do.
    """
    t0 = time.perf_counter()
    total = 0.0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    t1 = time.perf_counter()
    rows = [(i, i * 0.37, repr(i * 0.37)) for i in range(PROBE_ROWS)]
    for _, x, text in rows:
        total += float(text) - x
    rows.sort(key=lambda row: row[2])
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


class Stages:
    """Times each stage of one pass: ``out[name] = stages.timed(name, fn, ...)``.

    ``raw`` holds seconds as measured. When calibrated, the probe runs before
    the first stage and after each stage, and ``times`` holds each stage's
    time in reference seconds: scaled by REFERENCE_PROBE_S over the mean of
    the probes on either side of it.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.raw: dict[str, float] = {}
        self.times: dict[str, float] = {}
        self._probe = probe() if calibrated else None

    def timed(self, name: str, fn: Callable, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.raw[name] = time.perf_counter() - t0
        if self._probe is not None:
            after = probe()
            self.times[name] = self.raw[name] * 2 * REFERENCE_PROBE_S / (self._probe + after)
            self._probe = after
        return result


# --------------------------------------------------------------------------
# prep: CSV round trip, filter, segment, banks A and B, feature CSVs
# --------------------------------------------------------------------------

def prep_setup(size: Size, seed: int):
    recordings, _ = ingest.generate_synthetic(size.params(seed))
    return recordings


def prep_pass(recordings, work: Path, stages: Stages) -> dict:
    """Each stage's output, up to the stage that raised."""
    def write_csv(path):
        ingest.write_recordings_csv(recordings, path)
        return path

    def accel_filtered(parsed):
        accel = [r for r in parsed if r.sensor is SensorKind.Accelerometer]
        return accel, [preprocess.filter_recording(r, FILTER_ORDER) for r in accel]

    def segmented(filtered):
        return filtered, [w for r in filtered for w in preprocess.segment_windows(r, WINDOW)]

    def written(*banks):
        paths = {}
        for bank in banks:
            paths[bank] = work / f"{bank}.csv"
            reporting.write_features_csv(out[bank], paths[bank])
        return paths

    out: dict = {}
    try:
        out["write_csv"] = stages.timed("write_csv", write_csv, work / "recordings.csv")
        out["parse_csv"] = stages.timed("parse_csv", ingest.parse_recordings_csv, out["write_csv"])
        out["filter"] = stages.timed("filter", accel_filtered, out["parse_csv"])
        out["segment"] = stages.timed("segment", segmented, out["filter"][1])
        windows = out["segment"][1]
        out["bank_a"] = stages.timed("bank_a", lambda: [features.extract_bank_a(w) for w in windows])
        out["bank_b"] = stages.timed("bank_b", lambda: [features.extract_bank_b(w) for w in windows])
        out["features_csv"] = stages.timed("features_csv", written, "bank_a", "bank_b")
    except Exception:
        traceback.print_exc()
    return out


def _finite_matrix(vectors, width: int) -> bool:
    X = np.vstack([fv.values for fv in vectors])
    return X.shape == (len(vectors), width) and bool(np.all(np.isfinite(X)))


def _same_features(read, written) -> bool:
    return len(read) == len(written) and all(
        r.activity is w.activity and r.subject_id == w.subject_id
        and np.array_equal(r.values, w.values)
        for r, w in zip(read, written)
    )


def prep_check(recordings, out: dict, reference_ok: dict, tally: Tally) -> None:
    def check(stage: str) -> bool:
        value = out[stage]
        if stage == "write_csv":
            return value.stat().st_size > 0
        if stage == "parse_csv":  # repr round trip: every float back bit for bit
            return value == recordings
        if stage == "filter":
            accel, filtered = value
            return len(filtered) == len(accel) and all(
                [s.t_ms for s in f.samples] == [s.t_ms for s in a.samples]
                and np.all(np.isfinite(f.axes()))
                for a, f in zip(accel, filtered)
            )
        if stage == "segment":
            filtered, windows = value
            expected = sum(len(r.samples) // WINDOW for r in filtered)
            return len(windows) == expected and all(len(w.x) == WINDOW for w in windows)
        if stage in ("bank_a", "bank_b"):
            width = features.BANK_WIDTH[Bank.A43 if stage == "bank_a" else Bank.B70]
            return reference_ok[stage] and _finite_matrix(value, width)
        return all(_same_features(reporting.read_features_csv(path), out[bank])
                   for bank, path in value.items())

    for stage in PREP_STAGES:
        ok = stage in out
        if ok:
            try:
                ok = bool(check(stage))
            except Exception:
                traceback.print_exc()
                ok = False
        tally.op(ok, f"prep stage {stage}")


def reference_vectors() -> dict[str, list]:
    """Banks A and B of every accelerometer window of the reference input."""
    recordings, _ = ingest.generate_synthetic(REFERENCE_PARAMS)
    windows = [
        w
        for r in recordings if r.sensor is SensorKind.Accelerometer
        for w in preprocess.segment_windows(preprocess.filter_recording(r, FILTER_ORDER), WINDOW)
    ]
    return {
        "bank_a": [features.extract_bank_a(w) for w in windows],
        "bank_b": [features.extract_bank_b(w) for w in windows],
    }


def reference_matrices(vectors: dict[str, list] | None = None) -> dict[str, np.ndarray]:
    vectors = reference_vectors() if vectors is None else vectors
    return {name: np.vstack([fv.values for fv in vs]) for name, vs in vectors.items()}


def reference_agreement(reference: Path, vectors: dict[str, list]) -> dict[str, bool]:
    with np.load(reference, allow_pickle=False) as stored:
        expected = {name: stored[name] for name in stored.files}
    out = {}
    for name, X in reference_matrices(vectors).items():
        ok = name in expected and expected[name].shape == X.shape
        out[name] = bool(ok and np.allclose(X, expected[name], rtol=RTOL, atol=ATOL))
        if not out[name]:
            print(f"{name} differs from {reference.name}", file=sys.stderr)
    return out


def holdout_accuracies(bank_a, tally: Tally) -> dict[str, float]:
    """Each model trained on the even windows of bank A, tested on the odd ones.

    prep passes it the reference input's bank A, which is the same for every
    seed: on the 160 windows of a prep pass, knn's accuracy moved from 0.89
    to 0.98 between synth seeds.
    """
    X, y, _ = features.feature_matrix(bank_a)
    norm = preprocess.fit_normalizer(X[0::2])
    Xtr, Xte = (preprocess.apply_normalizer(norm, part) for part in (X[0::2], X[1::2]))
    ytr, yte = y[0::2], y[1::2]
    out = {}
    for kind in ModelKind:
        try:
            model = classifiers.train(ModelSpec(kind, seed=MODEL_SEED), Xtr, ytr)
            labels, _ = classifiers.predict_batch(model, Xte)
            ok = labels.shape == yte.shape
        except Exception:
            traceback.print_exc()
            ok = False
        if tally.op(ok, f"prep holdout {kind.value}"):
            out[kind.value] = float(np.mean(labels == yte))
    return out


# --------------------------------------------------------------------------
# personal and loso: five evaluation cells on bank B
# --------------------------------------------------------------------------

def eval_setup(size: Size, seed: int):
    """Bank B of the subjects of the default seed 7, in an instance order drawn from ``seed``."""
    recordings, _ = ingest.generate_synthetic(size.params(POPULATION_SEED))
    vectors = evaluation.recordings_to_features(recordings, Bank.B70, WINDOW, FILTER_ORDER)
    X, y, subjects = features.feature_matrix(vectors)
    order = np.random.default_rng(seed).permutation(len(y))
    return X[order], y[order], [subjects[i] for i in order], sum(len(r.samples) for r in recordings)


def eval_pass(protocol: Protocol, data, work: Path, stages: Stages) -> dict:
    """Each model's EvalReport; a cell that raised is left out."""
    X, y, subjects, _ = data

    def cell(config):
        report = evaluation.evaluate(config, X, y, subjects)
        reporting.write_results_csv(reporting.report_rows(config, report),
                                    work / f"{config.model_spec.kind.value}.csv")
        return report

    reports = {}
    for kind in ModelKind:
        config = EvalConfig(ModelSpec(kind, seed=MODEL_SEED), Bank.B70, WINDOW, NR_RP,
                            protocol, seed=EVAL_SEED)
        try:
            report = stages.timed(kind.value, cell, config)
        except Exception:
            traceback.print_exc()
            continue
        reports[kind.value] = report
    return reports


def eval_check(data, reports: dict, accuracy: dict, tally: Tally) -> None:
    """Each cell's confusion counts every instance once; a repeated pass
    reproduces the first pass's accuracy exactly."""
    n = len(data[1])
    for m in MODELS:
        report = reports.get(m)
        ok = report is not None and int(report.confusion.sum()) == n
        if ok:
            acc = float(report.overall_accuracy)
            ok = accuracy.setdefault(m, acc) == acc
        tally.op(ok, f"cell {m}")


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

def install_tracing(rec: Recorder) -> None:
    """Patch the public callables of every measured layer to record spans."""
    def stage(owner, attr, name, attrs=None):
        rec.patch(owner, attr, lambda fn: rec.timed(fn, name, attrs))

    stage(ingest, "generate_synthetic", "ingest.synth")
    stage(ingest, "write_recordings_csv", "ingest.write_csv")
    stage(ingest, "parse_recordings_csv", "ingest.parse_csv")
    stage(preprocess, "filter_recording", "preprocess.filter")
    stage(preprocess, "segment_windows", "preprocess.segment")
    stage(features, "extract_bank_a", "features.bank_a")
    stage(features, "extract_bank_b", "features.bank_b")
    for attr in ("fit_ma", "fit_arma", "fit_ar"):
        stage(features, attr, f"features.{attr}")
    for attr in ("autocorrelation", "partial_autocorrelation"):
        stage(features, attr, "features.acf_pacf")
    stage(reporting, "write_features_csv", "reporting.features_csv")
    stage(reporting, "report_rows", "reporting.results_csv")
    stage(reporting, "write_results_csv", "reporting.results_csv")
    stage(evaluation, "evaluate",
          lambda config, *a, **k: f"evaluation.{config.model_spec.kind.value}.cell")

    # evaluate() calls these through its own module attributes. A split has
    # no public boundary of its own: its span opens at the split's first
    # normalize or train call and closes when its predict call returns.
    def opens_split(fn):
        def wrapper(*args, **kwargs):
            if rec.top_name() != SPLIT:
                rec.open(SPLIT)
            return fn(*args, **kwargs)
        return wrapper

    def closes_split(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if rec.top_name() == SPLIT:
                rec.close(rec.top())
            return result
        return wrapper

    for attr in ("fit_normalizer", "apply_normalizer"):
        rec.patch(evaluation, attr,
                  lambda fn: opens_split(rec.timed(fn, "preprocess.normalize")))
    rec.patch(evaluation, "train", lambda fn: opens_split(rec.timed(
        fn, lambda spec, *a, **k: f"classifiers.{spec.kind.value}.fit",
        lambda model, spec, X, *a, **k: {"rows": len(X), "converged": bool(model.converged)})))
    rec.patch(evaluation, "predict_batch", lambda fn: closes_split(rec.timed(
        fn, lambda model, *a, **k: f"classifiers.{model.spec.kind.value}.predict")))


def layer_metrics(rec: Recorder, setup_root: int, pass_root: int, counts: dict) -> dict:
    """Per-layer metrics of the traced pass, plus synth time from the traced set-up."""
    roots, selfs = rec.roots(), rec.self_times()
    total, calls, layer_self = Counter(), Counter(), Counter()
    rows = {m: [] for m in MODELS}
    fallbacks = unconverged = 0
    splits = []
    synth = 0.0
    for i, s in enumerate(rec.spans):
        if roots[i] == setup_root and s.name == "ingest.synth":
            synth += s.duration
        if roots[i] != pass_root:
            continue
        total[s.name] += s.duration
        calls[s.name] += 1
        layer_self[s.name.split(".")[0]] += selfs[i]
        if s.name.startswith("features.") and s.error == "SignalTooShort":
            fallbacks += 1
        if s.name == SPLIT:
            splits.append(s.duration)
        if s.name.endswith(".fit") and "rows" in s.attrs:
            rows[s.name.split(".")[1]].append(s.attrs["rows"])
            unconverged += s.name == "classifiers.svm.fit" and not s.attrs["converged"]

    def t(name):
        return ("s", total[name])

    def n(value):
        return ("count", value)

    out = {
        "ingest.synth_s": ("s", synth),
        "ingest.write_csv_s": t("ingest.write_csv"),
        "ingest.parse_csv_s": t("ingest.parse_csv"),
        "ingest.samples": n(counts["samples"]),
        "ingest.csv_bytes": ("bytes", counts["csv_bytes"]),
        "preprocess.filter_s": t("preprocess.filter"),
        "preprocess.segment_s": t("preprocess.segment"),
        "preprocess.windows": n(counts["windows"]),
        "preprocess.normalize_s": t("preprocess.normalize"),
        "features.bank_a_s": t("features.bank_a"),
        "features.bank_b_s": t("features.bank_b"),
        "features.short_fallbacks": n(fallbacks),
        "reporting.features_csv_s": t("reporting.features_csv"),
        "reporting.results_csv_s": t("reporting.results_csv"),
    }
    for est in ("fit_ma", "fit_arma", "fit_ar", "acf_pacf"):
        out[f"features.{est}_s"] = t(f"features.{est}")
        out[f"features.{est}_calls"] = n(calls[f"features.{est}"])
    for m in MODELS:
        out[f"classifiers.{m}.fit_s"] = t(f"classifiers.{m}.fit")
        out[f"classifiers.{m}.predict_s"] = t(f"classifiers.{m}.predict")
        out[f"classifiers.{m}.fits"] = n(len(rows[m]))
        out[f"classifiers.{m}.train_rows"] = ("rows", statistics.fmean(rows[m]) if rows[m] else 0.0)
        out[f"evaluation.{m}.cell_s"] = t(f"evaluation.{m}.cell")
    out["classifiers.svm.unconverged"] = n(unconverged)
    out["classifiers.svm.unconverged_frac"] = ("ratio", unconverged / len(rows["svm"]) if rows["svm"] else 0.0)
    out["evaluation.splits"] = n(len(splits))
    out["evaluation.split_s.p50"] = ("s", statistics.median(splits) if splits else 0.0)
    out["evaluation.split_s.max"] = ("s", max(splits, default=0.0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", layer_self[layer])
    out["trace.wall_s"] = ("s", rec.spans[pass_root].duration)
    out["trace.uncovered_s"] = ("s", layer_self["bench"])
    out["trace.spans"] = n(sum(1 for r in roots if r == pass_root))
    return out


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

@dataclass
class Workload:
    setup: Callable
    run_pass: Callable       # (inputs, work dir, stages) -> outputs
    check: Callable          # (inputs, outputs, tally) -> None
    counts: Callable         # (inputs, outputs) -> layer counts of one pass


def _workload(name: str, reference: Path, accuracy: dict, state: dict) -> Workload:
    if name == "prep":
        def check(recordings, out, tally):
            if "reference" not in state:
                vectors = reference_vectors()
                state["reference"] = reference_agreement(reference, vectors)
                state["bank_a"] = vectors["bank_a"]
            prep_check(recordings, out, state["reference"], tally)

        def counts(recordings, out):
            return {"samples": sum(len(r.samples) for r in recordings),
                    "csv_bytes": out["write_csv"].stat().st_size if "write_csv" in out else 0,
                    "windows": len(out["segment"][1]) if "segment" in out else 0}

        return Workload(prep_setup, prep_pass, check, counts)

    protocol = Protocol.Personal if name == "personal" else Protocol.Impersonal
    return Workload(
        eval_setup,
        lambda data, work, stages: eval_pass(protocol, data, work, stages),
        lambda data, reports, tally: eval_check(data, reports, accuracy, tally),
        lambda data, reports: {"samples": data[3], "csv_bytes": 0, "windows": len(data[1])},
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: dict = FULL, reference: Path = REFERENCE) -> dict:
    """One run: set-up, timed passes, checks. Returns the result object."""
    size = sizes[name]
    accuracy: dict = {}
    state: dict = {}
    wl = _workload(name, reference, accuracy, state)
    tally = Tally()
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = Stages()
        inputs = None
        for i in range(SETUP_REPEATS):
            inputs = None  # free the previous copy before building the next
            gc.collect()
            inputs = setup.timed(f"setup{i}", wl.setup, size, seed)

        stage_times: dict[str, list[float]] = {}
        raw_times: dict[str, list[float]] = {}
        passes = 0
        start = time.perf_counter()
        while True:  # whole passes until `seconds` have gone
            # Every pass starts from the same collector state. Without this a
            # full collection fell in every other prep pass, and its pass
            # times took two values 20% apart.
            gc.collect()
            stages = Stages()
            out = wl.run_pass(inputs, work, stages)
            passes += 1
            for stage in stages.times:
                stage_times.setdefault(stage, []).append(stages.times[stage])
                raw_times.setdefault(stage, []).append(stages.raw[stage])
            wl.check(inputs, out, tally)
            out = None
            if time.perf_counter() - start >= seconds:
                break
        wall = sum(statistics.median(v) for v in stage_times.values())
        raw_wall = sum(statistics.median(v) for v in raw_times.values())

        if trace:
            gc.collect()
            rec = Recorder()
            install_tracing(rec)
            try:
                with rec.span("bench.setup") as setup_root:
                    wl.setup(size, seed)
                with rec.span("bench.pass") as pass_root:
                    out = wl.run_pass(inputs, work, Stages(calibrated=False))
            finally:
                rec.unpatch()
            wl.check(inputs, out, tally)
            metrics = layer_metrics(rec, setup_root, pass_root, wl.counts(inputs, out))
            metrics["trace.overhead_s"] = ("s", rec.spans[pass_root].duration - raw_wall)
            rec.write(root / ".perfbench_out" / f"spans-{name}-seed{seed}.json",
                      {"workload": name, **environment(seed)})
        else:
            if name == "prep":
                accuracy.update(holdout_accuracies(state["bank_a"], tally))
            metrics = {
                "wall_s": ("s", wall),
                "setup_s": ("s", statistics.median(setup.times.values())),
                "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
                "ok_frac": ("ratio", 1.0 - tally.failed / max(tally.attempted, 1)),
            }
            for m in MODELS:
                metrics[f"accuracy.{m}"] = ("ratio", accuracy.get(m, 0.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
        "passes": passes,
        "raw_wall_s": raw_wall,
    }


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None, root: Path) -> int:
    ap = argparse.ArgumentParser(description="harkit benchmark: one run of one workload")
    ap.add_argument("--workload", choices=sorted(FULL), required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the timed passes; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one untraced and one traced pass, per-layer metrics")
    args = ap.parse_args(argv)

    print("env " + json.dumps({"workload": args.workload, **environment(args.seed)}))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(f"passes {result.pop('passes')}, raw wall_s {result.pop('raw_wall_s')!r} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
