"""Personal / impersonal evaluation protocols, treatments, and the window sweep."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .classifiers import ModelSpec, predict_batch, train
from .errors import SingleSubject, TooFewInstances
from .features import Bank, FeatureVector, bank_matrix, feature_matrix
from .ingest import Activity, Recording, SensorKind
from .preprocess import apply_normalizer, filter_recording, fit_normalizer, window_block
from .stats import confidence_interval

N_CLASSES = len(Activity)


@dataclass(frozen=True)
class Treatment:
    normalized: bool
    permuted: bool

    @property
    def name(self) -> str:
        return ("nr" if self.normalized else "unr") + "-" + ("rp" if self.permuted else "nrp")

    @classmethod
    def from_name(cls, name: str) -> "Treatment":
        try:
            norm, perm = name.lower().split("-")
            return cls(normalized={"nr": True, "unr": False}[norm],
                       permuted={"rp": True, "nrp": False}[perm])
        except (ValueError, KeyError):
            raise ValueError(f"unknown treatment {name!r}")


NR_RP = Treatment(True, True)
NR_NRP = Treatment(True, False)
UNR_RP = Treatment(False, True)


class Protocol(Enum):
    Personal = "personal"
    Impersonal = "impersonal"


@dataclass(frozen=True)
class EvalConfig:
    model_spec: ModelSpec
    bank: Bank
    samples_per_window: int
    treatment: Treatment = NR_RP
    protocol: Protocol = Protocol.Personal
    folds: int = 10
    seed: int = 0


@dataclass(frozen=True)
class EvalReport:
    overall_accuracy: float
    per_activity_recall: dict[Activity, float]
    confusion: np.ndarray  # 5x5 counts, rows = true class
    per_unit_accuracies: np.ndarray
    ci_halfwidth: float
    n_units: int
    unit_ids: tuple[str, ...] = field(default=())
    unit_confusions: np.ndarray | None = None  # (n_units, 5, 5), aligned to unit_ids

    def unit_recall(self, unit_index: int, activity: Activity) -> float:
        conf = self.unit_confusions[unit_index]
        row = conf[activity.value].sum()
        return float(conf[activity.value, activity.value] / row) if row else 0.0


def kfold_split(n: int, k: int, labels: np.ndarray, seed: int | None = None) -> list[np.ndarray]:
    """Stratified k folds. Without a seed, instances are dealt round-robin in
    their given order per label stratum, so fold composition tracks instance
    order (the non-permuted treatment relies on this)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise TooFewInstances(f"need at least {k} instances, got {n}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed) if seed is not None else None
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if rng is not None:
            idx = rng.permutation(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.array(sorted(f), dtype=int) for f in folds]


def loso_split(subject_ids: list[str]) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """One (train, test) pair per distinct subject; test = that subject."""
    subjects = sorted(set(subject_ids))
    if len(subjects) < 2:
        raise SingleSubject("leave-one-subject-out needs at least 2 subjects")
    ids = np.asarray(subject_ids)
    return [(np.flatnonzero(ids != s), np.flatnonzero(ids == s), s) for s in subjects]


def _run_split(
    config: EvalConfig,
    X: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    split_index: int,
) -> np.ndarray:
    Xtr, Xte = X[train_idx], X[test_idx]
    if config.treatment.normalized:
        norm = fit_normalizer(Xtr)
        Xtr = apply_normalizer(norm, Xtr)
        Xte = apply_normalizer(norm, Xte)
    spec = replace(config.model_spec, seed=config.model_spec.seed ^ split_index)
    model = train(spec, Xtr, y[train_idx])
    labels, _ = predict_batch(model, Xte)
    return labels


def evaluate(
    config: EvalConfig, X: np.ndarray, y: np.ndarray, subjects: list[str]
) -> EvalReport:
    """Run the configured protocol over a labeled feature matrix.

    Personal: stratified k-fold within each subject; units are subjects.
    Impersonal: leave-one-subject-out; units are held-out subjects.
    Instance permutation (when enabled) reorders instances before fold
    assignment; normalization statistics come from the training side only.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) == 0:
        raise TooFewInstances("empty feature matrix")
    subjects = list(subjects)

    if config.treatment.permuted:
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(len(X))
        X, y = X[order], y[order]
        subjects = [subjects[i] for i in order]

    unit_ids = sorted(set(subjects))
    unit_conf = np.zeros((len(unit_ids), N_CLASSES, N_CLASSES), dtype=int)
    unit_acc = []

    if config.protocol is Protocol.Personal:
        ids = np.asarray(subjects)
        split_index = 0
        for ui, s in enumerate(unit_ids):
            sub_idx = np.flatnonzero(ids == s)
            folds = kfold_split(len(sub_idx), config.folds, y[sub_idx], seed=None)
            correct = 0
            for fold in folds:
                test_idx = sub_idx[fold]
                train_idx = np.delete(sub_idx, fold)
                pred = _run_split(config, X, y, train_idx, test_idx, split_index)
                split_index += 1
                correct += int(np.sum(pred == y[test_idx]))
                np.add.at(unit_conf[ui], (y[test_idx], pred), 1)
            unit_acc.append(correct / len(sub_idx))
    else:
        if len(np.unique(y)) < 2:
            raise TooFewInstances("impersonal evaluation needs at least 2 classes")
        for split_index, (train_idx, test_idx, _s) in enumerate(loso_split(subjects)):
            pred = _run_split(config, X, y, train_idx, test_idx, split_index)
            np.add.at(unit_conf[split_index], (y[test_idx], pred), 1)
            unit_acc.append(float(np.mean(pred == y[test_idx])))

    confusion = unit_conf.sum(axis=0)
    total = confusion.sum()
    overall = float(np.trace(confusion)) / total
    recall = {}
    for act in Activity:
        row = confusion[act.value].sum()
        recall[act] = float(confusion[act.value, act.value]) / row if row else 0.0
    per_unit = np.array(unit_acc)
    _, halfwidth = confidence_interval(per_unit) if len(per_unit) >= 2 else (0.0, 0.0)
    return EvalReport(
        overall_accuracy=overall,
        per_activity_recall=recall,
        confusion=confusion,
        per_unit_accuracies=per_unit,
        ci_halfwidth=halfwidth,
        n_units=len(per_unit),
        unit_ids=tuple(unit_ids),
        unit_confusions=unit_conf,
    )


def recordings_to_features(
    recordings: list[Recording],
    bank: Bank,
    samples_per_window: int,
    filter_order: int = 3,
    sensor: SensorKind | None = SensorKind.Accelerometer,
):
    """filter -> segment -> one bank call per recording; returns FeatureVectors."""
    vectors = []
    for rec in recordings:
        if sensor is not None and rec.sensor is not sensor:
            continue
        filtered = filter_recording(rec, filter_order) if filter_order else rec
        values = bank_matrix(bank, window_block(filtered, samples_per_window))
        vectors.extend(FeatureVector(bank, row, rec.activity, rec.subject_id) for row in values)
    return vectors


def evaluate_recordings(config: EvalConfig, recordings: list[Recording],
                        filter_order: int = 3,
                        sensor: SensorKind | None = SensorKind.Accelerometer) -> EvalReport:
    vectors = recordings_to_features(
        recordings, config.bank, config.samples_per_window, filter_order, sensor
    )
    if not vectors:
        raise TooFewInstances("no windows produced from the recordings")
    X, y, subjects = feature_matrix(vectors)
    return evaluate(config, X, y, subjects)


DEFAULT_SWEEP_SIZES = tuple(range(25, 301, 25))


def window_sweep(
    base_config: EvalConfig,
    recordings: list[Recording],
    sizes: tuple[int, ...] = DEFAULT_SWEEP_SIZES,
    filter_order: int = 3,
    sensor: SensorKind | None = SensorKind.Accelerometer,
) -> dict[int, EvalReport]:
    """Filter once, then re-segment, re-extract, and evaluate at each window size."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if filter_order:
        recordings = [filter_recording(rec, filter_order) for rec in recordings
                      if sensor is None or rec.sensor is sensor]
    out = {}
    for size in sizes:
        config = replace(base_config, samples_per_window=size)
        out[size] = evaluate_recordings(config, recordings, 0, sensor)
    return out
