"""Personal / impersonal evaluation protocols, treatments, and the feature matrices they run on."""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .classifiers import ModelSpec, predict_batch, train
from .errors import DimensionMismatch, SchemaError, SingleSubject, TooFewInstances
from .features import Bank, FeatureVector, bank_matrix, feature_matrix
from .ingest import ACTIVITY_CSV_NAMES, Activity, Recording, SensorKind
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


def accuracy(confusion: np.ndarray) -> np.ndarray:
    """Correct over tested rows of one confusion matrix, or of each in a stack."""
    return np.trace(confusion, axis1=-2, axis2=-1) / confusion.sum(axis=(-2, -1))


def recall(confusion: np.ndarray) -> np.ndarray:
    """Per true class, correct over tested rows; 0 for a class with no test rows."""
    rows = confusion.sum(axis=-1)
    return np.divide(np.diagonal(confusion, axis1=-2, axis2=-1), rows,
                     out=np.zeros(rows.shape), where=rows > 0)


@dataclass(frozen=True)
class EvalReport:
    """A cell's per-unit confusion matrices; every figure is derived from them."""
    unit_ids: tuple[str, ...]
    unit_confusions: np.ndarray  # (n_units, 5, 5) counts, rows = true class
    svm_pairs: int        # one-vs-one SVM machines trained over all splits
    svm_budget_hits: int  # of those, machines that stopped at the SMO step budget

    @property
    def confusion(self) -> np.ndarray:
        return self.unit_confusions.sum(axis=0)

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def overall_accuracy(self) -> float:
        return float(accuracy(self.confusion))

    @property
    def per_activity_recall(self) -> dict[Activity, float]:
        return {act: float(r) for act, r in zip(Activity, recall(self.confusion))}

    @property
    def per_unit_accuracies(self) -> np.ndarray:
        # every row is tested once, so a unit's confusion sums to its row count
        return accuracy(self.unit_confusions)

    @property
    def ci_halfwidth(self) -> float:
        per_unit = self.per_unit_accuracies
        return confidence_interval(per_unit)[1] if len(per_unit) >= 2 else 0.0


def kfold_split(k: int, labels: np.ndarray) -> list[np.ndarray]:
    """Stratified k folds of the rows of `labels`. Instances are dealt round-robin in
    their given order per label stratum, so fold composition tracks instance order
    (the non-permuted treatment relies on this)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = np.asarray(labels)
    if len(labels) < k:
        raise TooFewInstances(f"need at least {k} instances, got {len(labels)}")
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in np.unique(labels):
        for pos, i in enumerate(np.flatnonzero(labels == label)):
            folds[pos % k].append(int(i))
    return [np.array(sorted(f), dtype=int) for f in folds]


def loso_split(subject_ids: list[str]) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """One (train, test) pair per distinct subject; test = that subject."""
    subjects = sorted(set(subject_ids))
    if len(subjects) < 2:
        raise SingleSubject("leave-one-subject-out needs at least 2 subjects")
    ids = np.asarray(subject_ids)
    return [(np.flatnonzero(ids != s), np.flatnonzero(ids == s), s) for s in subjects]


def _splits(config: EvalConfig, y: np.ndarray, subjects: list[str], unit_ids: list[str]):
    """(unit index, train rows, test rows) of each split of the protocol, in order."""
    if config.protocol is Protocol.Personal:
        ids = np.asarray(subjects)
        for ui, s in enumerate(unit_ids):
            sub_idx = np.flatnonzero(ids == s)
            for fold in kfold_split(config.folds, y[sub_idx]):
                yield ui, np.delete(sub_idx, fold), sub_idx[fold]
    else:
        if len(np.unique(y)) < 2:
            raise TooFewInstances("impersonal evaluation needs at least 2 classes")
        for ui, (train_idx, test_idx, _s) in enumerate(loso_split(subjects)):
            yield ui, train_idx, test_idx


def _run_split(
    config: EvalConfig,
    X: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    split_index: int,
) -> tuple[np.ndarray, int, int]:
    """The test rows' predicted labels, the SVM pairs trained and how many hit the step budget."""
    Xtr, Xte = X[train_idx], X[test_idx]
    if config.treatment.normalized:
        norm = fit_normalizer(Xtr)
        Xtr = apply_normalizer(norm, Xtr)
        Xte = apply_normalizer(norm, Xte)
    spec = replace(config.model_spec, seed=config.model_spec.seed ^ split_index)
    model = train(spec, Xtr, y[train_idx])
    labels, _ = predict_batch(model, Xte)
    return labels, model.svm_pairs, model.svm_budget_hits


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
    y = np.asarray(y)
    subjects = list(subjects)
    if not len(X) == len(y) == len(subjects):
        raise DimensionMismatch(f"{len(X)} feature rows, {len(y)} labels and "
                                f"{len(subjects)} subject ids")
    if len(X) == 0:
        raise TooFewInstances("empty feature matrix")
    bad = y[~np.isin(y, np.arange(N_CLASSES))]
    if bad.size:
        raise ValueError(f"labels must be class codes 0 to {N_CLASSES - 1}, got {bad[0].item()!r}")
    y = y.astype(int, copy=False)

    if config.treatment.permuted:
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(len(X))
        X, y = X[order], y[order]
        subjects = [subjects[i] for i in order]

    unit_ids = sorted(set(subjects))
    unit_conf = np.zeros((len(unit_ids), N_CLASSES, N_CLASSES), dtype=int)
    svm_health = np.zeros(2, dtype=int)  # SVM pairs trained, pairs that hit the step budget
    for split_index, (ui, train_idx, test_idx) in enumerate(
            _splits(config, y, subjects, unit_ids)):
        pred, *health = _run_split(config, X, y, train_idx, test_idx, split_index)
        svm_health += health
        np.add.at(unit_conf[ui], (y[test_idx], pred), 1)

    return EvalReport(tuple(unit_ids), unit_conf, int(svm_health[0]), int(svm_health[1]))


def recordings_to_features(
    recordings: list[Recording],
    bank: Bank,
    samples_per_window: int,
    filter_order: int = 3,
    sensor: SensorKind = SensorKind.Accelerometer,
):
    """filter -> segment -> one bank call per recording of `sensor`; returns FeatureVectors.
    Raises TooFewInstances when no recording holds a whole window, and SchemaError when
    a recording's features are not finite: finite samples large enough overflow."""
    vectors = []
    for rec in recordings:
        if rec.sensor is not sensor:
            continue
        with np.errstate(all="ignore"):  # an overflow shows in the features, checked below
            filtered = filter_recording(rec, filter_order) if filter_order else rec
            values = bank_matrix(bank, window_block(filtered, samples_per_window))
        if not np.isfinite(values).all():
            raise SchemaError(
                f"the features of subject {rec.subject_id}, activity "
                f"{ACTIVITY_CSV_NAMES[rec.activity]}, sensor {rec.sensor.value} are not "
                "finite: the recording's samples are too large")
        vectors.extend(FeatureVector(bank, row, rec.activity, rec.subject_id, samples_per_window)
                       for row in values)
    if not vectors:
        raise TooFewInstances(f"no windows of {samples_per_window} samples in the recordings")
    return vectors


def feature_matrices(recordings: list[Recording], banks: list[Bank], windows: tuple[int, ...],
                     filter_order: int, sensor: SensorKind) -> dict:
    """{(bank, window): (X, y, subjects)}, bank-major: each recording of `sensor` is
    filtered once, then cut and extracted once per (bank, window)."""
    with np.errstate(all="ignore"):  # recordings_to_features rejects what overflows
        recordings = [filter_recording(rec, filter_order) if filter_order else rec
                      for rec in recordings if rec.sensor is sensor]
    out = {}
    for bank in banks:
        for window in windows:
            out[bank, window] = feature_matrix(
                recordings_to_features(recordings, bank, window, 0, sensor))
    return out
