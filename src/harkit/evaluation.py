"""Personal / impersonal evaluation protocols, treatments, and the feature matrices they run on."""
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
    svm_pairs: int = 0        # one-vs-one SVM machines trained over all splits
    svm_budget_hits: int = 0  # of those, machines that stopped at the SMO step budget

    def unit_recall(self, unit_index: int, activity: Activity) -> float:
        conf = self.unit_confusions[unit_index]
        row = conf[activity.value].sum()
        return float(conf[activity.value, activity.value] / row) if row else 0.0


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
    steps = getattr(model.impl, "steps", ())
    return labels, len(steps), getattr(model.impl, "budget_hits", 0)


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
    svm_health = np.zeros(2, dtype=int)  # SVM pairs trained, pairs that hit the step budget
    for split_index, (ui, train_idx, test_idx) in enumerate(
            _splits(config, y, subjects, unit_ids)):
        pred, *health = _run_split(config, X, y, train_idx, test_idx, split_index)
        svm_health += health
        np.add.at(unit_conf[ui], (y[test_idx], pred), 1)

    confusion = unit_conf.sum(axis=0)
    total = confusion.sum()
    overall = float(np.trace(confusion)) / total
    recall = {}
    for act in Activity:
        row = confusion[act.value].sum()
        recall[act] = float(confusion[act.value, act.value]) / row if row else 0.0
    # every row is tested once, so a unit's confusion sums to its row count
    per_unit = np.trace(unit_conf, axis1=1, axis2=2) / unit_conf.sum(axis=(1, 2))
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
        svm_pairs=int(svm_health[0]),
        svm_budget_hits=int(svm_health[1]),
    )


def recordings_to_features(
    recordings: list[Recording],
    bank: Bank,
    samples_per_window: int,
    filter_order: int = 3,
    sensor: SensorKind = SensorKind.Accelerometer,
):
    """filter -> segment -> one bank call per recording of `sensor`; returns FeatureVectors."""
    vectors = []
    for rec in recordings:
        if rec.sensor is not sensor:
            continue
        filtered = filter_recording(rec, filter_order) if filter_order else rec
        values = bank_matrix(bank, window_block(filtered, samples_per_window))
        vectors.extend(FeatureVector(bank, row, rec.activity, rec.subject_id, samples_per_window)
                       for row in values)
    return vectors


def feature_matrices(recordings: list[Recording], banks: list[Bank], windows: tuple[int, ...],
                     filter_order: int, sensor: SensorKind) -> dict:
    """{(bank, window): (X, y, subjects)}, bank-major: each recording of `sensor` is
    filtered once, then cut and extracted once per (bank, window)."""
    recordings = [filter_recording(rec, filter_order) if filter_order else rec
                  for rec in recordings if rec.sensor is sensor]
    out = {}
    for bank in banks:
        for window in windows:
            vectors = recordings_to_features(recordings, bank, window, 0, sensor)
            if not vectors:
                raise TooFewInstances(f"no windows of {window} samples in the recordings")
            out[bank, window] = feature_matrix(vectors)
    return out
