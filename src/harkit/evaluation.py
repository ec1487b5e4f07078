"""Personal / impersonal evaluation protocols, treatments, and the feature matrices they run on."""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .classifiers import ModelKind, ModelSpec, predict_batch, train, train_all
from .errors import DimensionMismatch, SchemaError, SingleSubject, TooFewInstances
from .features import BANK_WIDTH, Bank, FeatureVector, bank_matrix
from .ingest import ACTIVITY_CSV_NAMES, Activity, Recording, SensorKind
from .preprocess import MIN_WINDOW, apply_normalizer, filter_recording, fit_normalizer, window_block
from .stats import confidence_interval

N_CLASSES = len(Activity)


@dataclass(frozen=True)
class Treatment:
    normalized: bool
    permuted: bool

    @property
    def name(self) -> str:
        return ("nr" if self.normalized else "unr") + "-" + ("rp" if self.permuted else "nrp")


NR_RP = Treatment(True, True)
NR_NRP = Treatment(True, False)
UNR_RP = Treatment(False, True)
UNR_NRP = Treatment(False, False)
# name -> treatment; the grid compares the first three by default
TREATMENTS = {t.name: t for t in (NR_RP, NR_NRP, UNR_RP, UNR_NRP)}


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
    svm_steps: int        # SMO steps summed over those machines

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


def _splits(config: EvalConfig, y: np.ndarray, subjects: list[str], unit_ids: list[str]):
    """(unit index, train rows, test rows) of each split of the protocol, in order."""
    ids = np.asarray(subjects)
    if config.protocol is Protocol.Impersonal:
        if len(np.unique(y)) < 2:
            raise TooFewInstances("impersonal evaluation needs at least 2 classes")
        if len(unit_ids) < 2:
            raise SingleSubject("leave-one-subject-out needs at least 2 subjects")
    for ui, s in enumerate(unit_ids):
        sub_idx = np.flatnonzero(ids == s)
        if config.protocol is Protocol.Impersonal:
            yield ui, np.flatnonzero(ids != s), sub_idx
        elif len(sub_idx) < config.folds:
            raise TooFewInstances(f"need at least {config.folds} instances of subject {s}, "
                                  f"got {len(sub_idx)}")
        else:
            for fold in kfold_split(config.folds, y[sub_idx]):
                yield ui, np.delete(sub_idx, fold), sub_idx[fold]


def evaluate(
    config: EvalConfig, X: np.ndarray, y: np.ndarray, subjects: list[str]
) -> EvalReport:
    """Run the configured protocol over a labeled feature matrix.

    Personal: stratified k-fold within each subject; units are subjects, and one with
    fewer rows than folds raises TooFewInstances naming it.
    Impersonal: leave-one-subject-out; units are held-out subjects.
    Instance permutation (when enabled) reorders instances before fold assignment; each
    split normalizes with its training rows' statistics only, trains with seed
    `model_spec.seed ^ split index` and predicts its test rows. Each split predicts as soon
    as its model is trained: the SVM's splits train together, in one SMO pool
    (`train_all`), and every other model's split by split (`train`).
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
    splits = list(_splits(config, y, subjects, unit_ids))

    labels = [y[train_idx] for _, train_idx, _ in splits]
    norms = [None] * len(splits)  # each split's normalizer (None untreated)

    def training_matrix(s: int) -> np.ndarray:
        """Split s's training rows, normalized with their own statistics."""
        Xtr = X[splits[s][1]]
        if not config.treatment.normalized:
            return Xtr
        norms[s] = fit_normalizer(Xtr)
        return apply_normalizer(norms[s], Xtr)

    spec = config.model_spec
    if spec.kind is ModelKind.Svm:  # every split's machines train together, in one SMO pool
        models = train_all(spec, labels, training_matrix)
    else:
        models = (train(replace(spec, seed=spec.seed ^ s), training_matrix(s), labels[s])
                  for s in range(len(splits)))
    unit_conf = np.zeros((len(unit_ids), N_CLASSES, N_CLASSES), dtype=int)
    svm_pairs = svm_budget_hits = svm_steps = 0
    for s, (ui, _, test_idx) in enumerate(splits):
        model, norm = next(models), norms[s]  # norms[s] is set once split s has trained
        Xte = X[test_idx] if norm is None else apply_normalizer(norm, X[test_idx])
        pred, _ = predict_batch(model, Xte)
        svm_pairs += model.svm_pairs
        svm_budget_hits += model.svm_budget_hits
        svm_steps += model.svm_steps
        np.add.at(unit_conf[ui], (y[test_idx], pred), 1)
        del Xte, model  # the next split runs without this one's model and copies

    return EvalReport(tuple(unit_ids), unit_conf, svm_pairs, svm_budget_hits, svm_steps)


def recordings_to_features(
    recordings: list[Recording],
    bank: Bank,
    samples_per_window: int,
    filter_order: int = 3,
    sensor: SensorKind = SensorKind.Accelerometer,
) -> list[FeatureVector]:
    """feature_matrices' rows for one bank and window as FeatureVectors, with its errors."""
    [(X, y, subjects)] = feature_matrices(recordings, [bank], (samples_per_window,),
                                          filter_order, sensor).values()
    return [FeatureVector(bank, row, Activity(code), subject, samples_per_window)
            for row, code, subject in zip(X, y.tolist(), subjects)]


def feature_matrices(recordings: list[Recording], banks: list[Bank],
                     windows: tuple[int, ...] | range, filter_order: int,
                     sensor: SensorKind) -> dict:
    """{(bank, window): (X, y, subjects)}, bank-major, in one pass over the recordings of
    `sensor`: each is filtered once (order 0: not at all), extracted once per (bank,
    window) into its rows of the preallocated matrices, and dropped before the next.
    Before any extraction, a size below MIN_WINDOW raises ValueError, and no recording of
    `sensor`, or the first size no recording holds, TooFewInstances (a range of sizes is
    walked no further than the longest recording). SchemaError names the first recording
    whose features are not finite: finite samples large enough overflow."""
    recordings = [rec for rec in recordings if rec.sensor is sensor]
    if not recordings:
        raise TooFewInstances(f"no recordings of sensor {sensor.value} in the input")
    longest = max(len(rec.samples) for rec in recordings)
    for window in windows:
        if window < MIN_WINDOW:
            raise ValueError(f"samples_per_window must be >= {MIN_WINDOW}")
        if window > longest:
            raise TooFewInstances(f"no windows of {window} samples in the recordings")
    counts = {window: [len(rec.samples) // window for rec in recordings] for window in windows}
    # each recording's first row in the matrices of each window
    starts = {window: np.cumsum([0, *n]) for window, n in counts.items()}
    out = {(bank, window): (np.empty((starts[window][-1], BANK_WIDTH[bank])),
                            np.repeat([rec.activity.value for rec in recordings], n),
                            [rec.subject_id for rec, k in zip(recordings, n) for _ in range(k)])
           for bank in banks for window, n in counts.items()}
    for i, rec in enumerate(recordings):
        finite = True
        with np.errstate(all="ignore"):  # an overflow shows in the features, checked below
            filtered = filter_recording(rec, filter_order) if filter_order else rec
            for (bank, window), (X, _, _) in out.items():
                rows = slice(starts[window][i], starts[window][i + 1])
                X[rows] = bank_matrix(bank, window_block(filtered, window))
                finite = finite and np.isfinite(X[rows]).all()
        if not finite:
            raise SchemaError(
                f"the features of subject {rec.subject_id}, activity "
                f"{ACTIVITY_CSV_NAMES[rec.activity]}, sensor {rec.sensor.value} are not "
                "finite: the recording's samples are too large")
    return out
