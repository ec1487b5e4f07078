"""Protocols, treatments, split accounting, and the feature matrices they run on."""
import inspect
from dataclasses import replace

import numpy as np
import pytest

import harkit.classifiers as classifiers
import harkit.evaluation as ev
from harkit.classifiers import ModelKind, ModelSpec, predict_batch, train
from harkit.errors import DimensionMismatch, SchemaError, SingleSubject, TooFewInstances
from harkit.evaluation import (
    NR_NRP,
    NR_RP,
    TREATMENTS,
    UNR_RP,
    EvalConfig,
    Protocol,
    Treatment,
    accuracy,
    evaluate,
    feature_matrices,
    kfold_split,
    recall,
    recordings_to_features,
)
from harkit.features import Bank, feature_matrix
from harkit.ingest import SensorKind


def toy_problem(rng, n_subjects=3, per_subject_class=20, d=6, sep=5.0):
    """Separable blobs with a per-subject shift, labeled by Activity code."""
    X, y, subjects = [], [], []
    for si in range(n_subjects):
        for c in range(5):
            center = np.zeros(d)
            center[c % d] = sep * (c + 1)
            center += si * 0.3
            X.append(rng.normal(size=(per_subject_class, d)) + center)
            y.append(np.full(per_subject_class, c))
            subjects += [f"s{si}"] * per_subject_class
    return np.vstack(X), np.concatenate(y), subjects


class TestTreatment:
    @pytest.mark.parametrize("name,norm,perm", [
        ("nr-rp", True, True), ("nr-nrp", True, False),
        ("unr-rp", False, True), ("unr-nrp", False, False),
    ])
    def test_name_round_trip(self, name, norm, perm):
        t = TREATMENTS[name]
        assert (t.normalized, t.permuted) == (norm, perm)
        assert t.name == name

    def test_constants(self):
        assert NR_RP == Treatment(True, True)
        assert NR_NRP == Treatment(True, False)
        assert UNR_RP == Treatment(False, True)


class TestKfoldSplit:
    def test_partitions_everything_once(self):
        labels = np.repeat(np.arange(5), 20)
        folds = kfold_split(10, labels)
        combined = np.concatenate(folds)
        assert sorted(combined) == list(range(100))
        assert all(len(f) == 10 for f in folds)

    def test_stratified(self):
        labels = np.repeat(np.arange(5), 20)
        for fold in kfold_split(10, labels):
            counts = np.bincount(labels[fold], minlength=5)
            assert np.all(counts == 2)

    def test_split_is_order_determined(self):
        labels = np.repeat(np.arange(2), 10)
        a = kfold_split(5, labels)
        b = kfold_split(5, labels)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_few_instances_raises(self):
        with pytest.raises(TooFewInstances):
            kfold_split(10, np.zeros(5, dtype=int))

    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            kfold_split(1, np.zeros(10, dtype=int))


class TestLosoSplit:
    def test_one_split_per_subject(self, monkeypatch):
        """Each subject is one held-out unit: trained on every other row, tested on its own."""
        subjects = ["a"] * 3 + ["b"] * 4 + ["c"] * 2
        X = np.arange(len(subjects), dtype=float)[:, None]  # each row's index as its feature
        y = np.arange(len(subjects)) % 2
        trained = []
        real_train = ev.train

        def spy(spec, Xtr, ytr):
            trained.append(sorted(Xtr[:, 0].astype(int)))
            return real_train(spec, Xtr, ytr)

        monkeypatch.setattr(ev, "train", spy)
        config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75, UNR_RP,
                            Protocol.Impersonal, seed=5)
        report = evaluate(config, X, y, subjects)
        assert report.unit_ids == ("a", "b", "c")
        ids = np.asarray(subjects)
        for s, train, conf in zip(report.unit_ids, trained, report.unit_confusions, strict=True):
            assert train == list(np.flatnonzero(ids != s))
            assert conf.sum() == np.count_nonzero(ids == s)

    def test_single_subject_raises(self, monkeypatch):
        monkeypatch.setattr(ev, "train", None)
        config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
                            protocol=Protocol.Impersonal)
        with pytest.raises(SingleSubject):
            evaluate(config, np.zeros((5, 2)), np.arange(5) % 2, ["only"] * 5)


class TestConfusionFigures:
    # true class 2 has no test rows; class 4 has rows but none predicted right
    CONF = np.array([[3, 1, 0, 0, 0],
                     [0, 2, 0, 0, 0],
                     [0, 0, 0, 0, 0],
                     [1, 0, 0, 1, 0],
                     [0, 0, 0, 2, 0]])

    def test_recall_of_an_untested_class_is_zero(self):
        np.testing.assert_array_equal(recall(self.CONF), [3 / 4, 1.0, 0.0, 1 / 2, 0.0])

    def test_recall_and_accuracy_work_on_one_matrix_and_a_stack(self):
        stack = np.stack([self.CONF, np.eye(5, dtype=int), 2 * self.CONF])
        assert accuracy(self.CONF) == 6 / 10
        np.testing.assert_array_equal(accuracy(stack), [6 / 10, 1.0, 12 / 20])
        np.testing.assert_array_equal(recall(stack),
                                      [recall(conf) for conf in stack])


class TestEvaluateAccounting:
    @pytest.mark.parametrize("protocol", [Protocol.Personal, Protocol.Impersonal])
    @pytest.mark.parametrize("treatment", [NR_RP, NR_NRP, UNR_RP])
    def test_every_instance_tested_exactly_once(self, protocol, treatment, rng):
        X, y, subjects = toy_problem(rng)
        config = EvalConfig(
            ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
            treatment, protocol, folds=10, seed=5,
        )
        report = evaluate(config, X, y, subjects)
        assert report.confusion.sum() == len(y)
        # row sums equal the true per-class test counts
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1), np.bincount(y, minlength=5)
        )
        assert report.unit_confusions.sum() == len(y)
        np.testing.assert_array_equal(
            report.unit_confusions.sum(axis=0), report.confusion
        )
        assert report.n_units == 3
        assert report.overall_accuracy == pytest.approx(
            np.trace(report.confusion) / len(y)
        )

    def test_per_unit_recall_consistent(self, rng):
        X, y, subjects = toy_problem(rng)
        config = EvalConfig(ModelSpec(ModelKind.Knn, k=3), Bank.B70, 75,
                            NR_RP, Protocol.Impersonal, seed=5)
        report = evaluate(config, X, y, subjects)
        for conf in report.unit_confusions:
            for r in recall(conf):
                assert 0.0 <= r <= 1.0
        assert len(report.per_unit_accuracies) == report.n_units
        assert report.ci_halfwidth >= 0.0

    @pytest.mark.parametrize("steps_per_row, hits", [(1000, 0), (0, 30)])
    def test_svm_health_counts_every_pair(self, rng, monkeypatch, steps_per_row, hits):
        """Leave-one-subject-out over 3 subjects of 5 classes trains 3 x 10 machines;
        with no step budget every one of them hits it."""
        monkeypatch.setattr(classifiers, "_SMO_STEPS_PER_ROW", steps_per_row)
        X, y, subjects = toy_problem(rng)
        config = EvalConfig(ModelSpec(ModelKind.Svm), Bank.B70, 75, NR_RP,
                            Protocol.Impersonal, seed=5)
        report = evaluate(config, X, y, subjects)
        assert (report.svm_pairs, report.svm_budget_hits) == (30, hits)

    def test_evaluation_reads_no_model_internals(self):
        """Health counters come from `TrainedModel` properties, not the model's impl."""
        assert ".impl" not in inspect.getsource(ev)

    def test_personal_perfect_on_separable_data(self, rng):
        X, y, subjects = toy_problem(rng, sep=10.0)
        config = EvalConfig(ModelSpec(ModelKind.Knn, k=3), Bank.B70, 75,
                            NR_RP, Protocol.Personal, seed=5)
        report = evaluate(config, X, y, subjects)
        assert report.overall_accuracy > 0.95

    def test_deterministic(self, rng):
        X, y, subjects = toy_problem(rng)
        config = EvalConfig(ModelSpec(ModelKind.DecisionTree, seed=2), Bank.B70, 75,
                            NR_RP, Protocol.Impersonal, seed=5)
        a = evaluate(config, X, y, subjects)
        b = evaluate(config, X, y, subjects)
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.overall_accuracy == b.overall_accuracy

    def test_permutation_changes_personal_folds(self, rng):
        X, y, subjects = toy_problem(rng, sep=1.0)
        base = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
                          NR_RP, Protocol.Personal, seed=5)
        a = evaluate(base, X, y, subjects)
        b = evaluate(replace(base, seed=99), X, y, subjects)
        assert not np.array_equal(a.confusion, b.confusion)

    @pytest.mark.parametrize("label", [5, -1, 1.5])
    def test_label_that_is_no_class_code_is_named(self, label, rng, monkeypatch):
        """A label outside the activity codes raises before the first split, naming it."""
        X, y, subjects = toy_problem(rng)
        y = np.where(np.arange(len(y)) == 7, label, y)
        monkeypatch.setattr(ev, "train", None)
        config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75)
        with pytest.raises(ValueError, match=f"labels must be class codes 0 to 4, got {label}$"):
            evaluate(config, X, y, subjects)

    @pytest.mark.parametrize("treatment", [NR_RP, NR_NRP])
    @pytest.mark.parametrize("longer", ["y", "subjects"])
    def test_inputs_of_other_lengths_raise(self, treatment, longer, rng, monkeypatch):
        """A label or subject id more or fewer than the feature rows raises before the
        permutation, rather than being dropped or indexed past the end."""
        X, y, subjects = toy_problem(rng)
        inputs = {"y": y, "subjects": subjects}
        monkeypatch.setattr(ev, "train", None)
        for extra in (5, -5):
            given = dict(inputs)
            given[longer] = np.resize(given[longer], len(X) + extra)
            config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75, treatment)
            with pytest.raises(DimensionMismatch):
                evaluate(config, X, given["y"], list(given["subjects"]))

    def test_empty_matrix_raises(self):
        config = EvalConfig(ModelSpec(ModelKind.Knn), Bank.B70, 75)
        with pytest.raises(TooFewInstances):
            evaluate(config, np.zeros((0, 5)), np.zeros(0, dtype=int), [])


class TestSplitCalls:
    """evaluate trains through its module's `train` (split by split) or `train_all` (the
    SVM's splits together) and predicts through its `predict_batch`: the traced
    benchmark pass wraps those three names to time each split's fit and predict."""

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_one_fit_and_one_predict_per_split(self, kind, protocol, rng, monkeypatch):
        calls = {"train": [], "train_all": [], "predict_batch": []}
        for name, seen in calls.items():
            def counted(*args, fn=getattr(ev, name), seen=seen):
                seen.append(args)
                return fn(*args)
            monkeypatch.setattr(ev, name, counted)
        X, y, subjects = toy_problem(rng)  # 3 subjects of 100 rows
        spec = ModelSpec(kind, seed=6, n_learners=3)
        evaluate(EvalConfig(spec, Bank.B70, 75, NR_RP, protocol, folds=5, seed=5),
                 X, y, subjects)
        splits, rows = (3, 200) if protocol is Protocol.Impersonal else (15, 80)
        assert len(calls["predict_batch"]) == splits
        predicted = [model.spec for model, _ in calls["predict_batch"]]
        if kind is ModelKind.Svm:
            assert calls["train"] == [] and [c[0] for c in calls["train_all"]] == [spec]
            assert predicted == [spec] * splits
        else:
            specs = [replace(spec, seed=6 ^ s) for s in range(splits)]
            assert calls["train_all"] == [] and predicted == specs
            assert [(c[0], len(c[1]), len(c[2])) for c in calls["train"]] == [
                (s, rows, rows) for s in specs]


class TestNumpyErrorState:
    """Training, prediction and evaluation leave NumPy's error state as they found it,
    also where a model's arithmetic overflows and raises SchemaError part way."""

    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["clean", "overflowing"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_error_state_comes_back(self, kind, scale, rng):
        X, y, subjects = toy_problem(rng)
        Xs = X.copy()
        Xs[:, 2] *= scale
        spec = ModelSpec(kind, n_learners=3)
        config = EvalConfig(spec, Bank.B70, 75, UNR_RP, Protocol.Impersonal, seed=5)
        overflows = scale > 1 and kind in (ModelKind.NaiveBayes, ModelKind.Knn, ModelKind.Svm)
        before = np.geterr()
        for step in (lambda: train(spec, Xs, y),
                     lambda: predict_batch(train(spec, X, y), Xs),
                     lambda: evaluate(config, Xs, y, subjects)):
            if overflows:
                with pytest.raises(SchemaError, match=f"^feature column 2 .* {kind.value}:"):
                    step()
            else:
                step()
            assert np.geterr() == before


class TestNormalizerLeakage:
    def test_fit_never_sees_heldout_subject(self, rng, monkeypatch):
        """Instrumented check: every normalizer fit excludes the test subject."""
        X, y, subjects = toy_problem(rng, n_subjects=4)
        # tag each instance with its subject index in a dedicated column
        marker = np.array([float(s[1:]) * 1000.0 + 1.0 for s in subjects])
        Xm = np.hstack([X, marker[:, None]])
        seen_calls = []
        real_fit = ev.fit_normalizer

        def spy(train_features):
            seen_calls.append(set(np.round(train_features[:, -1]).astype(int)))
            return real_fit(train_features)

        monkeypatch.setattr(ev, "fit_normalizer", spy)
        config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
                            NR_NRP, Protocol.Impersonal, seed=5)
        evaluate(config, Xm, y, subjects)
        all_markers = {i * 1000 + 1 for i in range(4)}
        assert len(seen_calls) == 4
        for call in seen_calls:
            assert len(all_markers - call) == 1  # exactly one subject held out
        # each subject is the held-out one exactly once
        held_out = [next(iter(all_markers - call)) for call in seen_calls]
        assert sorted(held_out) == sorted(all_markers)

    def test_personal_fit_stays_within_subject_train_fold(self, rng, monkeypatch):
        X, y, subjects = toy_problem(rng, n_subjects=2, per_subject_class=10)
        marker = np.arange(len(y), dtype=float)
        Xm = np.hstack([X, marker[:, None]])
        fitted_rows = []
        real_fit = ev.fit_normalizer

        def spy(train_features):
            fitted_rows.append(set(np.round(train_features[:, -1]).astype(int)))
            return real_fit(train_features)

        monkeypatch.setattr(ev, "fit_normalizer", spy)
        config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
                            NR_NRP, Protocol.Personal, folds=5, seed=5)
        report = evaluate(config, Xm, y, subjects)
        assert len(fitted_rows) == 2 * 5  # one fit per (subject, fold)
        ids = np.asarray(subjects)
        per_subject = {s: set(np.flatnonzero(ids == s)) for s in ("s0", "s1")}
        for rows in fitted_rows:
            owner = [s for s, idx in per_subject.items() if rows <= idx]
            assert owner, "fit mixed rows across subjects"
            # a training fold never contains the whole subject
            assert rows < per_subject[owner[0]]
        assert report.confusion.sum() == len(y)


class TestRecordingsPipeline:
    def test_window_counts_and_sensor_filter(self, small_dataset):
        params, recordings, _ = small_dataset
        vecs = recordings_to_features(recordings, Bank.B70, 75)
        n_samples = int(params.minutes_per_activity * 60 * params.sample_rate_hz)
        accel_recs = [r for r in recordings if r.sensor is SensorKind.Accelerometer]
        assert len(vecs) == len(accel_recs) * (n_samples // 75)
        assert all(len(v.values) == 70 for v in vecs)

    @pytest.mark.parametrize("filter_order", [3, 0])
    @pytest.mark.parametrize("sensor", list(SensorKind), ids=lambda sensor: sensor.value)
    def test_feature_matrices_equal_recordings_to_features(self, small_dataset, sensor,
                                                           filter_order):
        _, recordings, _ = small_dataset
        matrices = feature_matrices(recordings, [Bank.B70, Bank.A43], (100, 300), filter_order,
                                    sensor)
        assert list(matrices) == [(Bank.B70, 100), (Bank.B70, 300),
                                  (Bank.A43, 100), (Bank.A43, 300)]
        for (bank, window), (X, y, subjects) in matrices.items():
            X0, y0, subjects0 = feature_matrix(
                recordings_to_features(recordings, bank, window, filter_order, sensor))
            np.testing.assert_array_equal(X, X0)
            np.testing.assert_array_equal(y, y0)
            assert subjects == subjects0
        # floor(n / size) windows per accelerometer recording
        assert len(matrices[Bank.B70, 300][1]) == 3 * 5 * 4

    def test_no_windows_raises(self, small_dataset):
        _, recordings, _ = small_dataset
        with pytest.raises(TooFewInstances):
            feature_matrices(recordings, [Bank.B70], (100000,), 3, SensorKind.Accelerometer)
