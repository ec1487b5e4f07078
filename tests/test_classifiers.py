"""Classifier contracts: correctness oracles and determinism."""
import numpy as np
import pytest

from harkit.classifiers import (
    ModelKind,
    ModelSpec,
    bootstrap_indices,
    predict_batch,
    quadratic_kernel,
    train,
)
from harkit.errors import DimensionMismatch, EmptyTrainingSet

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def blobs(rng, n_per_class=30, n_classes=3, d=5, sep=6.0):
    X, y = [], []
    for c in range(n_classes):
        center = np.zeros(d)
        center[c % d] = sep * (c + 1)
        X.append(rng.normal(size=(n_per_class, d)) + center)
        y.append(np.full(n_per_class, c))
    return np.vstack(X), np.concatenate(y)


class TestModelSpec:
    @pytest.mark.parametrize(
        "kwargs", [{"k": 0}, {"n_learners": 0}, {"C": 0.0}, {"max_splits": 0}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.Knn, **kwargs)


class TestTrainContract:
    def test_empty_raises(self):
        with pytest.raises(EmptyTrainingSet):
            train(ModelSpec(ModelKind.DecisionTree), np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            train(ModelSpec(ModelKind.DecisionTree), np.zeros((3, 2)), np.zeros(2, dtype=int))

    def test_non_finite_raises(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            train(ModelSpec(ModelKind.NaiveBayes), X, np.array([0]))

    def test_predict_width_checked(self, rng):
        X, y = blobs(rng)
        model = train(ModelSpec(ModelKind.Knn), X, y)
        with pytest.raises(DimensionMismatch):
            predict_batch(model, np.zeros((2, 7)))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_predict_single_scores_in_unit_interval(self, kind, rng):
        """predict_batch gives each row a trained class and a score in [0, 1]."""
        X, y = blobs(rng, n_per_class=15)
        spec = ModelSpec(kind, seed=3, n_learners=5)
        model = train(spec, X, y)
        labels, scores = predict_batch(model, X)
        assert labels.shape == scores.shape == (len(X),)
        assert np.all(np.isin(labels, model.classes))
        assert np.all((scores >= 0.0) & (scores <= 1.0))


class TestDecisionTree:
    def test_single_threshold_split(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = train(ModelSpec(ModelKind.DecisionTree), X, y)
        labels, scores = predict_batch(model, np.array([[1.5], [10.5], [6.0]]))
        assert list(labels[:2]) == [0, 1]
        assert np.all(scores == 1.0)

    def test_fits_training_set_exactly_on_separable_data(self, rng):
        X, y = blobs(rng)
        model = train(ModelSpec(ModelKind.DecisionTree), X, y)
        labels, _ = predict_batch(model, X)
        assert np.array_equal(labels, y)

    def test_split_budget_limits_model(self, rng):
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, 200)
        stump = train(ModelSpec(ModelKind.DecisionTree, max_splits=1), X, y)
        # a single split yields at most two distinct outputs
        labels, _ = predict_batch(stump, X)
        assert len(np.unique(labels)) <= 2

    def test_single_class_training(self):
        model = train(ModelSpec(ModelKind.DecisionTree), np.zeros((5, 2)), np.full(5, 3))
        labels, _ = predict_batch(model, np.ones((4, 2)))
        assert np.all(labels == 3)


class TestNaiveBayes:
    def test_matches_gaussian_posterior_oracle(self, rng):
        X, y = blobs(rng, n_per_class=50, n_classes=2, d=3)
        model = train(ModelSpec(ModelKind.NaiveBayes), X, y)
        Xte = rng.normal(size=(20, 3)) + 3.0
        labels, _ = predict_batch(model, Xte)
        # oracle: per-class Gaussian log-likelihood with the same floor
        expect = []
        for x in Xte:
            lj = []
            for c in (0, 1):
                mu = X[y == c].mean(axis=0)
                var = np.maximum(X[y == c].var(axis=0), 1e-9)
                lj.append(
                    np.log(0.5)
                    - 0.5 * np.sum(np.log(2 * np.pi * var) + (x - mu) ** 2 / var)
                )
            expect.append(int(np.argmax(lj)))
        assert list(labels) == expect

    def test_zero_variance_feature_is_tolerated(self):
        X = np.array([[1.0, 5.0], [1.2, 5.0], [3.0, 5.0], [3.1, 5.0]])
        y = np.array([0, 0, 1, 1])
        model = train(ModelSpec(ModelKind.NaiveBayes), X, y)
        labels, scores = predict_batch(model, X)
        assert np.array_equal(labels, y)
        assert np.all(np.isfinite(scores))


class TestKnn:
    def test_k1_returns_nearest_training_label(self, rng):
        X, y = blobs(rng)
        model = train(ModelSpec(ModelKind.Knn, k=1), X, y)
        labels, scores = predict_batch(model, X)
        assert np.array_equal(labels, y)
        assert np.all(scores == 1.0)

    def test_matches_bruteforce_vote(self, rng):
        X, y = blobs(rng, n_per_class=20, sep=1.5)
        Xte = rng.normal(size=(15, 5))
        model = train(ModelSpec(ModelKind.Knn, k=7), X, y)
        labels, _ = predict_batch(model, Xte)
        for i, x in enumerate(Xte):
            d = np.sum((X - x) ** 2, axis=1)
            nn = np.argsort(d, kind="stable")[:7]
            votes = np.bincount(y[nn], minlength=3)
            assert labels[i] == np.argmax(votes)

    def test_k_larger_than_train_set_is_capped(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train(ModelSpec(ModelKind.Knn, k=10), X, y)
        labels, _ = predict_batch(model, np.array([[0.1]]))
        assert labels[0] == 0  # tie over both -> smallest class code


class TestSvm:
    def test_kernel_formula(self, rng):
        U = rng.normal(size=(4, 3))
        V = rng.normal(size=(5, 3))
        np.testing.assert_allclose(quadratic_kernel(U, V), (U @ V.T + 1.0) ** 2)

    def test_xor_with_quadratic_kernel(self):
        # XOR needs C >= 10/3 for a feasible separating dual solution here
        model = train(ModelSpec(ModelKind.Svm, seed=0, C=10.0), XOR_X, XOR_Y)
        labels, _ = predict_batch(model, XOR_X)
        assert np.array_equal(labels, XOR_Y)
        assert model.converged

    def test_multiclass_one_vs_one(self, rng):
        X, y = blobs(rng, n_per_class=20, n_classes=3, d=4)
        model = train(ModelSpec(ModelKind.Svm, seed=1, C=5.0), X, y)
        labels, _ = predict_batch(model, X)
        assert np.mean(labels == y) >= 0.95

    def test_single_class_training(self):
        model = train(ModelSpec(ModelKind.Svm), np.zeros((4, 2)), np.full(4, 2))
        labels, _ = predict_batch(model, np.ones((3, 2)))
        assert np.all(labels == 2)


class TestBagging:
    def test_single_learner_equals_bootstrap_tree_oracle(self, rng):
        X, y = blobs(rng, n_per_class=25, sep=2.0)
        seed = 42
        bag = train(ModelSpec(ModelKind.Bagging, seed=seed, n_learners=1), X, y)
        idx = bootstrap_indices(seed, 0, len(y))
        tree = train(ModelSpec(ModelKind.DecisionTree, max_splits=None), X[idx], y[idx])
        Xte = rng.normal(size=(30, 5))
        bl, _ = predict_batch(bag, Xte)
        tl, _ = predict_batch(tree, Xte)
        assert np.array_equal(bl, tl)

    def test_bootstrap_indices_are_seeded(self):
        a = bootstrap_indices(7, 3, 100)
        b = bootstrap_indices(7, 3, 100)
        c = bootstrap_indices(7, 4, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0 and a.max() < 100 and len(a) == 100

    def test_ensemble_accuracy_on_blobs(self, rng):
        X, y = blobs(rng)
        model = train(ModelSpec(ModelKind.Bagging, seed=0, n_learners=10), X, y)
        labels, scores = predict_batch(model, X)
        assert np.mean(labels == y) == 1.0
        assert np.all((scores >= 0) & (scores <= 1))


class TestDeterminism:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_two_runs_identical(self, kind, rng):
        X, y = blobs(rng, n_per_class=20)
        Xte = rng.normal(size=(25, 5)) * 4.0
        spec = ModelSpec(kind, seed=9, n_learners=5)
        la, sa = predict_batch(train(spec, X, y), Xte)
        lb, sb = predict_batch(train(spec, X, y), Xte)
        assert np.array_equal(la, lb)
        assert np.array_equal(sa, sb)
