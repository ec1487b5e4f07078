"""Classifier contracts: correctness oracles and determinism."""
import hashlib
import heapq
import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harkit import classifiers
from harkit.classifiers import (
    ModelKind,
    ModelSpec,
    _smo_binary,
    bootstrap_indices,
    predict_batch,
    quadratic_kernel,
    train,
)
from harkit.errors import DimensionMismatch, EmptyTrainingSet, SchemaError
from harkit.evaluation import recordings_to_features
from harkit.features import Bank, feature_matrix
from harkit.ingest import SensorKind, SynthParams, generate_synthetic

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


def reference_best_split(X, y, n_classes):
    """The per-feature CART split search harkit ran before the batched one, kept as
    the oracle of `_Forest.best_splits` (through `presorted_split` and `search_nodes`):
    one stable sort and one cumulative count per feature."""
    m = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    p = parent_counts / m
    parent_gini = float(1.0 - np.sum(p * p))
    best = None
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), y] = 1.0
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        v = X[order, j]
        valid = np.flatnonzero(v[:-1] < v[1:])
        if valid.size == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[:-1]
        k = left.sum(axis=1)
        right = parent_counts - left
        gl = 1.0 - np.sum((left / k[:, None]) ** 2, axis=1)
        gr = 1.0 - np.sum((right / (m - k)[:, None]) ** 2, axis=1)
        weighted = (k * gl + (m - k) * gr) / m
        gains = parent_gini - weighted[valid]
        bi = int(np.argmax(gains))
        gain = float(gains[bi])
        if gain <= 1e-15:
            continue
        if best is None or gain > best[0] + 1e-15:
            pos = valid[bi]
            best = (gain, j, float(0.5 * (v[pos] + v[pos + 1])))
    return best


def reference_smo_binary(X, y, C, tol):
    """The SMO harkit ran before the beta-coordinate one, kept as the oracle of
    `_smo_binary`: LIBSVM's two-variable subproblem in alpha, one clipping case per
    label pair and side."""
    n = len(y)
    K = quadratic_kernel(X, X)
    kd = np.diag(K)
    curv = -2.0 * K
    curv += kd[:, None]
    curv += kd
    np.maximum(curv, classifiers._TAU, out=curv)
    ys = y.tolist()
    alphas = [0.0] * n
    F = y.copy()
    up_mask = np.where(y > 0, 0.0, -np.inf)
    low_mask = np.where(y > 0, np.inf, 0.0)
    F_up, F_low, gain = np.empty(n), np.empty(n), np.empty(n)
    budget = classifiers._SMO_STEPS_PER_ROW * n
    steps = 0
    fresh = True
    while True:
        np.add(F, up_mask, out=F_up)
        i = int(F_up.argmax())
        m = float(F_up[i])
        np.add(F, low_mask, out=F_low)
        M = float(F_low.min())
        if m - M < tol:
            if fresh:
                converged = True
                break
            F = y - K @ (np.array(alphas) * y)
            fresh = True
            continue
        if steps == budget:
            converged = False
            break
        np.subtract(m, F_low, out=gain)
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        gain /= curv[i]
        j = int(gain.argmax())
        yi, yj, ai, aj = ys[i], ys[j], alphas[i], alphas[j]
        if yi != yj:
            delta = yi * (m - float(F[j])) / curv[i, j]
            diff = ai - aj
            ai_new, aj_new = ai + delta, aj + delta
            if diff > 0:
                if aj_new < 0:
                    aj_new, ai_new = 0.0, diff
                if ai_new > C:
                    ai_new, aj_new = C, C - diff
            else:
                if ai_new < 0:
                    ai_new, aj_new = 0.0, -diff
                if aj_new > C:
                    aj_new, ai_new = C, C + diff
        else:
            delta = yi * (float(F[j]) - m) / curv[i, j]
            total = ai + aj
            ai_new, aj_new = ai - delta, aj + delta
            if total > C:
                if ai_new > C:
                    ai_new, aj_new = C, total - C
                if aj_new > C:
                    aj_new, ai_new = C, total - C
            else:
                if aj_new < 0:
                    aj_new, ai_new = 0.0, total
                if ai_new < 0:
                    ai_new, aj_new = 0.0, total
        F -= K[i] * (yi * (ai_new - ai)) + K[j] * (yj * (aj_new - aj))
        for t, yt, a in ((i, yi, ai_new), (j, yj, aj_new)):
            alphas[t] = a
            grow, shrink = (a < C, a > 0) if yt > 0 else (a > 0, a < C)
            up_mask[t] = 0.0 if grow else -np.inf
            low_mask[t] = 0.0 if shrink else np.inf
        steps += 1
        fresh = False
    alphas = np.array(alphas)
    free = (alphas > 0) & (alphas < C)
    b = float(F[free].mean()) if free.any() else 0.5 * (m + M)
    return alphas, b, steps, converged


def reference_knn(model, X):
    """KNN labels and scores by a full stable sort of every row's distances."""
    impl = model.impl
    k = min(impl.k, len(impl.y))
    sq = (np.sum(X * X, axis=1)[:, None] - 2.0 * X @ impl.X.T
          + np.sum(impl.X * impl.X, axis=1)[None, :])
    nn = np.argsort(sq, axis=1, kind="stable")[:, :k]
    votes = np.zeros((len(X), impl.n_classes), dtype=int)
    for c in range(impl.n_classes):
        votes[:, c] = np.sum(impl.y[nn] == c, axis=1)
    labels = np.argmax(votes, axis=1)
    return labels, votes[np.arange(len(X)), labels] / k


def node_matrix(rng, kind, m, n_features, n_classes):
    """(X, y) of one tree node of the given kind."""
    y = rng.integers(0, n_classes, m)
    if kind == "normal":
        X = rng.normal(size=(m, n_features))
    elif kind == "integer_ties":
        X = rng.integers(-2, 3, size=(m, n_features)).astype(float)
    elif kind == "signed_zeros":
        X = rng.choice([-0.0, 0.0, 1.0], size=(m, n_features))
    elif kind == "bootstrap":  # rows drawn with replacement, as bagging does
        base = rng.normal(size=(m, n_features))
        idx = rng.integers(0, m, m)
        X, y = base[idx], y[idx]
    elif kind == "constant_columns":
        X = rng.normal(size=(m, n_features))
        X[:, rng.random(n_features) < 0.5] = 1.25
    elif kind == "class_indicators":
        # balanced classes; feature j isolates class j % n_classes, so several
        # features reach the same best gain and the lowest index must win
        y = np.tile(np.arange(n_classes), -(-m // n_classes))[:m]
        X = (y[:, None] == np.arange(n_features) % n_classes).astype(float)
        X *= rng.integers(1, 3, size=n_features)
    else:  # "no_gain": rows come in groups of one per class, a value per group, so
        # no split helps (when m is a multiple of n_classes)
        groups = -(-m // n_classes)
        X = np.repeat(rng.integers(0, 4, size=(groups, n_features)).astype(float),
                      n_classes, axis=0)[:m]
        y = np.tile(np.arange(n_classes), groups)[:m]
    return X, y


NODE_KINDS = ["normal", "integer_ties", "signed_zeros", "bootstrap", "constant_columns",
              "class_indicators", "no_gain"]


def tree_nodes(tree, t=0) -> list[tuple]:
    """(label, feature, threshold) of every node of tree t of a trained tree model, or of
    a `best_first_tree`, in preorder."""
    if hasattr(tree, "root"):  # node objects
        nodes, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            nodes.append((node.label, node.feature, node.threshold))
            if node.feature >= 0:
                stack += [node.right, node.left]
        return nodes
    label, feature, threshold, child = (
        a.tolist() for a in (tree.nodes.label, tree.nodes.feature, tree.nodes.threshold,
                             tree.nodes.child))
    nodes, stack = [], [t]
    while stack:
        i = stack.pop()
        nodes.append((label[i], feature[i], threshold[i]))
        if feature[i] >= 0:
            stack += [child[i] + 1, child[i]]
    return nodes


def best_first_tree(X, y, max_splits):
    """The tree grown best first under `max_splits`, one node at a time: expand the
    pending split of largest gain x rows (the first pushed among equals, a left child
    before its right), each node's split from `reference_best_split` on its own rows."""
    n_classes = int(y.max()) + 1
    heap, pushes = [], itertools.count()

    def leaf(rows):
        node = SimpleNamespace(label=int(np.bincount(y[rows], minlength=n_classes).argmax()),
                               feature=-1, threshold=0.0, left=None, right=None)
        split = reference_best_split(X[rows], y[rows], n_classes)
        if split is not None:
            heapq.heappush(heap, (-split[0] * len(rows), next(pushes), node, rows, split))
        return node

    root = leaf(np.arange(len(y)))
    for _ in range(max_splits):
        if not heap:
            break
        _, _, node, rows, (_, feature, threshold) = heapq.heappop(heap)
        goes_left = X[rows, feature] <= threshold
        node.feature, node.threshold = feature, threshold
        node.left, node.right = leaf(rows[goes_left]), leaf(rows[~goes_left])
    return SimpleNamespace(root=root)


def tree_digest(model, X) -> str:
    """sha256 over every tree's nodes (label, feature, threshold; preorder) and the
    labels and scores the model predicts for X."""
    h = hashlib.sha256()
    for t in range(model.impl.nodes.n_trees):
        for label, feature, threshold in tree_nodes(model.impl, t):
            h.update(f"{label},{feature},{threshold!r};".encode())
    labels, scores = predict_batch(model, X)
    h.update(labels.astype(np.int64).tobytes())
    h.update(scores.tobytes())
    return h.hexdigest()


class TestModelSpec:
    @pytest.mark.parametrize(
        "kwargs", [{"k": 0}, {"n_learners": 0}, {"C": 0.0}, {"max_splits": 0}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.Knn, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"C": float("nan")}, {"C": float("inf")},
        {"k": 2.5}, {"k": True}, {"n_learners": 5.0}, {"max_splits": 8.5}, {"max_splits": False},
    ], ids=str)
    def test_rejects_values_the_classifiers_cannot_run_with(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.Svm, **kwargs)

    def test_accepts_numpy_integers(self):
        assert ModelSpec(ModelKind.Knn, k=np.int64(3), max_splits=None).k == 3
        assert ModelSpec(ModelKind.Bagging, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("seed", [1.5, -1, True, "1", None], ids=repr)
    def test_rejects_a_seed_that_is_no_non_negative_integer(self, kind, seed):
        """Every kind checks its seed when built, not only bagging, whose bootstrap
        would fail inside NumPy's SeedSequence."""
        with pytest.raises(ValueError, match="seed must be"):
            ModelSpec(kind, seed=seed)


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

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_predict_rejects_non_finite_rows(self, kind, rng):
        """An all-nan row and a row holding inf raise what a non-finite training row
        raises, rather than labels no class was trained as."""
        X, y = blobs(rng, n_per_class=15)
        model = train(ModelSpec(kind, n_learners=5), X, y + 1)
        rows = np.zeros((2, X.shape[1]))
        rows[0], rows[1, 2] = np.nan, np.inf
        with pytest.raises(ValueError, match="non-finite"):
            predict_batch(model, rows)

    ARITHMETIC_MODELS = [ModelKind.NaiveBayes, ModelKind.Knn, ModelKind.Svm]

    @pytest.mark.parametrize("kind", ARITHMETIC_MODELS, ids=lambda k: k.value)
    def test_training_column_too_large_is_named(self, kind, rng):
        """Finite features whose squares overflow are a SchemaError naming the model and
        the column, with no NumPy warning (the suite turns warnings into errors)."""
        X, y = blobs(rng, n_per_class=15)
        X[:, 3] = np.where(np.arange(len(X)) % 2, 1e200, -1e200)
        with pytest.raises(SchemaError, match=f"^feature column 3 is too large for model "
                                              f"{kind.value}: "):
            train(ModelSpec(kind), X, y)

    @pytest.mark.parametrize("kind", ARITHMETIC_MODELS, ids=lambda k: k.value)
    def test_prediction_column_too_large_is_named(self, kind, rng):
        X, y = blobs(rng, n_per_class=15)
        model = train(ModelSpec(kind), X, y)
        rows = X[:4].copy()
        rows[:, 2] = 1e200
        with pytest.raises(SchemaError, match=f"^feature column 2 is too large for model "
                                              f"{kind.value}: "):
            predict_batch(model, rows)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("label", [-1, 1.5])
    def test_labels_must_be_class_codes(self, kind, label, rng, monkeypatch):
        """A negative or fractional label raises before any fit, rather than training a
        class no model can predict or truncating it to another class."""
        X, y = blobs(rng, n_per_class=20)
        y = np.where(y == 0, label, y)
        for impl in ("_TreesImpl", "_NaiveBayesImpl", "_KnnImpl", "_SvmImpl"):
            monkeypatch.setattr(classifiers, impl, None)  # the check comes before any model
        with pytest.raises(ValueError, match="labels must be non-negative integer class codes"):
            train(ModelSpec(kind, n_learners=5), X, y)

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_training_matrix_is_checked_once(self, kind, rng, monkeypatch):
        checked = []
        check = classifiers._training_matrix
        monkeypatch.setattr(classifiers, "_training_matrix",
                            lambda X, y: checked.append(len(X)) or check(X, y))
        train(ModelSpec(kind, n_learners=3), *blobs(rng, n_per_class=10))
        assert checked == [30]

    @pytest.mark.parametrize("kind", [k for k in ModelKind if k is not ModelKind.Svm],
                             ids=lambda k: k.value)
    def test_train_all_trains_the_svm_only(self, kind, rng):
        """The other models train split by split, through `train`."""
        X, y = blobs(rng)
        with pytest.raises(ValueError, match=f"SVM only, not {kind.value}$"):
            classifiers.train_all(ModelSpec(kind), [y], lambda _: X)

    def test_integral_float_labels_are_class_codes(self, rng):
        X, y = blobs(rng)
        model = train(ModelSpec(ModelKind.DecisionTree), X, y + 1.0)
        labels, _ = predict_batch(model, X)
        assert labels.dtype.kind == "i" and np.array_equal(labels, y + 1)

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
        assert np.all(np.isin(labels, y))
        assert np.all((scores >= 0.0) & (scores <= 1.0))


# pairs of neighbouring values a < b: their sum overflows; their midpoint rounds to b
NEIGHBOURS = {"overflow": (1e308, 1.7e308),
              "midpoint_is_b": (1 + 2**-52, np.nextafter(1 + 2**-52, 2.0))}

# grows 2-learner bagging on rows [a, a, b, b] of labels [0, 0, 1, 1] and prints the
# thresholds of its splits; a split that sends every row left regrows forever
BAGGING_SCRIPT = """
import sys
import numpy as np
from harkit.classifiers import ModelKind, ModelSpec, train
a, b = (float.fromhex(v) for v in sys.argv[1:])
model = train(ModelSpec(ModelKind.Bagging, seed=0, n_learners=2),
              np.array([[a], [a], [b], [b]]), np.array([0, 0, 1, 1]))
nodes = model.impl.nodes
print(" ".join(t.hex() for t in nodes.threshold[nodes.feature >= 0].tolist()))
"""


class TestSplitThresholds:
    """A split between neighbouring values a < b gets a threshold t with a <= t < b,
    also where 0.5 * (a + b) overflows or rounds up to b."""

    @pytest.mark.parametrize("a, b", NEIGHBOURS.values(), ids=NEIGHBOURS)
    def test_decision_tree_separates_the_values(self, a, b):
        model = train(ModelSpec(ModelKind.DecisionTree), np.array([[a], [a], [b], [b]]),
                      np.array([0, 0, 1, 1]))
        labels, _ = predict_batch(model, np.array([[a], [b]]))
        assert labels.tolist() == [0, 1]
        assert a <= model.impl.nodes.threshold[0] < b

    @pytest.mark.parametrize("a, b", NEIGHBOURS.values(), ids=NEIGHBOURS)
    def test_bagging_finishes(self, a, b):
        """Run in a child with a timeout, so a split that regrows forever fails the test
        rather than hanging the suite; outside pytest, so a NumPy warning shows on stderr."""
        env = {**os.environ, "PYTHONPATH": str(Path(classifiers.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", BAGGING_SCRIPT, a.hex(), b.hex()],
                             env=env, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr) == (0, "")
        thresholds = [float.fromhex(t) for t in run.stdout.split()]
        assert thresholds and all(a <= t < b for t in thresholds)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_budget_that_cannot_bind_grows_the_best_first_tree(self, seed):
        """A tree of n rows makes at most n - 1 splits, so from that budget up it is the
        unbounded tree; a budget below the unbounded tree's splits stops growth."""
        X, y = node_matrix(np.random.default_rng(seed), "normal", 40, 6, 4)
        unbounded = tree_nodes(train(ModelSpec(ModelKind.DecisionTree, max_splits=None),
                                     X, y).impl)
        for budget in (len(y) + 5, len(y) - 1):
            tree = train(ModelSpec(ModelKind.DecisionTree, max_splits=budget), X, y).impl
            assert tree_nodes(tree) == unbounded
        stump = train(ModelSpec(ModelKind.DecisionTree, max_splits=3), X, y).impl
        assert sum(feature >= 0 for _, feature, _ in tree_nodes(stump)) == 3

    @pytest.mark.parametrize("kind", ["normal", "integer_ties"])
    @pytest.mark.parametrize("seed", range(3))
    def test_binding_budget_equals_best_first_oracle(self, kind, seed):
        """Under every budget below the unbounded tree's splits, the tree equals the one
        grown best first a node at a time, each split from the per-feature search."""
        X, y = node_matrix(np.random.default_rng(seed), kind, 60, 5, 3)
        unbounded = train(ModelSpec(ModelKind.DecisionTree, max_splits=None), X, y).impl
        assert sum(feature >= 0 for _, feature, _ in tree_nodes(unbounded)) > 12
        for budget in range(1, 13):
            tree = train(ModelSpec(ModelKind.DecisionTree, max_splits=budget), X, y).impl
            assert tree_nodes(tree) == tree_nodes(best_first_tree(X, y, budget))

    def test_equal_priorities_expand_in_push_order(self):
        """The root splits the rows into two copies of one node, the classes of the right
        one renamed: its children's splits tie, and under a budget of 2 the left child,
        pushed first, splits."""
        X0, y0 = node_matrix(np.random.default_rng(0), "normal", 30, 4, 3)
        X = np.vstack([np.hstack([X0, np.zeros((30, 1))]), np.hstack([X0, np.ones((30, 1))])])
        y = np.concatenate([y0, y0 + 3])
        assert reference_best_split(X[:30], y[:30], 6) == reference_best_split(X[30:], y[30:], 6)
        for budget in range(1, 13):
            tree = train(ModelSpec(ModelKind.DecisionTree, max_splits=budget), X, y).impl
            assert tree_nodes(tree) == tree_nodes(best_first_tree(X, y, budget))
        nodes = train(ModelSpec(ModelKind.DecisionTree, max_splits=2), X, y).impl.nodes
        left = nodes.child[0]
        assert nodes.feature[0] == 4 and nodes.feature[left] >= 0 and nodes.feature[left + 1] < 0

    def test_tree_deeper_than_recursion_limit_predicts(self):
        """A chain of 1,500 levels, deeper than Python's recursion limit, predicts its
        training labels."""
        X, y = np.arange(1500.0)[:, None], np.arange(1500) % 2
        model = train(ModelSpec(ModelKind.DecisionTree, max_splits=None), X, y)
        labels, _ = predict_batch(model, X)
        assert np.array_equal(labels, y)

    def test_single_class_training(self):
        model = train(ModelSpec(ModelKind.DecisionTree), np.zeros((5, 2)), np.full(5, 3))
        labels, _ = predict_batch(model, np.ones((4, 2)))
        assert np.all(labels == 3)


def scalar_walk(nodes, t, x) -> list[int]:
    """The nodes row x visits in tree t of `nodes`, one at a time: a row at a split's
    threshold goes left. The oracle of `_Nodes.predict`."""
    path = [t]
    while nodes.feature[path[-1]] >= 0:
        i = path[-1]
        left = x[nodes.feature[i]] <= nodes.threshold[i]
        path.append(nodes.child[i] if left else nodes.child[i] + 1)
    return path


class TestTreeWalk:
    @pytest.mark.parametrize("spec", [ModelSpec(ModelKind.DecisionTree, max_splits=None),
                                      ModelSpec(ModelKind.DecisionTree, max_splits=5),
                                      ModelSpec(ModelKind.Bagging, seed=2, n_learners=7)],
                             ids=["dtree", "dtree-5", "bag"])
    @pytest.mark.parametrize("kind", ["normal", "integer_ties"])
    def test_equals_scalar_walk_with_rows_at_thresholds(self, spec, kind):
        """Every row walks every tree to the leaf of the scalar walk, in blocks of any
        size: training rows moved onto the threshold of each split on their path, random
        rows and training rows."""
        rng = np.random.default_rng(17)
        X, y = node_matrix(rng, kind, 80, 4, 3)
        nodes = train(spec, X, y).impl.nodes
        at = []
        for t in range(nodes.n_trees):
            for x in X:
                for i in scalar_walk(nodes, t, x)[:-1]:
                    at.append(x.copy())
                    at[-1][nodes.feature[i]] = nodes.threshold[i]
        rows = np.vstack([*at, rng.normal(size=(40, 4)) * 2, X])
        paths = [[scalar_walk(nodes, t, x) for t in range(nodes.n_trees)] for x in rows]
        expected = nodes.label[[[path[-1] for path in row] for row in paths]]
        for block_elements in (classifiers._SPLIT_BLOCK_ELEMENTS, 1, 97):
            with mock.patch.object(classifiers, "_SPLIT_BLOCK_ELEMENTS", block_elements):
                assert np.array_equal(nodes.predict(rows), expected)
        ties = sum(x[nodes.feature[i]] == nodes.threshold[i]
                   for x, row in zip(rows, paths) for path in row for i in path[:-1])
        assert ties > 100  # visits of a split by a row at its threshold


def presorted_split(X, y, n_classes, w=None):
    """The split search on the one node of rows X, row i counted w[i] times (default
    once), with each feature's rows in ascending order, as a fit presorts them:
    (gain, feature, threshold), or None."""
    w = np.ones(len(y), dtype=np.int64) if w is None else w
    XT = np.ascontiguousarray(X.T)
    nodes = classifiers._Nodes(*(np.full(1, fill) for fill in classifiers._LEAF), 1)
    forest = classifiers._Forest(XT, np.argsort(XT, axis=1), y, w[None], n_classes, nodes,
                                 np.array([0]))
    frontier = forest.roots()
    if not frontier.nodes.size:  # one class: no split improves impurity
        return None
    (gain,), (feature,), (threshold,) = forest.best_splits(frontier)
    return None if feature < 0 else (float(gain), int(feature), float(threshold))


class TestBestSplit:
    """The presorted, count-weighted split search returns the per-feature search's
    (gain, feature, threshold) exactly, over every block width the search can take."""

    @given(
        m=st.one_of(st.integers(2, 80), st.integers(81, 2000)),
        n_features=st.integers(1, 80),
        n_classes=st.integers(2, 5),
        kind=st.sampled_from(NODE_KINDS),
        block_elements=st.sampled_from([classifiers._SPLIT_BLOCK_ELEMENTS, 1, 97, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_feature_search(self, m, n_features, n_classes, kind,
                                       block_elements, seed):
        X, y = node_matrix(np.random.default_rng(seed), kind, m, n_features, n_classes)
        with mock.patch.object(classifiers, "_SPLIT_BLOCK_ELEMENTS", block_elements):
            assert presorted_split(X, y, n_classes) == reference_best_split(X, y, n_classes)

    @pytest.mark.parametrize("n_classes", [7, 8, 9, 12])
    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_equals_per_feature_search_with_many_classes(self, n_classes, kind):
        rng = np.random.default_rng(n_classes)
        for m in (2, 9, 150, 700):
            X, y = node_matrix(rng, kind, m, 20, n_classes)
            assert presorted_split(X, y, n_classes) == reference_best_split(X, y, n_classes)

    @given(
        m=st.one_of(st.integers(2, 80), st.integers(81, 1000)),
        n_features=st.integers(1, 40),
        n_classes=st.integers(2, 12),
        kind=st.sampled_from(NODE_KINDS),
        block_elements=st.sampled_from([classifiers._SPLIT_BLOCK_ELEMENTS, 1, 97, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_counts_equal_duplicated_rows(self, m, n_features, n_classes, kind,
                                              block_elements, seed):
        """A node of distinct rows with bootstrap counts is the node of the rows drawn."""
        rng = np.random.default_rng(seed)
        X, y = node_matrix(rng, kind, m, n_features, n_classes)
        w = np.bincount(rng.integers(0, m, m), minlength=m)
        with mock.patch.object(classifiers, "_SPLIT_BLOCK_ELEMENTS", block_elements):
            got = presorted_split(X, y, n_classes, w)
        assert got == reference_best_split(np.repeat(X, w, axis=0), np.repeat(y, w), n_classes)

    @pytest.mark.parametrize("kind", NODE_KINDS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_two_packed_words(self, kind, weighted):
        """From 4,096 rows on a count takes 13 bits, so five classes need two words."""
        rng = np.random.default_rng(4096)
        X, y = node_matrix(rng, kind, 5000, 6, 5)
        w = rng.integers(0, 3, 5000) if weighted else np.ones(5000, dtype=np.int64)
        assert int(w.sum()).bit_length() == 13 and 63 // 13 < 5
        got = presorted_split(X, y, 5, w)
        assert got == reference_best_split(np.repeat(X, w, axis=0), np.repeat(y, w), 5)

    @pytest.mark.parametrize("seed, kind, m, n_classes", [
        (701, "normal", 33, 3), (1136, "normal", 28, 2), (2403, "bootstrap", 15, 5),
    ])
    def test_cross_feature_tie_rule(self, seed, kind, m, n_classes):
        """Nodes where a later feature's best gain beats the first feature's by less
        than 1e-15: the first one wins, as in the per-feature search."""
        X, y = node_matrix(np.random.default_rng(seed), kind, m, 40, n_classes)
        gains = [reference_best_split(X[:, [j]], y, n_classes) for j in range(40)]
        best = presorted_split(X, y, n_classes)
        assert best == reference_best_split(X, y, n_classes)
        assert any(0 < g[0] - best[0] <= 1e-15 for g in gains[best[1] + 1:] if g)

    def test_no_helpful_split_is_none(self):
        X, y = node_matrix(np.random.default_rng(0), "no_gain", 60, 5, 3)
        assert presorted_split(X, y, 3) is None

    def test_bagging_trees_pinned(self):
        """Tree structures, labels and scores of dtree and bagging equal those the
        per-feature split search grew (digests computed before the batched search; the
        last, of 5 classes where bootstraps 1, 2 and 8 lack class 4, before every tree
        counted the model's classes)."""
        recordings, _ = generate_synthetic(SynthParams(n_subjects=2, minutes_per_activity=0.5,
                                                       seed=7))
        X, y, _ = feature_matrix(recordings_to_features(recordings, Bank.B70, 50, 3,
                                                        SensorKind.Accelerometer))
        rng = np.random.default_rng(5)
        Xt = rng.integers(0, 4, size=(150, 12)).astype(float)
        yt = rng.integers(0, 4, 150)
        Xr, yr = blobs(np.random.default_rng(11), n_per_class=16, n_classes=5, d=4, sep=1.5)
        Xr, yr = Xr[:65], yr[:65]  # one row of class 4
        lacking = [i for i in range(10)
                   if not np.any(yr[classifiers.bootstrap_indices(2, i, len(yr))] == 4)]
        assert lacking == [1, 2, 8]
        digests = [
            tree_digest(train(ModelSpec(ModelKind.Bagging, seed=3, n_learners=10), X, y), X),
            tree_digest(train(ModelSpec(ModelKind.DecisionTree, max_splits=5), X, y), X),
            tree_digest(train(ModelSpec(ModelKind.Bagging, seed=1, n_learners=10), Xt, yt), Xt),
            tree_digest(train(ModelSpec(ModelKind.Bagging, seed=2, n_learners=10), Xr, yr), Xr),
        ]
        assert digests == PINNED_TREE_DIGESTS


def frontier_of(XT, W, nodes, counts):
    """The frontier of `nodes`, (tree, rows) pairs, each node's rows in ascending order
    of each feature as growth keeps them."""
    order = np.argsort(XT, axis=1)
    n = XT.shape[1]
    ids = np.hstack([
        np.stack([o[np.isin(o, rows)] for o in order]) + t * n for t, rows in nodes
    ]).astype(np.int32)
    return classifiers._Frontier(ids, np.array([len(rows) for _, rows in nodes]), counts,
                                 np.arange(len(nodes)))


def search_nodes(X, y, W, nodes):
    """(gain, feature, threshold) or None of every node, from one multi-node search, and
    from `reference_best_split` on each node's rows repeated by their counts, every node
    over the model's class count."""
    n_classes = int(y.max()) + 1
    XT = np.ascontiguousarray(X.T)
    forest = classifiers._Forest(XT, np.argsort(XT, axis=1), y, W, n_classes, None,
                                 np.arange(len(W)))
    counts = np.stack([np.bincount(y[rows], weights=W[t, rows], minlength=n_classes)
                       for t, rows in nodes]).astype(np.int64)
    gain, feature, threshold = forest.best_splits(frontier_of(XT, W, nodes, counts))
    got = [None if f < 0 else (g, f, thr)
           for g, f, thr in zip(gain.tolist(), feature.tolist(), threshold.tolist())]
    expected = [reference_best_split(np.repeat(X[rows], W[t, rows], axis=0),
                                     np.repeat(y[rows], W[t, rows]), n_classes)
                for t, rows in nodes]
    return forest, got, expected


def disjoint_nodes(rng, W, per_tree):
    """Up to `per_tree` nodes of each tree: disjoint sets of the rows it counts, as the
    open nodes of one tree are."""
    nodes = []
    for t, w in enumerate(W):
        drawn = rng.permutation(np.flatnonzero(w > 0))
        cuts = np.sort(rng.choice(np.arange(1, len(drawn)), size=min(per_tree, len(drawn)) - 1,
                                  replace=False)) if len(drawn) > 1 else []
        nodes += [(t, np.sort(rows)) for rows in np.split(drawn, cuts) if len(rows)]
    return nodes


class TestBestSplits:
    """One search over nodes of several trees, of different sizes and row counts, gives
    each node the split the per-feature search gives that node's repeated rows."""

    @given(
        m=st.integers(2, 120),
        n_features=st.integers(1, 30),
        n_classes=st.integers(2, 12),
        n_trees=st.integers(1, 4),
        per_tree=st.integers(1, 4),
        kind=st.sampled_from(NODE_KINDS),
        block_elements=st.sampled_from([classifiers._SPLIT_BLOCK_ELEMENTS, 1, 97, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_node_equals_per_feature_search(self, m, n_features, n_classes, n_trees,
                                                 per_tree, kind, block_elements, seed):
        rng = np.random.default_rng(seed)
        X, y = node_matrix(rng, kind, m, n_features, n_classes)
        W = np.stack([np.bincount(rng.integers(0, m, m), minlength=m) for _ in range(n_trees)])
        nodes = disjoint_nodes(rng, W, per_tree)
        with mock.patch.object(classifiers, "_SPLIT_BLOCK_ELEMENTS", block_elements):
            _, got, expected = search_nodes(X, y, W, nodes)
        assert got == expected

    @pytest.mark.parametrize("block_elements", [classifiers._SPLIT_BLOCK_ELEMENTS, 1, 97, 4096])
    def test_node_below_the_next_node_in_every_feature(self, block_elements):
        """Every feature's last value in the first node is below its first value in the
        second, so a position between the two nodes would look like a split."""
        rng = np.random.default_rng(11)
        X, y = node_matrix(rng, "integer_ties", 60, 8, 3)
        X[30:] += 10.0
        W = np.bincount(rng.integers(0, 60, 60), minlength=60)[None]
        low, high = np.arange(30), np.arange(30, 60)
        nodes = [(0, low[W[0, low] > 0]), (0, high[W[0, high] > 0])]
        assert np.all(X[nodes[0][1]].max(axis=0) < X[nodes[1][1]].min(axis=0))
        with mock.patch.object(classifiers, "_SPLIT_BLOCK_ELEMENTS", block_elements):
            _, got, expected = search_nodes(X, y, W, nodes)
        assert got == expected and None not in got

    @pytest.mark.parametrize("block_elements", [classifiers._SPLIT_BLOCK_ELEMENTS, 1, 97, 4096])
    def test_packed_counts_summed_over_nodes_would_wrap(self, block_elements):
        """Nine classes of 7 bits fill a word's low 63 bits; over these nodes the top
        class's counts sum past 2^63 in that word, and each node's own sums stay exact."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(96, 5))
        y = np.repeat(np.arange(9), [6, 6, 6, 6, 6, 6, 6, 6, 48])
        W = np.ones((4, 96), dtype=np.int64)  # 96 rows: counts take 7 bits
        nodes = [(t, np.sort(rng.permutation(96)[:80])) for t in range(4)]
        with mock.patch.object(classifiers, "_SPLIT_BLOCK_ELEMENTS", block_elements):
            forest, got, expected = search_nodes(X, y, W, nodes)
        assert forest.word[8] == 0 and forest.shift[8] + forest.mask.bit_length() == 63
        top = sum(int(np.count_nonzero(y[rows] == 8)) for _, rows in nodes)
        assert top << int(forest.shift[8]) >= 2**63
        assert got == expected


PINNED_TREE_DIGESTS = [
    "d7653cad9a21195d3f7c978da2427b85df5b43786f038768556926b9a45f1274",
    "8117b6de80b6106c9f7e0325c0c444019badf21b6a11bc997de0df4304344567",
    "efd3fcdce1d443d249d6b786f16e7e3a56036faa13c1080fa90ffa931eec3148",
    "9f67db5ed891498b3fa884e436f0b5e331be82dc6adfc3c15777ef33932ab221",
]


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

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_stable_sort_rule_with_distance_ties(self, seed):
        """Neighbors at the k-th distance are taken from the lowest training indices,
        as a stable sort takes them: labels and scores are bit-identical."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 120)), int(rng.integers(1, 4))
        X = rng.integers(-2, 3, size=(n, d)).astype(float)  # a small grid: many ties
        y = rng.integers(0, int(rng.integers(1, 6)), n)
        Xte = np.vstack([rng.integers(-2, 3, size=(30, d)).astype(float),
                         rng.normal(size=(10, d))])
        for k in (1, 2, 5, 10, 13):
            model = train(ModelSpec(ModelKind.Knn, k=k), X, y)
            labels, scores = predict_batch(model, Xte)
            ref_labels, ref_scores = reference_knn(model, Xte)
            assert np.array_equal(labels, ref_labels)
            assert scores.dtype == ref_scores.dtype
            assert np.array_equal(scores, ref_scores)

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

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 120), d=st.integers(1, 8),
           C=st.sampled_from([0.01, 0.5, 1.0, 10.0, 100.0]),
           spread=st.sampled_from([0.5, 1.0]))
    def test_kkt_certificate(self, seed, n, d, C, spread):
        """Random 2-class problems: the alphas are feasible, and a converged machine
        has a maximal violation below tol on a gradient recomputed from scratch."""
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        X = rng.normal(size=(n, d)) * spread + y[:, None] * rng.normal(size=d)
        tol = 1e-3
        alphas, b, steps, converged = _smo_binary(X, y, C, tol)
        assert np.all((alphas >= 0) & (alphas <= C))
        assert abs(np.sum(alphas * y)) <= 1e-9 * C * n
        assert 0 <= steps <= classifiers._SMO_STEPS_PER_ROW * n
        # the machine train() returns is this solution
        model = train(ModelSpec(ModelKind.Svm, C=C), X, np.where(y > 0, 0, 1))
        (ca, cb, sv, coef, bias), = model.impl.machines
        assert (ca, cb) == (0, 1) and bias == b
        assert np.array_equal(sv, X[alphas > 0])
        assert np.array_equal(coef, (alphas * y)[alphas > 0])
        assert model.converged == converged
        if converged:
            F = y - quadratic_kernel(X, sv) @ coef  # -y * gradient of the dual
            up = np.where(y > 0, alphas < C, alphas > 0)
            low = np.where(y > 0, alphas > 0, alphas < C)
            assert F[up].max(initial=-np.inf) - F[low].min(initial=np.inf) < tol

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 120), d=st.integers(1, 8),
           C=st.sampled_from([0.001, 0.01, 0.1, 0.5, 1.0, 10.0, 100.0]),
           features=st.sampled_from(["normal", "integer", "scaled"]),
           steps_per_row=st.sampled_from([classifiers._SMO_STEPS_PER_ROW, 3, 1]))
    def test_equals_alpha_space_smo(self, seed, n, d, C, features, steps_per_row):
        """The step in beta = alpha * y gives the alphas, bias, steps and convergence of
        LIBSVM's alpha-space clipping exactly, with many clips (small C) and at the
        step budget (patched down)."""
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        if features == "integer":  # ties in the kernel and in the gradient
            X = rng.integers(-2, 3, size=(n, d)).astype(float)
        else:
            X = rng.normal(size=(n, d)) + y[:, None] * rng.normal(size=d)
            if features == "scaled":
                X *= 10.0
        with mock.patch.object(classifiers, "_SMO_STEPS_PER_ROW", steps_per_row):
            alphas, b, steps, converged = _smo_binary(X, y, C, 1e-3)
            ref_alphas, ref_b, ref_steps, ref_converged = reference_smo_binary(X, y, C, 1e-3)
        # equal values are equal bits, but for the sign of a zero: alpha-space clipping
        # can set an alpha to -diff with diff = +0.0, where the beta step gives +0.0
        assert np.array_equal(alphas, ref_alphas)
        assert (b, steps, converged) == (ref_b, ref_steps, ref_converged)

    def test_large_features_still_train(self, rng):
        """Features x 10 make every kernel entry large; the solver must still move off
        alpha = 0 (it once took every step as too small and returned 0 support vectors)."""
        X, y = blobs(rng, n_per_class=20, n_classes=3, d=4)
        model = train(ModelSpec(ModelKind.Svm), X * 10.0, y)
        labels, _ = predict_batch(model, X * 10.0)
        assert np.mean(labels == y) >= 0.95
        assert all(len(sv) > 0 for _, _, sv, _, _ in model.impl.machines)
        assert model.converged

    def test_output_does_not_depend_on_seed(self, rng):
        X, y = blobs(rng, n_per_class=20, n_classes=3, d=4, sep=1.5)
        Xte = rng.normal(size=(40, 4)) * 4.0
        la, sa = predict_batch(train(ModelSpec(ModelKind.Svm, seed=0), X, y), Xte)
        lb, sb = predict_batch(train(ModelSpec(ModelKind.Svm, seed=5), X, y), Xte)
        assert np.array_equal(la, lb)
        assert np.array_equal(sa, sb)

    def test_steps_and_budget_hits_per_pair(self, rng, monkeypatch):
        X, y = blobs(rng, n_per_class=10, n_classes=4, d=4)
        model = train(ModelSpec(ModelKind.Svm), X, y)
        assert len(model.impl.steps) == 6 and min(model.impl.steps) > 0
        assert model.impl.budget_hits == 0 and model.converged
        monkeypatch.setattr(classifiers, "_SMO_STEPS_PER_ROW", 0)
        model = train(ModelSpec(ModelKind.Svm), X, y)
        assert model.impl.steps == [0] * 6
        assert model.impl.budget_hits == 6 and not model.converged


class TestSmoPool:
    """Binary problems trained in lock-step in one pool end as `_smo_binary` ends each
    alone, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(2, 60), min_size=1, max_size=12),
           C=st.floats(0.01, 100.0),
           steps_per_row=st.sampled_from([classifiers._SMO_STEPS_PER_ROW, 3, 1]),
           slots=st.sampled_from([1, 2, 3]), pool_min=st.sampled_from([1, 2]))
    def test_equals_smo_binary(self, seed, sizes, C, steps_per_row, slots, pool_min):
        """Pools of 1 to 3 slots, often fewer than the problems, some problems at the step
        budget (patched down); a pool of 2 or 3 hands its last problem to the scalar loop
        when `_SMO_POOL_MIN` is 2."""
        rng = np.random.default_rng(seed)
        problems = []
        for n in sizes:
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[:2] = 1.0, -1.0
            d = int(rng.integers(1, 6))
            problems.append((rng.normal(size=(n, d)) + y[:, None] * rng.normal(size=d), y))
        width = max(sizes)
        with mock.patch.multiple(classifiers, _SMO_STEPS_PER_ROW=steps_per_row,
                                 _SMO_POOL_BYTES=8 * width * width * slots,
                                 _SMO_POOL_MIN=pool_min):
            pooled = dict(classifiers._smo_pool(sizes, problems.__getitem__, C, 1e-3))
            alone = [_smo_binary(X, y, C, 1e-3) for X, y in problems]
        assert sorted(pooled) == list(range(len(problems)))
        for k, expected in enumerate(alone):
            alphas, b, steps, converged = pooled[k]
            assert alphas.tobytes() == expected[0].tobytes()
            assert (float(b).hex(), steps, converged) == (float(expected[1]).hex(), *expected[2:])

    @pytest.mark.parametrize("copies", [4, 5, 7])
    def test_slots_that_end_together_take_what_waits(self, rng, copies):
        """Copies of one problem end in the same round in every slot of a pool of 3,
        with fewer problems waiting than slots ending."""
        X, y = blobs(rng, n_per_class=10, n_classes=2, d=3, sep=1.0)
        y = np.where(y == 0, 1.0, -1.0)
        expected = _smo_binary(X, y, 1.0, 1e-3)
        with mock.patch.multiple(classifiers, _SMO_POOL_BYTES=8 * 20 * 20 * 3, _SMO_POOL_MIN=1):
            pooled = dict(classifiers._smo_pool([20] * copies, lambda k: (X, y), 1.0, 1e-3))
        assert sorted(pooled) == list(range(copies))
        for alphas, b, steps, converged in pooled.values():
            assert alphas.tobytes() == expected[0].tobytes()
            assert (b, steps, converged) == expected[1:]

    def test_curvature_overflow_raises_as_the_scalar_loop_does(self):
        """The last row's kernel diagonal entry, about 1.5e308, is finite, and twice it
        overflows in the curvature the scalar loop builds whole. The pool builds a
        curvature row only for a row it steps from, and never steps from that one, so
        it checks when it loads the problem."""
        X = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [1.1e77, 0.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError):
                _smo_binary(X, y, 1.0, 1e-3)
            with mock.patch.object(classifiers, "_SMO_POOL_MIN", 1), \
                    pytest.raises(FloatingPointError):
                list(classifiers._smo_pool([4] * 3, lambda k: (X, y), 1.0, 1e-3))

    @pytest.mark.parametrize("pool_min", [1, 100], ids=["pool", "scalar"])
    def test_train_all_trains_each_pair_as_smo_binary_does(self, rng, pool_min):
        """Every split's machines and their steps, in split order, with each split's
        matrix taken once and in order; a split of one class has no machine."""
        splits = [blobs(rng, n_per_class=12, n_classes=4, d=3, sep=1.0) for _ in range(5)]
        splits[1] = splits[1][0][:36], splits[1][1][:36]  # classes 0, 1 and 2 only
        splits[2] = splits[2][0][:12], splits[2][1][:12]  # class 0 only
        taken = []

        def matrix(s):
            taken.append(s)
            return splits[s][0]

        with mock.patch.object(classifiers, "_SMO_POOL_MIN", pool_min):
            models = list(classifiers.train_all(ModelSpec(ModelKind.Svm),
                                                [y for _, y in splits], matrix))
        assert taken == list(range(len(splits)))
        for (X, y), model in zip(splits, models, strict=True):
            steps = []
            for (a, b), machine in zip(itertools.combinations(np.unique(y).tolist(), 2),
                                       model.impl.machines, strict=True):
                mask = (y == a) | (y == b)
                yp = np.where(y[mask] == a, 1.0, -1.0)
                alphas, bias, n_steps, _ = _smo_binary(X[mask], yp, 1.0, classifiers._SMO_TOL)
                sv = alphas > 0
                assert machine[:2] == (a, b) and machine[4] == bias
                assert np.array_equal(machine[2], X[mask][sv])
                assert np.array_equal(machine[3], alphas[sv] * yp[sv])
                steps.append(n_steps)
            assert model.impl.steps == steps and model.svm_steps == sum(steps)
            assert predict_batch(model, X)[0].shape == y.shape

    def test_train_all_takes_a_split_once_the_one_before_is_yielded(self, rng):
        """Without a pool, one split's matrix is held at a time."""
        splits = [blobs(rng, n_per_class=12, n_classes=3, d=3) for _ in range(3)]
        taken = []
        with mock.patch.object(classifiers, "_SMO_POOL_MIN", 100):
            models = classifiers.train_all(ModelSpec(ModelKind.Svm), [y for _, y in splits],
                                           lambda s: taken.append(s) or splits[s][0])
            for s, _ in enumerate(models):
                assert taken == list(range(s + 1))


class TestHealthCounters:
    def test_svm_pairs_and_budget_hits(self, rng, monkeypatch):
        X, y = blobs(rng, n_per_class=10, n_classes=4, d=4)
        model = train(ModelSpec(ModelKind.Svm), X, y)
        assert (model.svm_pairs, model.svm_budget_hits, model.converged) == (6, 0, True)
        monkeypatch.setattr(classifiers, "_SMO_STEPS_PER_ROW", 0)
        model = train(ModelSpec(ModelKind.Svm), X, y)
        assert (model.svm_pairs, model.svm_budget_hits, model.converged) == (6, 6, False)

    @pytest.mark.parametrize("kind", [k for k in ModelKind if k is not ModelKind.Svm])
    def test_other_models_train_no_svm_pair(self, kind, rng):
        X, y = blobs(rng, n_per_class=10)
        model = train(ModelSpec(kind, n_learners=3), X, y)
        assert (model.svm_pairs, model.svm_budget_hits, model.converged) == (0, 0, True)


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

    def test_trees_equal_trees_grown_on_bootstrap_rows(self, rng):
        """Each bagged tree, grown on row counts, is the tree grown on the rows its
        bootstrap drew, including bootstraps that miss the highest class."""
        X, y = blobs(rng, n_per_class=8, sep=1.0)
        X, y = X[:17], y[:17]  # class 2 keeps one row, which some bootstraps miss
        bag = train(ModelSpec(ModelKind.Bagging, seed=3, n_learners=12), X, y)
        missed = 0
        for i in range(bag.impl.nodes.n_trees):
            idx = bootstrap_indices(3, i, len(y))
            missed += y[idx].max() < 2
            alone = train(ModelSpec(ModelKind.DecisionTree, max_splits=None), X[idx], y[idx])
            assert tree_nodes(bag.impl, i) == tree_nodes(alone.impl)
        assert missed > 0

    @pytest.mark.parametrize("n_classes", [2, 5, 8, 9, 12])
    @pytest.mark.parametrize("group_elements", [classifiers._GROUP_ELEMENTS, 1, 2_000])
    def test_trees_grown_in_rounds_equal_trees_grown_alone(self, n_classes, group_elements):
        """Trees grown a level per round, in groups of any size, equal each tree grown
        alone as a decision tree with no split budget, which grows level by level too;
        some bootstraps miss the highest class, which has one row. Every node after the
        roots is the child of exactly one split, and no root is a child."""
        rng = np.random.default_rng(n_classes)
        X, y = blobs(rng, n_per_class=6, n_classes=n_classes, d=4, sep=1.5)
        X, y = X[:-5], y[:-5]
        with mock.patch.object(classifiers, "_GROUP_ELEMENTS", group_elements):
            bag = train(ModelSpec(ModelKind.Bagging, seed=4, n_learners=15), X, y)
        nodes = bag.impl.nodes
        split = np.flatnonzero(nodes.feature >= 0)
        children = np.concatenate([nodes.child[split], nodes.child[split] + 1])
        assert np.array_equal(np.sort(children), np.arange(nodes.n_trees, len(nodes.label)))
        missed = 0
        for i in range(bag.impl.nodes.n_trees):
            idx = bootstrap_indices(4, i, len(y))
            missed += y[idx].max() < n_classes - 1
            alone = train(ModelSpec(ModelKind.DecisionTree, max_splits=None), X[idx], y[idx])
            assert tree_nodes(bag.impl, i) == tree_nodes(alone.impl)
        assert missed > 0

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
