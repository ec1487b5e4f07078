"""Native implementations of the five classifiers behind one train/predict contract.

All models are deterministic given (spec, X, y): the only randomness (SMO
working-pair choice, bagging bootstraps) flows from spec.seed. Labels are
integer class codes (Activity codes in the pipeline).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, EmptyTrainingSet


class ModelKind(Enum):
    DecisionTree = "dtree"
    NaiveBayes = "nb"
    Knn = "knn"
    Svm = "svm"
    Bagging = "bag"


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    seed: int = 0
    max_splits: int | None = 85  # decision tree growth budget (None = unbounded)
    k: int = 10                  # KNN neighbors
    n_learners: int = 50         # bagging ensemble size
    C: float = 1.0               # SVM box constraint
    tol: float = 1e-3            # SMO KKT tolerance
    var_floor: float = 1e-9      # NB per-feature variance floor

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_learners < 1:
            raise ValueError("n_learners must be >= 1")
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.max_splits is not None and self.max_splits < 1:
            raise ValueError("max_splits must be >= 1")


# ---------------------------------------------------------------------------
# CART decision tree
# ---------------------------------------------------------------------------

@dataclass
class _TreeNode:
    label: int                       # majority label (used when leaf)
    feature: int = -1                # split feature (-1 = leaf)
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _majority(counts: np.ndarray) -> int:
    # ties break toward the smallest class code
    return int(np.argmax(counts))


def _best_split(X: np.ndarray, y: np.ndarray, n_classes: int):
    """Exhaustive scan over midpoints of sorted unique values per feature.

    Returns (gain, feature, threshold) or None if no split improves impurity.
    Ties keep the first (lowest feature index, lowest threshold) candidate.
    """
    m = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_gini = _gini(parent_counts)
    best = None
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), y] = 1.0
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        v = X[order, j]
        valid = np.flatnonzero(v[:-1] < v[1:])
        if valid.size == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[:-1]  # counts up to split point
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
            thr = 0.5 * (v[pos] + v[pos + 1])
            best = (gain, j, float(thr))
    return best


class _TreeImpl:
    def __init__(self, max_splits: int | None):
        self.max_splits = max_splits
        self.root: _TreeNode | None = None
        self.n_classes = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_classes = int(y.max()) + 1
        idx_all = np.arange(len(y))
        counts = np.bincount(y, minlength=self.n_classes)
        self.root = _TreeNode(label=_majority(counts))
        # best-first growth: expand the pending split with the largest
        # impurity decrease until the split budget runs out
        heap: list[tuple[float, int, _TreeNode, np.ndarray, tuple]] = []
        order = 0

        def push(node: _TreeNode, idx: np.ndarray):
            nonlocal order
            sub_counts = np.bincount(y[idx], minlength=self.n_classes)
            if np.count_nonzero(sub_counts) < 2:
                return
            cand = _best_split(X[idx], y[idx], self.n_classes)
            if cand is None:
                return
            gain, feat, thr = cand
            heapq.heappush(heap, (-gain * len(idx), order, node, idx, (feat, thr)))
            order += 1

        push(self.root, idx_all)
        splits = 0
        while heap and (self.max_splits is None or splits < self.max_splits):
            _, _, node, idx, (feat, thr) = heapq.heappop(heap)
            mask = X[idx, feat] <= thr
            li, ri = idx[mask], idx[~mask]
            node.feature = feat
            node.threshold = thr
            node.left = _TreeNode(label=_majority(np.bincount(y[li], minlength=self.n_classes)))
            node.right = _TreeNode(label=_majority(np.bincount(y[ri], minlength=self.n_classes)))
            splits += 1
            push(node.left, li)
            push(node.right, ri)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        labels = np.empty(len(X), dtype=int)

        def walk(node: _TreeNode, idx: np.ndarray):
            if node.feature < 0 or idx.size == 0:
                labels[idx] = node.label
                return
            mask = X[idx, node.feature] <= node.threshold
            walk(node.left, idx[mask])
            walk(node.right, idx[~mask])

        walk(self.root, np.arange(len(X)))
        return labels, np.ones(len(X))


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

class _NaiveBayesImpl:
    def __init__(self, var_floor: float):
        self.var_floor = var_floor

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes = np.unique(y)
        self.means = np.vstack([X[y == c].mean(axis=0) for c in self.classes])
        self.vars = np.vstack(
            [np.maximum(X[y == c].var(axis=0), self.var_floor) for c in self.classes]
        )
        counts = np.array([np.sum(y == c) for c in self.classes], dtype=float)
        self.log_priors = np.log(counts / counts.sum())

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # log joint per class, evaluated in the log domain throughout
        log_joint = np.empty((len(X), len(self.classes)))
        for ci in range(len(self.classes)):
            diff = X - self.means[ci]
            log_joint[:, ci] = self.log_priors[ci] - 0.5 * np.sum(
                np.log(2 * np.pi * self.vars[ci]) + diff * diff / self.vars[ci], axis=1
            )
        best = np.argmax(log_joint, axis=1)
        shifted = log_joint - log_joint.max(axis=1, keepdims=True)
        post = np.exp(shifted)
        post /= post.sum(axis=1, keepdims=True)
        labels = self.classes[best]
        scores = post[np.arange(len(X)), best]
        return labels, np.clip(scores, 0.0, 1.0)


# ---------------------------------------------------------------------------
# K nearest neighbors (Euclidean)
# ---------------------------------------------------------------------------

class _KnnImpl:
    def __init__(self, k: int):
        self.k = k

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.X = X.copy()
        self.y = y.copy()
        self.n_classes = int(y.max()) + 1

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = min(self.k, len(self.y))
        sq = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ self.X.T
            + np.sum(self.X * self.X, axis=1)[None, :]
        )
        # stable sort so equidistant neighbors resolve by training index
        nn = np.argsort(sq, axis=1, kind="stable")[:, :k]
        votes = np.zeros((len(X), self.n_classes), dtype=int)
        for c in range(self.n_classes):
            votes[:, c] = np.sum(self.y[nn] == c, axis=1)
        labels = np.argmax(votes, axis=1)  # vote ties -> smallest class code
        scores = votes[np.arange(len(X)), labels] / k
        return labels, scores


# ---------------------------------------------------------------------------
# SVM: one-vs-one SMO with quadratic kernel K(u, v) = (u.v + 1)^2
# ---------------------------------------------------------------------------

def quadratic_kernel(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return (U @ V.T + 1.0) ** 2


def _smo_binary(
    X: np.ndarray, y: np.ndarray, C: float, tol: float, rng: np.random.Generator
) -> tuple[np.ndarray, float, bool]:
    """Train one binary machine (labels +-1) by sequential minimal optimization.

    Returns (alphas, bias, converged). Convergence = a full pass with no
    alpha updates; the pass budget is 10 * n.
    """
    n = len(y)
    K = quadratic_kernel(X, X)
    alphas = np.zeros(n)
    b = 0.0
    max_passes = 10 * n
    converged = False
    for _ in range(max_passes):
        changed = 0
        for i in range(n):
            Ei = float(np.dot(alphas * y, K[:, i])) + b - y[i]
            ri = Ei * y[i]
            if (ri < -tol and alphas[i] < C) or (ri > tol and alphas[i] > 0):
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                Ej = float(np.dot(alphas * y, K[:, j])) + b - y[j]
                ai_old, aj_old = alphas[i], alphas[j]
                if y[i] != y[j]:
                    L = max(0.0, aj_old - ai_old)
                    H = min(C, C + aj_old - ai_old)
                else:
                    L = max(0.0, ai_old + aj_old - C)
                    H = min(C, ai_old + aj_old)
                if L >= H:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                aj = aj_old - y[j] * (Ei - Ej) / eta
                aj = min(max(aj, L), H)
                if abs(aj - aj_old) < 1e-5:
                    continue
                ai = ai_old + y[i] * y[j] * (aj_old - aj)
                alphas[i], alphas[j] = ai, aj
                b1 = b - Ei - y[i] * (ai - ai_old) * K[i, i] - y[j] * (aj - aj_old) * K[i, j]
                b2 = b - Ej - y[i] * (ai - ai_old) * K[i, j] - y[j] * (aj - aj_old) * K[j, j]
                if 0 < ai < C:
                    b = b1
                elif 0 < aj < C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
        if changed == 0:
            converged = True
            break
    return alphas, b, converged


class _SvmImpl:
    def __init__(self, C: float, tol: float, seed: int):
        self.C = C
        self.tol = tol
        self.seed = seed
        self.converged = True

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes = np.unique(y)
        self.machines = []  # (class_a, class_b, support X, coef = alpha*y, bias)
        pair_idx = 0
        for ia in range(len(self.classes)):
            for ib in range(ia + 1, len(self.classes)):
                ca, cb = int(self.classes[ia]), int(self.classes[ib])
                mask = (y == ca) | (y == cb)
                Xp = X[mask]
                yp = np.where(y[mask] == ca, 1.0, -1.0)
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=self.seed, spawn_key=(pair_idx,))
                )
                alphas, b, converged = _smo_binary(Xp, yp, self.C, self.tol, rng)
                self.converged = self.converged and converged
                sv = alphas > 0
                self.machines.append((ca, cb, Xp[sv], alphas[sv] * yp[sv], b))
                pair_idx += 1

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self.machines:  # single-class training set
            return np.full(len(X), int(self.classes[0])), np.ones(len(X))
        n_classes = int(self.classes.max()) + 1
        votes = np.zeros((len(X), n_classes), dtype=int)
        for ca, cb, sv, coef, b in self.machines:
            if len(sv):
                f = quadratic_kernel(X, sv) @ coef + b
            else:
                f = np.full(len(X), b)
            votes[:, ca] += f >= 0
            votes[:, cb] += f < 0
        labels = np.argmax(votes, axis=1)  # ties -> smallest class code
        n_pairs = max(len(self.machines), 1)
        scores = votes[np.arange(len(X)), labels] / n_pairs
        return labels, np.clip(scores, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Bagging of unbounded CART trees
# ---------------------------------------------------------------------------

class _BaggingImpl:
    def __init__(self, n_learners: int, seed: int):
        self.n_learners = n_learners
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_classes = int(y.max()) + 1
        self.trees = []
        for i in range(self.n_learners):
            idx = bootstrap_indices(self.seed, i, len(y))
            tree = _TreeImpl(max_splits=None)
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        votes = np.zeros((len(X), self.n_classes), dtype=int)
        for tree in self.trees:
            labels, _ = tree.predict_batch(X)
            votes[np.arange(len(X)), labels] += 1
        labels = np.argmax(votes, axis=1)  # ties -> smallest class code
        scores = votes[np.arange(len(X)), labels] / self.n_learners
        return labels, scores


def bootstrap_indices(seed: int, learner_index: int, n: int) -> np.ndarray:
    """Bootstrap sample indices for one bagging learner."""
    return np.random.default_rng(seed + learner_index).integers(0, n, n)


# ---------------------------------------------------------------------------
# Uniform contract
# ---------------------------------------------------------------------------

@dataclass
class TrainedModel:
    spec: ModelSpec
    impl: object
    n_features: int
    classes: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def converged(self) -> bool:
        return getattr(self.impl, "converged", True)


def train(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> TrainedModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("training matrix must be non-empty and 2-D")
    if len(y) != len(X):
        raise DimensionMismatch("X and y lengths differ")
    if not np.all(np.isfinite(X)):
        raise ValueError("training matrix contains non-finite values")
    if spec.kind is ModelKind.DecisionTree:
        impl = _TreeImpl(spec.max_splits)
    elif spec.kind is ModelKind.NaiveBayes:
        impl = _NaiveBayesImpl(spec.var_floor)
    elif spec.kind is ModelKind.Knn:
        impl = _KnnImpl(spec.k)
    elif spec.kind is ModelKind.Svm:
        impl = _SvmImpl(spec.C, spec.tol, spec.seed)
    elif spec.kind is ModelKind.Bagging:
        impl = _BaggingImpl(spec.n_learners, spec.seed)
    else:  # pragma: no cover
        raise ValueError(f"unknown model kind {spec.kind}")
    impl.fit(X, y)
    return TrainedModel(spec=spec, impl=impl, n_features=X.shape[1], classes=np.unique(y))


def predict_batch(model: TrainedModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected width {model.n_features}, got {X.shape[1] if X.ndim == 2 else '?'}"
        )
    return model.impl.predict_batch(X)
