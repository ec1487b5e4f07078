"""Native implementations of the five classifiers behind one train/predict contract.

All models are deterministic given (spec, X, y): the only randomness, the
bagging bootstraps, flows from spec.seed. Labels are integer class codes
(Activity codes in the pipeline).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
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


# Elements of one (words, features, rows) temporary in the split search. A small
# node searches all of its features in one block; a large node takes fewer features
# per block, which keeps each block cache-sized.
_SPLIT_BLOCK_ELEMENTS = 32_768


def _sum_classes(q: np.ndarray) -> np.ndarray:
    """`q` summed over its leading class axis, in the order `np.sum` adds a contiguous
    class axis: one term after another below 8 terms, pairwise from 8 on. Below 8
    terms the sum is accumulated into `q[0]`."""
    if len(q) >= 8:
        return np.moveaxis(q, 0, -1).copy().sum(axis=-1)
    total = q[0]
    for term in q[1:]:
        total += term
    return total


def _best_split(XT: np.ndarray, y: np.ndarray, w: np.ndarray, rows: np.ndarray,
                counts: np.ndarray):
    """Exhaustive scan over midpoints of a node's sorted unique values, a block of
    features at once.

    `rows` (features, rows) lists the node's rows in ascending order of each feature
    of `XT` (features, all rows); row i counts `w[i]` times, and `counts` holds the
    node's class counts so weighted. Returns (gain, feature, threshold) or None if no
    split improves impurity. Ties keep the first (lowest feature index, lowest
    threshold) candidate.

    With k of the node's m rows on the left, the weighted Gini is 1 - S/m, where
    S = sum_c left_c^2 / k + sum_c right_c^2 / (m - k); so S ranks positions as the
    gain does. S comes from exact integers: the class counts are packed `bits` apiece
    into int64 words, so one cumsum counts every class, and sum_c left_c^2 and
    sum_c counts_c * left_c are cumsums of integer terms. The gain formula then runs
    only where S is within 1e-12 * m of a feature's best S. Why that is enough, with
    u = 2^-53 and C classes:
    - the gain formula is off by at most (C + 7)u: C squares of quotients and their
      sum (C + 2)u, then 1 - sum, the products with k and m - k, their sum, /m and
      parent - weighted, u each;
    - S is off by at most 2mu: two quotients of exact integers below 2^53 and their
      sum, each at most m;
    - so a position of largest computed gain has an S within 2m(C + 7)u + 2 * 2mu =
      2m(C + 9)u of the largest computed S: 3.1e-15 m for C = 5. 1e-12 m is over 100
      times that up to C = 36, and still covers it up to C = 4,494.
    """
    n_features, r = rows.shape
    if r < 2:  # one distinct row: no value to split between
        return None
    n = XT.shape[1]
    n_classes = len(counts)
    m = int(counts.sum())
    parent_gini = _gini(counts)
    tol = 1e-12 * m
    bits = m.bit_length()
    per_word = 63 // bits
    cls = np.arange(n_classes)
    word, shift = cls // per_word, bits * (cls % per_word)
    unit = np.zeros((word[-1] + 1, n_classes), dtype=np.int64)
    unit[word, cls] = np.left_shift(1, shift)
    mask = (1 << bits) - 1
    sq_total = int(np.dot(counts, counts))
    # each row's terms of the cumulative sums, looked up by row in every block: its
    # count in its class's slot; per word, the shift to that slot, or 63 (a shift to
    # 0) in the other words; and its count times its class's count
    packed = w * unit[:, y]
    own_shift = np.where(word[y] == np.arange(len(unit))[:, None], shift[y], 63)
    w_counts = counts[y] * w
    width = max(1, _SPLIT_BLOCK_ELEMENTS // (r * len(unit)))
    best = None
    for start in range(0, n_features, width):
        R = rows[start:start + width]
        v = np.take(XT, R + n * np.arange(start, start + len(R))[:, None])  # sorted values
        wR = np.take(w, R)
        P = np.cumsum(np.take(packed, R, axis=1), axis=2)  # every class's left count, packed
        k = np.cumsum(wR, axis=1)
        # the left count of the row's own class, the row included
        own = sum((Pj >> np.take(sj, R)) & mask for Pj, sj in zip(P, own_shift))
        left_sq = np.cumsum((2 * own - wR) * wR, axis=1)
        right_sq = sq_total - 2 * np.cumsum(np.take(w_counts, R), axis=1) + left_sq
        k, left_sq, right_sq = k[:, :-1], left_sq[:, :-1], right_sq[:, :-1]
        S = left_sq / k + right_sq / (m - k)
        # only positions where the sorted value changes can split
        valid = v[:, :-1] < v[:, 1:]
        S[~valid] = -np.inf
        near = np.flatnonzero(valid & (S >= S.max(axis=1, keepdims=True) - tol))
        if near.size == 0:
            continue
        fi, pi = np.divmod(near, r - 1)
        # the gain at those positions from the unpacked counts, in the formula's order
        kk = k[fi, pi].astype(float)
        left = ((P[:, fi, pi][word] >> shift[:, None]) & mask).astype(float)
        right = counts[:, None] - left
        gl = 1.0 - _sum_classes((left / kk) ** 2)
        gr = 1.0 - _sum_classes((right / (m - kk)) ** 2)
        weighted = (kk * gl + (m - kk) * gr) / m
        gains = np.full(S.shape, -np.inf)
        gains.flat[near] = parent_gini - weighted
        pos = np.argmax(gains, axis=1)
        top = gains[np.arange(len(pos)), pos]
        for j in np.flatnonzero(top > 1e-15):
            gain = float(top[j])
            if best is None or gain > best[0] + 1e-15:
                p = pos[j]
                best = (gain, start + int(j), float(0.5 * (v[j, p] + v[j, p + 1])))
    return best


def _kept(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows of `rows` (features, rows) where the per-row mask `keep` holds, each
    feature's order kept: a node's children are a stable partition, with no sort."""
    return np.compress(np.take(keep, rows).ravel(), rows).reshape(len(rows), -1)


class _TreeImpl:
    def __init__(self, max_splits: int | None):
        self.max_splits = max_splits
        self.root: _TreeNode | None = None
        self.n_classes = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        XT = np.ascontiguousarray(X.T)
        self.grow(XT, np.argsort(XT, axis=1), y, np.ones(len(y), dtype=np.int64))

    def grow(self, XT: np.ndarray, order: np.ndarray, y: np.ndarray, w: np.ndarray) -> None:
        """Grow on the rows of `XT` (features, rows), row i counted `w[i]` times (rows
        with w = 0 are left out); `order` is `argsort(XT, axis=1)`."""
        y = np.where(w > 0, y, 0)  # class 0 for rows left out keeps y within the counts
        counts = np.bincount(y, weights=w).astype(np.int64)
        self.n_classes = len(counts)
        self.root = _TreeNode(label=_majority(counts))
        # best-first growth: expand the pending split with the largest
        # impurity decrease until the split budget runs out; each node's
        # rows, in every feature's order, and class counts travel with it
        heap: list[tuple[float, int, _TreeNode, np.ndarray, np.ndarray, tuple]] = []
        tiebreak = 0

        def push(node: _TreeNode, rows: np.ndarray, counts: np.ndarray):
            nonlocal tiebreak
            if np.count_nonzero(counts) < 2:
                return
            cand = _best_split(XT, y, w, rows, counts)
            if cand is None:
                return
            gain, feat, thr = cand
            heapq.heappush(heap, (-gain * int(counts.sum()), tiebreak, node, rows, counts,
                                  (feat, thr)))
            tiebreak += 1

        push(self.root, _kept(order, w > 0), counts)
        splits = 0
        while heap and (self.max_splits is None or splits < self.max_splits):
            _, _, node, rows, counts, (feat, thr) = heapq.heappop(heap)
            goes_left = XT[feat] <= thr
            li, ri = _kept(rows, goes_left), _kept(rows, ~goes_left)
            left = np.bincount(y[li[0]], weights=w[li[0]],
                               minlength=self.n_classes).astype(np.int64)
            right = counts - left
            node.feature = feat
            node.threshold = thr
            node.left = _TreeNode(label=_majority(left))
            node.right = _TreeNode(label=_majority(right))
            splits += 1
            push(node.left, li, left)
            push(node.right, ri, right)

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

_NB_VAR_FLOOR = 1e-9  # per-feature variance floor


class _NaiveBayesImpl:
    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes = np.unique(y)
        self.means = np.vstack([X[y == c].mean(axis=0) for c in self.classes])
        self.vars = np.vstack(
            [np.maximum(X[y == c].var(axis=0), _NB_VAR_FLOOR) for c in self.classes]
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
        return labels, post[np.arange(len(X)), best]


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
        self.onehot = (y[:, None] == np.arange(self.n_classes)).astype(float)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = min(self.k, len(self.y))
        sq = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ self.X.T
            + np.sum(self.X * self.X, axis=1)[None, :]
        )
        # the first k of a stable sort by distance, without the sort: every
        # neighbor closer than the k-th distance, then the lowest training
        # indices at exactly that distance
        kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
        near = sq < kth
        at = sq == kth
        spare = k - near.sum(axis=1, keepdims=True)
        tied = np.flatnonzero(at.sum(axis=1, keepdims=True) > spare)
        at[tied] &= np.cumsum(at[tied], axis=1) <= spare[tied]
        votes = (near | at) @ self.onehot
        labels = np.argmax(votes, axis=1)  # vote ties -> smallest class code
        scores = votes[np.arange(len(X)), labels] / k
        return labels, scores


# ---------------------------------------------------------------------------
# SVM: one-vs-one SMO with quadratic kernel K(u, v) = (u.v + 1)^2
# ---------------------------------------------------------------------------

def quadratic_kernel(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return (U @ V.T + 1.0) ** 2


# The step budget of one binary machine grows with its rows: _SMO_STEPS_PER_ROW * n.
_SMO_STEPS_PER_ROW = 1000
_TAU = 1e-12  # floor of the second-order curvature K_ii + K_jj - 2 K_ij (LIBSVM's TAU)
_SMO_TOL = 1e-3  # SMO stop: maximal-violation gap (LIBSVM's eps)


def _smo_binary(
    X: np.ndarray, y: np.ndarray, C: float, tol: float
) -> tuple[np.ndarray, float, int, bool]:
    """Train one binary machine (labels +-1) by SMO with LIBSVM's working-set rule.

    Solves min 1/2 a'Qa - sum(a), Q = (y y') * K, 0 <= a <= C, y'a = 0 (Platt, 1998;
    Fan, Chen & Lin, JMLR 6, 2005) in the coordinates beta = a * y of Bottou & Lin
    (2007): max y'beta - 1/2 beta'K beta, sum(beta) = 0, lo <= beta <= hi, where
    [lo, hi] is [0, C] for y = +1 and [-C, 0] for y = -1. The gradient g = y - K beta
    is kept up to date with two kernel rows per step. Each step takes i with the largest
    g among beta < hi, j among beta > lo by the second-order gain (WSS2), and moves
    beta_i up and beta_j down by the Newton step; a step that leaves the box stops on
    the bound it meets first, where LIBSVM's clipping puts it. Convergence = a
    maximal-violation gap max_{beta<hi} g - min_{beta>lo} g below `tol`, confirmed on
    a freshly computed g; the step budget is _SMO_STEPS_PER_ROW * n.

    Returns (alphas, bias, steps, converged).
    """
    n = len(y)
    K = quadratic_kernel(X, X)
    kd = np.diag(K)
    curv = -2.0 * K  # curv[i, j] = K_ii + K_jj - 2 K_ij, the step's second derivative
    curv += kd[:, None]
    curv += kd
    np.maximum(curv, _TAU, out=curv)
    lo, hi = np.minimum(0.0, C * y).tolist(), np.maximum(0.0, C * y).tolist()
    beta = [0.0] * n
    g = y.copy()
    # beta may grow where beta < hi and shrink where beta > lo; as additive masks, 0
    # where it may and -inf / +inf where it may not
    up_mask = np.where(y > 0, 0.0, -np.inf)
    low_mask = np.where(y > 0, np.inf, 0.0)
    g_up, g_low, gain = np.empty(n), np.empty(n), np.empty(n)
    budget = _SMO_STEPS_PER_ROW * n
    steps = 0
    fresh = True
    while True:
        np.add(g, up_mask, out=g_up)
        i = int(g_up.argmax())
        m = float(g_up[i])
        np.add(g, low_mask, out=g_low)
        M = float(g_low.min())
        if m - M < tol:
            if fresh:
                converged = True
                break
            g = y - K @ np.array(beta)  # confirm on a gradient free of update drift
            fresh = True
            continue
        if steps == budget:
            converged = False
            break
        # WSS2: the j with beta_j > lo_j and g_j < m maximising (m - g_j)^2 / curvature
        np.subtract(m, g_low, out=gain)
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        gain /= curv[i]
        j = int(gain.argmax())
        s = beta[i] + beta[j]
        t = (m - float(g[j])) / curv[i, j]
        bi, bj = beta[i] + t, beta[j] - t
        if bi > hi[i] or bj < lo[j]:
            # beta_i meets hi_i before beta_j meets lo_j exactly when s > hi_i + lo_j
            if s > hi[i] + lo[j]:
                bi, bj = hi[i], s - hi[i]
            else:
                bi, bj = s - lo[j], lo[j]
        g -= K[i] * (bi - beta[i]) + K[j] * (bj - beta[j])
        for k, bk in ((i, bi), (j, bj)):
            beta[k] = bk
            up_mask[k] = 0.0 if bk < hi[k] else -np.inf
            low_mask[k] = 0.0 if bk > lo[k] else np.inf
        steps += 1
        fresh = False
    alphas = np.abs(beta)  # = beta * y, with +0.0 where beta is 0
    free = (alphas > 0) & (alphas < C)
    b = float(g[free].mean()) if free.any() else 0.5 * (m + M)
    return alphas, b, steps, converged


class _SvmImpl:
    def __init__(self, C: float):
        self.C = C

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes = np.unique(y)
        self.machines = []  # (class_a, class_b, support X, coef = alpha*y, bias)
        self.steps = []     # SMO steps of each pair, in machine order
        self.budget_hits = 0
        for ia in range(len(self.classes)):
            for ib in range(ia + 1, len(self.classes)):
                ca, cb = int(self.classes[ia]), int(self.classes[ib])
                mask = (y == ca) | (y == cb)
                Xp = X[mask]
                yp = np.where(y[mask] == ca, 1.0, -1.0)
                alphas, b, steps, converged = _smo_binary(Xp, yp, self.C, _SMO_TOL)
                self.steps.append(steps)
                self.budget_hits += not converged
                sv = alphas > 0
                self.machines.append((ca, cb, Xp[sv], alphas[sv] * yp[sv], b))

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self.machines:  # single-class training set
            return np.full(len(X), int(self.classes[0])), np.ones(len(X))
        n_classes = int(self.classes.max()) + 1
        votes = np.zeros((len(X), n_classes), dtype=int)
        for ca, cb, sv, coef, b in self.machines:
            f = quadratic_kernel(X, sv) @ coef + b
            votes[:, ca] += f >= 0
            votes[:, cb] += f < 0
        labels = np.argmax(votes, axis=1)  # ties -> smallest class code
        return labels, votes[np.arange(len(X)), labels] / len(self.machines)


# ---------------------------------------------------------------------------
# Bagging of unbounded CART trees
# ---------------------------------------------------------------------------

class _BaggingImpl:
    def __init__(self, n_learners: int, seed: int):
        self.n_learners = n_learners
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_classes = int(y.max()) + 1
        # one presort serves every tree; a tree sees its bootstrap as row counts
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1)
        self.trees = []
        for i in range(self.n_learners):
            w = np.bincount(bootstrap_indices(self.seed, i, len(y)), minlength=len(y))
            tree = _TreeImpl(max_splits=None)
            tree.grow(XT, order, y, w)
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

    @property
    def converged(self) -> bool:
        return getattr(self.impl, "budget_hits", 0) == 0


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
        impl = _NaiveBayesImpl()
    elif spec.kind is ModelKind.Knn:
        impl = _KnnImpl(spec.k)
    elif spec.kind is ModelKind.Svm:
        impl = _SvmImpl(spec.C)
    elif spec.kind is ModelKind.Bagging:
        impl = _BaggingImpl(spec.n_learners, spec.seed)
    else:  # pragma: no cover
        raise ValueError(f"unknown model kind {spec.kind}")
    impl.fit(X, y)
    return TrainedModel(spec=spec, impl=impl, n_features=X.shape[1])


def predict_batch(model: TrainedModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected width {model.n_features}, got {X.shape[1] if X.ndim == 2 else '?'}"
        )
    return model.impl.predict_batch(X)
