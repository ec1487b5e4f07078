"""Native implementations of the five classifiers behind one train/predict contract.

All models are deterministic given (spec, X, y): the only randomness, the
bagging bootstraps, flows from spec.seed. Labels are integer class codes
(Activity codes in the pipeline).
"""
from __future__ import annotations

import collections
import heapq
import itertools
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyTrainingSet, SchemaError


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
        for name, least in (("seed", 0), ("k", 1), ("n_learners", 1), ("max_splits", 1)):
            value = getattr(self, name)
            if value is None and name == "max_splits":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not 0 < self.C < np.inf:  # false for nan too
            raise ValueError("C must be finite and > 0")


# ---------------------------------------------------------------------------
# CART trees: the decision tree, and bagging's bootstrap trees
# ---------------------------------------------------------------------------

class _Nodes(NamedTuple):
    """The nodes of `n_trees` CART trees, tree t's root at node t. A split node sends a
    row with x[feature] <= threshold to node child and any other row to node child + 1;
    a leaf (feature -1) predicts its label."""
    label: np.ndarray      # (nodes,) majority label
    feature: np.ndarray    # (nodes,) split feature, -1 at a leaf
    threshold: np.ndarray  # (nodes,)
    priority: np.ndarray   # (nodes,) -gain x rows of the split: best-first growth's key
    child: np.ndarray      # (nodes,) a split's left child; its right child is the next node
    n_trees: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The (rows, trees) labels of the finite rows X, by blocks of at most
        `_SPLIT_BLOCK_ELEMENTS` (row, tree) pairs: a block's rows walk every tree at once, a
        level per round. Not recursion: a tree may be deeper than the call stack."""
        n, d = X.shape
        labels = np.empty((n, self.n_trees), dtype=self.label.dtype)
        rows = max(1, _SPLIT_BLOCK_ELEMENTS // self.n_trees)
        for r0 in range(0, n, rows):
            x = X[r0:r0 + rows].ravel()
            node = np.tile(np.arange(self.n_trees), min(rows, n - r0))  # per (row, tree)
            walk = np.flatnonzero(self.feature[node] >= 0)
            while walk.size:
                i = node[walk]
                at = walk // self.n_trees * d  # the row's start in x
                i = self.child[i] + (x[at + self.feature[i]] > self.threshold[i])
                node[walk] = i
                walk = walk[self.feature[i] >= 0]
            labels[r0:r0 + rows] = self.label[node].reshape(-1, self.n_trees)
        return labels


def _sum_classes(q: np.ndarray) -> np.ndarray:
    """`q` summed over its leading class axis in the order `np.sum` adds a contiguous class
    axis (one term after another below 8 terms, into `q[0]`; pairwise from 8 on), by whole
    rows: at 5 classes, 1.6-13 times faster than `.sum(axis=1)` on 200-20,000 positions."""
    if len(q) >= 8:
        return np.moveaxis(q, 0, -1).copy().sum(axis=-1)
    total = q[0]
    for term in q[1:]:
        total += term
    return total


# Elements of one (words, features, columns) temporary of the split search, of one
# block of the partition into children and of one block of the prediction walk; as
# int64, 128 KiB. A search block takes as many nodes, side by side, and as many features
# as fit; a node larger than that takes a block of its own, one feature wide. It holds
# about a dozen such temporaries at once, so this size sets much of a bagging fit's peak
# memory: twice as many elements added 1.0-1.5 MB to the peak RSS of 50 trees on 72 rows.
_SPLIT_BLOCK_ELEMENTS = 16_384

# (features, rows) elements of the presorted matrix per group of bagged trees grown
# together. A group's trees share every search and split call; its roots hold about
# 0.63 of that many int32 row ids (the distinct rows of their bootstraps), 1.3 MB, and
# the frontier only shrinks from there.
_GROUP_ELEMENTS = 1 << 19


# label, feature, threshold, priority and child of a new leaf
_LEAF = (0, -1, 0.0, 0.0, 0)


class _Frontier(NamedTuple):
    """Open nodes, of one tree or of several, with their rows side by side."""
    ids: np.ndarray     # (features, columns) int32: node after node, each node's rows in
                        # ascending order of each feature, row r of tree t as t * n + r
    sizes: np.ndarray   # (nodes,) columns of each node
    counts: np.ndarray  # (nodes, classes) int64 weighted class counts
    nodes: np.ndarray   # (nodes,) each node's index in the forest's `_Nodes`


def _layout(widths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(word, shift) of each field of the given bit widths, packed in order into int64
    words: a field goes into a word while it fits in the word's low 63 bits."""
    word, shift, at = [], [], 0
    for width in widths:
        if at % 63 + width > 63:
            at += 63 - at % 63
        word.append(at // 63)
        shift.append(at % 63)
        at += width
    return np.array(word), np.array(shift)


def _runs(sizes: np.ndarray, limit: int):
    """(first, end) ranges of consecutive nodes, each as many as fit in sizes summing
    to at most `limit`, a larger node alone."""
    ends, first = np.cumsum(sizes), 0
    while first < len(sizes):
        end = max(first + 1, int(np.searchsorted(ends, ends[first] - sizes[first] + limit,
                                                 "right")))
        yield first, end
        first = end


class _Forest:
    """CART trees grown on one matrix `XT` (features, rows), whose `order` is
    `argsort(XT, axis=1)`, tree t counting row i `W[t, i]` times (rows with W = 0 are
    left out), every tree over the model's `n_classes` classes: a bagging ensemble's
    bootstraps, or one tree with every count 1. Tree t's root is node root[t] of
    `nodes`, which the trees grow into.

    Growth runs on frontiers of open nodes from any of the trees (`_Frontier`): one
    `best_splits` call searches all of them, one `split` call partitions them and
    writes the splits into `nodes`. Row r of tree t looks up its per-row terms at
    t * n + r.

    A node's count never exceeds its tree's total, which takes `bits` bits. The search
    runs two cumulative sums of packed int64 words (`_layout`). One holds each class's
    count, `bits` apiece. The other holds sum_c left_c^2, k and the sum over the rows
    of the row's count times its class's count in the node: 2 * bits, bits and 2 * bits,
    as the squares and products of counts are at most m^2.
    """

    def __init__(self, XT: np.ndarray, order: np.ndarray, y: np.ndarray, W: np.ndarray,
                 n_classes: int, nodes: _Nodes, root: np.ndarray):
        self.XT, self.order, self.n_classes = XT, order, n_classes
        self.nodes, self.root = nodes, root
        bits = int(W.sum(axis=1).max()).bit_length()
        self.mask, self.sq_mask = (1 << bits) - 1, (1 << 2 * bits) - 1
        self.word, self.shift = _layout([bits] * n_classes)
        # (words, classes): each class's unit in the packed class counts
        self.unit = np.zeros((self.word[-1] + 1, n_classes), dtype=np.int64)
        self.unit[self.word, np.arange(n_classes)] = np.left_shift(1, self.shift)
        # the words and shifts of sum_c left_c^2, k and sum_c counts_c left_c
        self.sums = _layout([2 * bits, bits, 2 * bits])
        # a row a tree leaves out weighs 0 in every sum, whatever its class
        self.y = np.tile(y, len(W))
        self.w = W.ravel()
        # each row's packed terms; per word, the shift to the row's class's slot, or 63
        # (a shift to 0) in the other words
        self.packed = self.w * self.unit[:, self.y]
        self.own_shift = np.where(self.word[self.y] == np.arange(len(self.unit))[:, None],
                                  self.shift[self.y], 63)

    def roots(self) -> _Frontier:
        """The frontier of the roots that hold two classes or more; each root gets its
        majority label."""
        n_trees, n_cls = len(self.root), self.n_classes
        n_features, n = self.XT.shape
        counts = np.bincount(np.repeat(np.arange(n_trees), n) * n_cls + self.y,
                             weights=self.w, minlength=n_trees * n_cls)
        counts = counts.reshape(n_trees, n_cls).astype(np.int64)
        self.nodes.label[self.root] = counts.argmax(axis=1)
        grow = np.flatnonzero(np.count_nonzero(counts, axis=1) >= 2)
        drawn = self.w.reshape(n_trees, n)[grow] > 0
        sizes = np.count_nonzero(drawn, axis=1)
        ids = np.empty((n_features, int(sizes.sum())), dtype=np.int32)
        at = 0
        for t, keep, size in zip(grow.tolist(), drawn, sizes.tolist()):
            kept = np.compress(np.take(keep, self.order).ravel(), self.order)
            ids[:, at:at + size] = (kept + t * n).reshape(n_features, size)
            at += size
        return _Frontier(ids, sizes, counts[grow], self.root[grow])

    def grow(self, levels: int | None = None) -> _Nodes:
        """`nodes` with the trees grown into them, a level of every tree per round, for
        at most `levels` rounds (default: until no node can split): each round searches
        and splits all open nodes at once. A tree splits every node that can split
        within those levels, so the order of splits cannot change it."""
        frontier = self.roots()
        level = 0
        while frontier.nodes.size and (levels is None or level < levels):
            frontier = self.split(frontier, *self.best_splits(frontier))
            level += 1
        return self.nodes

    def best_splits(self, fr: _Frontier) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The best split of every node of `fr` by an exhaustive scan over midpoints of
        its sorted distinct values: (gain, feature, threshold) arrays, feature -1 where
        no split improves impurity. Ties keep the first (lowest feature index, lowest
        threshold) candidate; a later feature wins only by more than 1e-15.

        A node's columns form a segment, and a block covers a run of segments and some
        features. With k of a node's m rows on the left, the weighted Gini is 1 - S/m,
        where S = sum_c left_c^2 / k + sum_c right_c^2 / (m - k); so S ranks positions
        as the gain does. S comes from exact integers: the class counts, and
        sum_c left_c^2, k and sum_c counts_c left_c, are cumulative sums of integer
        terms, and sum_c right_c^2 = sum_c counts_c^2 - 2 sum_c counts_c left_c +
        sum_c left_c^2. Each cumulative sum runs over the whole block, but the term in a
        node's first column has the previous node's total subtracted, which its class
        counts give (its packed class counts; sum_c counts_c^2, m and sum_c counts_c^2,
        packed): so the sum restarts at every node, and every partial sum is the node's
        own, which fits its fields. A sum that ran on across nodes instead would carry
        one class's count into the next field, and over enough nodes past 2^63. A
        node's last column, and positions whose sorted value does not change, cannot
        split, so no position spans two nodes.

        The gain formula then runs only where S is within 1e-12 * m of the best S of
        the node's feature. Why that is enough, with u = 2^-53 and C classes:
        - the gain formula is off by at most (C + 7)u: C squares of quotients and their
          sum (C + 2)u, then 1 - sum, the products with k and m - k, their sum, /m and
          parent - weighted, u each;
        - S is off by at most 2mu: two quotients of exact integers below 2^53 and their
          sum, each at most m;
        - so a position of largest computed gain has an S within 2m(C + 7)u + 2 * 2mu =
          2m(C + 9)u of the largest computed S: 3.1e-15 m for C = 5. 1e-12 m is over 100
          times that up to C = 36, and still covers it up to C = 4,494.
        Every node sums its classes over the model's class count, so the additions run
        in the order a search of that node alone takes. The nodes of one tree hold
        disjoint rows, as a tree's open nodes do.
        """
        n_features, n = self.XT.shape
        n_nodes = len(fr.sizes)
        ends = np.cumsum(fr.sizes)
        starts = ends - fr.sizes
        trees = fr.ids[0, starts] // n  # a node's tree, from its first row id
        col_node = np.repeat(np.arange(n_nodes), fr.sizes)
        col_base = np.repeat(trees * n, fr.sizes)  # where each column's tree starts
        m = fr.counts.sum(axis=1)
        tol = 1e-12 * m
        sq_total = np.einsum("ij,ij->i", fr.counts, fr.counts)
        p = fr.counts / m[:, None]
        parent_gini = 1.0 - (p * p).sum(axis=1)
        # the second sum's terms but sum_c left_c^2's, which come from the first sum:
        # per (tree, row), the row's count, and its count times its class's count in
        # its node
        (sq_word, k_word, cw_word), (sq_shift, k_shift, cw_shift) = self.sums
        ids = fr.ids[0]
        kcw = np.zeros((cw_word + 1, len(self.w)), dtype=np.int64)
        kcw[k_word, ids] = self.w[ids] << k_shift
        kcw[cw_word, ids] += (fr.counts[col_node, self.y[ids]] * self.w[ids]) << cw_shift
        # each node's totals of the terms, to restart the sums at the next node
        packed_total = self.unit @ fr.counts.T
        sums_total = np.zeros((len(kcw), n_nodes), dtype=np.int64)
        for word, shift, total in zip(*self.sums, (sq_total, m, sq_total)):
            sums_total[word] += total << shift
        # each feature's best gain and its threshold, per node
        tops = np.full((n_nodes, n_features), -np.inf)
        thresholds = np.zeros((n_nodes, n_features))
        limit = max(1, _SPLIT_BLOCK_ELEMENTS // max(len(self.unit), len(kcw)))
        for a, b in _runs(fr.sizes, limit):
            c0, c1 = starts[a], ends[b - 1]
            first, restart = starts[a:b] - c0, starts[a + 1:b] - c0
            packed_prev = packed_total[:, None, a:b - 1]
            sums_prev = sums_total[:, None, a:b - 1]
            base = col_base[c0:c1]
            node = col_node[c0:c1]  # position p splits between columns p and p + 1
            local = node - a
            m_at, sq_at = m[node], sq_total[node]
            last = ends[a:b] - c0 - 1  # no split after a node's last column
            width = max(1, limit // (c1 - c0))
            for f0 in range(0, n_features, width):
                G = fr.ids[f0:f0 + width, c0:c1]
                feats = np.arange(f0, f0 + len(G))
                v = np.take(self.XT, G - base + n * feats[:, None])  # sorted values
                P = np.take(self.packed, G, axis=1)
                P[:, :, restart] -= packed_prev
                np.cumsum(P, axis=2, out=P)
                # the left count of the row's own class, the row included
                own = P[0] >> np.take(self.own_shift[0], G)
                for Pj, sj in zip(P[1:], self.own_shift[1:]):
                    own += Pj >> np.take(sj, G)
                own &= self.mask
                wR = np.take(self.w, G)
                own <<= 1
                own -= wR
                own *= wR
                L = np.take(kcw, G, axis=1)
                L[sq_word] += own  # sum_c left_c^2 takes the low bits of the first word
                L[:, :, restart] -= sums_prev
                np.cumsum(L, axis=2, out=L)
                # S at every position, from the exact integers; the sum of counts
                # times left counts is the top field of its word
                S = (L[sq_word] & self.sq_mask).astype(float)
                k = ((L[k_word] >> k_shift) & self.mask).astype(float)
                right_sq = (L[cw_word] >> cw_shift).astype(float)
                right_sq *= -2
                right_sq += S
                right_sq += sq_at
                S /= k
                with np.errstate(divide="ignore", invalid="ignore"):  # at a node's end
                    right_sq /= m_at - k
                S += right_sq
                # only positions where the sorted value changes, within a node, split
                S[:, :-1][v[:, :-1] >= v[:, 1:]] = -np.inf
                S[:, last] = -np.inf
                cut = np.maximum.reduceat(S, first, axis=1)
                cut[cut == -np.inf] = np.inf  # no position of that feature can split
                cut -= tol[a:b]
                near = np.flatnonzero(S >= cut[:, local])
                if near.size == 0:
                    continue
                fi, pi = np.divmod(near, c1 - c0)
                ni = node[pi]
                # the gain at those positions from the unpacked counts, in the
                # formula's order
                mm = m[ni]
                kk = k[fi, pi]
                left = (P[:, fi, pi][self.word] >> self.shift[:, None]) & self.mask
                left = left.astype(float)
                right = fr.counts[ni].T - left
                gl = 1.0 - _sum_classes((left / kk) ** 2)
                gr = 1.0 - _sum_classes((right / (mm - kk)) ** 2)
                gains = parent_gini[ni] - (kk * gl + (mm - kk) * gr) / mm
                # per (feature, node): the first position of highest gain, by a stable
                # sort of `near`, which is in (feature, node, position) order
                ranked = np.lexsort((-gains, fi * n_nodes + ni))
                key = (fi * n_nodes + ni)[ranked]
                win = ranked[np.concatenate([[True], key[1:] != key[:-1]])]
                win = win[gains[win] > 1e-15]
                f, p, ni = fi[win], pi[win], ni[win]
                tops[ni, f0 + f] = gains[win]
                # the midpoint, or the lower value where the midpoint overflows or
                # rounds up to the upper one: lower <= threshold < upper either way
                lower, upper = v[f, p], v[f, p + 1]
                with np.errstate(over="ignore"):
                    mid = 0.5 * (lower + upper)
                thresholds[ni, f0 + f] = np.where(np.isfinite(mid) & (mid < upper), mid, lower)
        # across features in ascending order, a feature wins only by beating the best so
        # far by more than 1e-15. The best so far never falls, and it would take every
        # earlier feature's gain within 1e-15, so only a feature whose gain exceeds every
        # earlier one's can win: the scan visits just those.
        earlier = np.full_like(tops, -np.inf)
        np.maximum.accumulate(tops[:, :-1], axis=1, out=earlier[:, 1:])
        rises = np.flatnonzero(tops > earlier)
        best: dict[int, tuple[float, int]] = {}
        for i, gain in zip(rises.tolist(), tops.ravel()[rises].tolist()):
            node = i // n_features
            if node not in best or gain > best[node][0] + 1e-15:
                best[node] = (gain, i)
        gain = np.zeros(n_nodes)
        feature = np.full(n_nodes, -1)
        threshold = np.zeros(n_nodes)
        if best:
            nodes = np.fromiter(best, dtype=np.int64)
            won = np.array([i for _, i in best.values()])
            gain[nodes] = tops.ravel()[won]
            feature[nodes] = won % n_features
            threshold[nodes] = thresholds.ravel()[won]
        return gain, feature, threshold

    def split(self, fr: _Frontier, gain: np.ndarray, feature: np.ndarray,
              threshold: np.ndarray) -> _Frontier:
        """Split every node i of `fr` with feature[i] >= 0 at XT[feature[i]] <=
        threshold[i] into two new leaves, its priority -gain[i] times its count, and
        return the frontier of the new leaves that hold two classes or more, every left
        child before every right one. A child's rows keep each feature's order: a stable
        partition, with no sort."""
        n_features, n = self.XT.shape
        n_nodes, n_cls = fr.counts.shape
        col_node = np.repeat(np.arange(n_nodes), fr.sizes)
        ids = fr.ids[0]
        goes_left = (np.take(self.XT, np.maximum(feature, 0)[col_node] * n + ids % n)
                     <= threshold[col_node])
        left = np.bincount(col_node * n_cls + self.y[ids], weights=self.w[ids] * goes_left,
                           minlength=n_nodes * n_cls).reshape(n_nodes, n_cls).astype(np.int64)
        right = fr.counts - left
        grows = feature >= 0
        split = np.flatnonzero(grows)
        # split j's children are leaves 2j and 2j + 1 after the nodes so far
        child = len(self.nodes.label) + 2 * np.arange(len(split))
        nodes = self.nodes = _Nodes(*(np.concatenate([a, np.full(2 * len(split), fill)])
                                      for a, fill in zip(self.nodes, _LEAF)), self.nodes.n_trees)
        parents = fr.nodes[split]
        nodes.feature[parents] = feature[split]
        nodes.threshold[parents] = threshold[split]
        nodes.priority[parents] = -gain[split] * fr.counts[split].sum(axis=1)
        nodes.child[parents] = child
        # majority labels, ties to the smallest class
        nodes.label[child] = left[split].argmax(axis=1)
        nodes.label[child + 1] = right[split].argmax(axis=1)
        keep_left = grows & (np.count_nonzero(left, axis=1) >= 2)
        keep_right = grows & (np.count_nonzero(right, axis=1) >= 2)
        # per (tree, row): 1 to a left child kept, 2 to a right child kept, else 0
        side = np.zeros(len(self.w), dtype=np.int8)
        side[ids] = np.where(goes_left, keep_left[col_node], 2 * keep_right[col_node])
        n_left = np.bincount(col_node, weights=goes_left, minlength=n_nodes).astype(np.int64)
        lefts, rights = np.flatnonzero(keep_left), np.flatnonzero(keep_right)
        sizes = np.concatenate([n_left[lefts], (fr.sizes - n_left)[rights]])
        at = int(sizes[:len(lefts)].sum())
        children = np.empty((n_features, int(sizes.sum())), dtype=np.int32)
        step = max(1, _SPLIT_BLOCK_ELEMENTS // len(ids))
        for f0 in range(0, n_features, step):
            G = fr.ids[f0:f0 + step]
            code = np.take(side, G).ravel()
            children[f0:f0 + step, :at] = np.compress(code == 1, G).reshape(len(G), -1)
            children[f0:f0 + step, at:] = np.compress(code == 2, G).reshape(len(G), -1)
        return _Frontier(children, sizes, np.concatenate([left[lefts], right[rights]]),
                         np.concatenate([nodes.child[fr.nodes[lefts]],
                                         nodes.child[fr.nodes[rights]] + 1]))


def _keep_best_first(nodes: _Nodes, max_splits: int) -> None:
    """Cut each tree of `nodes` to the tree grown best first under the split budget:
    replay the expansion of the pending split of largest impurity decrease (the first
    pushed among equals, a left child before its right) until the budget runs out, and
    make every split still pending a leaf. A node's split is the same whichever other
    nodes are searched with it, so the replay keeps the splits best-first growth makes."""
    feature, priority, child = (a.tolist() for a in (nodes.feature, nodes.priority, nodes.child))
    for root in range(nodes.n_trees):
        heap = [(priority[root], 0, root)] if feature[root] >= 0 else []
        pushes = itertools.count(1)
        for _ in range(max_splits):
            if not heap:
                break
            _, _, node = heapq.heappop(heap)
            for kid in (child[node], child[node] + 1):
                if feature[kid] >= 0:
                    heapq.heappush(heap, (priority[kid], next(pushes), kid))
        pending = [node for _, _, node in heap]
        nodes.feature[pending], nodes.threshold[pending] = -1, 0.0


class _TreesImpl:
    """CART trees grown on one presort, tree t counting row i W[t, i] times: with no
    seed one tree counting every row once (the decision tree), else `n_learners` trees
    on the seed's bootstraps (bagging). Predicts the majority vote of its trees."""

    def __init__(self, n_learners: int, seed: int | None, max_splits: int | None):
        self.n_learners, self.seed, self.max_splits = n_learners, seed, max_splits

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_classes = int(y.max()) + 1
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1)
        W = (np.ones((self.n_learners, len(y)), dtype=np.int64) if self.seed is None else
             np.stack([np.bincount(bootstrap_indices(self.seed, i, len(y)), minlength=len(y))
                       for i in range(self.n_learners)]))
        # best-first growth under budget B splits nodes at depth <= B - 1, whose
        # children, at depth <= B, the first B + 1 levels search
        levels = None if self.max_splits is None else self.max_splits + 1
        # every root, then each group's other nodes: the trees of a group grow together,
        # a level of every tree per round, into the nodes of the groups before it
        self.nodes = _Nodes(*(np.full(self.n_learners, fill) for fill in _LEAF), self.n_learners)
        n_groups = -(-self.n_learners // max(1, _GROUP_ELEMENTS // XT.size))
        for group in np.array_split(np.arange(self.n_learners), n_groups):
            self.nodes = _Forest(XT, order, y, W[group], self.n_classes, self.nodes,
                                 group).grow(levels)
        if self.max_splits is not None:
            _keep_best_first(self.nodes, self.max_splits)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, C = len(X), self.n_classes
        votes = np.bincount((self.nodes.predict(X) + np.arange(n)[:, None] * C).ravel(),
                            minlength=n * C).reshape(n, C)
        labels = np.argmax(votes, axis=1)  # ties -> smallest class code
        return labels, votes[np.arange(n), labels] / self.nodes.n_trees


def bootstrap_indices(seed: int, learner_index: int, n: int) -> np.ndarray:
    """Bootstrap sample indices for one bagging learner."""
    return np.random.default_rng(seed + learner_index).integers(0, n, n)


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
        self.sq_norms = np.sum(X * X, axis=1)  # here, so training rows too large overflow in fit
        self.y = y.copy()
        self.n_classes = int(y.max()) + 1
        self.onehot = (y[:, None] == np.arange(self.n_classes)).astype(float)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = min(self.k, len(self.y))
        sq = np.sum(X * X, axis=1)[:, None] - 2.0 * X @ self.X.T + self.sq_norms[None, :]
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

# Bytes of the (slots, width, width) kernels of one SMO pool, width the rows of its
# largest problem: the pool takes as many slots as fit, at most one per problem.
_SMO_POOL_BYTES = 1 << 20
# Per problem, a pool of 1, 2, 3 or 4 slots took about 3.5, 2, 1.3 and 1.0 times the
# scalar loop's time, and one of 5 about 0.9 (29 to 288 rows per problem, one core), so
# fewer problems than this run one after another in the scalar loop.
_SMO_POOL_MIN = 5
# No curvature overflows where every diagonal kernel entry is below this.
_CURV_SAFE = np.finfo(float).max / 8


def _curvature(K: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """curv[i, j] = K_ii + K_jj - 2 K_ij, the step's second derivative, floored at _TAU.
    The solvers build it a row at a time; whole, it checks for overflow."""
    curv = -2.0 * K
    curv += kd[:, None]
    curv += kd
    return np.maximum(curv, _TAU, out=curv)


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
    a freshly computed g; the step budget is _SMO_STEPS_PER_ROW * n. Row i of the
    curvature is built the first time a step starts from i.

    Returns (alphas, bias, steps, converged).
    """
    return _smo_steps(quadratic_kernel(X, X), y, C, tol, np.zeros(len(y)), y.copy(), 0, True)


def _smo_steps(K: np.ndarray, y: np.ndarray, C: float, tol: float, beta: np.ndarray,
               g: np.ndarray, steps: int, fresh: bool) -> tuple[np.ndarray, float, int, bool]:
    """`_smo_binary`'s loop on the kernel K from a state of it: beta, the gradient g
    (which it may update in place), the steps taken and whether g is freshly computed."""
    n = len(y)
    kd = np.diag(K)
    if kd.max() > _CURV_SAFE:
        _curvature(K, kd)  # overflows where a row of it could
    curv = {}  # row i of the curvature, built when a step first starts from i
    lo, hi = np.minimum(0.0, C * y), np.maximum(0.0, C * y)
    # beta may grow where beta < hi and shrink where beta > lo; as additive masks, 0
    # where it may and -inf / +inf where it may not
    up_mask = np.where(beta < hi, 0.0, -np.inf)
    low_mask = np.where(beta > lo, 0.0, np.inf)
    lo, hi, beta = lo.tolist(), hi.tolist(), beta.tolist()
    g_up, g_low, gain = np.empty(n), np.empty(n), np.empty(n)
    budget = _SMO_STEPS_PER_ROW * n
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
        if (curv_i := curv.get(i)) is None:
            curv_i = curv[i] = np.maximum((-2.0 * K[i] + kd[i]) + kd, _TAU)
        gain /= curv_i
        j = int(gain.argmax())
        s = beta[i] + beta[j]
        t = (m - float(g[j])) / curv_i[j]
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


def _smo_pool(sizes: list[int], load, C: float, tol: float):
    """Yield (k, `_smo_binary(X, y, C, tol)`) for each binary problem k, whose `load(k)`
    gives its (X, y) of sizes[k] rows, in the order the problems finish.

    The problems run in lock-step in a pool of slots, (slots, width) arrays with a row
    per slot: each round moves every unfinished problem one step of `_smo_binary`'s loop
    by the same operations in the same order, so every result is that loop's bit for
    bit. Problems are loaded in order (each kernel built from its rows, which the pool
    does not keep) as slots free. Past its n rows a slot is padding that no step
    selects: g = beta = lo = hi = 0, masks that forbid both moves, and kernel entries of
    0 in its rows, so g stays 0 there. A slot that halts (converged, confirming g or at
    its budget) takes a step of t = 0, which changes nothing. A slot whose problem ends
    with none waiting is empty: it keeps that problem's last state, which halts every
    round. A step's curvature row is built from its kernel row, so no slot holds a
    second (width, width) array.

    Once no problem waits, the pool drops its empty slots when they reach half of them,
    and hands fewer than _SMO_POOL_MIN problems to the scalar loop, as it does all of
    them when _SMO_POOL_BYTES holds fewer slots than that.
    """
    pending = collections.deque(range(len(sizes)))
    width = max(sizes, default=1)
    slots = min(len(sizes), _SMO_POOL_BYTES // (8 * width * width))
    held: list = []  # (k, y) of each slot's problem, None when empty
    if slots >= _SMO_POOL_MIN:
        K = np.zeros((slots, width, width))
        kd, g, beta, lo, hi, up_mask, low_mask = (np.zeros((slots, width)) for _ in range(7))
        steps, budget = np.zeros(slots, dtype=np.int64), np.zeros(slots, dtype=np.int64)
        fresh = np.ones(slots, dtype=bool)
        held = [None] * slots

    def fill(empty: list[int]) -> None:
        """Load the next problems into the empty slots while any wait."""
        loaded = empty[:len(pending)]
        for r in empty[len(loaded):]:
            held[r] = None
        if not loaded:
            return
        y = np.zeros((len(loaded), width))  # labels, 0 in the padding
        for q, r in enumerate(loaded):
            X, yr = load(k := pending.popleft())
            held[r] = k, yr
            n = len(yr)
            Kr = quadratic_kernel(X, X)
            K[r, :n, :n] = Kr
            K[r, :n, n:] = 0.0
            y[q, :n] = yr
            budget[r] = _SMO_STEPS_PER_ROW * n
        diagonals = K.reshape(len(K), -1)[:, ::width + 1]
        kd[loaded] = np.where(y != 0.0, diagonals[loaded], 0.0)
        if kd[loaded].max() > _CURV_SAFE:
            for r in loaded:  # overflow where the scalar loop's check does
                n = len(held[r][1])
                _curvature(K[r, :n, :n], kd[r, :n])
        g[loaded] = y
        beta[loaded] = 0.0
        lo[loaded], hi[loaded] = np.minimum(0.0, C * y), np.maximum(0.0, C * y)
        up_mask[loaded] = np.where(y > 0.0, 0.0, -np.inf)
        low_mask[loaded] = np.where(y < 0.0, 0.0, np.inf)
        steps[loaded] = 0
        fresh[loaded] = True

    fill(list(range(len(held))))
    while len(live := [r for r, h in enumerate(held) if h is not None]) >= _SMO_POOL_MIN:
        if len(live) < len(held):  # keep the unfinished slots, as wide as the widest
            width = max(len(held[r][1]) for r in live)
            K = K[live, :width, :width]
            kd, g, beta, lo, hi, up_mask, low_mask = (
                a[live, :width] for a in (kd, g, beta, lo, hi, up_mask, low_mask))
            steps, budget, fresh = steps[live], budget[live], fresh[live]
            held = [held[r] for r in live]
        rows = len(held)
        at = np.arange(rows) * width  # each slot's first entry, flat
        flat = K.reshape(rows * width, width)
        g_up, g_low, gain, curv = (np.empty((rows, width)) for _ in range(4))
        while True:
            np.add(g, up_mask, out=g_up)
            i = g_up.argmax(axis=1)
            i += at
            m = g_up.take(i)
            np.add(g, low_mask, out=g_low)
            M = g_low.min(axis=1)
            gap = m - M
            halt = gap < tol
            halt |= steps == budget
            if np.count_nonzero(halt) > held.count(None):
                ended = []
                for r in np.flatnonzero(halt).tolist():
                    if held[r] is None:
                        continue
                    k, y = held[r]
                    n = len(y)
                    if gap[r] < tol and not fresh[r]:
                        # confirm on a gradient free of update drift
                        g[r, :n] = y - np.ascontiguousarray(K[r, :n, :n]) @ beta[r, :n]
                        fresh[r] = True
                        continue
                    alphas = np.abs(beta[r, :n])
                    free = (alphas > 0) & (alphas < C)
                    b = float(g[r, :n][free].mean() if free.any() else 0.5 * (m[r] + M[r]))
                    yield k, (alphas, b, int(steps[r]), bool(gap[r] < tol))
                    ended.append(r)
                fill(ended)
                if not pending and 2 * held.count(None) >= rows:
                    break
            np.subtract(m[:, None], g_low, out=gain)
            np.maximum(gain, 0.0, out=gain)
            gain *= gain
            Ki = flat.take(i, axis=0)
            np.multiply(Ki, -2.0, out=curv)
            curv += kd.take(i)[:, None]
            curv += kd
            np.maximum(curv, _TAU, out=curv)
            gain /= curv
            j = gain.argmax(axis=1)
            j += at
            t = m - g.take(j)
            t /= curv.take(j)
            t[halt] = 0.0
            bi0, bj0 = beta.take(i), beta.take(j)
            bi, bj = bi0 + t, bj0 - t
            hi_i, lo_j = hi.take(i), lo.take(j)
            clip = bi > hi_i
            clip |= bj < lo_j
            if clip.any():
                s = bi0 + bj0
                top = s > hi_i + lo_j
                bi = np.where(clip, np.where(top, hi_i, s - lo_j), bi)
                bj = np.where(clip, np.where(top, s - hi_i, lo_j), bj)
            Kj = flat.take(j, axis=0)
            Ki *= (bi - bi0)[:, None]
            Kj *= (bj - bj0)[:, None]
            Ki += Kj
            g -= Ki
            beta.put(i, bi)
            beta.put(j, bj)
            up_mask.put(i, np.where(bi < hi_i, 0.0, -np.inf))
            low_mask.put(i, np.where(bi > lo.take(i), 0.0, np.inf))
            up_mask.put(j, np.where(bj < hi.take(j), 0.0, -np.inf))
            low_mask.put(j, np.where(bj > lo_j, 0.0, np.inf))
            steps += ~halt
            fresh &= halt
    # the few problems left, and any that never entered the pool, one after another
    tail = []
    for r in live:
        k, y = held[r]
        n = len(y)
        tail.append((k, y, K[r, :n, :n].copy(), beta[r, :n].copy(), g[r, :n].copy(),
                     int(steps[r]), bool(fresh[r])))
    held = K = flat = None  # free the pool before the scalar loop builds its curvature
    for k, y, Kr, *state in tail:
        yield k, _smo_steps(Kr, y, C, tol, *state)
    while pending:
        X, y = load(k := pending.popleft())
        yield k, _smo_binary(X, y, C, tol)


class _SvmImpl:
    """The one-vs-one machines of one training set, trained by `_fit_svms`."""

    def __init__(self, y: np.ndarray):
        self.classes = np.unique(y)
        pairs = len(self.classes) * (len(self.classes) - 1) // 2
        self.machines = [None] * pairs  # (class_a, class_b, support X, coef = alpha*y, bias)
        self.steps = [0] * pairs        # SMO steps of each pair, in machine order
        self.budget_hits = 0

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


def _fit_svms(C: float, labels: list[np.ndarray], matrix) -> Iterator[_SvmImpl]:
    """Yield the SVM of each split s on (matrix(s), labels[s]), in split order, every
    one-vs-one machine of every split trained in one SMO pool: class a of pair (a, b) is
    +1. matrix(s) is called once, in split order, when the pool first needs split s (under
    the caller's NumPy error state), and dropped once the split's last machine ends, so
    only the splits in the pool are held; a split is yielded as soon as it and every
    split before it have ended."""
    outer = np.geterr()
    impls = dict(enumerate(_SvmImpl(y) for y in labels))
    # (split, index of the pair in the split, a, b) of every machine, in split order
    pairs = [(s, i, a, b) for s, impl in impls.items()
             for i, (a, b) in enumerate(itertools.combinations(impl.classes.tolist(), 2))]
    left = [len(impl.machines) for impl in impls.values()]
    held = {}      # split -> its training matrix, while its machines train
    training = {}  # pair -> (rows, labels +-1) while it trains
    reached = yielded = 0  # splits whose matrix has been taken, and yielded

    def reach(s: int) -> None:
        """Take the matrices of the splits up to s; one without machines is dropped at once."""
        nonlocal reached
        for t in range(reached, s + 1):
            with np.errstate(**outer):
                held[t] = matrix(t)
            reached = t + 1
            if not left[t]:
                del held[t]

    def load(k: int) -> tuple[np.ndarray, np.ndarray]:
        s, _, a, b = pairs[k]
        reach(s)
        rows = np.flatnonzero((labels[s] == a) | (labels[s] == b))
        training[k] = rows, np.where(labels[s][rows] == a, 1.0, -1.0)
        return held[s][rows], training[k][1]

    def result():
        """The next machine the pool ends, or None."""
        with _overflow_named(ModelKind.Svm, held.values()):
            return next(pool, None)

    def ready() -> Iterator[_SvmImpl]:
        nonlocal yielded
        while yielded < reached and not left[yielded]:
            yield impls.pop(yielded)
            yielded += 1

    counts = [np.bincount(y) for y in labels]
    pool = _smo_pool([int(counts[s][a] + counts[s][b]) for s, _, a, b in pairs], load, C,
                     _SMO_TOL)
    while (done := result()) is not None:
        k, (alphas, bias, steps, converged) = done
        s, i, a, b = pairs[k]
        rows, y = training.pop(k)
        sv = alphas > 0
        impl = impls[s]
        impl.machines[i] = a, b, held[s][rows[sv]], alphas[sv] * y[sv], bias
        impl.steps[i] = steps
        impl.budget_hits += not converged
        left[s] -= 1
        if not left[s]:
            del held[s]
        yield from ready()
    reach(len(labels) - 1)
    yield from ready()


# ---------------------------------------------------------------------------
# Uniform contract
# ---------------------------------------------------------------------------

@dataclass
class TrainedModel:
    spec: ModelSpec
    impl: object
    n_features: int

    @property
    def svm_pairs(self) -> int:
        """One-vs-one SVM machines trained; 0 for the other models."""
        return len(self.impl.steps) if isinstance(self.impl, _SvmImpl) else 0

    @property
    def svm_budget_hits(self) -> int:
        """SVM machines that stopped at the SMO step budget; 0 for the other models."""
        return self.impl.budget_hits if isinstance(self.impl, _SvmImpl) else 0

    @property
    def svm_steps(self) -> int:
        """SMO steps summed over the SVM machines; 0 for the other models."""
        return sum(self.impl.steps) if isinstance(self.impl, _SvmImpl) else 0

    @property
    def converged(self) -> bool:
        return self.svm_budget_hits == 0


@contextmanager
def _overflow_named(kind: ModelKind, matrices: Iterable[np.ndarray]):
    """Run the block with NumPy's overflow and invalid-value errors raised, for naive Bayes,
    KNN and the SVM, whose sums and products of features can overflow on finite input (the
    trees only compare values): either raises SchemaError naming the model and the column
    of largest magnitude in `matrices`, read when the error is raised."""
    if kind in (ModelKind.DecisionTree, ModelKind.Bagging):
        yield
        return
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        column = int(np.max([np.abs(X).max(axis=0) for X in matrices], axis=0).argmax())
        raise SchemaError(f"feature column {column} is too large for model {kind.value}: "
                          "its arithmetic on the features overflows") from None


def _training_matrix(X, y) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("training matrix must be non-empty and 2-D")
    if len(np.asarray(y)) != len(X):
        raise DimensionMismatch("X and y lengths differ")
    if not np.all(np.isfinite(X)):
        raise ValueError("training matrix contains non-finite values")
    return X


def _class_codes(y) -> np.ndarray:
    y = np.asarray(y)
    if y.dtype.kind not in "biuf" or not np.all(np.isfinite(y) & (y >= 0) & (np.trunc(y) == y)):
        raise ValueError("labels must be non-negative integer class codes")
    return y.astype(int, copy=False)


def train(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> TrainedModel:
    X = _training_matrix(X, y)  # the matrix's errors come before the labels'
    y = _class_codes(y)
    if spec.kind is ModelKind.Svm:
        impl = next(_fit_svms(spec.C, [y], lambda _: X))
    else:
        impl = {ModelKind.DecisionTree: lambda: _TreesImpl(1, None, spec.max_splits),
                ModelKind.NaiveBayes: _NaiveBayesImpl,
                ModelKind.Knn: lambda: _KnnImpl(spec.k),
                ModelKind.Bagging: lambda: _TreesImpl(spec.n_learners, spec.seed, None),
                }[spec.kind]()
        with _overflow_named(spec.kind, [X]):
            impl.fit(X, y)
    return TrainedModel(spec=spec, impl=impl, n_features=X.shape[1])


def train_all(spec: ModelSpec, labels: list, matrix) -> Iterator[TrainedModel]:
    """Yield an SVM of `spec` for each split s in order, trained on (matrix(s), labels[s])
    as `train` trains it alone, every one-vs-one machine of every split in one SMO pool
    (`_fit_svms`). matrix(s) is called once per split, in split order, and is kept only
    while the split's machines train. Any other kind raises ValueError: it trains split
    by split, through `train`."""
    if spec.kind is not ModelKind.Svm:
        raise ValueError(f"train_all trains the SVM only, not {spec.kind.value}")
    labels = [_class_codes(y) for y in labels]
    widths = []

    def checked(s: int) -> np.ndarray:
        X = _training_matrix(matrix(s), labels[s])
        widths.append(X.shape[1])
        return X

    return (TrainedModel(spec=spec, impl=impl, n_features=widths[s])
            for s, impl in enumerate(_fit_svms(spec.C, labels, checked)))


def predict_batch(model: TrainedModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected width {model.n_features}, got {X.shape[1] if X.ndim == 2 else '?'}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("prediction matrix contains non-finite values")
    with _overflow_named(model.spec.kind, [X]):
        return model.impl.predict_batch(X)
