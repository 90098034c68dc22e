"""Per-syllable baselines: proportional-odds ordinal regression and a
random forest, both over a single syllable's feature vector.

These models see no context — each syllable is classified from its own
features alone, which is exactly the structural handicap the attention
model removes. The ordinal order is NonStress < Secondary < Primary
(ordered by prominence); internally classes are mapped to ranks 0/1/2 on
that scale and back.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateData,
    LabelError,
    NumericalInstability,
    ShapeError,
)
from ._workers import map_jobs
from .lexicon import StressLevel

# stress level -> ordinal rank, indexed by the level's value: the ranks
# order the levels NonStress (0) < Secondary (1) < Primary (2)
_RANK_OF_LEVEL = np.array([0, 2, 1])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) below, with
    exp(-|z|) standing for both exponentials, so neither overflows. (It is
    taken as min(z, -z), which keeps a NaN's sign bit, as exp(z) does.)"""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass
class OrdinalModel:
    """Proportional-odds model: P(rank <= r) = sigmoid(theta_r - x.beta)."""

    coefficients: np.ndarray  # (K,)
    thresholds: np.ndarray    # (2,), strictly increasing

    def class_probs(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in StressLevel order (NonStress, Primary, Secondary)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.coefficients.shape[0]:
            raise ShapeError(
                f"expected {self.coefficients.shape[0]} features, got {x.shape[1]}")
        z = x @ self.coefficients
        c0 = _sigmoid(self.thresholds[0] - z)
        c1 = _sigmoid(self.thresholds[1] - z)
        rank_probs = np.stack([c0, c1 - c0, 1.0 - c1], axis=1)
        return rank_probs[:, _RANK_OF_LEVEL]


class _RankGroups:
    """The rows of a rank vector grouped by rank, in the order 2, 1, 0, each
    group in row order. Each row has an upper cut point (theta_r, or +inf
    at rank 2) and a lower one (theta_{r-1}, or -inf at rank 0). Laid end to
    end, the upper cut CDFs of all rows and then the lower ones are
    [1 ... 1 | F(t1 - z) rank 1 | F(t0 - z) rank 0 |
     F(t1 - z) rank 2 | F(t0 - z) rank 1 | 0 ... 0],
    so the finite ones are one slice, computed from the rows in ``rows``
    against the cut t1 where ``upper_t1`` holds, else t0."""

    def __init__(self, ranks: np.ndarray):
        i0, i1, i2 = (np.flatnonzero(ranks == r) for r in range(3))
        self.sizes = (len(i0), len(i1), len(i2))
        self.rows = np.concatenate([i1, i0, i2, i1])
        self.upper_t1 = np.repeat([True, False, True, False],
                                  [len(i1), len(i0), len(i2), len(i1)])
        # where each row sits in the grouped order
        self.position = np.empty(len(ranks), dtype=np.int64)
        self.position[np.concatenate([i2, i1, i0])] = np.arange(len(ranks))


def _ordinal_grad(w: np.ndarray, X: np.ndarray, lam: float,
                  groups: _RankGroups) -> np.ndarray:
    """Gradient of the penalized proportional-odds NLL at w = (beta, t0,
    log gap), as one (k + 2,) array.

    The cut points are t0 and t1 = t0 + exp(log gap), so they stay strictly
    increasing throughout optimization. groups is _RankGroups of the rows'
    ranks, which train_ordinal builds once for all its steps. The per-row
    terms are taken in grouped order; the gradient is bit-identical to
    taking them in row order.
    """
    n0, n1, n2 = groups.sizes
    n, k = X.shape
    beta, t0 = w[:k], w[k]
    gap = np.exp(w[k + 1])
    t1 = t0 + gap
    z = X @ beta
    # F(a_r - z) - F(a_{r-1} - z) with a_{-1} = -inf, a_2 = +inf:
    # F(+inf) = 1 and F(-inf) = 0, as _sigmoid gives them
    F = np.empty(2 * n)
    F[:n2] = 1.0
    F[2 * n - n0:] = 0.0
    F[n2:2 * n - n0] = _sigmoid(np.where(groups.upper_t1, t1, t0) - z[groups.rows])
    lik = np.clip(F[:n] - F[n:], 1e-12, None)
    f = F * (1.0 - F)  # logistic pdf at the cut points
    fu, fl = f[:n], f[n:]
    inv = 1.0 / lik
    g = np.empty(k + 2)
    # d nll / d beta, from d nll / dz back in row order
    g[:k] = X.T @ ((fu - fl) * inv / n)[groups.position] + lam * beta
    # d nll / d upper cut on ranks 1, 0 and d nll / d lower cut on ranks 2, 1
    du = -fu[n2:] * inv[n2:] / n
    dl = fl[:n2 + n1] * inv[:n2 + n1] / n
    dt0 = du[n1:].sum() + dl[n2:].sum()
    dt1 = du[:n1].sum() + dl[:n2].sum()
    g[k] = dt0 + dt1
    g[k + 1] = dt1 * gap
    return g


def train_ordinal(X: np.ndarray, labels, lam: float = 1e-4, seed: int = 0,
                  n_iter: int = 500, lr: float = 0.5) -> OrdinalModel:
    """Fit by full-batch gradient descent on the penalized ordinal NLL.

    Deterministic for a given seed (the seed only sets the start point).
    """
    X = np.asarray(X, dtype=np.float64)
    levels = np.asarray(labels, dtype=np.int64)
    if not ((levels >= 0) & (levels < len(StressLevel))).all():
        raise LabelError("ordinal labels must be stress levels 0, 1 or 2")
    groups = _RankGroups(_RANK_OF_LEVEL[levels])
    if sum(size > 0 for size in groups.sizes) < 2:
        raise DegenerateData("ordinal fit needs at least 2 distinct classes")
    k = X.shape[1]
    rng = np.random.default_rng(seed)
    w = np.concatenate([rng.normal(0.0, 0.01, k), [-0.5, 0.0]])
    # simple adaptive-moment steps; full batch, so no shuffling involved
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, n_iter + 1):
        g = _ordinal_grad(w, X, lam, groups)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g ** 2
        w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    beta, t0 = w[:k], w[k]
    thresholds = np.array([t0, t0 + np.exp(w[k + 1])])
    if not (np.isfinite(beta).all() and np.isfinite(thresholds).all()):
        raise NumericalInstability("the ordinal fit is not finite")
    return OrdinalModel(beta, thresholds)


# --- random forest -----------------------------------------------------------

# ForestModel's per-node arrays, in field order
NODE_ARRAYS = ("feature", "threshold", "left", "right", "counts")
# vote_shares walks this many rows at a time: on a 50-tree forest of 63k
# nodes and 182,508 rows, its traced peak fell from 714 to 36 MiB, and its
# time from 6.2 to 3.8 s, against all rows at once
SCORE_ROWS = 8_192
# a fit of fewer trees times rows grows its trees in this process; with 2
# workers, 2 trees of 1,000 rows took 31 ms serial and 39 ms forked, and
# 2 of 2,000 rows 61 and 55 ms
FORK_MIN_ROWS = 4_000


@dataclass
class ForestModel:
    """A random forest as one set of node arrays: tree t owns the nodes
    tree_offsets[t]:tree_offsets[t + 1], its child ids counted from the first.

    feature < 0 marks a leaf; the left child takes x[feature] <= threshold.
    Thresholds are observed training values, so any strictly monotone
    per-feature transformation applied to train and test alike leaves
    every routing decision unchanged.
    """

    feature: np.ndarray       # (n_nodes,) int64
    threshold: np.ndarray     # (n_nodes,) float64
    left: np.ndarray          # (n_nodes,) int64, tree-local
    right: np.ndarray         # (n_nodes,) int64, tree-local
    counts: np.ndarray        # (n_nodes, 3) int64 class counts at the node
    tree_offsets: np.ndarray  # (n_trees + 1,) int64
    max_depth: int
    features_per_split: int

    @property
    def n_trees(self) -> int:
        return len(self.tree_offsets) - 1

    @property
    def trees(self) -> list[ForestModel]:
        """Each tree as a one-tree ForestModel of slices (no copies). Only
        perfbench's tracer reads this, to count nodes; it goes with the
        tracer (ROADMAP item 3)."""
        ends = self.tree_offsets.tolist()
        return [ForestModel(*(getattr(self, a)[lo:hi] for a in NODE_ARRAYS),
                            np.array([0, hi - lo]), self.max_depth,
                            self.features_per_split)
                for lo, hi in zip(ends, ends[1:])]

    @functools.cached_property
    def _leaf_class(self) -> np.ndarray:
        """Each node's vote, its most frequent class, the lowest on a tie;
        taken once per model, as over 63k nodes it takes about 1.3 ms,
        several times the walk of one word."""
        return self.counts.argmax(axis=1)

    def vote_shares(self, x: np.ndarray) -> np.ndarray:
        """Each row's share of tree votes per class; a leaf votes for its
        most frequent class, the lowest on a tie. SCORE_ROWS rows at a
        time, all trees at once: one pass per depth level over a chunk's
        (row, tree) pairs. Votes are integers, so the shares do not depend
        on the chunk size."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n, t = x.shape[0], self.n_trees
        leaf_class = self._leaf_class
        votes = np.empty((n, 3), dtype=np.int64)
        for lo in range(0, n, SCORE_ROWS):
            chunk = x[lo:lo + SCORE_ROWS]
            # pair i is row i // t of the chunk in tree i % t; node holds
            # global node ids
            first = np.tile(self.tree_offsets[:-1], len(chunk))
            node = first.copy()
            pairs = walking = np.arange(len(node))
            # ends at a leaf: every tree's child ids exceed their parent's
            while walking.size:
                at = node[walking]
                f = self.feature[at]
                inner = f >= 0
                walking, at, f = walking[inner], at[inner], f[inner]
                go_left = chunk[walking // t, f] <= self.threshold[at]
                node[walking] = first[walking] + np.where(
                    go_left, self.left[at], self.right[at])
            votes[lo:lo + len(chunk)] = np.bincount(
                pairs // t * 3 + leaf_class[node],
                minlength=3 * len(chunk)).reshape(-1, 3)
        return votes / t


_CLASSES = np.arange(3)[:, None, None]


def _best_split(X: np.ndarray, y: np.ndarray, lists: np.ndarray,
                total: np.ndarray, cand: np.ndarray):
    """_split_node's search: (j, k, threshold, left class counts) of the
    node's best split, between positions k and k + 1 of candidate cand[j],
    or None. Every per-position array is local, so all are freed on return.

    The class counts left and right of each position are int32, exact for
    a node of fewer than 2**31 samples: the left counts are a cumsum, the
    right ones total minus the left. Dividing an int32 count by a float64
    size gives the float64 share that a float64 count gave, and the Gini
    and score terms are then computed in place, left and right stacked in
    two (2, m, n - 1) float64 buffers, with the same IEEE operations in the
    same order as the formula they replace:
    gini = 1 - ((c0 / s)**2 + (c1 / s)**2 + (c2 / s)**2) per side, s being
    the side's size nl or nr = n - nl, and score = (nl * gini_l + nr *
    gini_r) / n.
    """
    rows = lists[cand]  # (m, n): each candidate's samples in value order
    m, n = rows.shape
    xs = X[rows, cand[:, None]]
    # distinct neighbours; `<` is False next to a NaN, so no split there
    apart = xs[:, :-1] < xs[:, 1:]
    # class counts after each position: counts[c, 0] left, counts[c, 1] right
    counts = np.empty((3, 2, m, n - 1), dtype=np.int32)
    np.add.accumulate(y[rows[:, :-1]] == _CLASSES, axis=2, dtype=np.int32,
                      out=counts[:, 0])
    del rows, xs  # freed before the float buffers are made
    np.subtract(total[:, None, None], counts[:, 0], out=counts[:, 1],
                dtype=np.int32)
    nl = np.arange(1.0, n)
    sizes = np.array([nl, nl[::-1]])[:, None, :]  # nl[::-1] is n - nl
    # two blocks, not one of twice the size: glibc gave the larger back to
    # the OS after each node, and a 4-tree fit in the CLI took 3,336 minor
    # page faults against 1,527
    gini = np.empty((2, m, n - 1))
    share = np.empty((2, m, n - 1))
    for c in range(3):
        dst = share if c else gini
        np.divide(counts[c], sizes, out=dst)
        dst *= dst
        if c:
            gini += share
    np.subtract(1.0, gini, out=gini)
    gini *= sizes
    score = gini[0]
    score += gini[1]
    score /= n
    np.copyto(score, np.inf, where=~apart)
    at = score.argmin(axis=1)
    best, best_score = -1, np.inf
    for j, s in enumerate(score.min(axis=1).tolist()):
        if s < best_score - 1e-12:
            best, best_score = j, s
    if best < 0 or best_score >= 1.0 - ((total / n) ** 2).sum() - 1e-12:
        return None
    k = int(at[best])
    return (best, k, float(X[lists[cand[best], k], cand[best]]),
            counts[:, 0, best, k].astype(np.int64))


def _split_node(X: np.ndarray, y: np.ndarray, lists: np.ndarray,
                total: np.ndarray, cand: np.ndarray):
    """The node's best split on one of the candidate features, or None.

    (X, y) is the tree's sample; lists (K, n) holds the node's sample ids
    for each feature in split order, total its class counts, and cand the
    candidates in ascending order. Each candidate's best split is the one
    of least weighted child Gini impurity, first in value order, between
    two consecutive distinct values; the threshold is the left value and
    the predicate x <= threshold. A candidate must beat the earlier ones
    by more than 1e-12, and the best split must beat the node's own
    impurity by as much. Returns (feature, threshold, left, right), each
    child as its (lists, class counts).

    While _best_split searches, the node's lists, its (3, 2, m, n - 1)
    int32 class counts (exact below 2**31 samples) and two (2, m, n - 1)
    float64 buffers are alive. It returns only the split, so those are
    freed before the children's lists are cut: while this cuts, the node's
    lists, the children's lists and one (K, n) bool mask are alive. Keep
    the Gini arithmetic in _best_split as it is: the tests require trees
    equal, bit for bit, to those of a grower that sorts each candidate per
    node.
    """
    found = _best_split(X, y, lists, total, cand)
    if found is None:
        return None
    j, k, threshold, left_total = found
    in_left = np.zeros(X.shape[0], dtype=bool)
    in_left[lists[cand[j], :k + 1]] = True
    # each child's lists, row by row, picked from the flat lists at once
    ids = lists.ravel()
    goes_left = in_left[ids]
    K, n = lists.shape
    return (int(cand[j]), threshold,
            (np.compress(goes_left, ids).reshape(K, k + 1), left_total),
            (np.compress(~goes_left, ids).reshape(K, n - k - 1),
             total - left_total))


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, m_features: int,
               rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One Gini tree on the sample (X, y), its nodes numbered in pre-order,
    as its ForestModel columns: feature, threshold, left, right, counts.

    A node that is impure and above max_depth draws m_features candidate
    features and splits as _split_node finds, or stays a leaf.

    Each feature is sorted once per tree (SLIQ's presorted attribute
    lists, Mehta et al. 1996): a node holds, for every feature, its sample
    ids ordered by value and then by id, which is the order a stable sort
    of the node's own rows gives, and a split keeps that order in both
    children. An explicit stack grows the left child first; only pending
    right siblings wait on it, and they hold disjoint samples.

    So the lists alive at a split, the node's and the pending siblings',
    hold at most the tree's K * n sample ids. Splitting a node of n_node
    samples adds, first, _best_split's arrays: (3, 2, m, n_node - 1) int32
    class counts (exact below 2**31 samples) and two (2, m, n_node - 1)
    float64 buffers; then, with those freed, the children's lists (K *
    n_node ids) and a K * n_node bool mask.
    """
    feature, threshold, left, right, counts = [], [], [], [], []
    # (sample ids per feature, class counts, depth, the parent's child
    #  list to link into, the parent)
    stack = [(np.argsort(X.T, axis=1, kind="stable"),
              np.bincount(y, minlength=3), 0, None, -1)]
    while stack:
        lists, total, depth, link, parent = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(total)
        if depth >= max_depth or np.count_nonzero(total) <= 1:
            continue
        cand = rng.choice(X.shape[1], size=m_features, replace=False)
        cand.sort()
        found = _split_node(X, y, lists, total, cand)
        if found is None:
            continue
        feature[node], threshold[node], left_child, right_child = found
        stack.append((*right_child, depth + 1, right, node))
        stack.append((*left_child, depth + 1, left, node))
    return (np.asarray(feature, dtype=np.int64), np.asarray(threshold),
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
            np.stack(counts).astype(np.int64))


def _grow_seeded(seed: np.random.SeedSequence, X: np.ndarray, y: np.ndarray,
                 max_depth: int, m_features: int) -> tuple[np.ndarray, ...]:
    """The tree that seed grows: its bootstrap sample of (X, y), then
    _grow_tree on it with the same generator."""
    rng = np.random.default_rng(seed)
    boot = rng.integers(0, len(y), len(y))
    return _grow_tree(X[boot], y[boot], max_depth, m_features, rng)


def train_forest(X: np.ndarray, labels, n_trees: int = 100,
                 max_depth: int = 12, seed: int = 0) -> ForestModel:
    """Bootstrap-sampled Gini trees, ceil(sqrt(K)) features per split.

    Tree i depends only on (X, labels, seed, i): each tree draws from its
    own SeedSequence child. So the trees grow in worker processes, one per
    CPU the process may run on and at most one per tree, or in this
    process below FORK_MIN_ROWS trees times rows, and the forest has the
    same bytes at any worker count."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray([int(v) for v in labels], dtype=np.int64)
    if X.shape[0] == 0:
        raise DegenerateData("empty training set")
    if X.ndim != 2 or y.shape[0] != X.shape[0]:
        raise ShapeError("X must be (n, K) with matching labels")
    if not ((y >= 0) & (y < len(StressLevel))).all():
        raise LabelError("forest labels must be stress levels 0, 1 or 2")
    if not 1 <= n_trees <= sys.maxsize:
        raise ConfigError(f"n_trees must be in [1, {sys.maxsize}], got {n_trees}")
    if max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
    m = int(np.ceil(np.sqrt(X.shape[1])))
    trees = map_jobs(_grow_seeded, np.random.SeedSequence(seed).spawn(n_trees),
                     (X, y, max_depth, m), serial=n_trees * len(y) < FORK_MIN_ROWS)
    columns = list(zip(*trees))
    offsets = np.cumsum([0, *map(len, columns[0])], dtype=np.int64)
    return ForestModel(*map(np.concatenate, columns), offsets, max_depth, m)
