"""Per-syllable baselines: proportional-odds ordinal regression and a
random forest, both over a single syllable's feature vector.

These models see no context — each syllable is classified from its own
features alone, which is exactly the structural handicap the attention
model removes. The ordinal order is NonStress < Secondary < Primary
(ordered by prominence); internally classes are mapped to ranks 0/1/2 on
that scale and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateData, LabelError, ShapeError
from .lexicon import StressLevel

# stress level -> ordinal rank
_LEVEL_TO_RANK = {StressLevel.NON_STRESS: 0, StressLevel.SECONDARY: 1,
                  StressLevel.PRIMARY: 2}
# the same, indexed by the level's value
_RANK_OF_LEVEL = np.array([_LEVEL_TO_RANK[lv] for lv in StressLevel])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) below, with
    exp(-|z|) standing for both exponentials, so neither overflows. (It is
    taken as min(z, -z), which keeps a NaN's sign bit, as exp(z) does.)"""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        return rank_probs[:, [_LEVEL_TO_RANK[lv] for lv in StressLevel]]


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


def _ordinal_nll_grad(beta: np.ndarray, theta: np.ndarray, X: np.ndarray,
                      lam: float, groups: _RankGroups):
    """Penalized NLL and gradients for the proportional-odds likelihood.

    theta is parameterized as (t0, log gap) so the two cut points stay
    strictly increasing throughout optimization. groups is _RankGroups of
    the rows' ranks, which train_ordinal builds once for all its steps.
    The per-row terms are taken in grouped order; the gradient is
    bit-identical to taking them in row order, the NLL is their sum in
    grouped order.
    """
    n0, n1, n2 = groups.sizes
    n = X.shape[0]
    t0 = theta[0]
    t1 = t0 + np.exp(theta[1])
    z = X @ beta
    # F(a_r - z) - F(a_{r-1} - z) with a_{-1} = -inf, a_2 = +inf:
    # F(+inf) = 1 and F(-inf) = 0, as _sigmoid gives them
    F = np.empty(2 * n)
    F[:n2] = 1.0
    F[2 * n - n0:] = 0.0
    F[n2:2 * n - n0] = _sigmoid(np.where(groups.upper_t1, t1, t0) - z[groups.rows])
    Fu, Fl = F[:n], F[n:]
    lik = np.clip(Fu - Fl, 1e-12, None)
    nll = -np.log(lik).sum() / n + 0.5 * lam * float(beta @ beta)

    fu = Fu * (1.0 - Fu)  # logistic pdf at the cut points
    fl = Fl * (1.0 - Fl)
    inv = 1.0 / lik
    # d nll / dz, back in row order, and d nll / d cut points
    dz = ((fu - fl) * inv / n)[groups.position]
    dbeta = X.T @ dz + lam * beta
    du = -fu * inv / n  # d nll / d upper cut
    dl = fl * inv / n   # d nll / d lower cut
    r2, r1 = slice(0, n2), slice(n2, n2 + n1)
    r0 = slice(n2 + n1, n)
    dt0 = du[r0].sum() + dl[r1].sum()
    dt1 = du[r1].sum() + dl[r2].sum()
    dtheta = np.array([dt0 + dt1, dt1 * np.exp(theta[1])])
    return nll, dbeta, dtheta


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
    rng = np.random.default_rng(seed)
    beta = rng.normal(0.0, 0.01, X.shape[1])
    theta = np.array([-0.5, 0.0])
    # simple adaptive-moment steps; full batch, so no shuffling involved
    mb = np.zeros_like(beta)
    vb = np.zeros_like(beta)
    mt = np.zeros_like(theta)
    vt = np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, n_iter + 1):
        _, dbeta, dtheta = _ordinal_nll_grad(beta, theta, X, lam, groups)
        mb = b1 * mb + (1 - b1) * dbeta
        vb = b2 * vb + (1 - b2) * dbeta ** 2
        mt = b1 * mt + (1 - b1) * dtheta
        vt = b2 * vt + (1 - b2) * dtheta ** 2
        beta -= lr * (mb / (1 - b1 ** t)) / (np.sqrt(vb / (1 - b2 ** t)) + eps)
        theta -= lr * (mt / (1 - b1 ** t)) / (np.sqrt(vt / (1 - b2 ** t)) + eps)
    t0, t1 = theta[0], theta[0] + np.exp(theta[1])
    return OrdinalModel(beta, np.array([t0, t1]))


# --- random forest -----------------------------------------------------------

@dataclass
class TreeNodes:
    """Flat array representation of one decision tree.

    feature < 0 marks a leaf; 'left' child takes x[feature] <= threshold.
    Thresholds are observed training values, so any strictly monotone
    per-feature transformation applied to train and test alike leaves
    every routing decision unchanged.
    """

    feature: np.ndarray    # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64
    right: np.ndarray      # (n_nodes,) int64
    counts: np.ndarray     # (n_nodes, 3) int64 class counts at the node


@dataclass
class ForestModel:
    trees: list[TreeNodes]
    max_depth: int
    features_per_split: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def vote_shares(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        rows = np.arange(n)
        votes = np.zeros((n, 3))
        for tree in self.trees:
            node = np.zeros(n, dtype=np.int64)
            # ends at a leaf: every tree's child ids exceed their parent's
            while True:
                f = tree.feature[node]
                inner = f >= 0
                if not inner.any():
                    break
                go_left = np.zeros(n, dtype=bool)
                go_left[inner] = (x[rows[inner], f[inner]]
                                  <= tree.threshold[node[inner]])
                node = np.where(inner,
                                np.where(go_left, tree.left[node],
                                         tree.right[node]),
                                node)
            leaf_class = tree.counts[node].argmax(axis=1)
            votes[rows, leaf_class] += 1.0
        return votes / len(self.trees)


_CLASSES = np.arange(3)[:, None, None]


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

    Keep the Gini arithmetic in this order: the tests require trees equal,
    bit for bit, to those of a grower that sorts each candidate per node.
    """
    rows = lists[cand]  # (m, n): each candidate's samples in value order
    n = rows.shape[1]
    xs = X[rows, cand[:, None]]
    # class counts left of the split after each position: (3, m, n - 1)
    cl = np.cumsum(y[rows[:, :-1]] == _CLASSES, axis=2, dtype=np.float64)
    nl = np.arange(1.0, n)
    nr = n - nl
    q = cl / nl
    q *= q
    gini_l = 1.0 - (q[0] + q[1] + q[2])
    np.subtract(total[:, None, None], cl, out=q)  # class counts on the right
    q /= nr
    q *= q
    gini_r = 1.0 - (q[0] + q[1] + q[2])
    score = np.where(xs[:, :-1] < xs[:, 1:],
                     (nl * gini_l + nr * gini_r) / n, np.inf)
    at = score.argmin(axis=1)
    best, best_score = -1, np.inf
    for j, s in enumerate(score.min(axis=1).tolist()):
        if s < best_score - 1e-12:
            best, best_score = j, s
    if best < 0 or best_score >= 1.0 - ((total / n) ** 2).sum() - 1e-12:
        return None
    k = at[best]
    in_left = np.zeros(X.shape[0], dtype=bool)
    in_left[rows[best, :k + 1]] = True
    goes_left = in_left[lists]
    left_total = cl[:, best, k].astype(np.int64)
    K = lists.shape[0]
    return (int(cand[best]), float(xs[best, k]),
            (lists[goes_left].reshape(K, k + 1), left_total),
            (lists[~goes_left].reshape(K, n - k - 1), total - left_total))


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, m_features: int,
               rng: np.random.Generator) -> TreeNodes:
    """One Gini tree on the sample (X, y), its nodes numbered in pre-order.

    A node that is impure and above max_depth draws m_features candidate
    features and splits as _split_node finds, or stays a leaf.

    Each feature is sorted once per tree (SLIQ's presorted attribute
    lists, Mehta et al. 1996): a node holds, for every feature, its sample
    ids ordered by value and then by id, which is the order a stable sort
    of the node's own rows gives, and a split keeps that order in both
    children. An explicit stack grows the left child first; only pending
    right siblings wait on it, and they hold disjoint samples.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []
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
    return TreeNodes(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.stack(counts).astype(np.int64),
    )


def train_forest(X: np.ndarray, labels, n_trees: int = 100,
                 max_depth: int = 12, seed: int = 0) -> ForestModel:
    """Bootstrap-sampled Gini trees, ceil(sqrt(K)) features per split."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray([int(v) for v in labels], dtype=np.int64)
    if X.shape[0] == 0:
        raise DegenerateData("empty training set")
    if X.ndim != 2 or y.shape[0] != X.shape[0]:
        raise ShapeError("X must be (n, K) with matching labels")
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    if max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
    m = int(np.ceil(np.sqrt(X.shape[1])))
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    n = X.shape[0]
    for s in seeds:
        rng = np.random.default_rng(s)
        boot = rng.integers(0, n, n)
        trees.append(_grow_tree(X[boot], y[boot], max_depth, m, rng))
    return ForestModel(trees, max_depth, m)

