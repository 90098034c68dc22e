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

from .corpus import WordInstance
from .errors import ConfigError, DegenerateData, ShapeError
from .lexicon import StressLevel

# stress level -> ordinal rank
_LEVEL_TO_RANK = {StressLevel.NON_STRESS: 0, StressLevel.SECONDARY: 1,
                  StressLevel.PRIMARY: 2}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def _ordinal_nll_grad(beta: np.ndarray, theta: np.ndarray, X: np.ndarray,
                      ranks: np.ndarray, lam: float):
    """Penalized NLL and gradients for the proportional-odds likelihood.

    theta is parameterized as (t0, log gap) so the two cut points stay
    strictly increasing throughout optimization.
    """
    n = X.shape[0]
    t0 = theta[0]
    t1 = t0 + np.exp(theta[1])
    z = X @ beta
    # F(a_r - z) - F(a_{r-1} - z) with a_{-1} = -inf, a_2 = +inf
    upper = np.where(ranks == 0, t0 - z, np.where(ranks == 1, t1 - z, np.inf))
    lower = np.where(ranks == 0, -np.inf, np.where(ranks == 1, t0 - z, t1 - z))
    Fu = _sigmoid(upper)
    Fl = _sigmoid(lower)
    lik = np.clip(Fu - Fl, 1e-12, None)
    nll = -np.log(lik).sum() / n + 0.5 * lam * float(beta @ beta)

    fu = Fu * (1.0 - Fu)  # logistic pdf at the cut points
    fl = Fl * (1.0 - Fl)
    inv = 1.0 / lik
    # d nll / dz and d nll / d cut points
    dz = (fu - fl) * inv / n
    dbeta = X.T @ dz + lam * beta
    du = -fu * inv / n  # d nll / d upper cut
    dl = fl * inv / n   # d nll / d lower cut
    dt0 = du[ranks == 0].sum() + dl[ranks == 1].sum()
    dt1 = du[ranks == 1].sum() + dl[ranks == 2].sum()
    dtheta = np.array([dt0 + dt1, dt1 * np.exp(theta[1])])
    return nll, dbeta, dtheta


def train_ordinal(X: np.ndarray, labels, lam: float = 1e-4, seed: int = 0,
                  n_iter: int = 500, lr: float = 0.5) -> OrdinalModel:
    """Fit by full-batch gradient descent on the penalized ordinal NLL.

    Deterministic for a given seed (the seed only sets the start point).
    """
    X = np.asarray(X, dtype=np.float64)
    ranks = np.array([_LEVEL_TO_RANK[StressLevel(int(y))] for y in labels])
    if len(set(ranks.tolist())) < 2:
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
        _, dbeta, dtheta = _ordinal_nll_grad(beta, theta, X, ranks, lam)
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
    n_trees: int
    max_depth: int
    features_per_split: int

    def vote_shares(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        rows = np.arange(n)
        votes = np.zeros((n, 3))
        for tree in self.trees:
            node = np.zeros(n, dtype=np.int64)
            for _ in range(self.max_depth + 1):
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


def _gini_best_split(X: np.ndarray, y: np.ndarray, feature_ids: np.ndarray):
    """Best (feature, threshold) by Gini impurity decrease, or None.

    Candidate thresholds are the left-hand observed values at class
    boundaries; the split predicate is x <= threshold.
    """
    n = y.shape[0]
    total = np.bincount(y, minlength=3).astype(np.float64)
    best = None
    best_score = np.inf  # weighted child impurity; lower is better
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        onehot = np.zeros((n, 3))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        # split after position i is valid when xs[i] < xs[i+1]
        valid = np.nonzero(xs[:-1] < xs[1:])[0]
        if valid.size == 0:
            continue
        nl = (valid + 1).astype(np.float64)
        nr = n - nl
        cl = cum[valid]
        cr = total[None, :] - cl
        gini_l = 1.0 - ((cl / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((cr / nr[:, None]) ** 2).sum(axis=1)
        score = (nl * gini_l + nr * gini_r) / n
        k = int(np.argmin(score))
        if score[k] < best_score - 1e-12:
            best_score = score[k]
            best = (int(f), float(xs[valid[k]]))
    if best is None:
        return None
    parent_gini = 1.0 - ((total / n) ** 2).sum()
    if best_score >= parent_gini - 1e-12:
        return None
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, m_features: int,
               rng: np.random.Generator) -> TreeNodes:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def new_node(idx: np.ndarray) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.bincount(y[idx], minlength=3).astype(np.int64))
        return node

    def build(idx: np.ndarray, depth: int) -> int:
        node = new_node(idx)
        c = counts[node]
        if depth >= max_depth or int((c > 0).sum()) <= 1:
            return node
        cand = rng.choice(X.shape[1], size=m_features, replace=False)
        found = _gini_best_split(X[idx], y[idx], np.sort(cand))
        if found is None:
            return node
        f, thr = found
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
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
    return ForestModel(trees, n_trees, max_depth, m)


# --- shared scoring -----------------------------------------------------------

def flatten(instances: list[WordInstance], k: int) -> tuple[np.ndarray, np.ndarray]:
    """One row per syllable, in word order: features[:k] as (n, k)
    and the gold labels as (n,). No instances give (0, k) and (0,)."""
    if not instances:
        return np.zeros((0, k)), np.zeros(0, dtype=np.int64)
    return (np.concatenate([inst.features[:, :k] for inst in instances]),
            np.concatenate([inst.labels for inst in instances]))


def scores(model, X: np.ndarray) -> np.ndarray:
    """(n, 3) class scores in StressLevel order for n syllable rows: ordinal
    probabilities or forest vote shares. Their argmax breaks ties toward
    the lowest class."""
    if isinstance(model, OrdinalModel):
        return model.class_probs(X)
    if isinstance(model, ForestModel):
        return model.vote_shares(X)
    raise ShapeError(f"unknown baseline model type {type(model)!r}")
