import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressnet.baselines import (
    ForestModel,
    OrdinalModel,
    TreeNodes,
    _RankGroups,
    _grow_tree,
    _ordinal_nll_grad,
    _sigmoid,
    train_forest,
    train_ordinal,
)
from stressnet.corpus import GenConfig, instances_from_table, split, synth_corpus
from stressnet.errors import DegenerateData, ShapeError
from stressnet.lexicon import StressLevel


def ordinal_1d_data(rng, n=600):
    """Feature increases with ordinal rank NonStress < Secondary < Primary."""
    X = rng.uniform(0.0, 3.0, (n, 1))
    y = np.where(X[:, 0] < 1.0, int(StressLevel.NON_STRESS),
                 np.where(X[:, 0] < 2.0, int(StressLevel.SECONDARY),
                          int(StressLevel.PRIMARY)))
    return X, y


def syllable_rows(records, k):
    """The records' syllables as (n, k) features and (n,) labels."""
    instances = instances_from_table(records)
    return instances.features[:, :k], instances.labels


def corpus_syllables(lexicon, noise=0.0, n_utts=60, seed=2, k=12):
    _, recs = synth_corpus(lexicon, n_utts, GenConfig(noise=noise), seed=seed)
    return syllable_rows(recs, k)


class TestOrdinal:
    def test_separable_ordinal_heldout_perfect(self):
        rng = np.random.default_rng(0)
        X, y = ordinal_1d_data(rng)
        model = train_ordinal(X[:400], y[:400], seed=1)
        assert (model.class_probs(X[400:]).argmax(axis=1) == y[400:]).mean() == 1.0

    def test_heavy_regularization_collapses_to_majority(self):
        rng = np.random.default_rng(1)
        X, y = ordinal_1d_data(rng)
        # make NonStress the clear majority
        y[:300] = int(StressLevel.NON_STRESS)
        model = train_ordinal(X, y, lam=1e6, seed=0)
        assert np.abs(model.coefficients).max() < 1e-2
        preds = model.class_probs(X).argmax(axis=1)
        majority = np.bincount(y, minlength=3).argmax()
        assert (preds == majority).mean() > 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X, y = ordinal_1d_data(rng)
        m1 = train_ordinal(X, y, seed=9)
        m2 = train_ordinal(X, y, seed=9)
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert np.array_equal(m1.thresholds, m2.thresholds)

    def test_single_class_rejected(self):
        X = np.zeros((10, 3))
        y = [int(StressLevel.PRIMARY)] * 10
        with pytest.raises(DegenerateData):
            train_ordinal(X, y)

    def test_thresholds_strictly_increasing(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=1.0)
        model = train_ordinal(X, y, seed=3)
        assert model.thresholds[0] < model.thresholds[1]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (40, 5))
        ranks = rng.integers(0, 3, 40)
        beta = rng.normal(0, 0.5, 5)
        theta = np.array([-0.3, 0.2])
        lam = 0.01
        groups = _RankGroups(ranks)
        _, dbeta, dtheta = _ordinal_nll_grad(beta, theta, X, lam, groups)
        eps = 1e-6
        for i in range(5):
            b = beta.copy()
            b[i] += eps
            lp = _ordinal_nll_grad(b, theta, X, lam, groups)[0]
            b[i] -= 2 * eps
            lm = _ordinal_nll_grad(b, theta, X, lam, groups)[0]
            assert dbeta[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4)
        for i in range(2):
            t = theta.copy()
            t[i] += eps
            lp = _ordinal_nll_grad(beta, t, X, lam, groups)[0]
            t[i] -= 2 * eps
            lm = _ordinal_nll_grad(beta, t, X, lam, groups)[0]
            assert dtheta[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4)

    def test_monotone_in_positive_coefficient_direction(self):
        rng = np.random.default_rng(5)
        X, y = ordinal_1d_data(rng)
        model = train_ordinal(X, y, seed=1)
        assert model.coefficients[0] > 0
        grid = np.linspace(-5, 8, 400).reshape(-1, 1)
        rank_of = {int(StressLevel.NON_STRESS): 0,
                   int(StressLevel.SECONDARY): 1,
                   int(StressLevel.PRIMARY): 2}
        ranks = [rank_of[int(p)] for p in model.class_probs(grid).argmax(axis=1)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_zero_coefficients_constant_predictions(self):
        model = OrdinalModel(np.zeros(4), np.array([-1.0, 1.0]))
        p1 = model.class_probs(np.zeros(4))
        p2 = model.class_probs(np.full(4, 123.0))
        assert np.allclose(p1, p2)


class TestForest:
    def test_noiseless_corpus_training_accuracy(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=0.0)
        model = train_forest(X, y, n_trees=20, seed=1)
        assert (model.vote_shares(X).argmax(axis=1) == y).mean() == 1.0

    def test_single_tree_full_depth_is_a_decision_tree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (200, 4))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        model = train_forest(X, y, n_trees=1, max_depth=64, seed=2)
        assert len(model.trees) == 1
        # a single unrestricted tree fits its own bootstrap sample exactly;
        # vote shares are one-hot
        shares = model.vote_shares(X)
        assert np.all(np.isin(shares, (0.0, 1.0)))

    def test_deterministic(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=0.5, n_utts=20)
        m1 = train_forest(X, y, n_trees=10, seed=4)
        m2 = train_forest(X, y, n_trees=10, seed=4)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.counts, t2.counts)

    def test_monotone_transform_invariance(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=0.8, n_utts=20)
        n = len(y)
        X_train, y_train = X[:n // 2], y[:n // 2]
        X_test = X[n // 2:]
        before = train_forest(X_train, y_train, n_trees=15,
                              seed=5).vote_shares(X_test).argmax(axis=1)
        Xt = X.copy()
        Xt[:, 3] = np.exp(0.25 * Xt[:, 3])  # strictly monotone on one feature
        after = train_forest(Xt[:n // 2], y_train, n_trees=15,
                             seed=5).vote_shares(Xt[n // 2:]).argmax(axis=1)
        assert np.array_equal(before, after)

    def test_leaf_counts_nonzero(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=0.3, n_utts=10)
        model = train_forest(X, y, n_trees=5, seed=6)
        for tree in model.trees:
            leaves = tree.feature < 0
            assert np.all(tree.counts[leaves].sum(axis=1) > 0)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateData):
            train_forest(np.zeros((0, 3)), [])


class TestPredictBaseline:
    def test_unanimous_forest_vote(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(-3, 0.1, (50, 2)), rng.normal(3, 0.1, (50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        model = train_forest(X, y, n_trees=9, seed=8)
        (row,) = model.vote_shares(np.array([[3.0, 3.0]]))
        assert row.argmax() == StressLevel.PRIMARY
        assert row[1] == 1.0

    def test_tie_vote_lowest_class(self):
        # hand-built forest with two trees voting for different classes
        def stump(cls):
            from stressnet.baselines import TreeNodes
            counts = np.zeros((1, 3), dtype=np.int64)
            counts[0, cls] = 1
            return TreeNodes(np.array([-1]), np.array([0.0]),
                             np.array([-1]), np.array([-1]), counts)
        model = ForestModel([stump(2), stump(1)], 1, 1)
        (row,) = model.vote_shares(np.zeros((1, 3)))
        assert row.argmax() == StressLevel.PRIMARY  # classes 1 and 2 tie -> lower
        assert row[1] == row[2] == 0.5

    def test_shape_error(self):
        model = OrdinalModel(np.zeros(4), np.array([-1.0, 1.0]))
        with pytest.raises(ShapeError):
            model.class_probs(np.zeros((1, 7)))

    def test_scores_all_rows_at_once_as_row_by_row(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=1.0, n_utts=10)
        forest = train_forest(X, y, n_trees=5, seed=3)
        ordinal = train_ordinal(X, y, seed=3)
        batched_rf, batched_or = forest.vote_shares(X), ordinal.class_probs(X)
        assert batched_rf.shape == batched_or.shape == (len(y), 3)
        for i in range(len(y)):
            assert np.array_equal(batched_rf[i], forest.vote_shares(X[i])[0])
            assert np.abs(batched_or[i] - ordinal.class_probs(X[i])[0]).max() < 1e-12
        assert forest.vote_shares(np.zeros((0, 12))).shape == (0, 3)
        assert ordinal.class_probs(np.zeros((0, 12))).shape == (0, 3)


# --- the tree grower against the per-node oracle ------------------------------
#
# baselines._grow_tree sorts each feature once per tree. The oracle below is
# the grower it replaced: it sorts the node's rows for every candidate at
# every node. Both must give the same trees, bit for bit, and leave the
# generator in the same state.

def oracle_gini_best_split(X, y, feature_ids):
    n = y.shape[0]
    total = np.bincount(y, minlength=3).astype(np.float64)
    best = None
    best_score = np.inf
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        onehot = np.zeros((n, 3))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
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


def oracle_grow_tree(X, y, max_depth, m_features, rng):
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node(idx):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.bincount(y[idx], minlength=3).astype(np.int64))
        return node

    def build(idx, depth):
        node = new_node(idx)
        c = counts[node]
        if depth >= max_depth or int((c > 0).sum()) <= 1:
            return node
        cand = rng.choice(X.shape[1], size=m_features, replace=False)
        found = oracle_gini_best_split(X[idx], y[idx], np.sort(cand))
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


TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


def assert_grows_as_oracle(X, y, max_depth, m_features, n_trees=3, seed=0):
    """Grow n_trees bootstrap trees as train_forest does, with _grow_tree
    and with the oracle, and compare the bytes of every node array and the
    generator state after each tree."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    for s in np.random.SeedSequence(seed).spawn(n_trees):
        rng, rng_oracle = np.random.default_rng(s), np.random.default_rng(s)
        boot = rng.integers(0, n, n)
        rng_oracle.integers(0, n, n)
        got = _grow_tree(X[boot], y[boot], max_depth, m_features, rng)
        want = oracle_grow_tree(X[boot], y[boot], max_depth, m_features,
                                rng_oracle)
        for name in TREE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert rng.bit_generator.state == rng_oracle.bit_generator.state


class TestGrowerOracle:
    @pytest.mark.parametrize("max_depth", [0, 1, 12])
    @pytest.mark.parametrize("m", ["one", "all"])
    @pytest.mark.parametrize("k", [6, 12])
    def test_synth_sets(self, lexicon, k, m, max_depth):
        X, y = corpus_syllables(lexicon, noise=0.75, n_utts=40, seed=k, k=k)
        assert_grows_as_oracle(X, y, max_depth, 1 if m == "one" else k,
                               seed=max_depth)

    @pytest.mark.parametrize("y", [[1], [0, 2], [2, 2]], ids=["n1", "n2", "n2-pure"])
    def test_one_and_two_samples(self, y):
        X = np.random.default_rng(len(y)).normal(0.0, 1.0, (len(y), 3))
        assert_grows_as_oracle(X, y, 12, 2, n_trees=6)

    def test_constant_column_and_single_class(self):
        rng = np.random.default_rng(11)
        X = rng.normal(0.0, 1.0, (300, 4))
        X[:, 2] = 5.0
        y = rng.integers(0, 3, 300)
        assert_grows_as_oracle(X, y, 12, 1, n_trees=4)
        assert_grows_as_oracle(X, y, 12, 4, n_trees=2)
        assert_grows_as_oracle(X, np.full(300, 2), 12, 2)

    def test_signed_zero_ties(self):
        rng = np.random.default_rng(12)
        X = rng.choice([-0.0, 0.0, -1.0, 1.0, 2.0], (400, 3))
        y = rng.integers(0, 3, 400)
        assert_grows_as_oracle(X, y, 12, 1, n_trees=4)
        assert_grows_as_oracle(X, y, 12, 3, n_trees=2)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_small_integer_features(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        k = data.draw(st.integers(1, 5), label="k")
        X = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k,
                                        max_size=k),
                               min_size=n, max_size=n), label="X")
        y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                      label="y")
        assert_grows_as_oracle(
            X, y, data.draw(st.integers(0, 6), label="max_depth"),
            data.draw(st.integers(1, k), label="m"), n_trees=2,
            seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))


# --- the ordinal fit against the per-step oracle -------------------------------
#
# train_ordinal groups the rows by rank once and runs the sigmoid only at
# the finite cut points. The oracle below is the fit it replaced: it builds
# both cut points of every row at every step, with +-inf at the ends, and
# runs the sigmoid on all of them. Both must give the same bits.

def oracle_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_nll_grad(beta, theta, X, ranks, lam):
    n = X.shape[0]
    t0 = theta[0]
    t1 = t0 + np.exp(theta[1])
    z = X @ beta
    upper = np.where(ranks == 0, t0 - z, np.where(ranks == 1, t1 - z, np.inf))
    lower = np.where(ranks == 0, -np.inf, np.where(ranks == 1, t0 - z, t1 - z))
    Fu = oracle_sigmoid(upper)
    Fl = oracle_sigmoid(lower)
    lik = np.clip(Fu - Fl, 1e-12, None)
    nll = -np.log(lik).sum() / n + 0.5 * lam * float(beta @ beta)
    fu = Fu * (1.0 - Fu)
    fl = Fl * (1.0 - Fl)
    inv = 1.0 / lik
    dz = (fu - fl) * inv / n
    dbeta = X.T @ dz + lam * beta
    du = -fu * inv / n
    dl = fl * inv / n
    dt0 = du[ranks == 0].sum() + dl[ranks == 1].sum()
    dt1 = du[ranks == 1].sum() + dl[ranks == 2].sum()
    dtheta = np.array([dt0 + dt1, dt1 * np.exp(theta[1])])
    return nll, dbeta, dtheta


ORACLE_RANK = {StressLevel.NON_STRESS: 0, StressLevel.SECONDARY: 1,
               StressLevel.PRIMARY: 2}


def oracle_train_ordinal(X, labels, lam=1e-4, seed=0, n_iter=500, lr=0.5):
    X = np.asarray(X, dtype=np.float64)
    ranks = np.array([ORACLE_RANK[StressLevel(int(y))] for y in labels])
    if len(set(ranks.tolist())) < 2:
        raise DegenerateData("ordinal fit needs at least 2 distinct classes")
    rng = np.random.default_rng(seed)
    beta = rng.normal(0.0, 0.01, X.shape[1])
    theta = np.array([-0.5, 0.0])
    mb = np.zeros_like(beta)
    vb = np.zeros_like(beta)
    mt = np.zeros_like(theta)
    vt = np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, n_iter + 1):
        _, dbeta, dtheta = oracle_nll_grad(beta, theta, X, ranks, lam)
        mb = b1 * mb + (1 - b1) * dbeta
        vb = b2 * vb + (1 - b2) * dbeta ** 2
        mt = b1 * mt + (1 - b1) * dtheta
        vt = b2 * vt + (1 - b2) * dtheta ** 2
        beta -= lr * (mb / (1 - b1 ** t)) / (np.sqrt(vb / (1 - b2 ** t)) + eps)
        theta -= lr * (mt / (1 - b1 ** t)) / (np.sqrt(vt / (1 - b2 ** t)) + eps)
    t0, t1 = theta[0], theta[0] + np.exp(theta[1])
    return OrdinalModel(beta, np.array([t0, t1]))


def criterion_8_training_set(lexicon, k, seed=1):
    """Criterion 8's training syllables: 250 utterances at noise 0.75,
    70% of them by utterance."""
    _, recs = synth_corpus(lexicon, 250, GenConfig(noise=0.75), seed=seed)
    train_all, _ = split(recs, 0.7, seed=seed)
    return syllable_rows(train_all, k)


def assert_fits_as_oracle(X, y, **kwargs):
    got = train_ordinal(X, y, **kwargs)
    want = oracle_train_ordinal(X, y, **kwargs)
    for name in ("coefficients", "thresholds"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestOrdinalOracle:
    def test_1d_data(self):
        X, y = ordinal_1d_data(np.random.default_rng(0))
        assert_fits_as_oracle(X, y, seed=1)

    @pytest.mark.parametrize("k", [6, 12])
    def test_criterion_8_seed_1(self, lexicon, k):
        X, y = criterion_8_training_set(lexicon, k)
        assert_fits_as_oracle(X, y, seed=1)

    def test_no_secondary_rows(self):
        X, y = ordinal_1d_data(np.random.default_rng(3))
        keep = y != int(StressLevel.SECONDARY)
        assert_fits_as_oracle(X[keep], y[keep], seed=2, n_iter=200)

    @pytest.mark.parametrize("y", [[0, 1], [1, 2], [2, 0]])
    def test_two_rows(self, y):
        X = np.array([[0.5, -1.0], [2.0, 0.25]])
        assert_fits_as_oracle(X, y, lam=1e-2, seed=3)

    def test_gradient_in_grouped_order_is_the_oracles(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (300, 6))
        ranks = rng.integers(0, 3, 300)
        beta = rng.normal(0, 0.5, 6)
        theta = np.array([-0.3, 0.2])
        _, dbeta, dtheta = _ordinal_nll_grad(beta, theta, X, 0.01,
                                             _RankGroups(ranks))
        _, want_beta, want_theta = oracle_nll_grad(beta, theta, X, ranks, 0.01)
        assert dbeta.tobytes() == want_beta.tobytes()
        assert dtheta.tobytes() == want_theta.tobytes()

    def test_sigmoid_bits(self):
        z = np.array([-np.inf, -1e308, -745.2, -40.0, -1.0, -5e-324, -0.0,
                      0.0, 5e-324, 1e-300, 1.0, 36.7, 40.0, 745.2, 1e308,
                      np.inf, np.nan])
        z = np.concatenate([z, np.random.default_rng(7).normal(0, 20, 999)])
        assert _sigmoid(z).tobytes() == oracle_sigmoid(z).tobytes()
