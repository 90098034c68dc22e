import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressnet import _workers, baselines
from stressnet.baselines import (
    ForestModel,
    OrdinalModel,
    _RankGroups,
    _grow_tree,
    _ordinal_grad,
    _sigmoid,
    train_forest,
    train_ordinal,
)
from conftest import TREE_ARRAYS, assert_same_array, traced_peak, two_cpus
from stressnet.corpus import GenConfig, synth_corpus
from stressnet.errors import (DegenerateData, LabelError, NumericalInstability,
                              ShapeError)
from stressnet.lexicon import StressLevel
from oracles import (oracle_grow_tree, oracle_nll_grad, oracle_sigmoid,
                     oracle_train_ordinal, oracle_vote_shares)


def ordinal_1d_data(rng, n=600):
    """Feature increases with ordinal rank NonStress < Secondary < Primary."""
    X = rng.uniform(0.0, 3.0, (n, 1))
    y = np.where(X[:, 0] < 1.0, int(StressLevel.NON_STRESS),
                 np.where(X[:, 0] < 2.0, int(StressLevel.SECONDARY),
                          int(StressLevel.PRIMARY)))
    return X, y


def syllable_rows(instances, k):
    """The table's syllables as (n, k) features and (n,) labels."""
    return instances.features[:, :k], instances.labels


def corpus_syllables(lexicon, noise=0.0, n_utts=60, seed=2, k=12):
    _, table = synth_corpus(lexicon, n_utts, GenConfig(noise=noise), seed=seed)
    return syllable_rows(table, k)


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
        g = _ordinal_grad(np.concatenate([beta, theta]), X, lam,
                          _RankGroups(ranks))
        eps = 1e-6

        def nll(b, t):
            return oracle_nll_grad(b, t, X, ranks, lam)[0]

        for i in range(5):
            b = beta.copy()
            b[i] += eps
            lp = nll(b, theta)
            b[i] -= 2 * eps
            lm = nll(b, theta)
            assert g[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4)
        for i in range(2):
            t = theta.copy()
            t[i] += eps
            lp = nll(beta, t)
            t[i] -= 2 * eps
            lm = nll(beta, t)
            assert g[5 + i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4)

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

    def test_non_finite_fit_is_refused(self, monkeypatch):
        # train runs the fit with overflow warnings off; an overflow that
        # reaches the coefficients must still stop it
        rng = np.random.default_rng(6)
        X, y = ordinal_1d_data(rng, n=30)
        # NaN for the coefficients only; the cut points stay finite
        monkeypatch.setattr(baselines, "_ordinal_grad", lambda w, *args: (
            np.concatenate([np.full(len(w) - 2, np.nan), np.zeros(2)])))
        with pytest.raises(NumericalInstability):
            train_ordinal(X, y)

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
        assert model.n_trees == 1
        # a single unrestricted tree fits its own bootstrap sample exactly;
        # vote shares are one-hot
        shares = model.vote_shares(X)
        assert np.all(np.isin(shares, (0.0, 1.0)))

    def test_deterministic(self, lexicon):
        X, y = corpus_syllables(lexicon, noise=0.5, n_utts=20)
        m1 = train_forest(X, y, n_trees=10, seed=4)
        m2 = train_forest(X, y, n_trees=10, seed=4)
        for name in ("tree_offsets", "feature", "threshold", "counts"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

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
        leaves = model.feature < 0
        assert np.all(model.counts[leaves].sum(axis=1) > 0)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateData):
            train_forest(np.zeros((0, 3)), [])

    @pytest.mark.parametrize("bad", [3, -1])
    def test_labels_outside_stress_levels_rejected(self, bad):
        with pytest.raises(LabelError):
            train_forest(np.zeros((30, 3)), [0, 1, bad] * 10)


# traced peak, in bytes, of growing the 4 trees of train_forest's fit on
# TestFitMemory's 6,000 x 12 set in this process: 2.98 MB with each node's
# split search freed before its children's lists are cut (3.03 MB for the
# whole fit in one process), and 4.87 MB for the whole fit with
# (3, m, n - 1) float64 class counts and Gini terms alive through the cut
FIT_PEAK_BOUND = 3_500_000


def grow_in_process(X, y, n_trees, seed=0, max_depth=12):
    """train_forest's trees, grown one after another in this process by
    the per-tree grower the fit's workers run, which tracemalloc here
    cannot see."""
    m = int(np.ceil(np.sqrt(X.shape[1])))
    return [baselines._grow_seeded(s, X, y, max_depth, m)
            for s in np.random.SeedSequence(seed).spawn(n_trees)]


class TestFitMemory:
    def test_forest_fit_peak_is_bounded(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0.0, 1.0, (6000, 12))
        y = np.digitize(X[:, 0] + X[:, 1] + rng.normal(0.0, 1.0, 6000),
                        [-1.0, 1.0])
        trees = []
        peak = traced_peak(lambda: trees.extend(grow_in_process(X, y, 4)))
        assert peak <= FIT_PEAK_BOUND, peak
        forest = train_forest(X, y, 4)
        for got, want in zip(zip(*trees),
                             (getattr(forest, a) for a in TREE_ARRAYS)):
            assert_same_array(np.concatenate(got), want, "node array")


def serial(fit, *args, **kwargs):
    """fit(*args, **kwargs) with one worker, so in this process."""
    with mock.patch.object(_workers, "worker_count", lambda n_jobs, cpus: 1):
        return fit(*args, **kwargs)


def assert_same_forest(got, want):
    for name in ("tree_offsets", *TREE_ARRAYS):
        assert_same_array(getattr(got, name), getattr(want, name), name)
    assert (got.max_depth, got.features_per_split) == (
        want.max_depth, want.features_per_split)


@two_cpus
class TestForestWorkers:
    """A fit whose trees grow in worker processes gives the serial fit's
    bytes and its errors."""

    # small integers, both zeros and NaN, so trees split on ties and on
    # -0.0 vs 0.0, and never next to a NaN
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_drawn_data_with_nan(self, data):
        values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan]
        n = data.draw(st.integers(1, 40), label="n")
        k = data.draw(st.integers(1, 4), label="k")
        X = np.array(data.draw(st.lists(st.sampled_from(values),
                                        min_size=n * k, max_size=n * k),
                               label="X")).reshape(n, k)
        y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                      label="y")
        kwargs = dict(n_trees=data.draw(st.integers(2, 6), label="n_trees"),
                      max_depth=data.draw(st.integers(0, 6), label="max_depth"),
                      seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        with mock.patch.object(baselines, "FORK_MIN_ROWS", 0):
            forked = train_forest(X, y, **kwargs)
        assert_same_forest(forked, serial(train_forest, X, y, **kwargs))

    def test_criterion_8_seed_1_set(self, criterion_8_tables):
        train = criterion_8_tables["train"]
        X, y = train.features, train.labels
        assert 6 * len(y) >= baselines.FORK_MIN_ROWS  # forked unpatched
        assert_same_forest(train_forest(X, y, n_trees=6, seed=1),
                           serial(train_forest, X, y, n_trees=6, seed=1))

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(0.0, 1.0, (2000, 4))
        y = rng.integers(0, 3, 2000)
        grow = baselines._grow_seeded

        def failing(seed, *shared):
            tree = seed.spawn_key[-1]
            if tree in (2, 3):  # not the first job; the first failure wins
                raise NumericalInstability(f"tree {tree} is not finite")
            return grow(seed, *shared)

        monkeypatch.setattr(baselines, "_grow_seeded", failing)
        for fit in (train_forest, functools.partial(serial, train_forest)):
            with pytest.raises(NumericalInstability) as caught:
                fit(X, y, n_trees=5, seed=0)
            assert str(caught.value) == "tree 2 is not finite"


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
        # hand-built forest of two stumps voting for different classes
        model = ForestModel(np.array([-1, -1]), np.array([0.0, 0.0]),
                            np.array([-1, -1]), np.array([-1, -1]),
                            np.array([[0, 0, 1], [0, 1, 0]]),
                            np.array([0, 1, 2]), 1, 1)
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

    # small integers and both zeros, so trees split on ties and on -0.0 vs
    # 0.0; scored rows add NaN, which goes right at every split
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_vote_shares_as_tree_by_tree(self, data):
        values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
        n = data.draw(st.integers(1, 30), label="n")
        k = data.draw(st.integers(1, 4), label="k")
        X = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=k,
                                        max_size=k),
                               min_size=n, max_size=n), label="X")
        y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                      label="y")
        model = train_forest(
            X, y, n_trees=data.draw(st.integers(1, 8), label="n_trees"),
            max_depth=data.draw(st.integers(0, 6), label="max_depth"),
            seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        rows = data.draw(st.lists(st.lists(st.sampled_from([*values, np.nan]),
                                           min_size=k, max_size=k),
                                  max_size=50), label="rows")
        x = np.array(rows, dtype=np.float64).reshape(len(rows), k)
        assert_same_array(model.vote_shares(x), oracle_vote_shares(model, x),
                          "vote shares")


class TestVoteChunks:
    """vote_shares walks SCORE_ROWS rows at a time, to the same bits."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_chunk_size_as_tree_by_tree(self, data):
        values = [-1.0, -0.0, 0.0, 1.0, 2.0]
        n = data.draw(st.integers(1, 30), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        X = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * k,
                                        max_size=n * k), label="X")).reshape(n, k)
        y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                      label="y")
        model = train_forest(
            X, y, n_trees=data.draw(st.integers(1, 6), label="n_trees"),
            max_depth=data.draw(st.integers(0, 5), label="max_depth"),
            seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        m = data.draw(st.integers(0, 40), label="rows")
        x = np.array(data.draw(st.lists(st.sampled_from([*values, np.nan]),
                                        min_size=m * k, max_size=m * k),
                               label="x")).reshape(m, k)
        chunk = data.draw(st.integers(1, m + 2), label="chunk")
        with mock.patch.object(baselines, "SCORE_ROWS", chunk):
            got = model.vote_shares(x)
        assert_same_array(got, oracle_vote_shares(model, x), "vote shares")

    def test_peak_is_bounded(self):
        # words of 3 syllables, and a chunk of 160 words' rows, so the
        # larger table is scored in 8 chunks (SCORE_ROWS itself is 8,192)
        rng = np.random.default_rng(4)
        X = rng.normal(0.0, 1.0, (600, 12))
        y = rng.integers(0, 3, 600)
        model = train_forest(X, y, n_trees=20, seed=4)
        peaks = []
        with mock.patch.object(baselines, "SCORE_ROWS", 3 * 160):
            for n_words in (160, 8 * 160):
                x = rng.normal(0.0, 1.0, (3 * n_words, 12))
                peaks.append(traced_peak(model.vote_shares, x))
        assert peaks[1] < 2 * peaks[0], peaks


# --- the tree grower against the per-node oracle ------------------------------


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
        for name, got_column, want_column in zip(TREE_ARRAYS, got, want):
            assert_same_array(got_column, want_column, name)
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

    def test_nan_features(self):
        # no split lies next to a NaN, which sorts last and routes right
        rng = np.random.default_rng(13)
        X = np.column_stack([rng.choice([-1.0, 0.0, 1.0, 2.0], (400, 2)),
                             rng.normal(0.0, 1.0, (400, 2))])
        X[rng.random(X.shape) < 0.2] = np.nan
        X[:, 3] = np.nan
        y = np.where(np.isnan(X[:, 0]), 2, rng.integers(0, 3, 400))
        assert_grows_as_oracle(X, y, 12, 1, n_trees=4)
        assert_grows_as_oracle(X, y, 12, 4, n_trees=2)

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


def assert_fits_as_oracle(X, y, **kwargs):
    got = train_ordinal(X, y, **kwargs)
    want = oracle_train_ordinal(X, y, **kwargs)
    for name in ("coefficients", "thresholds"):
        assert_same_array(getattr(got, name), getattr(want, name), name)


class TestOrdinalOracle:
    def test_1d_data(self):
        X, y = ordinal_1d_data(np.random.default_rng(0))
        assert_fits_as_oracle(X, y, seed=1)

    @pytest.mark.parametrize("k", [6, 12])
    def test_criterion_8_seed_1(self, criterion_8_tables, k):
        X, y = syllable_rows(criterion_8_tables["train"], k)
        assert_fits_as_oracle(X, y, seed=1)

    def test_no_secondary_rows(self):
        X, y = ordinal_1d_data(np.random.default_rng(3))
        keep = y != int(StressLevel.SECONDARY)
        assert_fits_as_oracle(X[keep], y[keep], seed=2, n_iter=200)

    @pytest.mark.parametrize("y", [[0, 1], [1, 2], [2, 0]])
    def test_two_rows(self, y):
        X = np.array([[0.5, -1.0], [2.0, 0.25]])
        assert_fits_as_oracle(X, y, lam=1e-2, seed=3)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_gradient_in_grouped_order_is_the_oracles(self, data):
        n = data.draw(st.integers(1, 300), label="n")
        k = data.draw(st.integers(1, 12), label="k")
        # any of the three rank groups may be empty
        used = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1,
                                  max_size=3, unique=True), label="ranks used")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        ranks = rng.choice(used, n)
        X = rng.normal(0, 1, (n, k))
        beta = np.array(data.draw(st.lists(
            st.floats(-5, 5), min_size=k, max_size=k), label="beta"))
        theta = np.array([data.draw(st.floats(-10, 10), label="t0"),
                          data.draw(st.floats(-30, 30), label="log gap")])
        lam = data.draw(st.floats(0, 1), label="lam")
        g = _ordinal_grad(np.concatenate([beta, theta]), X, lam,
                          _RankGroups(ranks))
        _, want_beta, want_theta = oracle_nll_grad(beta, theta, X, ranks, lam)
        assert g[:k].tobytes() == want_beta.tobytes()
        assert g[k:].tobytes() == want_theta.tobytes()

    def test_sigmoid_bits(self):
        z = np.array([-np.inf, -1e308, -745.2, -40.0, -1.0, -5e-324, -0.0,
                      0.0, 5e-324, 1e-300, 1.0, 36.7, 40.0, 745.2, 1e308,
                      np.inf, np.nan])
        z = np.concatenate([z, np.random.default_rng(7).normal(0, 20, 999)])
        assert _sigmoid(z).tobytes() == oracle_sigmoid(z).tobytes()
