"""Vectorized-vs-scalar equivalence for the ML hot paths.

The vectorization PR promised exact behavioural parity: every batched
path must reproduce the preserved scalar references in
:mod:`repro.mlcore.reference` — bit-for-bit where the arithmetic is
shared, and across arithmetic families on integer-lattice inputs where
every distance is exact in float64.
"""

import numpy as np
import pytest

from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.histogram import FeatureQuantizer
from repro.mlcore.kdtree import KDTree
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.reference import (
    best_split_exact_scalar,
    best_split_hist_scalar,
    brute_kneighbors_scalar,
    forest_predict_proba_scalar,
    kdtree_query_scalar,
    tree_predict_proba_scalar,
)
from repro.mlcore.tree import DecisionTreeClassifier, _impurity


def lattice(rng, n, d, span=5):
    # small random integers stored as float64: every squared distance is an
    # exact integer, so equidistant points are bit-identical ties under any
    # summation order — exact tie-breaking is testable across backends
    return rng.integers(0, span, size=(n, d)).astype(np.float64)


class TestNeighborEquivalence:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_kdtree_matches_scalar_reference(self, p):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 5))
        Q = rng.normal(size=(60, 5))
        tree = KDTree(X, leaf_size=7, query_chunk_size=13)
        d_new, i_new = tree.query(Q, k=5, p=p)
        d_ref, i_ref = kdtree_query_scalar(tree, Q, k=5, p=p)
        assert np.array_equal(i_new, i_ref)
        assert np.array_equal(d_new, d_ref)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_all_backends_agree_on_lattice_ties(self, k):
        rng = np.random.default_rng(3)
        X = lattice(rng, 250, 3)
        Q = lattice(rng, 80, 3)
        rd = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        kth = np.sort(rd, axis=1)[:, k - 1]
        # sanity: the data really does put multiple points at the k-th distance
        assert ((rd == kth[:, None]).sum(axis=1) > 1).any()

        d_ref, i_ref = brute_kneighbors_scalar(X, Q, k)
        tree = KDTree(X, leaf_size=5, query_chunk_size=17)
        d_t, i_t = tree.query(Q, k=k)
        assert np.array_equal(i_t, i_ref)
        assert np.array_equal(d_t, d_ref)

        d_s, i_s = kdtree_query_scalar(tree, Q, k=k)
        assert np.array_equal(i_s, i_ref)
        assert np.array_equal(d_s, d_ref)

        knn = KNeighborsClassifier(k, algorithm="brute")
        knn.fit(X, np.arange(X.shape[0]) % 2)
        d_b, i_b = knn.kneighbors(Q)
        assert np.array_equal(i_b, i_ref)
        assert np.array_equal(d_b, d_ref)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_brute_duplicate_heavy_matches_scalar_reference(self, k, p):
        # duplicate-heavy lattice batches drive nearly every query row
        # through the tie-admission path; the no-duplicates fast path and
        # the partition-based admission rewrite must stay exact on both
        rng = np.random.default_rng(23)
        X = lattice(rng, 400, 3, span=3)
        Q = lattice(rng, 90, 3, span=3)
        d_ref, i_ref = brute_kneighbors_scalar(X, Q, k, p=p)
        knn = KNeighborsClassifier(k, p=p, algorithm="brute", chunk_size=29)
        knn.fit(X, np.arange(X.shape[0]) % 2)
        d_b, i_b = knn.kneighbors(Q)
        assert np.array_equal(i_b, i_ref)
        assert np.array_equal(d_b, d_ref)

    def test_brute_tie_free_batch_matches_scalar_reference(self):
        # continuous data: the batch-level no-ties early return is taken
        rng = np.random.default_rng(29)
        X = rng.normal(size=(300, 4))
        Q = rng.normal(size=(70, 4))
        d_ref, i_ref = brute_kneighbors_scalar(X, Q, 5)
        knn = KNeighborsClassifier(5, algorithm="brute").fit(
            X, np.arange(X.shape[0]) % 2
        )
        d_b, i_b = knn.kneighbors(Q)
        assert np.array_equal(i_b, i_ref)
        # continuous data: the BLAS-identity distances agree to rounding,
        # not bit-for-bit (that guarantee is lattice-only)
        np.testing.assert_allclose(d_b, d_ref, rtol=1e-12, atol=1e-12)

    def test_brute_and_kdtree_classifiers_agree_continuous(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(int)
        Q = rng.normal(size=(50, 4))
        brute = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
        kd = KNeighborsClassifier(5, algorithm="kd_tree").fit(X, y)
        d_b, i_b = brute.kneighbors(Q)
        d_k, i_k = kd.kneighbors(Q)
        assert np.array_equal(i_b, i_k)
        np.testing.assert_allclose(d_b, d_k, rtol=1e-12, atol=1e-12)


def on_expanded_rows(oracle, clf):
    """Adapt a row-based split oracle to the count-based finder signature.

    The oracle runs on the row-expanded node ``np.repeat(idx, counts)``
    and computes the parent impurity itself; copies of one row share a
    routing decision, so the left mask maps back to the distinct rows
    through each row's first copy.
    """

    def finder(*args):
        *data, idx, w, _parent_imp, features, k = args
        reps = w.astype(np.int64)
        best = oracle(clf, *data, np.repeat(idx, reps), features, k)
        if best is None:
            return None
        feature, threshold, gain, left_mask = best
        first_copy = np.cumsum(reps) - reps
        assert np.array_equal(left_mask, np.repeat(left_mask[first_copy], reps))
        return feature, threshold, gain, left_mask[first_copy]

    return finder


def duplicate_heavy_node(seed):
    """Distinct rows repeated 10-100x; some identical rows carry both labels.

    Returns ``(X, y, counts)`` over distinct (row, label) pairs: rows
    ``X[i]`` may coincide (the both-labels pairs) and feature 1 takes few
    values, so ties occur across different rows too.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(30, 6)).astype(np.float32)
    base[:, 1] = np.round(base[:, 1])
    y = (base[:, 0] + base[:, 2] > 0).astype(np.int64)
    both = np.arange(0, 30, 3)  # these rows also appear with the other label
    X = np.concatenate([base, base[both]])
    y = np.concatenate([y, 1 - y[both]])
    counts = rng.integers(10, 101, size=X.shape[0])
    return X, y, counts


class TestSplitFinderEquivalence:
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_count_weighted_finders_match_row_oracles(
        self, splitter, criterion, min_leaf
    ):
        X, y, counts = duplicate_heavy_node(41)
        clf = DecisionTreeClassifier(
            min_samples_leaf=min_leaf, criterion=criterion, splitter=splitter
        )
        if splitter == "exact":
            data = (X, y)
            fast, oracle = clf._best_split_exact, best_split_exact_scalar
        else:
            q = FeatureQuantizer(12).fit(np.repeat(X, counts, axis=0))
            data = (q.transform(X), q, y)
            fast, oracle = clf._best_split_hist, best_split_hist_scalar
        rng = np.random.default_rng(min_leaf)
        found = 0
        for _ in range(25):
            idx = np.sort(rng.choice(X.shape[0], size=rng.integers(2, 41), replace=False))
            w = counts[idx].astype(np.float64)
            if rng.random() < 0.3:  # tiny counts reach the min-leaf limit
                w = np.minimum(w, rng.integers(1, 3, size=idx.size))
            features = rng.choice(6, size=rng.integers(1, 7), replace=False)
            parent = _impurity(np.bincount(y[idx], weights=w, minlength=2)[None], criterion)
            got = fast(*data, idx, w, parent[0], features, 2)
            want = on_expanded_rows(oracle, clf)(*data, idx, w, parent[0], features, 2)
            assert (got is None) == (want is None)
            if got is None:
                continue
            found += 1
            assert got[:3] == want[:3]  # feature, threshold, gain: exactly
            assert np.array_equal(got[3], want[3])
        assert found > 10

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_tree_on_counts_matches_tree_on_rows(self, splitter, criterion, min_leaf):
        X, y, counts = duplicate_heavy_node(43)
        rows = np.repeat(np.arange(X.shape[0]), counts)
        q = FeatureQuantizer(12).fit(X[rows])

        def make():
            return DecisionTreeClassifier(
                max_depth=8,
                min_samples_leaf=min_leaf,
                max_features=3,
                criterion=criterion,
                splitter=splitter,
                random_state=2,
            )

        on_counts = make().fit(X, y, sample_counts=counts, _hist_cache=(q, q.transform(X)))
        on_rows = make().fit(X[rows], y[rows], _hist_cache=(q, q.transform(X[rows])))
        for attr in ("feature_", "children_left_", "children_right_", "value_"):
            assert np.array_equal(getattr(on_counts, attr), getattr(on_rows, attr))
        assert np.array_equal(on_counts.threshold_, on_rows.threshold_, equal_nan=True)
        assert np.array_equal(on_counts.feature_importances_, on_rows.feature_importances_)
        assert on_counts.n_nodes > 5

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_fit_identical_with_per_feature_reference(
        self, criterion, splitter, monkeypatch
    ):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(240, 7)).astype(np.float32)
        X[:, 2] = np.round(X[:, 2])  # repeated values exercise boundary masks
        y = ((X[:, 0] * X[:, 1] > 0) | (X[:, 2] > 1)).astype(int)

        def make():
            return DecisionTreeClassifier(
                max_depth=7,
                min_samples_leaf=2,
                max_features="sqrt",
                criterion=criterion,
                splitter=splitter,
                n_bins=16,
                random_state=5,
            )

        fast = make().fit(X, y)
        ref = make()
        monkeypatch.setattr(
            ref, "_best_split_exact", on_expanded_rows(best_split_exact_scalar, ref)
        )
        monkeypatch.setattr(
            ref, "_best_split_hist", on_expanded_rows(best_split_hist_scalar, ref)
        )
        ref.fit(X, y)

        assert np.array_equal(fast.feature_, ref.feature_)
        # leaf thresholds are NaN, so compare with equal_nan
        assert np.array_equal(fast.threshold_, ref.threshold_, equal_nan=True)
        assert np.array_equal(fast.children_left_, ref.children_left_)
        assert np.array_equal(fast.children_right_, ref.children_right_)
        assert np.array_equal(fast.value_, ref.value_)
        assert np.array_equal(fast.feature_importances_, ref.feature_importances_)


class TestPredictEquivalence:
    def test_tree_predict_proba_matches_node_walk(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(300, 6)).astype(np.float32)
        y = (X[:, 0] + X[:, 1] ** 2 > 1).astype(int)
        tree = DecisionTreeClassifier(max_depth=8, random_state=1).fit(X, y)
        Q = rng.normal(size=(120, 6)).astype(np.float32)
        assert np.array_equal(tree.predict_proba(Q), tree_predict_proba_scalar(tree, Q))

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_packed_forest_matches_per_tree_loop(self, splitter):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(300, 8)).astype(np.float32)
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        forest = RandomForestClassifier(
            12, max_depth=6, splitter=splitter, random_state=3
        ).fit(X, y)
        Q = rng.normal(size=(90, 8)).astype(np.float32)
        assert np.array_equal(
            forest.predict_proba(Q), forest_predict_proba_scalar(forest, Q)
        )

    def test_packed_cache_invalidated_on_refit(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(120, 4)).astype(np.float32)
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(5, max_depth=4, random_state=0).fit(X, y)
        forest.predict_proba(X)  # builds the packed representation
        forest.fit(X, 1 - y)  # refit must not serve stale packed trees
        assert np.array_equal(
            forest.predict_proba(X), forest_predict_proba_scalar(forest, X)
        )
