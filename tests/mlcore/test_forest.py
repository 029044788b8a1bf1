"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.mlcore.base import NotFittedError
from repro.mlcore.forest import RandomForestClassifier


def noisy_data(n=600, seed=0, flip=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    flips = rng.random(n) < flip
    y[flips] = 1 - y[flips]
    return X, y


class TestFitPredict:
    def test_beats_single_tree_on_noise(self):
        from repro.mlcore.tree import DecisionTreeClassifier

        X, y = noisy_data()
        Xt, yt = noisy_data(seed=1)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        forest = RandomForestClassifier(30, random_state=0).fit(X, y)
        assert forest.score(Xt, yt) >= tree.score(Xt, yt)

    def test_predict_proba_valid(self):
        X, y = noisy_data(200)
        f = RandomForestClassifier(10, random_state=0).fit(X, y)
        p = f.predict_proba(X[:20])
        assert p.shape == (20, 2)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_hist_splitter(self):
        X, y = noisy_data()
        f = RandomForestClassifier(15, splitter="hist", random_state=0).fit(X, y)
        assert f.score(X, y) > 0.85

    def test_string_labels(self):
        X, y = noisy_data(150)
        names = np.array(["memory-bound", "compute-bound"])[y]
        f = RandomForestClassifier(5, random_state=0).fit(X, names)
        assert set(f.predict(X[:10])) <= {"memory-bound", "compute-bound"}

    def test_deterministic_given_seed(self):
        X, y = noisy_data(200)
        a = RandomForestClassifier(8, random_state=7).fit(X, y).predict(X)
        b = RandomForestClassifier(8, random_state=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier(2).predict(np.zeros((1, 2)))


class TestBagging:
    def test_trees_differ(self):
        X, y = noisy_data(300)
        f = RandomForestClassifier(5, random_state=0).fit(X, y)
        structures = {tuple(t.feature_.tolist()) for t in f.estimators_}
        assert len(structures) > 1

    def test_no_bootstrap_mode(self):
        X, y = noisy_data(200)
        f = RandomForestClassifier(5, bootstrap=False, random_state=0).fit(X, y)
        # every tree sees all samples
        for t in f.estimators_:
            assert t.value_[0].sum() == len(y)

    def test_n_estimators_respected(self):
        X, y = noisy_data(100)
        f = RandomForestClassifier(7, random_state=0).fit(X, y)
        assert len(f.estimators_) == 7

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(0)


class TestOOB:
    def test_oob_score_close_to_holdout(self):
        X, y = noisy_data(800)
        Xt, yt = noisy_data(seed=3)
        f = RandomForestClassifier(40, oob_score=True, random_state=0).fit(X, y)
        holdout = f.score(Xt, yt)
        assert abs(f.oob_score_ - holdout) < 0.08

    def test_oob_absent_by_default(self):
        X, y = noisy_data(100)
        f = RandomForestClassifier(3, random_state=0).fit(X, y)
        assert not hasattr(f, "oob_score_")

    def test_oob_without_bootstrap_rejected(self):
        # without bootstrap every tree sees every row, so no row is out of bag
        with pytest.raises(ValueError, match="oob_score=True requires bootstrap=True"):
            RandomForestClassifier(5, oob_score=True, bootstrap=False)

    def test_oob_nan_when_every_row_is_in_bag(self):
        X, y = np.array([[0.0], [1.0]]), np.array([0, 1])
        # seed 5 draws both rows into the single tree's bootstrap
        f = RandomForestClassifier(1, oob_score=True, random_state=5).fit(X, y)
        assert f.estimators_[0].value_[0].tolist() == [1.0, 1.0]
        assert np.isnan(f.oob_score_)


class TestDistinctRows:
    def test_pairs_split_by_label_and_bytes(self):
        from repro.mlcore.forest import _distinct_rows

        X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [-0.0, 0.0]])
        y = np.array([0, 0, 1, 0, 0])
        first, inverse = _distinct_rows(X.astype(np.float32), y, 2)
        # the three (1, 2) rows form two pairs (by label); -0.0 stays apart
        assert first.size == 4
        assert inverse[0] == inverse[1] != inverse[2]
        assert inverse[3] != inverse[4]
        assert np.array_equal(y[first][inverse], y)
        assert np.array_equal(X[first][inverse], X)

    def test_trees_see_bootstrap_counts_of_every_row(self):
        rng = np.random.default_rng(4)
        X = np.repeat(rng.normal(size=(12, 3)), 25, axis=0)
        y = (X[:, 0] > 0).astype(int)
        f = RandomForestClassifier(4, random_state=0).fit(X, y)
        for t in f.estimators_:
            assert t.value_[0].sum() == len(y)  # n draws over 12 distinct rows


class TestImportances:
    def test_informative_features_dominate(self):
        X, y = noisy_data(1000, flip=0.0)
        f = RandomForestClassifier(20, random_state=0).fit(X, y)
        imp = f.feature_importances_
        assert imp.sum() == pytest.approx(1.0)
        assert imp[0] + imp[1] > 0.7


class TestPersistence:
    def test_state_roundtrip(self, tmp_path):
        from repro.mlcore.persistence import load_model, save_model

        X, y = noisy_data(200)
        f = RandomForestClassifier(6, max_depth=6, oob_score=True, random_state=0).fit(X, y)
        save_model(f, tmp_path / "rf")
        f2 = load_model(tmp_path / "rf")
        assert np.array_equal(f.predict(X), f2.predict(X))
        assert f2.oob_score_ == f.oob_score_


class TestParallelFit:
    def test_n_jobs_deterministic(self):
        X, y = noisy_data(250)
        a = RandomForestClassifier(6, random_state=3, n_jobs=1).fit(X, y)
        b = RandomForestClassifier(6, random_state=3, n_jobs=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))
        for ta, tb in zip(a.estimators_, b.estimators_):
            assert np.array_equal(ta.feature_, tb.feature_)
            assert np.array_equal(ta.threshold_, tb.threshold_, equal_nan=True)

    def test_oob_same_across_n_jobs(self):
        X, y = noisy_data(400)
        a = RandomForestClassifier(10, random_state=1, oob_score=True, n_jobs=1).fit(X, y)
        b = RandomForestClassifier(10, random_state=1, oob_score=True, n_jobs=2).fit(X, y)
        assert a.oob_score_ == b.oob_score_

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(2, n_jobs=0)

    def test_n_jobs_persisted(self, tmp_path):
        from repro.mlcore.persistence import load_model, save_model

        X, y = noisy_data(100)
        f = RandomForestClassifier(3, random_state=0, n_jobs=2).fit(X, y)
        save_model(f, tmp_path / "p")
        assert load_model(tmp_path / "p").n_jobs == 2
