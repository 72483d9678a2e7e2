"""Model zoo (E4), experiment runner (§3.1) and error analysis (E6)."""

import numpy as np
import pytest

from pubmed_and_method_ray.functions.gbt import GBTClassifier
from pubmed_and_method_ray.functions.models import (
    LogisticRegressionGD,
    StumpCommittee,
    available_models,
    use_classifier,
)
from pubmed_and_method_ray.pipelines.analysis import error_analysis, run_experiment


def _toy(n=400, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.7 * X[:, 1] > 0).astype(np.float64)
    return X, y


class TestModelZoo:
    def test_registry(self):
        assert available_models() == [
            "c45", "gbt", "knn", "logreg", "mlp", "nb", "rf", "stumps", "svm",
        ]
        with pytest.raises(KeyError):
            use_classifier("nope", *(_toy()[0], _toy()[1], _toy()[0]))

    @pytest.mark.parametrize(
        "name,floor",
        [
            ("gbt", 0.97),
            ("logreg", 0.95),
            ("stumps", 0.75),
            ("c45", 0.90),
            ("rf", 0.90),
            ("nb", 0.85),
            ("knn", 0.90),
            ("svm", 0.95),
            ("mlp", 0.95),
        ],
    )
    def test_each_model_learns(self, name, floor):
        X, y = _toy()
        _, proba = use_classifier(name, X, y, X)
        acc = ((proba > 0.5) == y).mean()
        assert acc >= floor, (name, acc)

    @pytest.mark.parametrize("name", ["c45", "rf", "nb", "knn", "svm", "mlp"])
    def test_new_models_deterministic(self, name):
        X, y = _toy()
        _, p1 = use_classifier(name, X, y, X)
        _, p2 = use_classifier(name, X, y, X)
        assert np.array_equal(p1, p2)

    def test_logreg_deterministic(self):
        X, y = _toy()
        p1 = LogisticRegressionGD().fit(X, y).predict_proba(X)
        p2 = LogisticRegressionGD().fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_stumps_degenerate_labels(self):
        X, _ = _toy(50)
        m = StumpCommittee().fit(X, np.ones(50, dtype=np.int64))
        assert (m.predict_proba(X) > 0.5).all()


class TestGBTImportances:
    def test_importances_identify_signal(self):
        X, y = _toy()
        m = GBTClassifier(n_estimators=30).fit(X, y)
        imp = m.feature_importances_
        assert imp is not None and imp.shape == (4,)
        # features 0 and 1 carry all the signal
        assert imp[0] + imp[1] > 0.9 * imp.sum()


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def features_df(self):
        import pandas as pd

        from pubmed_and_method_ray.stages.features import FEATURE_NAMES

        rng = np.random.default_rng(11)
        n = 600
        label = rng.integers(0, 2, n)
        hosts = [f"h{rng.integers(0, 40)}.org" for _ in range(n)]
        df = pd.DataFrame({c: rng.normal(size=n) for c in FEATURE_NAMES})
        # make two features discriminative
        df["jaccard_shingles"] += 3.0 * label
        df["tfidf_cosine"] += 2.0 * label
        df["label"] = label
        df["url_1"] = [f"https://{h}/a{i}" for i, h in enumerate(hosts)]
        df["url_2"] = [f"https://{h}/b{i}" for i, h in enumerate(hosts)]
        return df

    def test_cv_experiment(self, features_df):
        m = run_experiment(features_df, "text_features", "gbt", n_splits=4)
        assert m["f1"] >= 0.9
        assert set(m) >= {"acc", "p", "r", "f1"}

    @pytest.mark.parametrize("name", ["logreg", "stumps", "c45", "rf", "nb", "svm", "mlp"])
    def test_experiment_runs_zoo(self, features_df, name):
        """The reference's experiment matrix dispatches every zoo member
        (src/main_app.py:4-67); discriminative features must score well
        under each model through the same grouped-CV runner."""
        m = run_experiment(features_df, "text_features", name, n_splits=3)
        assert m["f1"] >= 0.7, (name, m)

    def test_feature_set_matters(self, features_df):
        good = run_experiment(features_df, "text_features", "logreg", n_splits=4)
        weak = run_experiment(features_df, "name_features", "logreg", n_splits=4)
        assert good["f1"] > weak["f1"]

    def test_error_analysis(self, features_df):
        from pubmed_and_method_ray.stages.features import FEATURE_NAMES

        X = features_df[FEATURE_NAMES].to_numpy()
        y = features_df["label"].to_numpy(dtype=np.float64)
        model = GBTClassifier(n_estimators=20).fit(X, y)
        df = features_df.copy()
        df["score"] = model.predict_proba(X)
        out = error_analysis(df, list(FEATURE_NAMES), model=model, top_n=5)
        assert len(out["worst"]) == 5
        imp = out["feature_importances"]
        assert abs(sum(imp.values()) - 1.0) < 1e-9
        assert list(imp)[0] in ("jaccard_shingles", "tfidf_cosine")


class TestExternalIdBaseline:
    """E5 analog: same-registry-id prediction scored over the within-host
    pair universe (unknown ids filtered)."""

    def test_metrics_shape_and_sanity(self):
        from pubmed_and_method_ray.pipelines.analysis import external_id_baseline

        df = external_id_baseline("/root/testdata/sf0.001")
        assert len(df) == 1
        row = df.iloc[0]
        assert row.n_pairs == row.tp + row.fp + row.fn + row.tn
        # the registry is imperfect by construction: corrupted ids cause
        # misses (fn>0), but most registered ids are faithful
        assert row.tp > 0 and row.fn > 0 and row.tn > 0
        assert 0.5 < row.precision <= 1.0
        assert 0.5 < row.recall < 1.0
        assert row.f1 == 2 * row.tp / (2 * row.tp + row.fp + row.fn)
        # hard negatives exist: within-host cross-entity pairs dominate
        assert row.tn > row.tp

    def test_driver_vs_distributed_paths_identical(self, monkeypatch):
        """The count-algebra confusion (C(m,2) sums over triple counts)
        must produce identical exact integers on the forced driver-merge
        and forced-distributed (host-keyed exchange) paths."""
        from pubmed_and_method_ray import rayutil
        from pubmed_and_method_ray.pipelines.analysis import external_id_baseline

        monkeypatch.setattr(rayutil, "DRIVER_BYTES", 1 << 62)
        a = external_id_baseline("/root/testdata/sf0.001")
        monkeypatch.setattr(rayutil, "DRIVER_BYTES", 0)
        b = external_id_baseline("/root/testdata/sf0.001")
        assert a.equals(b)
