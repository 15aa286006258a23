"""Tests for model persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ann.network import BPNeuralNetwork
from repro.tree.classification import ClassificationTree
from repro.tree.regression import RegressionTree
from repro.tree.serialization import (
    classification_tree_from_dict,
    classification_tree_to_dict,
    load_model,
    network_from_dict,
    network_to_dict,
    regression_tree_from_dict,
    regression_tree_to_dict,
    save_model,
)


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(150, 4))
    y = np.where(X[:, 0] + 0.2 * rng.normal(size=150) > 0, 1, -1)
    return X, y


class TestClassificationTreeRoundTrip:
    def test_predictions_identical(self, data):
        X, y = data
        tree = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.001,
            loss_matrix=[[0.0, 1.0], [10.0, 0.0]],
        ).fit(X, y)
        copy = classification_tree_from_dict(classification_tree_to_dict(tree))
        np.testing.assert_array_equal(copy.predict(X), tree.predict(X))
        np.testing.assert_allclose(copy.predict_proba(X), tree.predict_proba(X))

    def test_structure_preserved(self, data):
        X, y = data
        tree = ClassificationTree(minsplit=4, minbucket=2).fit(X, y)
        copy = classification_tree_from_dict(classification_tree_to_dict(tree))
        assert copy.n_leaves_ == tree.n_leaves_
        assert copy.depth_ == tree.depth_
        np.testing.assert_array_equal(copy.classes_, tree.classes_)

    def test_nan_routing_preserved(self, data):
        X, y = data
        X = X.copy()
        X[::7, 0] = np.nan
        tree = ClassificationTree(minsplit=4, minbucket=2).fit(X, y)
        copy = classification_tree_from_dict(classification_tree_to_dict(tree))
        probe = np.full((5, 4), np.nan)
        np.testing.assert_array_equal(copy.predict(probe), tree.predict(probe))

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            classification_tree_to_dict(ClassificationTree())

    def test_wrong_kind_rejected(self, data):
        X, y = data
        payload = classification_tree_to_dict(
            ClassificationTree(minsplit=4, minbucket=2).fit(X, y)
        )
        payload["kind"] = "other"
        with pytest.raises(ValueError, match="expected a"):
            classification_tree_from_dict(payload)

    def test_version_checked(self, data):
        X, y = data
        payload = classification_tree_to_dict(
            ClassificationTree(minsplit=4, minbucket=2).fit(X, y)
        )
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            classification_tree_from_dict(payload)


class TestRegressionTreeRoundTrip:
    def test_predictions_identical(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(120, 2))
        y = 2.0 * X[:, 0] + rng.normal(scale=0.1, size=120)
        tree = RegressionTree(minsplit=4, minbucket=2, cp=0.0).fit(X, y)
        copy = regression_tree_from_dict(regression_tree_to_dict(tree))
        np.testing.assert_allclose(copy.predict(X), tree.predict(X))


LEGACY = Path(__file__).parent / "fixtures" / "legacy_models"


def _legacy_data():
    """The data the checked-in legacy documents were fitted on."""
    rng = np.random.default_rng(2014)
    X = rng.normal(size=(90, 3))
    X[rng.random(X.shape) < 0.1] = np.nan
    signal = np.where(np.isfinite(X[:, 0]), X[:, 0], 0.0)
    y = np.where(signal + 0.3 * rng.normal(size=90) > 0, 1, -1)
    return X, y, signal + 0.1 * rng.normal(size=90)


class TestLegacyDocuments:
    """Documents saved with ``backend="node"``/``presort=False`` still load.

    The fixtures were written by ``save_model`` when trees still took
    those two options; loading ignores them and the tree predicts like
    the one it came from (the same parameters refitted on the same data).
    """

    @pytest.mark.parametrize("name, cls, target", [
        ("classification_tree_node_resort.json", ClassificationTree, "y"),
        ("regression_tree_node_resort.json", RegressionTree, "t"),
    ])
    def test_legacy_options_are_ignored(self, name, cls, target):
        path = LEGACY / name
        params = json.loads(path.read_text())["params"]
        assert params["backend"] == "node" and params["presort"] is False
        loaded, names = load_model(path)
        assert names == ["a", "b", "c"]
        assert isinstance(loaded, cls)
        assert not hasattr(loaded, "backend") and not hasattr(loaded, "presort")

        X, y, t = _legacy_data()
        kept = {k: v for k, v in params.items() if k not in ("backend", "presort")}
        original = cls(**kept).fit(X, y if target == "y" else t)
        probe = np.vstack([X, np.full((3, 3), np.nan), -X[:10]])
        np.testing.assert_array_equal(loaded.apply(probe), original.apply(probe))
        np.testing.assert_array_equal(loaded.predict(probe), original.predict(probe))
        if cls is ClassificationTree:
            np.testing.assert_array_equal(
                loaded.predict_proba(probe), original.predict_proba(probe)
            )


class TestNetworkRoundTrip:
    def test_decision_function_identical(self, data):
        X, y = data
        net = BPNeuralNetwork(hidden_sizes=(5,), max_iter=40, seed=2)
        net.fit(X, y.astype(float))
        copy = network_from_dict(network_to_dict(net))
        np.testing.assert_allclose(
            copy.decision_function(X), net.decision_function(X)
        )

    def test_scaler_preserved(self, data):
        X, y = data
        net = BPNeuralNetwork(hidden_sizes=(3,), max_iter=10, seed=3)
        net.fit(X * 50, y.astype(float))
        copy = network_from_dict(network_to_dict(net))
        np.testing.assert_allclose(copy._scale, net._scale)


class TestFileApi:
    def test_save_load_with_feature_names(self, data, tmp_path):
        X, y = data
        tree = ClassificationTree(minsplit=4, minbucket=2).fit(X, y)
        path = tmp_path / "model.json"
        save_model(path, tree, feature_names=["a", "b", "c", "d"])
        loaded, names = load_model(path)
        assert names == ["a", "b", "c", "d"]
        np.testing.assert_array_equal(loaded.predict(X), tree.predict(X))

    def test_dispatch_on_kind(self, data, tmp_path):
        X, y = data
        net = BPNeuralNetwork(hidden_sizes=(3,), max_iter=5, seed=4)
        net.fit(X, y.astype(float))
        path = tmp_path / "net.json"
        save_model(path, net)
        loaded, names = load_model(path)
        assert isinstance(loaded, BPNeuralNetwork)
        assert names is None

    def test_unsupported_model_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialise"):
            save_model(tmp_path / "x.json", object())

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery", "version": 1}')
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model(path)

    def test_pipeline_model_roundtrip(self, tiny_split, tmp_path):
        """End to end: persist a fitted CT pipeline's tree and rescore."""
        from repro.core.config import CTConfig
        from repro.core.predictor import DriveFailurePredictor

        predictor = DriveFailurePredictor(
            CTConfig(minsplit=4, minbucket=2, cp=0.002)
        ).fit(tiny_split)
        path = tmp_path / "ct.json"
        save_model(path, predictor.tree_, feature_names=predictor.extractor.names)
        loaded, names = load_model(path)
        assert names == predictor.extractor.names
        drive = tiny_split.test_failed[0]
        matrix = predictor.extractor.extract(drive)
        rows = matrix[np.any(np.isfinite(matrix), axis=1)]
        np.testing.assert_array_equal(
            loaded.predict(rows), predictor.tree_.predict(rows)
        )
