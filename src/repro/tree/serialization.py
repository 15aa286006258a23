"""Persistence for fitted models (JSON).

A monitoring daemon trains on one machine and scores on many; models
must round-trip through storage byte-exactly.  Trees serialise to a
plain-JSON document (human-inspectable — the interpretability story
extends to the artefact on disk); the BP ANN serialises its weight
matrices as nested lists.  ``save_model``/``load_model`` dispatch on a
``kind`` tag so deployment code can reload any supported model without
knowing its class up front.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.ann.network import BPNeuralNetwork
from repro.tree.classification import ClassificationTree
from repro.tree.compiled import CompiledTree
from repro.tree.node import Node
from repro.tree.regression import RegressionTree
from repro.tree.surrogates import SurrogateSplit

FORMAT_VERSION = 1


def _compiled_payload(tree) -> dict:
    """The tree's flat-array form (compiling first if it was never built)."""
    if tree.compiled_ is None:
        tree.recompile()
    return tree.compiled_.to_dict()


def _restore_compiled(tree, payload: dict) -> None:
    """Attach the serialised flat arrays, or rebuild them from the graph.

    Payloads written before compiled inference existed lack the
    ``compiled`` section; those recompile from the node graph, which is
    lossless because the arrays are a pure function of the graph.
    """
    compiled = payload.get("compiled")
    if compiled is not None:
        tree.compiled_ = CompiledTree.from_dict(compiled)
    else:
        tree.recompile()


def _node_to_dict(node: Node) -> dict:
    payload = {
        "node_id": node.node_id,
        "depth": node.depth,
        "n_samples": node.n_samples,
        "weight": node.weight,
        "prediction": node.prediction,
        "impurity": node.impurity,
        "gain": node.gain,
    }
    if node.class_distribution is not None:
        payload["class_distribution"] = node.class_distribution.tolist()
    if not node.is_leaf:
        payload.update(
            feature=node.feature,
            threshold=node.threshold,
            missing_goes_left=node.missing_goes_left,
            surrogates=[
                {
                    "feature": s.feature,
                    "threshold": s.threshold,
                    "less_goes_left": s.less_goes_left,
                    "agreement": s.agreement,
                }
                for s in node.surrogates
            ],
            left=_node_to_dict(node.left),
            right=_node_to_dict(node.right),
        )
    return payload


def _node_from_dict(payload: dict) -> Node:
    distribution = payload.get("class_distribution")
    node = Node(
        node_id=int(payload["node_id"]),
        depth=int(payload["depth"]),
        n_samples=int(payload["n_samples"]),
        weight=float(payload["weight"]),
        prediction=float(payload["prediction"]),
        impurity=float(payload["impurity"]),
        class_distribution=None if distribution is None else np.asarray(distribution),
        gain=float(payload.get("gain", 0.0)),
    )
    if "feature" in payload:
        node.feature = int(payload["feature"])
        node.threshold = float(payload["threshold"])
        node.missing_goes_left = bool(payload["missing_goes_left"])
        node.surrogates = tuple(
            SurrogateSplit(
                feature=int(s["feature"]),
                threshold=float(s["threshold"]),
                less_goes_left=bool(s["less_goes_left"]),
                agreement=float(s["agreement"]),
            )
            for s in payload.get("surrogates", [])
        )
        node.left = _node_from_dict(payload["left"])
        node.right = _node_from_dict(payload["right"])
    return node


def classification_tree_to_dict(tree: ClassificationTree) -> dict:
    """Serialise a fitted classification tree to a JSON-able dict."""
    root = tree._check_fitted()
    return {
        "kind": "classification_tree",
        "version": FORMAT_VERSION,
        "params": {
            "minsplit": tree.minsplit,
            "minbucket": tree.minbucket,
            "cp": tree.cp,
            "criterion": tree.criterion,
            "max_depth": tree.max_depth,
            "n_surrogates": tree.n_surrogates,
        },
        "classes": np.asarray(tree.classes_).tolist(),
        "n_features": tree.n_features_,
        "loss_matrix": None if tree.loss_matrix is None else tree.loss_matrix.tolist(),
        "root": _node_to_dict(root),
        "compiled": _compiled_payload(tree),
    }


def classification_tree_from_dict(payload: dict) -> ClassificationTree:
    """Rebuild a fitted classification tree from its dict form.

    Keys the tree no longer has are ignored, so documents written when
    trees still took ``backend`` and ``presort`` options load unchanged.
    """
    _check_payload(payload, "classification_tree")
    params = payload["params"]
    tree = ClassificationTree(
        minsplit=params["minsplit"],
        minbucket=params["minbucket"],
        cp=params["cp"],
        criterion=params["criterion"],
        loss_matrix=payload.get("loss_matrix"),
        max_depth=params["max_depth"],
        n_surrogates=params.get("n_surrogates", 0),
    )
    tree.classes_ = np.asarray(payload["classes"])
    tree.n_features_ = int(payload["n_features"])
    tree.root_ = _node_from_dict(payload["root"])
    _restore_compiled(tree, payload)
    return tree


def regression_tree_to_dict(tree: RegressionTree) -> dict:
    """Serialise a fitted regression tree to a JSON-able dict."""
    root = tree._check_fitted()
    return {
        "kind": "regression_tree",
        "version": FORMAT_VERSION,
        "params": {
            "minsplit": tree.minsplit,
            "minbucket": tree.minbucket,
            "cp": tree.cp,
            "max_depth": tree.max_depth,
            "n_surrogates": tree.n_surrogates,
        },
        "n_features": tree.n_features_,
        "root": _node_to_dict(root),
        "compiled": _compiled_payload(tree),
    }


def regression_tree_from_dict(payload: dict) -> RegressionTree:
    """Rebuild a fitted regression tree from its dict form (legacy
    ``backend``/``presort`` keys are ignored, as for classification)."""
    _check_payload(payload, "regression_tree")
    params = payload["params"]
    tree = RegressionTree(
        minsplit=params["minsplit"],
        minbucket=params["minbucket"],
        cp=params["cp"],
        max_depth=params["max_depth"],
        n_surrogates=params.get("n_surrogates", 0),
    )
    tree.n_features_ = int(payload["n_features"])
    tree.root_ = _node_from_dict(payload["root"])
    _restore_compiled(tree, payload)
    return tree


def network_to_dict(network: BPNeuralNetwork) -> dict:
    """Serialise a fitted BP ANN to a JSON-able dict."""
    network._check_fitted()
    return {
        "kind": "bp_network",
        "version": FORMAT_VERSION,
        "params": {
            "hidden_sizes": list(network.hidden_sizes),
            "learning_rate": network.learning_rate,
            "max_iter": network.max_iter,
            "batch_size": network.batch_size,
            "activation": network.activation.name,
            "output_activation": network.output_activation.name,
            "scaling": network.scaling,
            "tol": network.tol,
        },
        "n_features": network.n_features_,
        "weights": [w.tolist() for w in network.weights_],
        "biases": [b.tolist() for b in network.biases_],
        "scaler_mean": network._mean.tolist(),
        "scaler_scale": network._scale.tolist(),
    }


def network_from_dict(payload: dict) -> BPNeuralNetwork:
    """Rebuild a fitted BP ANN from its dict form."""
    _check_payload(payload, "bp_network")
    params = payload["params"]
    network = BPNeuralNetwork(
        hidden_sizes=params["hidden_sizes"],
        learning_rate=params["learning_rate"],
        max_iter=params["max_iter"],
        batch_size=params["batch_size"],
        activation=params["activation"],
        output_activation=params["output_activation"],
        scaling=params["scaling"],
        tol=params["tol"],
    )
    network.n_features_ = int(payload["n_features"])
    network.weights_ = [np.asarray(w) for w in payload["weights"]]
    network.biases_ = [np.asarray(b) for b in payload["biases"]]
    network._mean = np.asarray(payload["scaler_mean"])
    network._scale = np.asarray(payload["scaler_scale"])
    return network


_SERIALIZERS = {
    ClassificationTree: classification_tree_to_dict,
    RegressionTree: regression_tree_to_dict,
    BPNeuralNetwork: network_to_dict,
}

_DESERIALIZERS = {
    "classification_tree": classification_tree_from_dict,
    "regression_tree": regression_tree_from_dict,
    "bp_network": network_from_dict,
}


def _check_payload(payload: dict, expected_kind: str) -> None:
    kind = payload.get("kind")
    if kind != expected_kind:
        raise ValueError(f"expected a {expected_kind!r} payload, got kind={kind!r}")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported serialization version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )


def save_model(
    path: Union[str, Path],
    model: object,
    *,
    feature_names: Optional[list[str]] = None,
) -> None:
    """Write a fitted model (tree or network) to a JSON file.

    ``feature_names`` are stored alongside the model so the loader can
    check that scoring-time features match training-time features.
    """
    serializer = None
    for model_type, func in _SERIALIZERS.items():
        if isinstance(model, model_type):
            serializer = func
            break
    if serializer is None:
        raise TypeError(
            f"cannot serialise {type(model).__name__}; supported: "
            f"{', '.join(t.__name__ for t in _SERIALIZERS)}"
        )
    payload = serializer(model)
    if feature_names is not None:
        payload["feature_names"] = list(feature_names)
    Path(path).write_text(json.dumps(payload, indent=1))


def load_model(path: Union[str, Path]) -> tuple[object, Optional[list[str]]]:
    """Load a model written by :func:`save_model`.

    Returns ``(model, feature_names)``; feature names are ``None`` when
    they were not stored.
    """
    payload = json.loads(Path(path).read_text())
    kind = payload.get("kind")
    deserializer = _DESERIALIZERS.get(kind)
    if deserializer is None:
        raise ValueError(
            f"unknown model kind {kind!r}; supported: {sorted(_DESERIALIZERS)}"
        )
    return deserializer(payload), payload.get("feature_names")
