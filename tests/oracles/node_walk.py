"""Figure-1 node-walk inference: the oracle for compiled tree scoring.

Every fitted tree and ensemble scores through compiled flat arrays
(:mod:`repro.tree.compiled`).  The walk those arrays replaced — routing
rows through the paper's Figure-1 graph of
:class:`~repro.tree.node.Node` objects, with surrogate splits and the
``missing_goes_left`` fallback for missing values — lives on here as
the reference the compiled path is pinned against bit for bit
(``tests/test_tree_compiled.py`` and the provenance parity tests).

:func:`node_walk` wraps a fitted model.  The wrapper answers the
inference calls by walking nodes and forwards every other attribute to
the model, so it can stand in wherever a fitted tree is expected (for
example as a ``FleetMonitor``'s provenance ``tree``).
"""

from __future__ import annotations

import numpy as np

from repro.tree.base import BaseDecisionTree
from repro.tree.boosting import AdaBoostClassifier
from repro.tree.classification import ClassificationTree
from repro.tree.forest import RandomForestClassifier
from repro.tree.forest_regression import RandomForestRegressor
from repro.tree.node import Node
from repro.tree.splitter import partition
from repro.tree.surrogates import route_left_with_surrogates
from repro.utils.validation import check_2d


def partition_rows(
    rows: np.ndarray,
    feature: int,
    threshold: float,
    surrogates,
    missing_goes_left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right masks using the primary split, surrogates, fallback."""
    column = rows[:, feature]
    left, right = partition(column, threshold, missing_goes_left)
    if surrogates:
        for index in np.nonzero(~np.isfinite(column))[0]:
            goes_left = route_left_with_surrogates(
                rows[index], feature, threshold, surrogates, missing_goes_left
            )
            left[index] = goes_left
            right[index] = not goes_left
    return left, right


def route_rows(root: Node, X: np.ndarray, out: np.ndarray, leaf_value) -> None:
    """Descend all rows through the tree, writing ``leaf_value(leaf)`` to ``out``."""
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if node.is_leaf:
            out[rows] = leaf_value(node)
            continue
        left_mask, right_mask = partition_rows(
            X[rows], node.feature, node.threshold,
            node.surrogates, node.missing_goes_left,
        )
        stack.append((node.left, rows[left_mask]))
        stack.append((node.right, rows[right_mask]))


class NodeWalkTree:
    """A fitted tree whose inference walks the node graph."""

    def __init__(self, tree: BaseDecisionTree):
        self.tree = tree

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def _route(self, X: object, dtype, leaf_value) -> np.ndarray:
        root = self.tree._check_fitted()
        matrix = self.tree._validate_X(X)
        out = np.empty(matrix.shape[0], dtype=dtype)
        route_rows(root, matrix, out, leaf_value)
        return out

    def apply(self, X: object) -> np.ndarray:
        return self._route(X, np.int64, lambda leaf: leaf.node_id)

    def predict(self, X: object) -> np.ndarray:
        raw = self._route(X, float, lambda leaf: leaf.prediction)
        if isinstance(self.tree, ClassificationTree) and np.issubdtype(
            self.tree.classes_.dtype, np.integer
        ):
            return raw.astype(self.tree.classes_.dtype)
        return raw

    def predict_proba(self, X: object) -> np.ndarray:
        root = self.tree._check_fitted()
        by_id = {
            node.node_id: node.class_distribution
            for node in root.iter_nodes()
            if node.is_leaf
        }
        return np.vstack([by_id[int(i)] for i in self.apply(X)])

    def decision_path(self, sample: object) -> list[Node]:
        root = self.tree._check_fitted()
        row = np.asarray(sample, dtype=float)
        if row.ndim != 1 or row.shape[0] != self.tree.n_features_:
            raise ValueError(
                f"sample must be 1-D with {self.tree.n_features_} features, "
                f"got shape {row.shape}"
            )
        path = [root]
        node = root
        while not node.is_leaf:
            node = node.route(row)
            path.append(node)
        return path

    def decision_paths(self, X: object) -> list[tuple[int, ...]]:
        """Heap-id ancestor chains of the walked leaves (parent of ``i`` is ``i // 2``)."""
        paths = []
        for leaf_id in self.apply(X).tolist():
            chain = []
            while leaf_id >= 1:
                chain.append(leaf_id)
                leaf_id //= 2
            paths.append(tuple(reversed(chain)))
        return paths


class NodeWalkForest:
    """A fitted classification forest voting through per-member walks."""

    def __init__(self, forest: RandomForestClassifier):
        self.forest = forest

    def __getattr__(self, name):
        return getattr(self.forest, name)

    def predict_proba(self, X: object) -> np.ndarray:
        self.forest._check_fitted()
        matrix = check_2d("X", X)
        classes = self.forest.classes_
        votes = np.zeros((matrix.shape[0], len(classes)), dtype=float)
        for tree in self.forest.trees_:
            predictions = NodeWalkTree(tree).predict(matrix)
            for column, cls in enumerate(classes):
                votes[:, column] += predictions == cls
        return votes / len(self.forest.trees_)

    def predict(self, X: object) -> np.ndarray:
        return self.forest.classes_[np.argmax(self.predict_proba(X), axis=1)]


class NodeWalkForestRegressor:
    """A fitted regression forest averaging per-member walks."""

    def __init__(self, forest: RandomForestRegressor):
        self.forest = forest

    def __getattr__(self, name):
        return getattr(self.forest, name)

    def predict(self, X: object) -> np.ndarray:
        matrix = check_2d("X", X)
        return np.mean(
            [NodeWalkTree(tree).predict(matrix) for tree in self.forest.trees_],
            axis=0,
        )


class NodeWalkAdaBoost:
    """A fitted AdaBoost ensemble summing per-learner walks."""

    def __init__(self, booster: AdaBoostClassifier):
        self.booster = booster

    def __getattr__(self, name):
        return getattr(self.booster, name)

    def decision_function(self, X: object) -> np.ndarray:
        matrix = check_2d("X", X)
        positive = self.booster.classes_[1]
        margin = np.zeros(matrix.shape[0], dtype=float)
        for alpha, tree in zip(self.booster.alphas_, self.booster.trees_):
            predicted = NodeWalkTree(tree).predict(matrix)
            margin += alpha * np.where(predicted == positive, 1.0, -1.0)
        return margin

    def predict(self, X: object) -> np.ndarray:
        classes = self.booster.classes_
        return np.where(self.decision_function(X) >= 0, classes[1], classes[0])


_WRAPPERS = (
    (BaseDecisionTree, NodeWalkTree),
    (RandomForestClassifier, NodeWalkForest),
    (RandomForestRegressor, NodeWalkForestRegressor),
    (AdaBoostClassifier, NodeWalkAdaBoost),
)


def node_walk(model):
    """Wrap a fitted tree or ensemble so its inference walks the node graph."""
    for kind, wrapper in _WRAPPERS:
        if isinstance(model, kind):
            return wrapper(model)
    raise TypeError(f"no node-walk oracle for {type(model).__name__}")
