"""AdaBoost over shallow CARTs.

The paper's related work (their MSST'13 study) evaluated AdaBoost and
found it "does not provide significant performance improvement and is
much more computationally expensive"; this implementation exists so the
ablation benchmark can reproduce that comparison against the plain CT.
Discrete AdaBoost (SAMME with two classes) over depth-limited
:class:`~repro.tree.classification.ClassificationTree` weak learners.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tree.base import ServingScorerMixin
from repro.tree.classification import ClassificationTree
from repro.tree.compiled import CompiledForest
from repro.utils.validation import check_2d, check_matching_length


class AdaBoostClassifier(ServingScorerMixin):
    """Discrete AdaBoost ensemble of depth-limited classification trees.

    Args:
        n_rounds: Maximum boosting rounds (stops early on a perfect or
            degenerate weak learner).
        max_depth: Depth cap of each weak learner (1 = decision stumps).
        minsplit/minbucket/cp: Forwarded to the weak learners.
        learning_rate: Shrinkage applied to each round's vote weight.
    """

    def __init__(
        self,
        n_rounds: int = 20,
        max_depth: int = 2,
        minsplit: int = 20,
        minbucket: int = 7,
        cp: float = 0.0,
        learning_rate: float = 1.0,
    ):
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self.n_rounds = int(n_rounds)
        self.learning_rate = float(learning_rate)
        self.tree_params = dict(
            minsplit=minsplit, minbucket=minbucket, cp=cp, max_depth=max_depth,
        )
        self.trees_: list[ClassificationTree] = []
        self.alphas_: list[float] = []
        self.classes_: Optional[np.ndarray] = None
        self._compiled_forest: Optional[CompiledForest] = None

    def fit(self, X: object, y: Sequence[object]) -> "AdaBoostClassifier":
        """Fit the boosted ensemble on binary labels."""
        matrix = check_2d("X", X)
        labels = np.asarray(y)
        check_matching_length(("X", matrix), ("y", labels))
        self.classes_ = np.unique(labels)
        if len(self.classes_) != 2:
            raise ValueError(
                f"AdaBoostClassifier requires exactly 2 classes, got {len(self.classes_)}"
            )
        signs = np.where(labels == self.classes_[1], 1.0, -1.0)
        weights = np.full(matrix.shape[0], 1.0 / matrix.shape[0])

        self.trees_ = []
        self.alphas_ = []
        self._compiled_forest = None
        for _ in range(self.n_rounds):
            tree = ClassificationTree(**self.tree_params)
            tree.fit(matrix, labels, sample_weight=weights)
            predicted = np.where(tree.predict(matrix) == self.classes_[1], 1.0, -1.0)
            wrong = predicted != signs
            error = float(weights[wrong].sum())
            if error <= 0:
                # Perfect weak learner: it alone decides, further rounds
                # cannot change the vote.
                self.trees_.append(tree)
                self.alphas_.append(1.0)
                break
            if error >= 0.5:
                # No better than chance under the current weights; adding
                # it (or anything after it) would not help.
                break
            alpha = self.learning_rate * 0.5 * np.log((1.0 - error) / error)
            self.trees_.append(tree)
            self.alphas_.append(float(alpha))
            weights = weights * np.exp(-alpha * signs * predicted)
            weights /= weights.sum()
        if not self.trees_:
            # Every candidate weak learner was degenerate; fall back to a
            # single unweighted tree so predict() still works.
            tree = ClassificationTree(**self.tree_params)
            tree.fit(matrix, labels)
            self.trees_.append(tree)
            self.alphas_.append(1.0)
        return self

    def decision_function(self, X: object) -> np.ndarray:
        """Signed ensemble margin; positive values favour ``classes_[1]``."""
        if not self.trees_:
            raise RuntimeError("AdaBoostClassifier is not fitted; call fit() first")
        matrix = check_2d("X", X)
        if self._compiled_forest is None:
            self._compiled_forest = CompiledForest(
                [tree.compiled_ for tree in self.trees_]
            )
        predictions = self._compiled_forest.predict_matrix(matrix)
        margin = np.zeros(matrix.shape[0], dtype=float)
        for alpha, row in zip(self.alphas_, predictions):
            margin += alpha * np.where(row == self.classes_[1], 1.0, -1.0)
        return margin

    def predict(self, X: object) -> np.ndarray:
        """Weighted-majority class labels."""
        margin = self.decision_function(X)
        return np.where(margin >= 0, self.classes_[1], self.classes_[0])
