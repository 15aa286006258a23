"""Random forest over the paper's CART trees.

The paper's future-work section names random forests as the next model to
try for boosting prediction performance; this module provides that
extension so the ablation benchmark can compare a single CT against an
ensemble under identical training protocols.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.tree.bagging import subsample_member_inputs
from repro.tree.base import ServingScorerMixin
from repro.tree.classification import ClassificationTree, ClassWeight
from repro.tree.compiled import CompiledForest
from repro.utils.parallel import run_tasks
from repro.utils.rng import RandomState, as_rng, spawn_child
from repro.utils.validation import check_2d, check_matching_length


def _fit_member(context, task):
    """Fit one forest member (module-level so worker processes can call it)."""
    matrix, labels, weights, tree_params, bootstrap, n_active = context
    index, tree_rng = task
    inputs, rows, active = subsample_member_inputs(
        tree_rng, matrix, n_active=n_active, bootstrap=bootstrap
    )
    tree = ClassificationTree(**tree_params)
    tree.fit(
        inputs,
        labels[rows],
        sample_weight=None if weights is None else weights[rows],
    )
    return tree, active


class RandomForestClassifier(ServingScorerMixin):
    """Bagged ensemble of :class:`ClassificationTree` with feature subsampling.

    Args:
        n_trees: Ensemble size.
        max_features: Features examined per split: ``"sqrt"``, an int, or
            ``None`` for all features (plain bagging).
        minsplit/minbucket/cp/criterion/class_weight/loss_matrix/max_depth:
            Forwarded to every member tree (paper-default values).
        bootstrap: Sample rows with replacement per tree when True.
        seed: Seed / generator for reproducible resampling.
        n_jobs: Worker processes for fitting members (``None`` defers to
            ``REPRO_N_JOBS``, default serial; ``0``/negative = all
            cores).  Fitted members are identical at any ``n_jobs`` —
            each member's randomness is spawned per-task from ``seed``.
    """

    def __init__(
        self,
        n_trees: int = 30,
        max_features: object = "sqrt",
        minsplit: int = 20,
        minbucket: int = 7,
        cp: float = 0.001,
        criterion: str = "entropy",
        class_weight: ClassWeight = None,
        loss_matrix: Optional[Sequence[Sequence[float]]] = None,
        max_depth: Optional[int] = None,
        bootstrap: bool = True,
        seed: RandomState = None,
        n_jobs: Optional[int] = None,
    ):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.max_features = max_features
        self.tree_params = dict(
            minsplit=minsplit,
            minbucket=minbucket,
            cp=cp,
            criterion=criterion,
            class_weight=class_weight,
            loss_matrix=loss_matrix,
            max_depth=max_depth,
        )
        self.bootstrap = bool(bootstrap)
        self.seed = seed
        self.n_jobs = n_jobs
        self.trees_: list[ClassificationTree] = []
        self.classes_: Optional[np.ndarray] = None
        self._compiled_forest: Optional[CompiledForest] = None

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        count = int(self.max_features)
        if not 1 <= count <= n_features:
            raise ValueError(
                f"max_features must be in [1, {n_features}], got {self.max_features!r}"
            )
        return count

    def fit(
        self,
        X: object,
        y: Sequence[object],
        sample_weight: Optional[Sequence[float]] = None,
    ) -> "RandomForestClassifier":
        """Fit ``n_trees`` trees on bootstrap resamples with feature masking.

        Feature subsampling is approximated per-tree rather than
        per-split: each member sees a random feature subset via masked
        (NaN-ed out) columns, which keeps the member trees byte-identical
        to the paper's CT implementation.
        """
        matrix = check_2d("X", X)
        labels = np.asarray(y)
        check_matching_length(("X", matrix), ("y", labels))
        rng = as_rng(self.seed)
        n_active = self._resolve_max_features(matrix.shape[1])
        weights = None if sample_weight is None else np.asarray(sample_weight, dtype=float)

        # Each member's randomness is spawned per-task from the forest
        # seed (consumption-independent), so members are identical
        # whether fitted serially or across worker processes.
        context = (matrix, labels, weights, self.tree_params, self.bootstrap, n_active)
        tasks = [(index, spawn_child(rng, index)) for index in range(self.n_trees)]
        members = run_tasks(_fit_member, tasks, n_jobs=self.n_jobs, context=context)
        self.trees_ = [tree for tree, _ in members]
        self._feature_masks = [active for _, active in members]
        self.classes_ = np.unique(labels)
        self._compiled_forest = None
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("RandomForestClassifier is not fitted; call fit() first")

    def _batch_predictions(self, matrix: np.ndarray) -> np.ndarray:
        """Member predictions stacked ``(n_trees, n_rows)``; one routing pass."""
        if self._compiled_forest is None:
            self._compiled_forest = CompiledForest(
                [tree.compiled_ for tree in self.trees_]
            )
        return self._compiled_forest.predict_matrix(matrix)

    def predict_proba(self, X: object) -> np.ndarray:
        """Ensemble-averaged class probabilities."""
        self._check_fitted()
        predictions = self._batch_predictions(check_2d("X", X))
        votes = (predictions[:, :, None] == self.classes_[None, None, :]).sum(
            axis=0, dtype=float
        )
        return votes / len(self.trees_)

    def predict(self, X: object) -> np.ndarray:
        """Majority-vote class labels."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
