"""Bagged regression forest (health-degree future work).

The paper closes: "It is worthwhile to study other methods to build
more effective health degree models."  The natural first step beyond a
single RT is variance reduction by bagging: an ensemble of regression
trees on bootstrap resamples (optionally with per-tree feature masking)
whose averaged output is a smoother, lower-variance health degree.
Plugs into :class:`~repro.health.model.HealthDegreePredictor` via its
``regressor_factory`` hook.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tree.bagging import subsample_member_inputs
from repro.tree.base import ServingScorerMixin
from repro.tree.compiled import CompiledForest
from repro.tree.regression import RegressionTree
from repro.utils.parallel import run_tasks
from repro.utils.rng import RandomState, as_rng, spawn_child
from repro.utils.validation import check_1d, check_2d, check_matching_length


def _fit_member(context, task):
    """Fit one forest member (module-level so worker processes can call it)."""
    matrix, targets, weights, tree_params, bootstrap, n_active = context
    index, tree_rng = task
    inputs, rows, _ = subsample_member_inputs(
        tree_rng, matrix, n_active=n_active, bootstrap=bootstrap
    )
    tree = RegressionTree(**tree_params)
    tree.fit(
        inputs,
        targets[rows],
        sample_weight=None if weights is None else weights[rows],
    )
    return tree


class RandomForestRegressor(ServingScorerMixin):
    """Bootstrap-aggregated :class:`RegressionTree` ensemble.

    Args:
        n_trees: Ensemble size.
        max_features: Features visible per tree: ``"sqrt"``, an int, or
            ``None`` for all (plain bagging).
        minsplit/minbucket/cp/max_depth: Forwarded to every member.
        bootstrap: Resample rows with replacement per tree.
        seed: Seed for reproducible resampling.
        n_jobs: Worker processes for fitting members (``None`` defers to
            ``REPRO_N_JOBS``, default serial; ``0``/negative = all
            cores).  Fitted members are identical at any ``n_jobs``.
    """

    def __init__(
        self,
        n_trees: int = 20,
        max_features: object = None,
        minsplit: int = 20,
        minbucket: int = 7,
        cp: float = 0.004,
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
            minsplit=minsplit, minbucket=minbucket, cp=cp, max_depth=max_depth,
        )
        self.bootstrap = bool(bootstrap)
        self.seed = seed
        self.n_jobs = n_jobs
        self.trees_: list[RegressionTree] = []
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
        y: Sequence[float],
        sample_weight: Optional[Sequence[float]] = None,
    ) -> "RandomForestRegressor":
        """Fit the ensemble on bootstrap resamples."""
        matrix = check_2d("X", X)
        targets = check_1d("y", y)
        check_matching_length(("X", matrix), ("y", targets))
        weights = None if sample_weight is None else np.asarray(sample_weight, dtype=float)
        rng = as_rng(self.seed)
        n_active = self._resolve_max_features(matrix.shape[1])

        # Per-task spawned generators keep members identical at any n_jobs.
        context = (matrix, targets, weights, self.tree_params, self.bootstrap, n_active)
        tasks = [(index, spawn_child(rng, index)) for index in range(self.n_trees)]
        self.trees_ = run_tasks(
            _fit_member, tasks, n_jobs=self.n_jobs, context=context
        )
        self._compiled_forest = None
        return self

    def predict(self, X: object) -> np.ndarray:
        """Ensemble-averaged predictions."""
        if not self.trees_:
            raise RuntimeError("RandomForestRegressor is not fitted; call fit() first")
        if self._compiled_forest is None:
            self._compiled_forest = CompiledForest(
                [tree.compiled_ for tree in self.trees_]
            )
        return np.mean(self._compiled_forest.predict_matrix(check_2d("X", X)), axis=0)
