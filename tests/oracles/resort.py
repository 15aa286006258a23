"""Per-node re-sorting split search: the oracle for presorted training.

Trees train through one split finder, the presorted columnar frontier
(:mod:`repro.tree.frontier`), which argsorts every feature once per fit.
The direct transcription of the paper's Algorithms 1 and 2 it replaced
re-sorts every feature at every node (``O(d * n log n)`` per node) and
ranks surrogate splits the same way.  That transcription lives on here
as the reference the presorted path is pinned against node for node
(``tests/test_tree_frontier.py``) and as the slow side of the training
speedup floor in ``benchmarks/test_bench_micro.py``.

:class:`ResortClassificationTree` / :class:`ResortRegressionTree` grow
a tree with these functions instead of the frontier; everything else
(node statistics, routing of training rows, CP pruning, compilation)
is the production code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tree.classification import ClassificationTree
from repro.tree.regression import RegressionTree
from repro.tree.splitter import (
    SplitCandidate,
    _missing_side,
    _sorted_classification_split,
)
from repro.tree.surrogates import SurrogateSplit


def best_classification_split(
    feature_values: np.ndarray,
    class_indices: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    *,
    minbucket: int = 1,
    criterion: str = "entropy",
) -> Optional[tuple[float, float]]:
    """Best (threshold, gain) for one feature at a classification node.

    Returns ``None`` when no admissible split exists (constant feature,
    all-missing feature, or minbucket unreachable).  Gain is measured on
    the node's *finite-valued* samples, matching the convention that NaNs
    carry no split information.
    """
    finite = np.isfinite(feature_values)
    x = feature_values[finite]
    if x.size < 2 * minbucket:
        return None
    cls = class_indices[finite]
    w = weights[finite]

    order = np.argsort(x, kind="stable")
    return _sorted_classification_split(
        x[order], cls[order], w[order], n_classes,
        minbucket=minbucket, criterion=criterion,
    )


def best_regression_split(
    feature_values: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    *,
    minbucket: int = 1,
) -> Optional[tuple[float, float]]:
    """Best (threshold, SSE-reduction) for one feature at a regression node.

    The paper's Algorithm 2 selects the split minimising
    ``sq = sq_left + sq_right``; we return the equivalent maximisation of
    ``SSE(parent) - sq`` so classification and regression share a single
    "larger gain is better" contract.
    """
    finite = np.isfinite(feature_values)
    x = feature_values[finite]
    if x.size < 2 * minbucket:
        return None
    y = targets[finite]
    w = weights[finite]

    order = np.argsort(x, kind="stable")
    return _sorted_regression_split(
        x[order], y[order], w[order], minbucket=minbucket
    )


def _sorted_regression_split(
    x_sorted: np.ndarray,
    y_sorted: np.ndarray,
    w_sorted: np.ndarray,
    *,
    minbucket: int,
) -> Optional[tuple[float, float]]:
    """Score a regression feature whose finite values are pre-sorted."""
    if x_sorted.size < 2 * minbucket:
        return None
    boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
    if boundaries.size == 0:
        return None
    left_sizes = boundaries + 1
    admissible = (left_sizes >= minbucket) & (x_sorted.size - left_sizes >= minbucket)
    boundaries = boundaries[admissible]
    if boundaries.size == 0:
        return None

    wy = w_sorted * y_sorted
    wyy = wy * y_sorted
    cw = np.cumsum(w_sorted)
    cwy = np.cumsum(wy)
    cwyy = np.cumsum(wyy)

    def _sse(sum_w: np.ndarray, sum_wy: np.ndarray, sum_wyy: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            means_term = np.where(sum_w > 0, sum_wy**2 / sum_w, 0.0)
        return sum_wyy - means_term

    left_sse = _sse(cw[boundaries], cwy[boundaries], cwyy[boundaries])
    right_sse = _sse(cw[-1] - cw[boundaries], cwy[-1] - cwy[boundaries], cwyy[-1] - cwyy[boundaries])
    parent_sse = _sse(np.array([cw[-1]]), np.array([cwy[-1]]), np.array([cwyy[-1]]))[0]
    gains = parent_sse - (left_sse + right_sse)

    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain < -1e-12 or not np.isfinite(gain):
        return None
    boundary = boundaries[best]
    threshold = float((x_sorted[boundary] + x_sorted[boundary + 1]) / 2.0)
    return threshold, max(gain, 0.0)


def find_best_split(
    X: np.ndarray,
    *,
    task: str,
    weights: np.ndarray,
    minbucket: int,
    class_indices: Optional[np.ndarray] = None,
    n_classes: int = 0,
    targets: Optional[np.ndarray] = None,
    criterion: str = "entropy",
    feature_subset: Optional[np.ndarray] = None,
) -> Optional[SplitCandidate]:
    """Search every (feature, threshold) pair at a node; return the best.

    ``feature_subset`` restricts the search to the given feature indices
    (used by the random-forest extension); ``None`` searches all columns.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"task must be classification or regression, got {task!r}")
    features = (
        np.arange(X.shape[1]) if feature_subset is None else np.asarray(feature_subset)
    )
    best: Optional[SplitCandidate] = None
    for feature in features:
        column = X[:, feature]
        if task == "classification":
            found = best_classification_split(
                column, class_indices, weights, n_classes,
                minbucket=minbucket, criterion=criterion,
            )
        else:
            found = best_regression_split(
                column, targets, weights, minbucket=minbucket
            )
        if found is None:
            continue
        threshold, gain = found
        if best is None or gain > best.gain:
            goes_left = _missing_side(column, weights, threshold)
            best = SplitCandidate(int(feature), threshold, gain, goes_left)
    return best


def find_surrogate_splits(
    X: np.ndarray,
    primary_left: np.ndarray,
    weights: np.ndarray,
    *,
    exclude_feature: int,
    max_surrogates: int = 3,
) -> tuple[SurrogateSplit, ...]:
    """Rank surrogate rules that mimic a primary split.

    Args:
        X: The node's sample matrix.
        primary_left: Boolean mask — the primary split's left assignment
            (only rows with a finite primary value should be passed).
        weights: Sample weights aligned with ``X``.
        exclude_feature: The primary split's feature (never a surrogate).
        max_surrogates: How many rules to keep (rpart default keeps up
            to 5; we default to 3).

    Returns surrogates sorted by agreement, best first; only rules that
    beat the majority-direction baseline are admitted.
    """
    if max_surrogates <= 0 or X.shape[0] == 0:
        return ()
    left_weight = float(weights[primary_left].sum())
    right_weight = float(weights[~primary_left].sum())
    total = left_weight + right_weight
    if total <= 0:
        return ()
    baseline = max(left_weight, right_weight) / total

    found: list[SurrogateSplit] = []
    for feature in range(X.shape[1]):
        if feature == exclude_feature:
            continue
        column = X[:, feature]
        finite = np.isfinite(column)
        if finite.sum() < 2:
            continue
        x = column[finite]
        is_left = primary_left[finite]
        w = weights[finite]
        observed = float(w.sum())
        if observed <= 0:
            continue

        order = np.argsort(x, kind="stable")
        x_sorted = x[order]
        boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
        if boundaries.size == 0:
            continue
        left_w = np.where(is_left[order], w[order], 0.0)
        right_w = np.where(is_left[order], 0.0, w[order])
        cum_left = np.cumsum(left_w)
        cum_right = np.cumsum(right_w)
        total_left = cum_left[-1]
        total_right = cum_right[-1]

        # "x < thr goes left": matches = left-labeled below + right-labeled above.
        normal = cum_left[boundaries] + (total_right - cum_right[boundaries])
        # Reversed direction: the complement.
        reversed_ = cum_right[boundaries] + (total_left - cum_left[boundaries])

        best_normal = int(np.argmax(normal))
        best_reversed = int(np.argmax(reversed_))
        if normal[best_normal] >= reversed_[best_reversed]:
            boundary, matched, less_left = best_normal, normal[best_normal], True
        else:
            boundary, matched, less_left = best_reversed, reversed_[best_reversed], False
        agreement = float(matched) / observed
        if agreement <= baseline + 1e-12:
            continue
        index = boundaries[boundary]
        threshold = float((x_sorted[index] + x_sorted[index + 1]) / 2.0)
        found.append(
            SurrogateSplit(
                feature=int(feature),
                threshold=threshold,
                less_goes_left=less_left,
                agreement=agreement,
            )
        )

    found.sort(key=lambda s: s.agreement, reverse=True)
    return tuple(found[:max_surrogates])


class _ResortGrowth:
    """Algorithm 1/2 growth with a fresh sort at every node."""

    def _grow(self, X: np.ndarray, sample_weight: np.ndarray) -> None:
        self._X = X
        self._w = sample_weight
        all_indices = np.arange(X.shape[0])
        self.root_ = self._create_node(node_id=1, depth=0, indices=all_indices)
        stack = [(self.root_, all_indices)]
        while stack:
            node, indices = stack.pop()
            if not self._may_split(node, indices):
                continue
            candidate = self._search_split(indices)
            if candidate is None:
                continue
            surrogates = self._find_surrogates(indices, candidate)
            left_mask, right_mask = self._partition_training_rows(
                indices, candidate, surrogates
            )
            left_idx = indices[left_mask]
            right_idx = indices[right_mask]
            if len(left_idx) == 0 or len(right_idx) == 0:
                continue
            node.feature = candidate.feature
            node.threshold = candidate.threshold
            node.missing_goes_left = candidate.missing_goes_left
            node.surrogates = surrogates
            node.gain = candidate.gain
            node.left = self._create_node(2 * node.node_id, node.depth + 1, left_idx)
            node.right = self._create_node(2 * node.node_id + 1, node.depth + 1, right_idx)
            stack.append((node.left, left_idx))
            stack.append((node.right, right_idx))
        self._prune(self.cp)
        del self._X, self._w
        self.recompile()

    def _find_surrogates(self, indices, candidate, frontier_node=None):
        if self.n_surrogates <= 0:
            return ()
        rows = self._X[indices]
        column = rows[:, candidate.feature]
        finite = np.isfinite(column)
        if finite.sum() < 2:
            return ()
        return find_surrogate_splits(
            rows[finite],
            column[finite] < candidate.threshold,
            self._w[indices][finite],
            exclude_feature=candidate.feature,
            max_surrogates=self.n_surrogates,
        )


class ResortClassificationTree(_ResortGrowth, ClassificationTree):
    """A :class:`ClassificationTree` grown by per-node re-sorting."""

    def _search_split(self, indices, frontier_node=None) -> Optional[SplitCandidate]:
        return find_best_split(
            self._X[indices],
            task="classification",
            weights=self._w[indices],
            minbucket=self.minbucket,
            class_indices=self._class_indices[indices],
            n_classes=self._n_classes,
            criterion=self.criterion,
        )


class ResortRegressionTree(_ResortGrowth, RegressionTree):
    """A :class:`RegressionTree` grown by per-node re-sorting."""

    def _search_split(self, indices, frontier_node=None) -> Optional[SplitCandidate]:
        return find_best_split(
            self._X[indices],
            task="regression",
            weights=self._w[indices],
            minbucket=self.minbucket,
            targets=self._y[indices],
        )
