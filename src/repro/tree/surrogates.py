"""Surrogate splits for missing values (rpart's mechanism).

The paper's R/rpart substrate routes a sample whose primary split value
is missing through *surrogate splits*: alternative (feature, threshold)
rules chosen because they best mimic the primary split's left/right
assignment on the training data, tried in agreement order, with the
majority direction as the last resort.  Our default trees use only the
majority-direction fallback (missing SMART readings are rare); enabling
``surrogates=k`` on a tree reproduces rpart's behaviour and measurably
helps when whole attributes go unreported.

A surrogate is kept only if its weighted agreement with the primary
assignment beats the blind majority rule — rpart's admission criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tree.frontier import FrontierNode


@dataclass(frozen=True)
class SurrogateSplit:
    """One surrogate rule: mimic the primary split via another feature.

    ``less_goes_left`` is True when ``x[feature] < threshold`` should
    follow the primary split's *left* branch (surrogates may correlate
    negatively with the primary, reversing the direction).
    ``agreement`` is the weighted fraction of primary-routable training
    samples the rule assigns to the same side.
    """

    feature: int
    threshold: float
    less_goes_left: bool
    agreement: float


def find_surrogate_splits_presorted(
    frontier_node: FrontierNode,
    X: np.ndarray,
    weights: np.ndarray,
    indices: np.ndarray,
    *,
    primary_feature: int,
    primary_threshold: float,
    max_surrogates: int = 3,
) -> tuple[SurrogateSplit, ...]:
    """Rank surrogate rules that mimic a node's primary split.

    Reads each candidate feature's sorted order from the node's
    :class:`~repro.tree.frontier.FrontierNode` instead of argsorting it,
    and keeps every weight reduction in the summation order of the
    per-node re-sorting oracle (``tests/oracles/resort.py``) so the
    admission test and agreement ranking are bit-identical to it.
    ``X``/``weights`` are the fit-wide arrays; ``indices`` the node's
    rows in ascending order; ``max_surrogates`` caps how many rules are
    kept.  Returns surrogates sorted by agreement, best first; only
    rules that beat the majority-direction baseline are admitted.
    """
    if max_surrogates <= 0:
        return ()
    primary_column = X[indices, primary_feature]
    primary_finite = np.isfinite(primary_column)
    if int(primary_finite.sum()) < 2:
        return ()
    node_weights = weights[indices]
    primary_left = primary_column[primary_finite] < primary_threshold
    routable_weights = node_weights[primary_finite]
    left_weight = float(routable_weights[primary_left].sum())
    right_weight = float(routable_weights[~primary_left].sum())
    total = left_weight + right_weight
    if total <= 0:
        return ()
    baseline = max(left_weight, right_weight) / total

    marked_rows = indices[primary_finite]
    scratch = frontier_node.mark(marked_rows)
    # Row-id-indexed lookups: one scatter per node replaces a 2-D fancy
    # gather of the primary column per candidate feature, and one
    # scatter per feature replaces the candidate column's 2-D gather +
    # isfinite when recovering the row-order co-finite mask.
    left_lookup = np.zeros(X.shape[0], dtype=bool)
    left_lookup[marked_rows] = primary_left
    pair_lookup = np.zeros(X.shape[0], dtype=bool)
    found: list[SurrogateSplit] = []
    try:
        for feature in range(frontier_node.n_features):
            if feature == primary_feature:
                continue
            rows, vals = frontier_node.sorted_finite(feature)
            keep = scratch[rows]
            kept_rows = rows[keep]
            if kept_rows.size < 2:
                continue
            # Rows finite in both columns, in row order (the reference
            # sums the observed weight before sorting, so the summation
            # order matters).
            pair_lookup[kept_rows] = True
            finite_both = pair_lookup[indices]
            pair_lookup[kept_rows] = False
            observed = float(node_weights[finite_both].sum())
            if observed <= 0:
                continue

            x_sorted = vals[keep]
            boundaries = (x_sorted[:-1] < x_sorted[1:]).nonzero()[0]
            if boundaries.size == 0:
                continue
            is_left = left_lookup[kept_rows]
            w_sorted = weights[kept_rows]
            left_w = np.where(is_left, w_sorted, 0.0)
            right_w = np.where(is_left, 0.0, w_sorted)
            cum_left = left_w.cumsum()
            cum_right = right_w.cumsum()
            total_left = cum_left[-1]
            total_right = cum_right[-1]

            normal = cum_left[boundaries] + (total_right - cum_right[boundaries])
            reversed_ = cum_right[boundaries] + (total_left - cum_left[boundaries])

            best_normal = int(normal.argmax())
            best_reversed = int(reversed_.argmax())
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
    finally:
        frontier_node.unmark(marked_rows)

    found.sort(key=lambda s: s.agreement, reverse=True)
    return tuple(found[:max_surrogates])


def route_left_with_surrogates(
    sample: np.ndarray,
    primary_feature: int,
    primary_threshold: float,
    surrogates: tuple[SurrogateSplit, ...],
    missing_goes_left: bool,
) -> bool:
    """Decide a single sample's branch using primary, surrogates, fallback."""
    value = sample[primary_feature]
    if np.isfinite(value):
        return bool(value < primary_threshold)
    for surrogate in surrogates:
        candidate = sample[surrogate.feature]
        if np.isfinite(candidate):
            goes_less = bool(candidate < surrogate.threshold)
            return goes_less if surrogate.less_goes_left else not goes_less
    return missing_goes_left
