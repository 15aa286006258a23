"""Tests for surrogate splits (rpart's missing-value mechanism)."""

import numpy as np
import pytest

from repro.tree.classification import ClassificationTree
from repro.tree.serialization import (
    classification_tree_from_dict,
    classification_tree_to_dict,
)
from repro.tree.surrogates import SurrogateSplit, route_left_with_surrogates
from tests.oracles.resort import find_surrogate_splits


@pytest.fixture
def correlated_data():
    """Feature 0 is the primary signal; feature 1 mirrors it; feature 2 is noise."""
    rng = np.random.default_rng(0)
    n = 300
    primary = rng.uniform(-1, 1, size=n)
    mirror = primary + 0.05 * rng.normal(size=n)          # strong surrogate
    anti = -primary + 0.05 * rng.normal(size=n)           # reversed surrogate
    noise = rng.normal(size=n)
    X = np.column_stack([primary, mirror, anti, noise])
    y = np.where(primary > 0, 1, -1)
    return X, y


class TestFindSurrogateSplits:
    def test_correlated_feature_found_first(self, correlated_data):
        X, _ = correlated_data
        primary_left = X[:, 0] < 0.0
        surrogates = find_surrogate_splits(
            X, primary_left, np.ones(len(X)), exclude_feature=0, max_surrogates=3
        )
        assert surrogates
        assert surrogates[0].feature in (1, 2)
        assert surrogates[0].agreement > 0.95

    def test_anticorrelated_direction_reversed(self, correlated_data):
        X, _ = correlated_data
        primary_left = X[:, 0] < 0.0
        surrogates = find_surrogate_splits(
            X, primary_left, np.ones(len(X)), exclude_feature=0, max_surrogates=3
        )
        by_feature = {s.feature: s for s in surrogates}
        assert by_feature[1].less_goes_left is True
        assert by_feature[2].less_goes_left is False

    def test_noise_feature_ranks_last_with_weak_agreement(self, correlated_data):
        # A random feature can overfit slightly past the majority baseline
        # (rpart admits such surrogates too), but it must rank far below
        # the genuinely correlated ones.
        X, _ = correlated_data
        primary_left = X[:, 0] < 0.0
        surrogates = find_surrogate_splits(
            X, primary_left, np.ones(len(X)), exclude_feature=0, max_surrogates=4
        )
        by_feature = {s.feature: s for s in surrogates}
        if 3 in by_feature:
            assert surrogates[-1].feature == 3
            assert by_feature[3].agreement < 0.7

    def test_sorted_by_agreement(self, correlated_data):
        X, _ = correlated_data
        primary_left = X[:, 0] < 0.0
        surrogates = find_surrogate_splits(
            X, primary_left, np.ones(len(X)), exclude_feature=0, max_surrogates=4
        )
        agreements = [s.agreement for s in surrogates]
        assert agreements == sorted(agreements, reverse=True)

    def test_zero_max_returns_empty(self, correlated_data):
        X, _ = correlated_data
        assert find_surrogate_splits(
            X, X[:, 0] < 0, np.ones(len(X)), exclude_feature=0, max_surrogates=0
        ) == ()

    def test_one_sided_primary_is_unbeatable(self):
        # Everything routed left: no surrogate can beat the majority rule.
        X = np.random.default_rng(1).normal(size=(50, 3))
        surrogates = find_surrogate_splits(
            X, np.ones(50, dtype=bool), np.ones(50), exclude_feature=0
        )
        assert surrogates == ()


class TestRouting:
    def test_primary_value_takes_precedence(self):
        surrogate = SurrogateSplit(1, 0.0, True, 0.99)
        sample = np.array([0.4, -5.0])
        # Primary finite: threshold 1.0 -> left regardless of surrogate.
        assert route_left_with_surrogates(sample, 0, 1.0, (surrogate,), False)

    def test_surrogate_used_when_primary_missing(self):
        surrogate = SurrogateSplit(1, 0.0, True, 0.99)
        left = route_left_with_surrogates(
            np.array([np.nan, -1.0]), 0, 1.0, (surrogate,), False
        )
        right = route_left_with_surrogates(
            np.array([np.nan, 1.0]), 0, 1.0, (surrogate,), False
        )
        assert left and not right

    def test_reversed_surrogate(self):
        surrogate = SurrogateSplit(1, 0.0, False, 0.99)
        assert not route_left_with_surrogates(
            np.array([np.nan, -1.0]), 0, 1.0, (surrogate,), True
        )

    def test_fallback_when_all_missing(self):
        surrogate = SurrogateSplit(1, 0.0, True, 0.99)
        sample = np.array([np.nan, np.nan])
        assert route_left_with_surrogates(sample, 0, 1.0, (surrogate,), True)
        assert not route_left_with_surrogates(sample, 0, 1.0, (surrogate,), False)


class TestTreesWithSurrogates:
    def test_surrogates_recover_masked_primary(self, correlated_data):
        X, y = correlated_data
        plain = ClassificationTree(minsplit=4, minbucket=2, cp=0.0).fit(X, y)
        with_surrogates = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.0, n_surrogates=2
        ).fit(X, y)

        masked = X.copy()
        masked[:, 0] = np.nan  # the primary signal disappears at test time
        acc_plain = np.mean(plain.predict(masked) == y)
        acc_surrogate = np.mean(with_surrogates.predict(masked) == y)
        assert acc_surrogate > acc_plain + 0.2
        assert acc_surrogate > 0.9

    def test_no_change_when_nothing_missing(self, correlated_data):
        X, y = correlated_data
        plain = ClassificationTree(minsplit=4, minbucket=2, cp=0.0).fit(X, y)
        with_surrogates = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.0, n_surrogates=2
        ).fit(X, y)
        np.testing.assert_array_equal(
            plain.predict(X), with_surrogates.predict(X)
        )

    def test_nodes_carry_surrogates(self, correlated_data):
        X, y = correlated_data
        tree = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.0, n_surrogates=2
        ).fit(X, y)
        internal = [n for n in tree.root_.iter_nodes() if not n.is_leaf]
        assert any(node.surrogates for node in internal)
        for node in internal:
            assert len(node.surrogates) <= 2

    def test_serialization_roundtrip_with_surrogates(self, correlated_data):
        X, y = correlated_data
        tree = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.0, n_surrogates=2
        ).fit(X, y)
        copy = classification_tree_from_dict(classification_tree_to_dict(tree))
        masked = X.copy()
        masked[:, 0] = np.nan
        np.testing.assert_array_equal(copy.predict(masked), tree.predict(masked))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_surrogates"):
            ClassificationTree(n_surrogates=-1)

    def test_vectorised_routing_matches_per_sample_route(self, correlated_data):
        # Compiled batch routing and the per-row decision path must
        # agree on every row, finite or masked.
        X, y = correlated_data
        tree = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.0, n_surrogates=2
        ).fit(X, y)
        masked = X.copy()
        masked[::3, 0] = np.nan
        masked[::7, 1] = np.nan
        batched = tree.predict(masked)
        manual = np.array(
            [tree.decision_path(row)[-1].prediction for row in masked]
        )
        np.testing.assert_array_equal(batched, manual.astype(batched.dtype))

    def test_pruned_nodes_drop_surrogates(self, correlated_data):
        X, y = correlated_data
        tree = ClassificationTree(
            minsplit=4, minbucket=2, cp=0.9, n_surrogates=2
        ).fit(X, y)
        for node in tree.root_.iter_nodes():
            if node.is_leaf:
                assert node.surrogates == ()
