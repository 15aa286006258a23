"""The retired reference knobs are gone, not silently accepted.

Serving has one engine, tree inference one path and training one split
finder; the reference implementations are test oracles under
``tests/oracles/``.  Passing one of the old selector options is a
caller bug and must fail loudly.
"""

import pytest

from repro import detection, tree
from repro.detection import FleetMonitor, OnlineMajorityVote
from repro.features.vectorize import Feature
from repro.tree import (
    AdaBoostClassifier,
    ClassificationTree,
    RandomForestClassifier,
    RandomForestRegressor,
    RegressionTree,
)


def test_fleet_monitor_takes_no_engine():
    with pytest.raises(TypeError, match="engine"):
        FleetMonitor(
            (Feature("POH"),),
            score_sample=lambda row: 1.0,
            detector_factory=lambda: OnlineMajorityVote(3),
            engine="object",
        )


@pytest.mark.parametrize("estimator", [
    ClassificationTree, RegressionTree, RandomForestClassifier,
    RandomForestRegressor, AdaBoostClassifier,
])
def test_estimators_take_no_backend(estimator):
    with pytest.raises(TypeError, match="backend"):
        estimator(backend="node")


@pytest.mark.parametrize("estimator", [ClassificationTree, RegressionTree])
def test_trees_take_no_presort(estimator):
    with pytest.raises(TypeError, match="presort"):
        estimator(presort=False)


def test_reference_names_left_the_public_api():
    for name in ("ENGINES", "OnlineFeatureBuffer"):
        assert not hasattr(detection, name)
    assert not hasattr(tree, "find_surrogate_splits")
