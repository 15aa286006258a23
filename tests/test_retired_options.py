"""The retired reference knobs are gone, not silently accepted.

Serving has one engine, one model seam and one voter seam, tree
inference one path and training one split finder; the reference
implementations are test oracles under ``tests/oracles/``.  Passing one
of the old selector options is a caller bug and must fail loudly.
"""

import numpy as np
import pytest

from repro import detection, tree
from repro.detection import (
    FleetMonitor,
    ShardedFleetMonitor,
    SupervisedShardedMonitor,
    VoterSpec,
    window_matrix_for,
)
from repro.features.vectorize import Feature
from repro.tree import (
    AdaBoostClassifier,
    ClassificationTree,
    RandomForestClassifier,
    RandomForestRegressor,
    RegressionTree,
)
from tests.oracles.object_monitor import OnlineMajorityVote

FEATURES = (Feature("POH"),)


def _score(X):
    return np.ones(len(X))


def test_fleet_monitor_takes_no_engine():
    with pytest.raises(TypeError, match="engine"):
        FleetMonitor(FEATURES, _score, VoterSpec("majority", 3), engine="object")


@pytest.mark.parametrize("option", ["score_sample", "score_batch", "detector_factory"])
def test_monitors_take_no_scorer_pair_or_detector_factory(option):
    voter = VoterSpec("majority", 3)
    with pytest.raises(TypeError, match=option):
        FleetMonitor(FEATURES, _score, voter, **{option: _score})
    with pytest.raises(TypeError, match=option):
        ShardedFleetMonitor(FEATURES, _score, voter, n_shards=2, **{option: _score})
    single = FleetMonitor(FEATURES, _score, voter)
    sharded = ShardedFleetMonitor(FEATURES, _score, voter, n_shards=2)
    for monitor in (single, sharded):
        with pytest.raises(TypeError, match=option):
            monitor.set_model(_score, **{option: _score})
        assert monitor.model_generation == 0


class _CustomDetector:
    def push(self, score):
        return False


@pytest.mark.parametrize("voter", [
    _CustomDetector(), lambda: OnlineMajorityVote(3), ("majority", 3),
], ids=["custom-detector", "detector-factory", "tuple"])
def test_window_matrix_for_rejects_non_voter_specs(voter):
    with pytest.raises(ValueError, match="voter must be a VoterSpec"):
        window_matrix_for(voter)


@pytest.mark.parametrize("monitor", [
    FleetMonitor, ShardedFleetMonitor, SupervisedShardedMonitor,
])
def test_monitors_reject_non_voter_specs_at_construction(monitor, tmp_path):
    extra = {"run_dir": tmp_path} if monitor is SupervisedShardedMonitor else {}
    for voter in (_CustomDetector(), lambda: OnlineMajorityVote(3)):
        with pytest.raises(ValueError, match="voter must be a VoterSpec"):
            monitor(FEATURES, _score, voter, **extra)


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


RETIRED_SERVING_NAMES = (
    "OnlineMajorityVote", "OnlineMeanThreshold", "WindowedVoter",
    "TreeSampleScorer", "TreeBatchScorer",
)


def test_scorer_pair_and_per_drive_voters_left_the_public_api():
    from repro.detection import sharded, streaming

    for name in RETIRED_SERVING_NAMES:
        assert not hasattr(detection, name), name
        assert name not in detection.__all__
        assert not hasattr(streaming, name), name
        assert not hasattr(sharded, name), name
    for name in ("SampleScorer", "BatchScorer"):
        assert not hasattr(streaming, name), name
    assert not hasattr(tree, "ServingScorerMixin")
    assert "ServingScorerMixin" not in tree.__all__
    for estimator in (ClassificationTree, RandomForestClassifier):
        assert not hasattr(estimator, "sample_scorer")
        assert not hasattr(estimator, "batch_scorer")
