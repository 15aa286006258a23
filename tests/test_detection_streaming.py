"""Tests for the streaming monitor, including offline equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.errors import FaultKind

from repro.core.config import CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.detection.streaming import (
    Alert,
    DriveStatus,
    FleetMonitor,
    OnlineMajorityVote,
    OnlineMeanThreshold,
    QuarantinePolicy,
)
from repro.detection.voting import MajorityVoteDetector, MeanThresholdDetector
from repro.features.selection import critical_features
from repro.features.vectorize import Feature
from repro.smart.attributes import N_CHANNELS, channel_index
from tests.oracles.object_monitor import OnlineFeatureBuffer


class TestOnlineFeatureBuffer:
    def test_value_features_pass_through(self):
        buffer = OnlineFeatureBuffer([Feature("POH")])
        values = np.ones(N_CHANNELS)
        values[channel_index("POH")] = 42.0
        row = buffer.push(0.0, values)
        assert row[0] == 42.0

    def test_change_rate_needs_lag_history(self):
        buffer = OnlineFeatureBuffer([Feature("RRER", 2.0)])
        base = np.zeros(N_CHANNELS)
        for hour in (0.0, 1.0):
            row = buffer.push(hour, base + hour)
            assert np.isnan(row[0])
        row = buffer.push(2.0, base + 4.0)  # (4 - 0) / 2
        assert row[0] == pytest.approx(2.0)

    def test_gap_in_history_yields_nan(self):
        buffer = OnlineFeatureBuffer([Feature("RRER", 2.0)])
        buffer.push(0.0, np.zeros(N_CHANNELS))
        row = buffer.push(3.0, np.ones(N_CHANNELS))  # lag hour 1 never seen
        assert np.isnan(row[0])

    def test_non_increasing_hours_rejected(self):
        buffer = OnlineFeatureBuffer([Feature("POH")])
        buffer.push(5.0, np.zeros(N_CHANNELS))
        with pytest.raises(ValueError, match="increasing"):
            buffer.push(5.0, np.zeros(N_CHANNELS))

    def test_wrong_shape_rejected(self):
        buffer = OnlineFeatureBuffer([Feature("POH")])
        with pytest.raises(ValueError, match="shape"):
            buffer.push(0.0, np.zeros(3))

    def test_matches_offline_extractor(self, tiny_fleet):
        drive = tiny_fleet.good_drives[0]
        features = critical_features()
        from repro.features.vectorize import FeatureExtractor

        offline = FeatureExtractor(features).extract(drive)
        buffer = OnlineFeatureBuffer(features)
        for index, (hour, values) in enumerate(zip(drive.hours, drive.values)):
            online_row = buffer.push(hour, values)
            np.testing.assert_allclose(
                online_row, offline[index], equal_nan=True,
                err_msg=f"divergence at sample {index}",
            )


class TestOnlineDetectors:
    @given(
        st.lists(st.sampled_from([1.0, -1.0, float("nan")]), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_majority_vote_matches_offline(self, scores, n_voters):
        series = np.array(scores)
        offline = MajorityVoteDetector(n_voters=n_voters).first_alarm(series)
        online = OnlineMajorityVote(n_voters=n_voters)
        online_alarm = None
        for index, score in enumerate(series):
            if online.push(score) and online_alarm is None:
                online_alarm = index
        if online_alarm is None and online.flush_short_history():
            online_alarm = len(series) - 1
        assert online_alarm == offline

    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=1, max_size=60,
        ),
        st.integers(min_value=1, max_value=13),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_threshold_matches_offline(self, scores, n_voters, threshold):
        series = np.array(scores)
        offline = MeanThresholdDetector(
            n_voters=n_voters, threshold=threshold
        ).first_alarm(series)
        online = OnlineMeanThreshold(n_voters=n_voters, threshold=threshold)
        online_alarm = None
        for index, score in enumerate(series):
            if online.push(score) and online_alarm is None:
                online_alarm = index
        if online_alarm is None and online.flush_short_history():
            online_alarm = len(series) - 1
        assert online_alarm == offline

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1, max_size=60,
        ),
        st.integers(min_value=1, max_value=13),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_threshold_matches_offline_with_gaps(
        self, scores, n_voters, threshold
    ):
        # Gap-ridden health streams: NaN samples occupy window slots but
        # are excluded from the mean, exactly like the offline rule.
        series = np.array(scores)
        offline = MeanThresholdDetector(
            n_voters=n_voters, threshold=threshold
        ).first_alarm(series)
        online = OnlineMeanThreshold(n_voters=n_voters, threshold=threshold)
        online_alarm = None
        for index, score in enumerate(series):
            if online.push(score) and online_alarm is None:
                online_alarm = index
        if online_alarm is None and online.flush_short_history():
            online_alarm = len(series) - 1
        assert online_alarm == offline


class TestShortHistoryProperties:
    """flush_short_history on shorter-than-window, gap-ridden streams."""

    short_majority_streams = st.lists(
        st.sampled_from([1.0, -1.0, float("nan")]), min_size=1, max_size=12
    )

    @given(short_majority_streams, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_majority_flush_is_strict_majority_of_failed(self, scores, extra):
        n_voters = len(scores) + extra  # guaranteed shorter than the window
        online = OnlineMajorityVote(n_voters=n_voters)
        for score in scores:
            assert online.push(score) is False  # window can never fill
        failed = sum(1 for s in scores if np.isfinite(s) and s == -1.0)
        assert online.flush_short_history() == (failed > len(scores) / 2.0)

    @given(short_majority_streams, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_majority_gaps_never_create_flush_alarms(self, scores, extra):
        # A NaN occupies a slot without voting, so inserting gaps can
        # only make the strict-majority bar harder to clear.
        n_voters = len(scores) + extra + len(scores) + 1
        with_gaps = OnlineMajorityVote(n_voters=n_voters)
        for score in scores:
            with_gaps.push(score)
            with_gaps.push(float("nan"))
        without_gaps = OnlineMajorityVote(n_voters=n_voters)
        for score in scores:
            without_gaps.push(score)
        if with_gaps.flush_short_history():
            assert without_gaps.flush_short_history()

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1, max_size=12,
        ),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_mean_flush_is_nanmean_rule(self, scores, extra, threshold):
        n_voters = len(scores) + extra
        online = OnlineMeanThreshold(n_voters=n_voters, threshold=threshold)
        for score in scores:
            assert online.push(score) is False
        finite = [s for s in scores if np.isfinite(s)]
        expected = bool(finite) and float(np.mean(finite)) < threshold
        assert online.flush_short_history() == expected

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=13))
    @settings(max_examples=40, deadline=None)
    def test_all_gap_stream_never_alarms(self, n_samples, n_voters):
        majority = OnlineMajorityVote(n_voters=n_voters)
        mean = OnlineMeanThreshold(n_voters=n_voters, threshold=0.5)
        for _ in range(n_samples):
            assert majority.push(float("nan")) is False
            assert mean.push(float("nan")) is False
        assert majority.flush_short_history() is False
        assert mean.flush_short_history() is False

    @given(short_majority_streams, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_flush_disabled_once_window_fills(self, scores, n_voters):
        # flush_short_history judges *only* short histories; a filled
        # window must never re-judge the tail.
        majority = OnlineMajorityVote(n_voters=n_voters)
        mean = OnlineMeanThreshold(n_voters=n_voters, threshold=0.5)
        for score in list(scores) + [-1.0] * n_voters:
            majority.push(score)
            mean.push(score)
        assert majority.flush_short_history() is False
        assert mean.flush_short_history() is False


class TestFleetMonitor:
    def test_streaming_replay_matches_offline_pipeline(self, tiny_split):
        """The headline equivalence: replaying drives sample-by-sample
        through the FleetMonitor alarms on exactly the drives the offline
        evaluation alarms on."""
        ct = DriveFailurePredictor(CTConfig(minsplit=4, minbucket=2, cp=0.002))
        ct.fit(tiny_split)
        n_voters = 3
        drives = list(tiny_split.test_good)[:20] + list(tiny_split.test_failed)

        offline_detector = MajorityVoteDetector(n_voters=n_voters)
        offline_alarmed = {
            series.serial
            for series in ct.score_drives(drives)
            if offline_detector.first_alarm(series.scores) is not None
        }

        monitor = FleetMonitor(
            ct.extractor.features,
            score_sample=lambda row: float(ct.tree_.predict(row.reshape(1, -1))[0]),
            detector_factory=lambda: OnlineMajorityVote(n_voters=n_voters),
        )
        for drive in drives:
            for hour, values in zip(drive.hours, drive.values):
                monitor.observe(drive.serial, hour, values)
        monitor.finalize()
        online_alarmed = {alert.serial for alert in monitor.alerts}
        assert online_alarmed == offline_alarmed

    def test_one_alert_per_drive(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=lambda: OnlineMajorityVote(1),
        )
        values = np.ones(N_CHANNELS)
        first = monitor.observe("d", 0.0, values)
        second = monitor.observe("d", 1.0, values)
        assert isinstance(first, Alert)
        assert second is None
        assert len(monitor.alerts) == 1

    def test_watched_drives(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: 1.0,
            detector_factory=lambda: OnlineMajorityVote(1),
        )
        monitor.observe("b", 0.0, np.ones(N_CHANNELS))
        monitor.observe("a", 0.0, np.ones(N_CHANNELS))
        assert monitor.watched_drives() == ["a", "b"]

    def test_all_nan_record_scored_without_model_call(self):
        calls = []

        def scorer(row):
            calls.append(row)
            return -1.0

        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=scorer,
            detector_factory=lambda: OnlineMajorityVote(1),
        )
        monitor.observe("d", 0.0, np.full(N_CHANNELS, np.nan))
        assert calls == []


class TestQuarantine:
    def _monitor(self, **kwargs):
        return FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=lambda: OnlineMajorityVote(1),
            **kwargs,
        )

    def test_malformed_ticks_counted_and_excluded(self):
        monitor = self._monitor()
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 2.0, values)
        assert monitor.observe("d", 2.0, values) is None  # duplicate
        assert monitor.observe("d", 1.0, values) is None  # out of order
        assert monitor.observe("d", np.nan, values) is None  # bad timestamp
        assert monitor.observe("d", 3.0, np.ones(3)) is None  # wrong shape
        assert monitor.fault_counts() == {"d": 4}
        kinds = [fault.kind for fault in monitor.faults]
        assert kinds == [
            FaultKind.DUPLICATE_TIME,
            FaultKind.OUT_OF_ORDER,
            FaultKind.NON_FINITE_TIME,
            FaultKind.WRONG_SHAPE,
        ]

    def test_drive_degrades_past_fault_limit_and_stops_alerting(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: 1.0,  # healthy until we flip it
            detector_factory=lambda: OnlineMajorityVote(1),
            quarantine=QuarantinePolicy(fault_limit=2),
        )
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 0.0, values)
        for _ in range(3):  # three duplicates > fault_limit=2
            monitor.observe("d", 0.0, values)
        assert monitor.drive_status("d") is DriveStatus.DEGRADED
        assert monitor.degraded_drives() == ["d"]
        # A clean, would-be-alarming tick must not page for a
        # quarantined drive.
        monitor.score_sample = lambda row: -1.0
        assert monitor.observe("d", 1.0, values) is None
        assert monitor.alerts == []

    def test_ok_drives_unaffected_by_neighbour_quarantine(self):
        monitor = self._monitor(quarantine=QuarantinePolicy(fault_limit=0))
        values = np.ones(N_CHANNELS)
        monitor.observe("bad", 1.0, values)
        monitor.observe("bad", 1.0, values)  # degrades immediately
        alert = monitor.observe("good", 1.0, values)
        assert monitor.degraded_drives() == ["bad"]
        assert isinstance(alert, Alert)
        assert monitor.drive_status("good") is DriveStatus.OK

    def test_strict_mode_raises_on_malformed_tick(self):
        monitor = self._monitor(quarantine=None)
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 1.0, values)
        with pytest.raises(ValueError, match="out-of-order"):
            monitor.observe("d", 0.5, values)

    def test_finalize_skips_degraded_drives(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=lambda: OnlineMajorityVote(5),
            quarantine=QuarantinePolicy(fault_limit=0),
        )
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 1.0, values)
        monitor.observe("d", 1.0, values)  # degrade
        assert monitor.finalize() == []

    def test_health_report_summarises_faults(self):
        monitor = self._monitor(quarantine=QuarantinePolicy(fault_limit=1))
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 1.0, values)
        monitor.observe("d", 1.0, values)
        monitor.observe("d", 0.5, values)
        report = monitor.health_report()
        assert report["watched_drives"] == 1
        assert report["faults_total"] == 2
        assert report["faults_by_kind"] == {
            "duplicate-time": 1, "out-of-order": 1,
        }
        assert report["degraded_drives"] == ["d"]

    def test_observe_fleet_routes_through_the_gate(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=lambda: OnlineMajorityVote(1),
            score_batch=lambda rows: -np.ones(rows.shape[0]),
        )
        values = np.ones(N_CHANNELS)
        monitor.observe_fleet(1.0, {"a": values, "b": values})
        alerts = monitor.observe_fleet(1.0, {"a": values, "b": np.ones(3)})
        assert alerts == []  # a: duplicate hour; b: wrong shape
        assert monitor.fault_counts() == {"a": 1, "b": 1}
