"""Golden parity suite: the columnar FleetMonitor is bit-identical to the object oracle.

Mirrors the compiled-vs-node tree pattern: the per-drive object engine
(``tests/oracles/object_monitor.py``) is the oracle; every observable
surface of the columnar engine that serves every ``FleetMonitor`` — alerts,
faults, health_report, structured-event stream (including ordering),
metrics counters, SLO state, quarantine decisions — must match it
bit-for-bit across clean and fault-injected streams.  Only the
``serve.tick_seconds`` wall-time histogram is exempt (it measures real
time, which is the whole point of the columnar engine).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.detection import (
    ColumnarEngine,
    FleetMonitor,
    MajorityVoteMatrix,
    MeanThresholdMatrix,
    QuarantinePolicy,
    VoterSpec,
    window_matrix_for,
)
from repro.features.vectorize import Feature
from repro.observability import disable_metrics, enable_metrics, get_registry
from repro.observability.events import disable_events, enable_events
from repro.observability.slo import SLOMonitor
from repro.robustness import BUILTIN_PROFILES, dataset_events, inject_stream, replay_stream
from repro.smart.attributes import N_CHANNELS
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config
from repro.utils.errors import FaultKind
from tests.oracles.object_monitor import (
    ObjectFleetMonitor,
    OnlineMajorityVote,
    OnlineMeanThreshold,
    WindowedVoter,
)

#: The oracle first, then the production monitor.
MONITORS = {"object": ObjectFleetMonitor, "columnar": FleetMonitor}
ENGINES = tuple(MONITORS)

FEATURES = (Feature("POH"), Feature("TC"), Feature("RSC", 6.0), Feature("RRER", 12.0))


def _score(X):
    return np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0)


def _build(engine, voter=VoterSpec("majority", 3), **kwargs):
    return MONITORS[engine](FEATURES, _score, voter, **kwargs)


def _nan_eq(a, b):
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and np.isnan(a) and np.isnan(b)
    )


def assert_alerts_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.serial == b.serial and a.alert_id == b.alert_id
        assert _nan_eq(a.hour, b.hour) and _nan_eq(a.score, b.score)


def assert_faults_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.serial, a.kind, a.detail) == (b.serial, b.kind, b.detail)
        assert _nan_eq(a.hour, b.hour)


def _strip_wall_time(metrics):
    return {k: v for k, v in metrics.items() if k != "serve.tick_seconds"}


def run_instrumented(drive):
    """Run ``drive(monitor)`` per engine under live metrics + event log.

    Returns one observable-state tuple per engine; the two must compare
    equal.  ``drive`` gets a fresh monitor and returns nothing — all
    comparison happens on what the run left behind.
    """
    states = []
    for engine in ENGINES:
        enable_metrics()
        log = enable_events()
        try:
            monitor = _build(engine, slo=SLOMonitor())
            drive(monitor)
            report = monitor.health_report()
            report["metrics"] = _strip_wall_time(report["metrics"])
            states.append({
                "alerts": monitor.alerts,
                "faults": monitor.faults,
                "vote_flips": monitor.vote_flips,
                "watched": monitor.watched_drives(),
                "degraded": monitor.degraded_drives(),
                "fault_counts": monitor.fault_counts(),
                "report": report,
                "slo": monitor.slo.status(),
                "events": [e.to_json_dict() for e in log.events],
                "metrics": _strip_wall_time(get_registry().snapshot()["metrics"]),
            })
        finally:
            disable_metrics()
            disable_events()
    left, right = states
    assert_alerts_equal(left.pop("alerts"), right.pop("alerts"))
    assert_faults_equal(left.pop("faults"), right.pop("faults"))
    events_left, events_right = left.pop("events"), right.pop("events")
    assert events_left == events_right
    assert left == right
    return events_left


class TestWindowedVoterBase:
    """Satellite: one semantics source for the windowed voting rules."""

    def test_both_builtins_share_the_base(self):
        assert issubclass(OnlineMajorityVote, WindowedVoter)
        assert issubclass(OnlineMeanThreshold, WindowedVoter)

    def test_push_never_alarms_before_window_fills(self):
        voter = OnlineMajorityVote(3)
        assert voter.push(-1.0) is False
        assert voter.push(-1.0) is False
        assert voter.push(-1.0) is True

    def test_flush_judges_short_history_once(self):
        voter = OnlineMajorityVote(5)
        voter.push(-1.0)
        voter.push(-1.0)
        assert voter.flush_short_history() is True

    def test_flush_is_a_noop_on_full_or_empty_windows(self):
        assert OnlineMeanThreshold(2).flush_short_history() is False
        voter = OnlineMeanThreshold(2, threshold=0.0)
        voter.push(-1.0)
        voter.push(-1.0)
        assert voter.flush_short_history() is False  # full window, never re-judged

    def test_window_contents_render_per_rule(self):
        majority = OnlineMajorityVote(3)
        majority.push(-1.0)
        majority.push(1.0)
        assert majority.window_contents() == [True, False]
        mean = OnlineMeanThreshold(3)
        mean.push(0.5)
        mean.push(float("nan"))
        assert mean.window_contents() == [0.5, None]

    def test_subclass_hooks_are_the_contract(self):
        class Latest(WindowedVoter):
            def _ingest(self, score):
                self._window.append(score)

            def _judge(self, width):
                return self._window[-1] < 0

        voter = Latest(2)
        assert voter.push(-1.0) is False
        assert voter.push(-0.5) is True
        assert voter.flush_short_history() is False


class TestVoterMatrices:
    """The ring-buffer matrices replicate the object voters vote-for-vote."""

    @given(
        st.lists(
            st.sampled_from([-1.0, 1.0, float("nan")]), min_size=1, max_size=40
        ),
        st.integers(min_value=1, max_value=9),
    )
    @settings(deadline=None)
    def test_majority_matrix_matches_object_voter(self, scores, n_voters):
        voter = OnlineMajorityVote(n_voters)
        matrix = window_matrix_for(VoterSpec("majority", n_voters), 1)
        rows = np.array([0])
        for score in scores:
            expected = voter.push(score)
            got = matrix.push(rows, np.array([score]))
            assert bool(got[0]) is expected
            assert matrix.window_contents(0) == voter.window_contents()
        assert matrix.flush(0) is voter.flush_short_history()

    @given(
        st.lists(
            st.floats(
                min_value=-5, max_value=5, allow_nan=False
            ).flatmap(lambda x: st.sampled_from([x, float("nan")])),
            min_size=1, max_size=40,
        ),
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    )
    @settings(deadline=None)
    def test_mean_matrix_matches_object_voter(self, scores, n_voters, threshold):
        voter = OnlineMeanThreshold(n_voters, threshold)
        matrix = window_matrix_for(
            VoterSpec("mean", n_voters, threshold=threshold), 1
        )
        rows = np.array([0])
        for score in scores:
            expected = voter.push(score)
            got = matrix.push(rows, np.array([score]))
            assert bool(got[0]) is expected
            assert matrix.window_contents(0) == voter.window_contents()
        assert matrix.flush(0) is voter.flush_short_history()

    def test_factory_builds_matching_matrix(self):
        majority = window_matrix_for(VoterSpec("majority", 3, failed_label=2.0))
        assert isinstance(majority, MajorityVoteMatrix)
        assert (majority.n_voters, majority.failed_label) == (3, 2.0)
        mean = window_matrix_for(VoterSpec("mean", 5, threshold=0.5))
        assert isinstance(mean, MeanThresholdMatrix)
        assert (mean.n_voters, mean.threshold) == (5, 0.5)


class TestDuplicateSerials:
    """Satellite: duplicate serials in one tick are last-write-wins + faulted."""

    def test_last_write_wins_and_faults(self):
        events = run_instrumented(lambda m: m.observe_fleet(0.0, [
            ("a", np.full(N_CHANNELS, 1.0)),
            ("b", np.full(N_CHANNELS, 1.0)),
            ("a", np.full(N_CHANNELS, -1.0)),
        ]))
        faulted = [e for e in events if e["type"] == "tick_faulted"]
        assert [e["drive"] for e in faulted] == ["a"]
        assert faulted[0]["data"]["kind"] == "duplicate-serial"
        # Last write wins: drive "a" was scored once, on the -1 values.
        scored = [e for e in events if e["type"] == "sample_scored"]
        assert [(e["drive"], e["data"]["score"]) for e in scored] == [
            ("a", -1.0), ("b", 1.0),
        ]

    def test_duplicates_count_toward_quarantine(self):
        for engine in ENGINES:
            monitor = _build(engine, quarantine=QuarantinePolicy(fault_limit=0))
            monitor.observe_fleet(
                0.0, [("a", np.ones(N_CHANNELS)), ("a", np.ones(N_CHANNELS))]
            )
            assert monitor.degraded_drives() == ["a"]
            assert [f.kind for f in monitor.faults] == [FaultKind.DUPLICATE_SERIAL]
            assert monitor.fault_counts() == {"a": 1}

    def test_mapping_input_cannot_duplicate(self):
        for engine in ENGINES:
            monitor = _build(engine)
            monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
            assert monitor.faults == []

    def test_strict_mode_raises_on_duplicate_serial(self):
        for engine in ENGINES:
            monitor = _build(engine, quarantine=None)
            with pytest.raises(ValueError, match="duplicate-serial"):
                monitor.observe_fleet(
                    0.0, [("a", np.ones(N_CHANNELS)), ("a", np.ones(N_CHANNELS))]
                )


def _dirty_tick(rng, hour, n_drives):
    """One synthetic collection tick exercising every fault kind."""
    pairs = []
    for d in range(n_drives):
        values = rng.normal(size=N_CHANNELS)
        roll = rng.random()
        if roll < 0.08:
            values = np.ones(3)  # wrong shape
        elif roll < 0.16:
            values = np.full(N_CHANNELS, np.nan)  # unscorable, not a fault
        pairs.append((f"d{d:03d}", values))
    if rng.random() < 0.3:
        pairs.append((f"d{rng.integers(n_drives):03d}", rng.normal(size=N_CHANNELS)))
    tick_hour = float(hour)
    roll = rng.random()
    if roll < 0.05:
        tick_hour = float("nan")
    elif roll < 0.15:
        tick_hour = float(hour - 2)  # duplicate or out-of-order per drive
    return tick_hour, pairs


class TestGoldenParity:
    def test_fleet_ticks_with_every_fault_kind(self):
        def drive(monitor):
            rng = np.random.default_rng(42)
            for hour in range(40):
                monitor.observe_fleet(*_dirty_tick(rng, hour, 12))
            monitor.finalize()
            monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
            monitor.resolve_outcome("d001", failed=False)

        events = run_instrumented(drive)
        kinds = {e["data"].get("kind") for e in events if e["type"] == "tick_faulted"}
        assert {"wrong-shape", "non-finite-time", "duplicate-serial"} <= kinds

    def test_single_record_observe_path(self):
        def drive(monitor):
            rng = np.random.default_rng(7)
            for hour in range(30):
                for d in range(4):
                    monitor.observe(f"d{d}", float(hour), rng.normal(size=N_CHANNELS))
            monitor.finalize()

        run_instrumented(drive)

    def test_quarantine_decisions_match(self):
        for engine in ENGINES:
            monitor = _build(engine, quarantine=QuarantinePolicy(fault_limit=2))
            for _ in range(4):
                monitor.observe("bad", 0.0, np.ones(N_CHANNELS))  # dup time x3
            assert monitor.drive_status("bad").value == "degraded"
        left = _build("object", quarantine=QuarantinePolicy(fault_limit=2))
        right = _build("columnar", quarantine=QuarantinePolicy(fault_limit=2))
        rng = np.random.default_rng(9)
        for hour in range(20):
            tick_hour, pairs = _dirty_tick(rng, hour, 8)
            left.observe_fleet(tick_hour, pairs)
            right.observe_fleet(tick_hour, pairs)
        assert left.degraded_drives() == right.degraded_drives()
        assert left.fault_counts() == right.fault_counts()

    def test_strict_mode_exception_and_state_match(self):
        results = []
        for engine in ENGINES:
            monitor = _build(engine, quarantine=None)
            monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
            with pytest.raises(ValueError) as caught:
                monitor.observe_fleet(1.0, [
                    ("a", np.ones(N_CHANNELS)),
                    ("new1", np.ones(N_CHANNELS)),
                    ("bad", np.ones(5)),
                    ("new2", np.ones(N_CHANNELS)),
                ])
            results.append((str(caught.value), monitor.watched_drives()))
        assert results[0] == results[1]
        # drives past the raising record were never registered
        assert "new2" not in results[0][1]

    def test_mean_threshold_engine_parity(self):
        states = []
        for engine in ENGINES:
            monitor = MONITORS[engine](
                FEATURES,
                lambda X: np.nansum(X, axis=1),
                VoterSpec("mean", 4, threshold=0.0),
            )
            rng = np.random.default_rng(11)
            for hour in range(30):
                monitor.observe_fleet(
                    float(hour),
                    {f"d{d}": rng.normal(size=N_CHANNELS) for d in range(10)},
                )
            monitor.finalize()
            states.append(monitor)
        assert_alerts_equal(states[0].alerts, states[1].alerts)
        assert states[0].vote_flips == states[1].vote_flips


@pytest.fixture(scope="module")
def replay_fleet():
    config = default_fleet_config(
        w_good=4, w_failed=3, q_good=2, q_failed=1, collection_days=2, seed=13
    )
    return SmartDataset.generate(config)


@pytest.fixture(scope="module")
def clean_events(replay_fleet):
    return dataset_events(replay_fleet)


class TestFaultProfileParity:
    """Satellite: every built-in fault profile through both engines."""

    @given(
        profile=st.sampled_from(sorted(BUILTIN_PROFILES)),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(
        deadline=None, max_examples=12,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_profiles_produce_identical_streams(self, clean_events, profile, seed):
        events = inject_stream(clean_events, profile, seed=seed)
        replays = {}
        for engine in ENGINES:
            enable_metrics()
            log = enable_events()
            try:
                monitor = _build(
                    engine,
                    voter=VoterSpec("majority", 5),
                    quarantine=QuarantinePolicy(fault_limit=3),
                )
                alerts = replay_stream(monitor, events)
                replays[engine] = (
                    alerts,
                    monitor.faults,
                    monitor.degraded_drives(),
                    monitor.fault_counts(),
                    monitor.vote_flips,
                    [e.to_json_dict() for e in log.events],
                    _strip_wall_time(get_registry().snapshot()["metrics"]),
                )
            finally:
                disable_metrics()
                disable_events()
        left, right = replays["object"], replays["columnar"]
        assert_alerts_equal(left[0], right[0])
        assert_faults_equal(left[1], right[1])
        assert left[2:] == right[2:]


class TestObserveTick:
    """The zero-copy matrix ingest path."""

    def test_matches_observe_fleet(self):
        serials = tuple(f"s{i}" for i in range(20))
        left = _build("object")
        right = _build("columnar")
        oracle = _build("object")
        left.register_fleet(serials)
        right.register_fleet(serials)
        rng = np.random.default_rng(5)
        for hour in range(15):
            matrix = rng.normal(size=(20, N_CHANNELS))
            a = left.observe_tick(float(hour), matrix)
            b = right.observe_tick(float(hour), matrix)
            c = oracle.observe_fleet(
                float(hour), {s: matrix[i] for i, s in enumerate(serials)}
            )
            assert_alerts_equal(a, b)
            assert_alerts_equal(a, c)
        assert left.health_report() == right.health_report()
        assert left.health_report() == oracle.health_report()

    def test_requires_a_roster(self):
        monitor = _build("columnar")
        with pytest.raises(ValueError, match="roster"):
            monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)))

    def test_rejects_misaligned_matrix(self):
        monitor = _build("columnar")
        monitor.register_fleet(["a", "b"])
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((3, N_CHANNELS)))
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((2, 3)))

    def test_ad_hoc_serials_override_roster(self):
        for engine in ENGINES:
            monitor = _build(engine)
            monitor.register_fleet(["a", "b"])
            monitor.observe_tick(
                0.0, np.ones((1, N_CHANNELS)), serials=["solo"]
            )
            assert monitor.watched_drives() == ["solo"]

    def test_ad_hoc_ticks_keep_the_registered_row_cache(self):
        monitor = _build("columnar")
        monitor.register_fleet(["a", "b"])
        monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)))
        cached = monitor._engine._roster_cache
        assert cached is not None
        monitor.observe_fleet(1.0, {"c": np.ones(N_CHANNELS)})
        monitor.observe_tick(2.0, np.ones((1, N_CHANNELS)), serials=["d"])
        monitor.observe("e", 3.0, np.ones(N_CHANNELS))
        assert monitor._engine._roster_cache is cached

    def test_duplicate_roster_serials_fault(self):
        for engine in ENGINES:
            monitor = _build(engine)
            monitor.observe_tick(
                0.0, np.ones((2, N_CHANNELS)), serials=["a", "a"]
            )
            assert [f.kind for f in monitor.faults] == [FaultKind.DUPLICATE_SERIAL]


class TestFromPredictor:
    def test_real_tree_provenance_is_engine_invariant(self, tiny_split):
        predictor = DriveFailurePredictor(
            CTConfig(minsplit=4, minbucket=2, cp=0.002)
        ).fit(tiny_split)
        drives = list(tiny_split.test_failed + tiny_split.test_good)[:6]
        streams = []
        for engine in ENGINES:
            log = enable_events()
            try:
                monitor = MONITORS[engine].from_predictor(
                    predictor, VoterSpec("majority", 3)
                )
                assert monitor.tree is predictor.tree_
                for drive in drives:
                    for hour, values in zip(drive.hours, drive.values):
                        monitor.observe(drive.serial, float(hour), values)
                monitor.finalize()
                streams.append((
                    monitor.alerts,
                    [e.to_json_dict() for e in log.events],
                ))
            finally:
                disable_events()
        assert_alerts_equal(streams[0][0], streams[1][0])
        assert streams[0][1] == streams[1][1]
        raised = [e for e in streams[0][1] if e["type"] == "alert_raised"]
        if raised:  # provenance carries the CART decision path
            assert "path" in raised[0]["data"]

    def test_default_engine_is_columnar(self, tiny_split):
        predictor = DriveFailurePredictor(
            CTConfig(minsplit=4, minbucket=2, cp=0.002)
        ).fit(tiny_split)
        monitor = FleetMonitor.from_predictor(predictor, VoterSpec("majority", 3))
        assert isinstance(monitor._engine, ColumnarEngine)
        assert monitor.score == predictor.tree_.predict

    def test_unfitted_predictor_is_rejected(self):
        predictor = DriveFailurePredictor(CTConfig(minsplit=4, minbucket=2))
        with pytest.raises(RuntimeError, match="not fitted"):
            FleetMonitor.from_predictor(predictor, VoterSpec("majority", 3))
