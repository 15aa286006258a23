"""Online (streaming) failure monitoring.

The paper's deployment story is a monitoring daemon: every hour each
drive reports a SMART record, the model scores it, and the voting rule
decides whether to raise a warning.  This module provides that streaming
surface with *exactly* the offline semantics:

* :class:`OnlineMajorityVote` / :class:`OnlineMeanThreshold` — O(1)
  sliding-window reimplementations of the offline detectors; they name
  the voting rule a monitor serves and pin its semantics;
* :class:`FleetMonitor` — routes collection ticks through a fitted
  model and collects :class:`Alert` events.

Equivalence with the offline path (score_drives + first_alarm) is
guaranteed by construction and enforced by the test suite.

**Degraded-mode serving.**  A production feed is dirty: ticks arrive
out of order, repeat, carry the wrong shape or a non-finite timestamp.
The monitor therefore runs every observation through a validation gate
before it touches a drive's feature history: malformed ticks are
counted and excluded (never scored, never a voting slot) and recorded
as structured :class:`~repro.utils.errors.SampleFault` events.  A drive
whose fault count passes the :class:`QuarantinePolicy` threshold is
flagged ``DEGRADED`` — its alerts are suppressed and it is reported via
:meth:`FleetMonitor.degraded_drives` instead of being silently
mis-scored on garbage input.  Missing *values* (NaN/inf cells injected
by flaky sensors) are not faults: they flow through unchanged and the
tree's surrogate/``missing_goes_left`` machinery routes them, exactly
as at fit time; voting treats unscorable samples as NaN gaps without
resetting its window.

**One serving engine.**  The monitor keeps every piece of per-drive
state in the structure-of-arrays core of
:mod:`repro.detection.columnar`: one 2-D ``(n_drives, n_channels)``
ingest per tick, mask-based validation, ring-buffer voting matrices and
a single batched model call.  The per-drive object engine it replaced
(one python object, feature buffer and voter per drive) survives only
as a test oracle, ``tests/oracles/object_monitor.py``; the golden parity
suite pins the two bit for bit — same alerts, same ``health_report()``,
same event stream, same quarantine decisions.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.features.vectorize import Feature
from repro.observability import get_event_log, get_registry, get_tracer
from repro.smart.attributes import N_CHANNELS
from repro.utils.errors import FaultKind, SampleFault
from repro.utils.validation import check_positive

#: Schema tag on :meth:`FleetMonitor.health_report` (bump on breaking change).
HEALTH_REPORT_SCHEMA = "repro.health-report/v1"

#: Scores one feature row; returns a class label or health degree.
SampleScorer = Callable[[np.ndarray], float]

#: Scores a stacked ``(n_rows, n_features)`` matrix in one call.
BatchScorer = Callable[[np.ndarray], np.ndarray]

# Counter help strings, shared verbatim with the object-engine test
# oracle so registry snapshots (and health_report metrics) compare equal.
TICKS_HELP = "observations offered"
FAULTS_HELP = "malformed ticks excluded by the gate"
SCORED_HELP = "ticks scored"
FLIPS_HELP = "alarm-signal transitions"
ALERTS_HELP = "alerts raised"
QUARANTINED_HELP = "drives transitioned to DEGRADED"


def _json_score(score: float) -> Optional[float]:
    """A score as event-payload JSON: non-finite values become None."""
    return float(score) if np.isfinite(score) else None


def _duplicate_serial_fault(serial: str, hour: float) -> SampleFault:
    """The fault recorded for each overridden duplicate-serial record."""
    return SampleFault(
        serial,
        float(hour) if np.isfinite(hour) else np.nan,
        FaultKind.DUPLICATE_SERIAL,
        f"serial {serial!r} repeated within one tick; last write wins",
    )


def _normalize_tick(
    records: Union[Mapping[str, Sequence[float]], Iterable[tuple]],
) -> tuple[list[tuple], list[str]]:
    """Canonicalise one collection tick into unique ``(serial, values)`` pairs.

    ``records`` may be a serial→values mapping (the historical API,
    duplicates impossible) or an iterable of ``(serial, values)`` pairs
    (the array-friendly form).  A serial repeated within one tick
    resolves **last-write-wins**: the serial keeps its first position in
    the tick but carries the values of its final occurrence, and every
    overridden occurrence is returned in ``duplicates`` (discovery
    order) so the gate can record a ``duplicate-serial`` fault instead
    of silently double-pushing the drive's voting window.
    """
    if isinstance(records, Mapping):
        return list(records.items()), []
    items: list[tuple] = []
    position: dict[str, int] = {}
    duplicates: list[str] = []
    for serial, values in records:
        at = position.get(serial)
        if at is None:
            position[serial] = len(items)
            items.append((serial, values))
        else:
            items[at] = (serial, values)
            duplicates.append(serial)
    return items, duplicates


class WindowedVoter:
    """Shared mechanics of the streaming (windowed) voting rules.

    Owns the single semantics source every windowed rule pins against:
    the bounded window itself, the full-window alarm gate (``push``
    never alarms before ``n_voters`` samples arrived), the
    short-history flush rule (a shorter-than-window history is judged
    once, over all its samples, like the offline detectors), and the
    provenance snapshot.  Subclasses define how one score is stored
    (:meth:`_ingest`), how a window width is judged (:meth:`_judge`)
    and how one slot renders into provenance (:meth:`_slot_payload`).
    The columnar ring-buffer voters
    (:mod:`repro.detection.columnar`) replicate exactly these
    semantics, matrix-wide.
    """

    def __init__(self, n_voters: int):
        check_positive("n_voters", n_voters)
        self.n_voters = int(n_voters)
        self._window: deque = deque(maxlen=self.n_voters)

    def push(self, score: float) -> bool:
        """Ingest one per-sample score; True when this time point alarms."""
        self._ingest(score)
        if len(self._window) < self.n_voters:
            return False
        return self._judge(self.n_voters)

    def flush_short_history(self) -> bool:
        """Judge a drive whose whole history is shorter than the window.

        Mirrors the offline rule that short series are judged once over
        all their samples.  A filled window is never re-judged.
        """
        if not self._window or len(self._window) >= self.n_voters:
            return False
        return self._judge(len(self._window))

    def window_contents(self) -> list:
        """The current voting window, oldest first.

        Alert provenance snapshots this at the moment the window
        flipped, so ``repro-events explain`` can show exactly which
        votes carried the decision.
        """
        return [self._slot_payload(slot) for slot in self._window]

    # -- rule-specific hooks -------------------------------------------------

    def _ingest(self, score: float) -> None:
        raise NotImplementedError

    def _judge(self, width: int) -> bool:
        raise NotImplementedError

    def _slot_payload(self, slot):
        return slot


class OnlineMajorityVote(WindowedVoter):
    """Streaming equivalent of :class:`~repro.detection.voting.MajorityVoteDetector`.

    ``push`` returns True the first time the trailing window holds a
    strict failed majority.  NaN scores (missed/unusable samples) occupy
    a window slot but never count as failed votes.
    """

    def __init__(self, n_voters: int = 1, failed_label: float = -1.0):
        super().__init__(n_voters)
        self.failed_label = failed_label
        self._failed_in_window = 0

    def _ingest(self, score: float) -> None:
        if len(self._window) == self._window.maxlen and self._window[0]:
            self._failed_in_window -= 1
        vote = bool(np.isfinite(score) and score == self.failed_label)
        self._window.append(vote)
        if vote:
            self._failed_in_window += 1

    def _judge(self, width: int) -> bool:
        return self._failed_in_window > width / 2.0


class OnlineMeanThreshold(WindowedVoter):
    """Streaming equivalent of :class:`~repro.detection.voting.MeanThresholdDetector`."""

    def __init__(self, n_voters: int = 11, threshold: float = 0.0):
        super().__init__(n_voters)
        self.threshold = float(threshold)

    def _ingest(self, score: float) -> None:
        self._window.append(float(score))

    def _judge(self, width: int) -> bool:
        values = np.array(list(self._window)[-width:])
        valid = values[np.isfinite(values)]
        return valid.size > 0 and float(valid.mean()) < self.threshold

    def _slot_payload(self, slot: float) -> Optional[float]:
        return float(slot) if np.isfinite(slot) else None


@dataclass(frozen=True)
class Alert:
    """A raised warning: which drive, when, and the triggering score.

    ``alert_id`` is deterministic (dense per monitor, in raise order) and
    names the matching ``alert_raised`` event in the structured log, so
    ``repro-events explain <alert-id>`` can pull up its provenance.
    """

    serial: str
    hour: float
    score: float
    alert_id: str = ""


class DriveStatus(enum.Enum):
    """Serving status of one monitored drive."""

    #: Feed is healthy; the drive is scored and may alert.
    OK = "ok"
    #: Too many malformed ticks; alerts suppressed, drive reported.
    DEGRADED = "degraded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class QuarantinePolicy:
    """When does a dirty feed degrade a drive?

    A malformed tick (wrong shape, non-finite/out-of-order/duplicate
    timestamp) is always excluded from scoring; once a drive has
    accumulated more than ``fault_limit`` of them it is flagged
    :attr:`DriveStatus.DEGRADED` — its alerts stop (an operator page
    driven by garbage telemetry is worse than none) and it surfaces in
    :meth:`FleetMonitor.degraded_drives` for operator attention.
    """

    fault_limit: int = 10

    def __post_init__(self) -> None:
        if self.fault_limit < 0:
            raise ValueError(f"fault_limit must be >= 0, got {self.fault_limit}")

    def degrades(self, fault_count: int) -> bool:
        """True when ``fault_count`` malformed ticks exceed the budget."""
        return fault_count > self.fault_limit


class FleetMonitor:
    """Routes streaming SMART records through a fitted model.

    Args:
        features: The feature definitions the model was trained on.
        score_sample: Callable scoring one feature row (e.g. wrapping
            ``predictor.tree_.predict``); rows with no finite feature are
            scored NaN without calling it.
        detector_factory: Zero-argument callable building one of the
            built-in windowed voters, :class:`OnlineMajorityVote` or
            :class:`OnlineMeanThreshold` (e.g. a
            :class:`~repro.detection.sharded.VoterSpec`).  It is called
            once: the voter's rule and width configure the voting
            matrix that holds every drive's window.  Any other detector
            type raises ``ValueError``.
        score_batch: Optional callable scoring a stacked matrix in one
            call (e.g. ``predictor.tree_.predict`` directly).  When set,
            :meth:`observe_fleet` scores a whole collection tick through
            it — one compiled routing pass for the fleet — instead of
            one ``score_sample`` call per drive.
        quarantine: The degraded-mode policy (see
            :class:`QuarantinePolicy`; a default policy is installed when
            omitted).  Pass ``quarantine=None`` for strict mode, where a
            malformed tick raises ``ValueError`` instead of being
            quarantined (the pre-degraded-mode behaviour; useful when
            the feed is trusted and corruption means a caller bug).
        tree: Optional fitted tree (anything with
            ``decision_path(row)``, e.g. ``predictor.tree_``) used to
            attach decision-path provenance to every ``alert_raised``
            event.
        feature_names: Optional names for the feature columns, rendered
            into provenance steps (defaults to the ``features``
            descriptions).
        model_generation: Generation number of the serving model,
            stamped on alert provenance; bumped by :meth:`set_model`.
        slo: Optional :class:`~repro.observability.slo.SLOMonitor` fed
            by :meth:`resolve_outcome`; its burn status is embedded in
            :meth:`health_report`.

    Example:
        >>> from repro.features.selection import critical_features
        >>> monitor = FleetMonitor(
        ...     critical_features(),
        ...     score_sample=lambda row: 1.0,
        ...     detector_factory=lambda: OnlineMajorityVote(3),
        ... )
        >>> import numpy as np
        >>> monitor.observe("d1", 0.0, np.ones(12)) is None
        True
    """

    _DEFAULT_QUARANTINE = QuarantinePolicy()

    def __init__(
        self,
        features: Sequence[Feature],
        score_sample: SampleScorer,
        detector_factory: Callable[[], object],
        *,
        score_batch: Optional[BatchScorer] = None,
        quarantine: Optional[QuarantinePolicy] = _DEFAULT_QUARANTINE,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
        model_generation: int = 0,
        slo: Optional[object] = None,
    ):
        self.features = tuple(features)
        self.score_sample = score_sample
        self.detector_factory = detector_factory
        self.score_batch = score_batch
        self.quarantine = quarantine
        self.tree = tree
        self.feature_names = (
            tuple(feature_names)
            if feature_names is not None
            else tuple(f.name for f in self.features)
        )
        self.model_generation = int(model_generation)
        self.slo = slo
        self.alerts: list[Alert] = []
        self.faults: list[SampleFault] = []
        self.vote_flips = 0
        self._tick_serials: Optional[tuple[str, ...]] = None
        from repro.detection.columnar import ColumnarEngine

        self._engine = ColumnarEngine(self)

    @classmethod
    def from_predictor(
        cls,
        predictor,
        detector_factory: Callable[[], object],
        **kwargs,
    ) -> "FleetMonitor":
        """Build a monitor serving a fitted pipeline's tree.

        ``predictor`` is any fitted pipeline exposing ``extractor`` and
        ``tree_`` (e.g. :class:`~repro.core.predictor.DriveFailurePredictor`
        or :class:`~repro.core.predictor.HealthDegreePredictor`): the
        monitor scores through the tree's compiled batch entry point
        (:meth:`~repro.tree.base.BaseDecisionTree.batch_scorer`) and
        attaches the tree for decision-path provenance.  Extra keyword
        arguments pass through to the constructor.
        """
        tree = predictor.tree_
        if tree is None:
            raise RuntimeError("predictor is not fitted; call fit() first")
        return cls(
            predictor.extractor.features,
            score_sample=tree.sample_scorer(),
            detector_factory=detector_factory,
            score_batch=tree.batch_scorer(),
            tree=tree,
            **kwargs,
        )

    def observe(
        self, serial: str, hour: float, channel_values: Sequence[float]
    ) -> Optional[Alert]:
        """Ingest one record; return an :class:`Alert` if the drive trips.

        A drive raises at most one alert (further records are ignored for
        alerting but still tracked, so health queries stay current).
        Malformed ticks are quarantined — counted, excluded from scoring
        and voting — rather than raised (see the class docs); missing
        values inside a well-formed tick flow through to the model's
        surrogate routing unchanged.
        """
        alerts = self._engine.tick(
            hour, [(serial, channel_values)], [], single=True
        )
        return alerts[0] if alerts else None

    def observe_fleet(
        self,
        hour: float,
        records: Union[Mapping[str, Sequence[float]], Iterable[tuple]],
    ) -> list[Alert]:
        """Ingest one collection tick for many drives at once.

        ``records`` maps serials to that hour's channel readings, or is
        an iterable of ``(serial, values)`` pairs (a serial repeated
        within the tick resolves last-write-wins with a
        ``duplicate-serial`` fault per overridden record, see
        :func:`_normalize_tick`).  The tick's usable feature rows are
        stacked and scored together — one ``score_batch`` call when a
        batch scorer is installed.  Returns the alerts raised by this
        tick, in record order.
        """
        items, duplicates = _normalize_tick(records)
        return self._run_tick(hour, items, duplicates)

    def register_fleet(self, serials: Iterable[str]) -> tuple[str, ...]:
        """Fix the tick roster for :meth:`observe_tick`.

        Serving a stable fleet from arrays means the serial→row keying
        is resolved once, not per tick: register the roster, then feed
        each tick as one ``(n_drives, n_channels)`` matrix whose rows
        align with it.  Returns the normalized roster tuple.  No drive
        state is created until a tick actually arrives (a registered
        but never-observed fleet is not "watched").
        """
        self._tick_serials = tuple(serials)
        return self._tick_serials

    def observe_tick(
        self,
        hour: float,
        values: np.ndarray,
        serials: Optional[Sequence[str]] = None,
    ) -> list[Alert]:
        """Ingest one collection tick as a channel matrix (the array path).

        ``values`` is a ``(n_drives, n_channels)`` float matrix; row
        ``i`` is the reading of ``serials[i]`` (default: the roster from
        :meth:`register_fleet`).  With a registered roster this is the
        zero-copy hot path: no per-drive python objects are touched.
        Semantically identical to
        ``observe_fleet(hour, zip(serials, values))``.
        """
        roster = tuple(serials) if serials is not None else self._tick_serials
        if roster is None:
            raise ValueError(
                "no tick roster: pass serials= or call register_fleet() first"
            )
        matrix = np.ascontiguousarray(values, dtype=float)
        if matrix.shape != (len(roster), N_CHANNELS):
            raise ValueError(
                f"values must have shape ({len(roster)}, {N_CHANNELS}), "
                f"got {matrix.shape}"
            )
        return self._run_tick(hour, None, None, roster=roster, matrix=matrix)

    def shard_tick(
        self,
        hour: float,
        items: Optional[list[tuple]],
        duplicates: Optional[list[str]],
        *,
        roster: Optional[tuple[str, ...]] = None,
        matrix: Optional[np.ndarray] = None,
    ) -> list[Alert]:
        """One shard's slice of a coordinator tick (no tick instrumentation).

        The entry point :class:`~repro.detection.sharded.ShardedFleetMonitor`
        drives: identical to a collection tick except that the
        tick-level instrumentation (``serve.fleet_ticks``, the
        ``serve.tick`` span, ``serve.tick_seconds``) is *not* emitted —
        the coordinator emits it once per logical tick, so the merged
        registry matches a single monitor's bit-for-bit instead of
        multiplying per-tick counters by the shard count.  Record-level
        instrumentation (``serve.ticks``/``serve.faults``/... and the
        lifecycle events) is emitted normally.

        Pass either normalized ``items``/``duplicates`` (from
        :func:`_normalize_tick`) or an aligned ``roster``/``matrix``
        pair (the zero-copy path; the roster must be duplicate-free).
        """
        if roster is not None:
            return self._engine.tick_matrix(hour, roster, matrix)
        return self._engine.tick(hour, items, duplicates)

    def _run_tick(
        self,
        hour: float,
        items: Optional[list[tuple]],
        duplicates: Optional[list[str]],
        *,
        roster: Optional[tuple[str, ...]] = None,
        matrix: Optional[np.ndarray] = None,
    ) -> list[Alert]:
        """Per-tick instrumentation around one engine tick."""
        registry = get_registry()
        start = perf_counter() if registry.enabled else 0.0
        n_drives = len(roster) if roster is not None else len(items)
        with get_tracer().span(
            "serve.tick", category="serve", n_drives=n_drives
        ):
            if roster is not None:
                alerts = self._engine.tick_matrix(hour, roster, matrix)
            else:
                alerts = self._engine.tick(hour, items, duplicates)
        registry.counter("serve.fleet_ticks", help="collection ticks").inc()
        if registry.enabled:
            registry.histogram(
                "serve.tick_seconds", unit="seconds",
                help="collection tick wall time",
            ).observe(perf_counter() - start)
        return alerts

    def finalize(self) -> list[Alert]:
        """Apply the short-history rule to drives that never filled a window.

        Call once at the end of a replay; returns (and records) the extra
        alerts.  Idempotent per drive thanks to the ``alerted`` latch.
        """
        return self._engine.finalize()

    # -- model lifecycle and ground truth --------------------------------------

    def set_model(
        self,
        score_sample: SampleScorer,
        *,
        score_batch: Optional[BatchScorer] = None,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Swap the serving model in place; returns the new generation.

        The paper's Section V-C updating story, seen from the serving
        side: detector windows and alert latches survive the swap (the
        fleet keeps streaming), the generation counter bumps, and a
        ``model_replaced`` event records the transition so every later
        alert's provenance names the model that raised it.
        """
        self.score_sample = score_sample
        self.score_batch = score_batch
        self.tree = tree
        if feature_names is not None:
            self.feature_names = tuple(feature_names)
        previous = self.model_generation
        self.model_generation = previous + 1
        get_event_log().emit(
            "model_replaced",
            from_generation=previous,
            to_generation=self.model_generation,
        )
        return self.model_generation

    def resolve_outcome(
        self,
        serial: str,
        failed: bool,
        *,
        hour: Optional[float] = None,
        failure_hour: Optional[float] = None,
    ) -> str:
        """Record ground truth for a drive; returns its outcome label.

        Once an operator learns a drive's fate the alert latch resolves
        to one of ``detected`` / ``missed`` / ``false_alarm`` / ``good``.
        The outcome feeds the attached SLO monitor (when one was passed
        at construction) with the detection's lead time, and an
        ``outcome_resolved`` event lands in the log — the bridge from
        the alert lifecycle to the FDR/FAR/lead-time budgets.  When the
        drive had alerted, the event carries the resolving alert's id,
        so explain reports can attribute precision to the exact
        subtree that paged (:mod:`repro.explain.report`).
        """
        alerted = self._engine.is_alerted(serial)
        if failed:
            outcome = "detected" if alerted else "missed"
        else:
            outcome = "false_alarm" if alerted else "good"
        alert = next((a for a in self.alerts if a.serial == serial), None)
        lead_hours: Optional[float] = None
        if (
            outcome == "detected" and alert is not None
            and failure_hour is not None and np.isfinite(alert.hour)
        ):
            lead_hours = float(failure_hour) - float(alert.hour)
        if hour is None:
            if failure_hour is not None:
                hour = failure_hour
            elif alert is not None and np.isfinite(alert.hour):
                hour = alert.hour
            else:
                hour = 0.0
        get_event_log().emit(
            "outcome_resolved", drive=serial, hour=hour,
            outcome=outcome,
            **({"alert_id": alert.alert_id}
               if alert is not None and alert.alert_id else {}),
            **({"lead_hours": lead_hours} if lead_hours is not None else {}),
        )
        if self.slo is not None:
            self.slo.record(float(hour), outcome, lead_hours=lead_hours, drive=serial)
        return outcome

    def watched_drives(self) -> list[str]:
        """Serials currently tracked."""
        return self._engine.watched_drives()

    # -- degraded-mode reporting ----------------------------------------------

    def drive_status(self, serial: str) -> DriveStatus:
        """Serving status of one drive (unknown serials are ``OK``)."""
        return self._engine.drive_status(serial)

    def degraded_drives(self) -> list[str]:
        """Serials currently quarantined (reported, never mis-scored)."""
        return self._engine.degraded_drives()

    def fault_counts(self) -> dict[str, int]:
        """Per-drive count of quarantined (malformed, excluded) ticks."""
        return self._engine.fault_counts()

    def health_report(self) -> dict[str, object]:
        """One-call summary for operators: faults, quarantine, alerts.

        The dict is schema-tagged (``"schema"``, see
        ``docs/observability.md``) so downstream tooling can detect
        format changes.  When a recording metrics registry is installed
        the ``"metrics"`` section carries the serving-family
        (``serve.*``) series from the live snapshot; with the default
        no-op registry it is empty.
        """
        kinds: dict[str, int] = {}
        for fault in self.faults:
            kinds[fault.kind.value] = kinds.get(fault.kind.value, 0) + 1
        snapshot = get_registry().snapshot()
        report: dict[str, object] = {
            "schema": HEALTH_REPORT_SCHEMA,
            "watched_drives": self._engine.n_watched(),
            "alerts": len(self.alerts),
            "faults_total": len(self.faults),
            "faults_by_kind": kinds,
            "degraded_drives": self.degraded_drives(),
            "vote_flips": self.vote_flips,
            "model_generation": self.model_generation,
            "metrics": {
                name: entry
                for name, entry in snapshot["metrics"].items()
                if name.startswith("serve.")
            },
        }
        if self.slo is not None:
            report["slo"] = self.slo.status()
        return report
