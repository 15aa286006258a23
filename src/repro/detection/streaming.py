"""Online (streaming) failure monitoring.

The paper's deployment story is a monitoring daemon: every hour each
drive reports a SMART record, the model scores it, and the voting rule
decides whether to raise a warning.  This module provides that streaming
surface with *exactly* the offline semantics:

* :class:`VoterSpec` — the voting rule a monitor serves (the paper's
  N-voter majority for the CT, the mean threshold for the RT);
* :class:`FleetMonitor` — routes collection ticks through one batch
  scorer (``score``: a ``(k, n_features)`` matrix in, ``k`` scores out)
  and collects :class:`Alert` events.

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
one ``score`` call per tick (a single :meth:`FleetMonitor.observe` is a
batch of one).  The per-drive object engine it replaced (one python
object, feature buffer and windowed voter per drive) survives only as a
test oracle, ``tests/oracles/object_monitor.py``; the golden parity
suite pins the two bit for bit — same alerts, same ``health_report()``,
same event stream, same quarantine decisions.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
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


def _aligned_matrix(values: np.ndarray, n_drives: int) -> np.ndarray:
    """``values`` as a contiguous float ``(n_drives, N_CHANNELS)`` matrix."""
    matrix = np.ascontiguousarray(values, dtype=float)
    if matrix.shape != (n_drives, N_CHANNELS):
        raise ValueError(
            f"values must have shape ({n_drives}, {N_CHANNELS}), "
            f"got {matrix.shape}"
        )
    return matrix


def _stack_items(
    items: list[tuple],
) -> tuple[tuple[str, ...], np.ndarray, dict[int, tuple]]:
    """Convert normalized ``(serial, values)`` pairs into one channel matrix.

    Returns the roster, a ``(len(items), N_CHANNELS)`` float matrix
    aligned with it, and ``bad_shape`` (record index → offending shape)
    for records the gate must fault as wrong-shape; their rows are NaN.
    Conversion runs before any drive state is touched, so a record that
    is not numeric at all raises ``ValueError`` with no side effects.
    """
    roster = tuple(serial for serial, _ in items)
    matrix = np.empty((len(items), N_CHANNELS))
    bad_shape: dict[int, tuple] = {}
    for at, (serial, values) in enumerate(items):
        try:
            array = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"drive {serial!r}: channel values are not numeric ({error})"
            ) from error
        if array.shape == (N_CHANNELS,):
            matrix[at] = array
        else:
            bad_shape[at] = array.shape
            matrix[at] = np.nan
    return roster, matrix, bad_shape


@contextmanager
def _tick_instrumentation(n_drives: int):
    """The once-per-collection-tick instruments around one tick.

    The ``serve.tick`` span, ``serve.fleet_ticks`` and
    ``serve.tick_seconds``; a sharded coordinator emits them itself,
    once per logical tick, never per shard.
    """
    registry = get_registry()
    start = perf_counter() if registry.enabled else 0.0
    with get_tracer().span("serve.tick", category="serve", n_drives=n_drives):
        yield
    registry.counter("serve.fleet_ticks", help="collection ticks").inc()
    if registry.enabled:
        registry.histogram(
            "serve.tick_seconds", unit="seconds", help="collection tick wall time",
        ).observe(perf_counter() - start)


@dataclass(frozen=True)
class NormalizedTick:
    """One collection tick in the one shape every serving path speaks.

    ``roster`` holds unique serials (repeats already resolved
    last-write-wins) and ``matrix`` the aligned ``(n, N_CHANNELS)``
    readings.  ``duplicates`` lists the overridden occurrences in
    discovery order, ``bad_shape`` maps record index → shape for
    records the gate faults as wrong-shape.  ``roster=None`` means the
    roster fixed by ``register_fleet``; at the sharded coordinator
    ``matrix=None`` means the pinned feed.
    """

    hour: float
    roster: Optional[tuple[str, ...]]
    matrix: Optional[np.ndarray]
    duplicates: tuple[str, ...] = ()
    bad_shape: Mapping[int, tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class VoterSpec:
    """The voting rule a monitor serves, as picklable data.

    ``kind="majority"`` is the CT rule: a drive alarms when more than
    half of its last ``n_voters`` scores equal ``failed_label`` (NaN
    scores hold a window slot but never vote failed).  ``kind="mean"``
    is the RT rule: a drive alarms when the mean of the finite scores
    among its last ``n_voters`` falls below ``threshold``.  No drive
    alarms before its window is full; at :meth:`FleetMonitor.finalize`
    a shorter-than-window history is judged once over all its samples,
    like the offline detectors in :mod:`repro.detection.voting`.

    The spec is validated at construction, so a bad rule fails before
    any monitor, shard or worker exists.
    """

    kind: str  # "majority" | "mean"
    n_voters: int
    failed_label: float = -1.0
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("majority", "mean"):
            raise ValueError(
                f"kind must be 'majority' or 'mean', got {self.kind!r}"
            )
        check_positive("n_voters", self.n_voters)


def _check_voter(voter: object) -> VoterSpec:
    """``voter`` itself when it is a :class:`VoterSpec`; ``ValueError`` if not."""
    if not isinstance(voter, VoterSpec):
        raise ValueError(
            f"voter must be a VoterSpec, got {type(voter).__name__}"
        )
    return voter


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
        score: The model: maps a stacked ``(k, n_features)`` matrix to
            ``k`` scores (e.g. ``predictor.tree_.predict``).  Each tick
            makes one call with the tick's usable rows — one compiled
            routing pass for the fleet; rows with no finite feature are
            scored NaN without calling it.
        voter: The :class:`VoterSpec` every drive's window is judged by.
            Anything else raises ``ValueError``.
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
        >>> import numpy as np
        >>> monitor = FleetMonitor(
        ...     critical_features(),
        ...     lambda X: np.ones(len(X)),
        ...     VoterSpec("majority", 3),
        ... )
        >>> monitor.observe("d1", 0.0, np.ones(12)) is None
        True
    """

    _DEFAULT_QUARANTINE = QuarantinePolicy()

    def __init__(
        self,
        features: Sequence[Feature],
        score: Callable[[np.ndarray], np.ndarray],
        voter: VoterSpec,
        *,
        quarantine: Optional[QuarantinePolicy] = _DEFAULT_QUARANTINE,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
        model_generation: int = 0,
        slo: Optional[object] = None,
    ):
        self.features = tuple(features)
        self.score = score
        self.voter = voter
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
        voter: VoterSpec,
        **kwargs,
    ) -> "FleetMonitor":
        """Build a monitor serving a fitted pipeline's tree.

        ``predictor`` is any fitted pipeline exposing ``extractor`` and
        ``tree_`` (e.g. :class:`~repro.core.predictor.DriveFailurePredictor`
        or :class:`~repro.core.predictor.HealthDegreePredictor`): the
        monitor scores through the tree's compiled ``predict`` (a bound
        method, so it pickles with the tree) and attaches the tree for
        decision-path provenance.  Extra keyword arguments pass through
        to the constructor.
        """
        features, tree = _unpack_predictor(predictor)
        return cls(features, tree.predict, voter, tree=tree, **kwargs)

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
        alerts = self._engine.tick(hour, [(serial, channel_values)], [])
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
        stacked and scored together in one ``score`` call.  Returns the
        alerts raised by this tick, in record order.
        """
        items, duplicates = _normalize_tick(records)
        with _tick_instrumentation(len(items)):
            return self._engine.tick(hour, items, duplicates)

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
        matrix = _aligned_matrix(values, len(roster))
        with _tick_instrumentation(len(roster)):
            return self._engine.tick_matrix(hour, roster, matrix)

    def shard_tick(self, tick: NormalizedTick) -> list[Alert]:
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

        ``tick`` is the :class:`NormalizedTick` the coordinator built,
        sliced to this shard; its matrix must be present (the shard
        resolves a pinned feed before calling).  ``roster=None`` ticks
        the roster fixed by :meth:`register_fleet`, whose serial→row
        resolution is cached, so the hot path touches no per-drive
        python.
        """
        return self._engine.run(tick)

    def finalize(self) -> list[Alert]:
        """Apply the short-history rule to drives that never filled a window.

        Call once at the end of a replay; returns (and records) the extra
        alerts.  Idempotent per drive thanks to the ``alerted`` latch.
        """
        return self._engine.finalize()

    # -- model lifecycle and ground truth --------------------------------------

    def set_model(
        self,
        score: Callable[[np.ndarray], np.ndarray],
        *,
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
        self.score = score
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
        return _resolve_outcome(
            self.alerts, self.slo, serial, failed,
            hour=hour, failure_hour=failure_hour,
        )

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
        return _health_report(
            self,
            watched=self._engine.n_watched(),
            degraded=self.degraded_drives(),
            vote_flips=self.vote_flips,
        )


def _unpack_predictor(predictor) -> tuple[tuple, object]:
    """A fitted pipeline's ``(features, tree)``; raises if it is unfitted."""
    tree = predictor.tree_
    if tree is None:
        raise RuntimeError("predictor is not fitted; call fit() first")
    return predictor.extractor.features, tree


def _resolve_outcome(
    alerts: Sequence[Alert],
    slo: Optional[object],
    serial: str,
    failed: bool,
    *,
    hour: Optional[float],
    failure_hour: Optional[float],
) -> str:
    """``resolve_outcome`` for any monitor, given its alerts and SLO.

    A drive counts as alerted when ``alerts`` holds an alert for it;
    every alert latch appends one, so this is the latch itself.
    """
    alert = next((a for a in alerts if a.serial == serial), None)
    if failed:
        outcome = "detected" if alert is not None else "missed"
    else:
        outcome = "false_alarm" if alert is not None else "good"
    lead_hours: Optional[float] = None
    if (
        outcome == "detected"
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
    if slo is not None:
        slo.record(float(hour), outcome, lead_hours=lead_hours, drive=serial)
    return outcome


def _health_report(
    monitor, *, watched: int, degraded: list[str], vote_flips: int
) -> dict[str, object]:
    """The ``health_report()`` every monitor shares, from its counts.

    Builds the schema tag, alert and fault totals, fault kinds, model
    generation, the ``serve.*`` metrics and the SLO status from
    ``monitor``; the caller supplies the drive counts it holds.
    """
    kinds: dict[str, int] = {}
    for fault in monitor.faults:
        kinds[fault.kind.value] = kinds.get(fault.kind.value, 0) + 1
    snapshot = get_registry().snapshot()
    report: dict[str, object] = {
        "schema": HEALTH_REPORT_SCHEMA,
        "watched_drives": watched,
        "alerts": len(monitor.alerts),
        "faults_total": len(monitor.faults),
        "faults_by_kind": kinds,
        "degraded_drives": degraded,
        "vote_flips": vote_flips,
        "model_generation": monitor.model_generation,
        "metrics": {
            name: entry
            for name, entry in snapshot["metrics"].items()
            if name.startswith("serve.")
        },
    }
    if monitor.slo is not None:
        report["slo"] = monitor.slo.status()
    return report
