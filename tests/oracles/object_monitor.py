"""The per-drive object engine: the oracle for columnar serving.

:class:`~repro.detection.streaming.FleetMonitor` serves every fleet from
the structure-of-arrays state of :mod:`repro.detection.columnar`.  The
engine it replaced walked one python object per drive per tick — a
rolling :class:`OnlineFeatureBuffer`, a fresh voter from
``detector_factory`` and a handful of latches — and that walk is the
readable statement of what serving means.  It lives on here as the
reference the golden parity suite (``tests/test_detection_columnar.py``)
pins the columnar engine against: same alerts, faults, health report,
event stream and quarantine decisions.

:class:`ObjectFleetMonitor` is a ``FleetMonitor`` whose engine is
swapped for :class:`ObjectEngine`, so both run the same public surface
and the same tick instrumentation; only the per-drive work differs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.detection.streaming import (
    ALERTS_HELP,
    FAULTS_HELP,
    FLIPS_HELP,
    QUARANTINED_HELP,
    SCORED_HELP,
    TICKS_HELP,
    Alert,
    DriveStatus,
    FleetMonitor,
    _duplicate_serial_fault,
    _json_score,
    _normalize_tick,
)
from repro.features.vectorize import Feature
from repro.observability import get_event_log, get_registry
from repro.observability.events import decision_path_payload
from repro.smart.attributes import N_CHANNELS, channel_index
from repro.utils.errors import FaultKind, SampleFault


class OnlineFeatureBuffer:
    """Incremental feature computation for one drive.

    Keeps a bounded history of raw channel readings so change-rate
    features can look back ``interval`` hours.  Observations must arrive
    in strictly increasing hour order; gaps (missed samples) are fine —
    a change rate whose lag hour was never observed is NaN, matching
    :func:`repro.features.change_rates.change_rate`.
    """

    def __init__(self, features: Sequence[Feature]):
        self.features = tuple(features)
        if not self.features:
            raise ValueError("at least one feature is required")
        self._max_lag = max(
            (f.change_interval_hours for f in self.features), default=0.0
        )
        self._history: deque[tuple[float, np.ndarray]] = deque()
        self._last_hour: Optional[float] = None

    def push(self, hour: float, channel_values: Sequence[float]) -> np.ndarray:
        """Ingest one SMART record; return the feature row for this hour."""
        values = np.asarray(channel_values, dtype=float)
        if values.shape != (N_CHANNELS,):
            raise ValueError(
                f"channel_values must have shape ({N_CHANNELS},), got {values.shape}"
            )
        hour = float(hour)
        if self._last_hour is not None and hour <= self._last_hour:
            raise ValueError(
                f"observations must be in increasing hour order "
                f"({hour} after {self._last_hour})"
            )
        self._last_hour = hour
        self._history.append((float(hour), values))
        # Drop history older than the longest lag (keep the lag hour itself).
        while self._history and self._history[0][0] < hour - self._max_lag:
            self._history.popleft()

        row = np.empty(len(self.features))
        for column, feature in enumerate(self.features):
            channel = channel_index(feature.short)
            current = values[channel]
            if not feature.is_change_rate:
                row[column] = current
                continue
            lag_hour = hour - feature.change_interval_hours
            lagged = self._lookup(lag_hour, channel)
            if lagged is None or not np.isfinite(current) or not np.isfinite(lagged):
                row[column] = np.nan
            else:
                row[column] = (current - lagged) / feature.change_interval_hours
        return row

    def _lookup(self, hour: float, channel: int) -> Optional[float]:
        for recorded_hour, values in self._history:
            if np.isclose(recorded_hour, hour):
                return float(values[channel])
        return None


@dataclass
class _DriveState:
    buffer: OnlineFeatureBuffer
    detector: object
    alerted: bool = False
    fault_count: int = 0
    status: DriveStatus = DriveStatus.OK
    #: Last instantaneous alarm signal (``serve.vote_flips`` tracks its
    #: transitions; ``None`` until the first scored tick).
    last_signal: Optional[bool] = None
    #: Feature row of the most recent well-formed tick — the SMART
    #: evidence an ``alert_raised`` event's decision path explains.
    last_row: Optional[np.ndarray] = None
    #: True once an ``alert_cleared`` event has fired for this drive.
    cleared: bool = False


class ObjectEngine:
    """One python object per drive; the engine contract of ``ColumnarEngine``.

    Drives are kept in a dict in first-seen order, so :meth:`finalize`
    walks them in the order the columnar engine allocates rows.
    """

    def __init__(self, monitor: FleetMonitor):
        self.monitor = monitor
        self._drives: dict[str, _DriveState] = {}

    def _state(self, serial: str) -> _DriveState:
        state = self._drives.get(serial)
        if state is None:
            state = _DriveState(
                buffer=OnlineFeatureBuffer(self.monitor.features),
                detector=self.monitor.detector_factory(),
            )
            self._drives[serial] = state
        return state

    # -- the validation gate -------------------------------------------------

    def _gate(
        self, serial: str, state: _DriveState, hour: float, values: Sequence[float]
    ) -> Union[np.ndarray, SampleFault]:
        """Validate one tick; a clean tick comes back as its channel array.

        A malformed tick is returned as a :class:`SampleFault` (strict
        mode raises instead), already counted against the drive's
        quarantine budget and appended to the monitor's ``faults``.
        """
        registry = get_registry()
        registry.counter("serve.ticks", help=TICKS_HELP).inc()
        fault: Optional[SampleFault] = None
        array = np.asarray(values, dtype=float)
        last = state.buffer._last_hour
        if array.shape != (N_CHANNELS,):
            fault = SampleFault(
                serial, float(hour) if np.isfinite(hour) else np.nan,
                FaultKind.WRONG_SHAPE,
                f"expected ({N_CHANNELS},) channel values, got {array.shape}",
            )
        elif not np.isfinite(hour):
            fault = SampleFault(
                serial, np.nan, FaultKind.NON_FINITE_TIME,
                f"timestamp {hour!r} is not a finite hour",
            )
        elif last is not None and hour == last:
            fault = SampleFault(
                serial, float(hour), FaultKind.DUPLICATE_TIME,
                f"hour {hour} already ingested",
            )
        elif last is not None and hour < last:
            fault = SampleFault(
                serial, float(hour), FaultKind.OUT_OF_ORDER,
                f"hour {hour} arrived after {last}",
            )
        if fault is None:
            return array
        self._quarantine_fault(serial, state, fault)
        return fault

    def _quarantine_fault(
        self, serial: str, state: _DriveState, fault: SampleFault
    ) -> None:
        """Record one malformed tick against a drive's quarantine budget."""
        monitor = self.monitor
        if monitor.quarantine is None:
            raise ValueError(f"drive {serial}: {fault.kind}: {fault.detail}")
        registry = get_registry()
        monitor.faults.append(fault)
        state.fault_count += 1
        registry.counter(
            "serve.faults", help=FAULTS_HELP, kind=fault.kind.value,
        ).inc()
        log = get_event_log()
        log.emit(
            "tick_faulted", drive=serial, hour=fault.hour,
            kind=fault.kind.value, detail=fault.detail,
        )
        if monitor.quarantine.degrades(state.fault_count):
            if state.status is not DriveStatus.DEGRADED:
                registry.counter(
                    "serve.quarantined", help=QUARANTINED_HELP
                ).inc()
                log.emit(
                    "drive_quarantined", drive=serial, hour=fault.hour,
                    fault_count=state.fault_count,
                    fault_limit=monitor.quarantine.fault_limit,
                )
            state.status = DriveStatus.DEGRADED

    def _record_score(
        self, serial: str, state: _DriveState, hour: float, score: float
    ) -> Optional[Alert]:
        """Feed one score to the drive's detector; latch and report alerts."""
        monitor = self.monitor
        log = get_event_log()
        if log.enabled and np.isfinite(score):
            log.emit("sample_scored", drive=serial, hour=hour, score=float(score))
        alarmed = state.detector.push(score)
        previous = state.last_signal
        if previous is not None and alarmed != previous:
            monitor.vote_flips += 1
            get_registry().counter(
                "serve.vote_flips", help=FLIPS_HELP
            ).inc()
            log.emit("vote_flip", drive=serial, hour=hour, signal=bool(alarmed))
        state.last_signal = alarmed
        if alarmed and not state.alerted and state.status is DriveStatus.OK:
            state.alerted = True
            alert = Alert(
                serial=serial, hour=float(hour), score=score,
                alert_id=f"alert-{len(monitor.alerts):04d}",
            )
            monitor.alerts.append(alert)
            get_registry().counter("serve.alerts", help=ALERTS_HELP).inc()
            if log.enabled:
                log.emit(
                    "alert_raised", drive=serial, hour=hour,
                    **self._provenance(alert, state),
                )
            return alert
        if (
            not alarmed and previous and state.alerted and not state.cleared
            and state.status is DriveStatus.OK
        ):
            state.cleared = True
            log.emit("alert_cleared", drive=serial, hour=hour, score=_json_score(score))
        return None

    def _provenance(self, alert: Alert, state: _DriveState) -> dict:
        """The evidence payload of an ``alert_raised`` event."""
        monitor = self.monitor
        payload: dict = {
            "alert_id": alert.alert_id,
            "score": _json_score(alert.score),
            "model_generation": monitor.model_generation,
        }
        window = getattr(state.detector, "window_contents", None)
        if window is not None:
            payload["window"] = window()
        if monitor.tree is not None and state.last_row is not None:
            payload["path"] = decision_path_payload(
                monitor.tree, state.last_row, monitor.feature_names
            )
        return payload

    # -- tick entry points ----------------------------------------------------

    def tick(
        self,
        hour: float,
        items: list[tuple],
        duplicates: list[str],
        *,
        single: bool = False,
    ) -> list[Alert]:
        """One collection tick, drive by drive."""
        monitor = self.monitor
        registry = get_registry()
        for serial in duplicates:
            registry.counter("serve.ticks", help=TICKS_HELP).inc()
            self._quarantine_fault(
                serial, self._state(serial), _duplicate_serial_fault(serial, hour)
            )
        ingested: list[tuple[str, _DriveState, np.ndarray]] = []
        for serial, values in items:
            state = self._state(serial)
            gated = self._gate(serial, state, hour, values)
            if isinstance(gated, SampleFault):
                continue
            row = state.buffer.push(hour, gated)
            state.last_row = row
            ingested.append((serial, state, row))
        usable = [
            index
            for index, (_, _, row) in enumerate(ingested)
            if np.any(np.isfinite(row))
        ]
        scores = np.full(len(ingested), np.nan)
        if usable:
            stacked = np.vstack([ingested[index][2] for index in usable])
            if single or monitor.score_batch is None:
                scores[usable] = [
                    float(monitor.score_sample(stacked[at]))
                    for at in range(len(usable))
                ]
            else:
                scores[usable] = np.asarray(
                    monitor.score_batch(stacked), dtype=float
                )
            registry.counter(
                "serve.scored", help=SCORED_HELP
            ).inc(len(usable))
        alerts = []
        for (serial, state, _), score in zip(ingested, scores):
            alert = self._record_score(serial, state, hour, float(score))
            if alert is not None:
                alerts.append(alert)
        return alerts

    def tick_matrix(
        self, hour: float, roster: tuple, matrix: np.ndarray
    ) -> list[Alert]:
        """A roster-aligned matrix tick is its ``(serial, row)`` pairs."""
        items, duplicates = _normalize_tick(zip(roster, matrix))
        return self.tick(hour, items, duplicates)

    def finalize(self) -> list[Alert]:
        """Short-history flush in first-seen order."""
        monitor = self.monitor
        extra = []
        log = get_event_log()
        for serial, state in self._drives.items():
            if state.alerted or state.status is not DriveStatus.OK:
                continue
            flush = getattr(state.detector, "flush_short_history", None)
            if flush is not None and flush():
                state.alerted = True
                alert = Alert(
                    serial=serial, hour=np.nan, score=np.nan,
                    alert_id=f"alert-{len(monitor.alerts):04d}",
                )
                monitor.alerts.append(alert)
                get_registry().counter("serve.alerts", help=ALERTS_HELP).inc()
                if log.enabled:
                    log.emit(
                        "alert_raised", drive=serial, hour=None,
                        short_history=True, **self._provenance(alert, state),
                    )
                extra.append(alert)
        return extra

    # -- reporting accessors ---------------------------------------------------

    def watched_drives(self) -> list[str]:
        return sorted(self._drives)

    def n_watched(self) -> int:
        return len(self._drives)

    def is_alerted(self, serial: str) -> bool:
        state = self._drives.get(serial)
        return state.alerted if state is not None else False

    def drive_status(self, serial: str) -> DriveStatus:
        state = self._drives.get(serial)
        return state.status if state is not None else DriveStatus.OK

    def degraded_drives(self) -> list[str]:
        return sorted(
            serial
            for serial, state in self._drives.items()
            if state.status is DriveStatus.DEGRADED
        )

    def fault_counts(self) -> dict[str, int]:
        return {
            serial: state.fault_count
            for serial, state in sorted(self._drives.items())
            if state.fault_count
        }


class ObjectFleetMonitor(FleetMonitor):
    """A :class:`FleetMonitor` served by the per-drive :class:`ObjectEngine`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._engine = ObjectEngine(self)
