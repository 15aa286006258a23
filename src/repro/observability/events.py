"""Append-only structured event log: the alert lifecycle, explained.

Metrics answer "how many", traces answer "where did the time go"; an
*event log* answers the operator's first question after a page: **which
drive alerted, on which SMART evidence, under which model** — and lets
tooling replay exactly what the fleet did.  This module is the fourth
observability pillar, built on the same conventions as the other three:

* zero dependencies, free when disabled (the module-global default is a
  :class:`NullEventLog` whose ``emit`` is a constant-time no-op);
* deterministic output — events carry the fleet's *logical* clock (the
  observation hour) and a monotone sequence number, never wall time, so
  two identical runs write byte-identical logs;
* schema-tagged persistence: the JSONL file starts with a
  ``{"schema": "repro.events/v1"}`` header line, one JSON object per
  event after it.

The typed event vocabulary (names declared in
:mod:`repro.observability.catalog`, rendered into
``docs/observability.md``, and diffed against live emission by the
integration suite) covers the full alert lifecycle::

    sample_scored -> vote_flip -> alert_raised / alert_cleared
    tick_faulted -> drive_quarantined
    model_retrained / model_replaced        (updating)
    outcome_resolved -> slo_burn            (ground truth -> SLO)
    detection_evaluated, run_completed      (offline harnesses)

Every ``alert_raised`` event carries **provenance**: the CART decision
path that classified the triggering sample (one step per internal node
— feature, threshold, direction, node statistics — read off the
compiled arrays and identical to a walk of the node graph), the
voting-window contents
at the moment the window flipped, and the generation of the model that
produced the score.  ``repro-events explain <alert-id>`` renders it.

Replay is a contract, not a convenience: feeding a run's event stream
to :func:`replay_health_counters` reconstructs the live run's
:meth:`~repro.detection.streaming.FleetMonitor.health_report`
fault/quarantine/vote-flip counters exactly (the round-trip test pins
this).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

from repro.utils.errors import TornEventLogWarning

#: Schema tag on the JSONL header line (bump on breaking change).
EVENTS_SCHEMA = "repro.events/v1"


def _clean_hour(hour: Optional[float]) -> Optional[float]:
    """Canonicalise an event timestamp: non-finite hours become ``None``.

    Short-history finalize alerts have no meaningful hour; storing NaN
    would leak non-strict JSON into the log, so it is normalised away at
    emit time (the reader then round-trips every event exactly).
    """
    if hour is None:
        return None
    hour = float(hour)
    return hour if math.isfinite(hour) else None


@dataclass(frozen=True)
class Event:
    """One structured event.

    ``seq`` is the log-assigned monotone sequence number (the total
    order of the run); ``hour`` is the fleet's logical clock at emission
    (``None`` for events outside fleet time, e.g. ``run_completed``);
    ``drive`` names the affected serial where one exists; ``data`` is
    the type-specific JSON-able payload.
    """

    seq: int
    type: str
    drive: Optional[str] = None
    hour: Optional[float] = None
    data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The JSONL line for this event (``None`` fields omitted)."""
        line: dict = {"seq": self.seq, "type": self.type}
        if self.drive is not None:
            line["drive"] = self.drive
        if self.hour is not None:
            line["hour"] = self.hour
        if self.data:
            line["data"] = self.data
        return line

    @classmethod
    def from_json_dict(cls, line: dict) -> "Event":
        """Invert :meth:`to_json_dict`."""
        return cls(
            seq=int(line["seq"]),
            type=str(line["type"]),
            drive=line.get("drive"),
            hour=line.get("hour"),
            data=dict(line.get("data", {})),
        )

    def render(self) -> str:
        """One human-readable line (what ``repro-events tail`` prints)."""
        hour = f"t={self.hour:g}h" if self.hour is not None else "t=-"
        drive = self.drive if self.drive is not None else "-"
        extras = " ".join(
            f"{key}={_render_value(value)}"
            for key, value in self.data.items()
            if key not in ("path", "window")
        )
        return f"#{self.seq:<6d} {hour:<12s} {drive:<12s} {self.type:<20s} {extras}"


def _render_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


class EventLog:
    """Records typed events in memory, optionally teeing to a JSONL file.

    With a ``path`` every emission is appended (and flushed) to the
    file immediately, so ``repro-events tail`` works on a live run and a
    crash loses at most the event being written.  A new or empty file
    gets the ``repro.events/v1`` header line first; appending to an
    existing log of the same schema is allowed (multi-run logs replay
    fine — sequence numbers restart per run, total order is file order).

    ``fsync=True`` additionally fsyncs after every emission, so an
    event acknowledged to the caller survives power loss — the
    crash-consistency mode supervised serving runs under.  The residual
    failure window is then a *torn final line* (killed mid-``write``),
    which ``read_events(path, tolerant=True)`` recovers from.
    """

    enabled = True

    def __init__(
        self, path: Optional[Union[str, Path]] = None, *, fsync: bool = False
    ):
        self.events: list[Event] = []
        self._seq = 0
        self._path = Path(path) if path is not None else None
        self._fsync = bool(fsync)
        self._handle: Optional[TextIO] = None
        if self._path is not None:
            needs_header = (
                not self._path.exists() or self._path.stat().st_size == 0
            )
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("a")
            if needs_header:
                self._write_line({"schema": EVENTS_SCHEMA})

    @property
    def path(self) -> Optional[Path]:
        """The JSONL file this log tees to (``None`` = in-memory only)."""
        return self._path

    def _write_line(self, line: dict) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(line, separators=(", ", ": ")) + "\n")
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

    def emit(
        self,
        type: str,
        *,
        drive: Optional[str] = None,
        hour: Optional[float] = None,
        **data,
    ) -> Event:
        """Record one event; returns it (with its assigned ``seq``)."""
        event = Event(
            seq=self._seq, type=type, drive=drive, hour=_clean_hour(hour),
            data=data,
        )
        self._seq += 1
        self.events.append(event)
        self._write_line(event.to_json_dict())
        return event

    def close(self) -> None:
        """Close the JSONL handle (in-memory events stay available)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- queries --------------------------------------------------------------

    def by_type(self, type: str) -> list[Event]:
        """Every recorded event of one type, in emission order."""
        return [event for event in self.events if event.type == type]

    def event_types(self) -> set[str]:
        """Distinct event types recorded so far."""
        return {event.type for event in self.events}

    def next_alert_id(self) -> str:
        """The id the next ``alert_raised`` event should carry.

        Derived from the count of alerts already logged, so ids are
        deterministic and dense (``alert-0000``, ``alert-0001``, ...).
        """
        return f"alert-{len(self.by_type('alert_raised')):04d}"

    # -- cross-worker shipping ------------------------------------------------

    def drain(self) -> list[Event]:
        """Return and clear the recorded events (for worker envelopes)."""
        events, self.events = self.events, []
        return events

    def absorb(self, events: Iterable[Event]) -> None:
        """Merge events recorded by another log (typically a worker).

        Re-assigns sequence numbers so the parent's total order stays
        monotone; merges happen in task-submission order (see
        :func:`repro.utils.parallel.run_tasks`), so the result is
        deterministic.
        """
        for event in events:
            self.emit(event.type, drive=event.drive, hour=event.hour, **event.data)


class NullEventLog(EventLog):
    """The default log: accepts every emission, records nothing."""

    enabled = False
    _NULL_EVENT = Event(seq=-1, type="null")

    def __init__(self):
        self.events = []
        self._seq = 0
        self._path = None
        self._handle = None

    def emit(self, type: str, *, drive=None, hour=None, **data) -> Event:  # type: ignore[override]
        return self._NULL_EVENT

    def absorb(self, events: Iterable[Event]) -> None:
        pass


#: Process-wide event log; the null default makes emission sites free.
_NULL_EVENT_LOG = NullEventLog()
_event_log: EventLog = _NULL_EVENT_LOG


def get_event_log() -> EventLog:
    """The process-wide event log every emission site records into."""
    return _event_log


def set_event_log(log: Optional[EventLog]) -> EventLog:
    """Install ``log`` globally (``None`` restores the no-op default).

    Returns the previously installed log so callers can restore it.
    """
    global _event_log
    previous = _event_log
    _event_log = log if log is not None else _NULL_EVENT_LOG
    return previous


def enable_events(
    path: Optional[Union[str, Path]] = None, *, fsync: bool = False
) -> EventLog:
    """Install and return a fresh recording event log.

    With ``path`` the log streams every event to that JSONL file as it
    is emitted (append mode, header written for new files);
    ``fsync=True`` makes each emission durable before it returns.
    """
    log = EventLog(path, fsync=fsync)
    set_event_log(log)
    return log


def disable_events() -> None:
    """Restore the no-op default log (closes the previous log's file)."""
    previous = set_event_log(None)
    previous.close()


# -- JSONL persistence ---------------------------------------------------------


def write_events(
    path: Union[str, Path], events: Optional[Sequence[Event]] = None
) -> Path:
    """Write ``events`` (default: the global log's buffer) as JSONL.

    Overwrites ``path`` with a fresh header plus one line per event —
    the batch counterpart of the live tee a path-bound
    :class:`EventLog` performs.
    """
    if events is None:
        events = get_event_log().events
    target = Path(path)
    lines = [json.dumps({"schema": EVENTS_SCHEMA}, separators=(", ", ": "))]
    lines.extend(
        json.dumps(event.to_json_dict(), separators=(", ", ": "))
        for event in events
    )
    target.write_text("\n".join(lines) + "\n")
    return target


def iter_events(
    path: Union[str, Path], *, tolerant: bool = False
) -> Iterator[Event]:
    """Stream events from a JSONL log, validating the schema header.

    With ``tolerant=True`` a torn *final* line — the signature of a
    writer killed mid-append — is skipped with a
    :class:`~repro.utils.errors.TornEventLogWarning` ledger entry
    instead of raising, so post-crash replay still reconstructs every
    acknowledged event.  Corruption anywhere *before* the final line is
    never forgiven: that is bit rot or truncation, not a torn append,
    and tolerant mode still raises on it.
    """
    with Path(path).open() as handle:
        header_seen = False
        torn: Optional[tuple[int, Exception]] = None
        for line_number, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            if torn is not None:
                number, error = torn
                raise ValueError(
                    f"{path}:{number}: corrupt event line mid-log "
                    f"(content follows it, so this is not a torn append): "
                    f"{error}"
                )
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as error:
                if not tolerant:
                    raise
                torn = (line_number, error)
                continue
            if "schema" in line and "type" not in line:
                if line["schema"] != EVENTS_SCHEMA:
                    raise ValueError(
                        f"{path}:{line_number}: schema {line['schema']!r} "
                        f"is not {EVENTS_SCHEMA!r}"
                    )
                header_seen = True
                continue
            if not header_seen:
                raise ValueError(
                    f"{path}:{line_number}: missing {EVENTS_SCHEMA!r} header line"
                )
            yield Event.from_json_dict(line)
        if torn is not None:
            number, _ = torn
            warnings.warn(
                TornEventLogWarning(
                    f"{path}:{number}: skipped torn final line "
                    f"(writer crashed mid-append)"
                ),
                stacklevel=2,
            )


def read_events(path: Union[str, Path], *, tolerant: bool = False) -> list[Event]:
    """All events of a JSONL log, in file order.

    ``tolerant=True`` recovers from a torn final line (see
    :func:`iter_events`) — the read a supervisor does after a crash.
    """
    return list(iter_events(path, tolerant=tolerant))


def validate_events(path: Union[str, Path]) -> dict:
    """Structural health check of one JSONL event log.

    The engine behind ``repro-events doctor``.  Returns a report dict::

        {"path": str, "ok": bool, "events": int,
         "torn_tail": Optional[str],   # ledger entry when the final
                                       # line is torn, else None
         "errors": [str, ...]}         # header / corruption / seq
                                       # monotonicity findings

    ``ok`` is True only for a log with a valid header, strictly
    increasing per-run sequence numbers (a seq *reset to 0* starts a new
    run and is fine — multi-run append logs are legal) and no corrupt
    lines.  A torn tail alone does not clear ``ok``: it is recoverable,
    but it is reported so an operator knows the crash reached the log.
    """
    target = Path(path)
    report: dict = {
        "path": str(target),
        "ok": True,
        "events": 0,
        "torn_tail": None,
        "errors": [],
    }
    previous_seq: Optional[int] = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TornEventLogWarning)
            for event in iter_events(target, tolerant=True):
                report["events"] += 1
                if (
                    previous_seq is not None
                    and event.seq <= previous_seq
                    and event.seq != 0
                ):
                    report["errors"].append(
                        f"event #{report['events']}: seq {event.seq} does not "
                        f"advance past {previous_seq} (log reordered or "
                        f"duplicated?)"
                    )
                previous_seq = event.seq
        for warning in caught:
            if issubclass(warning.category, TornEventLogWarning):
                report["torn_tail"] = str(warning.message)
    except (OSError, ValueError, KeyError) as error:
        report["errors"].append(str(error))
    report["ok"] = not report["errors"]
    return report


def merge_event_streams(
    paths: Sequence[Union[str, Path]], *, tolerant: bool = False
) -> list[Event]:
    """Deterministically merge several event logs into one ordered stream.

    The merge order is the sharded-serving contract: logical hour
    first, then the position of the log on the command line, then the
    event's own sequence number — so merging the per-shard logs of a
    :class:`~repro.detection.sharded.ShardedFleetMonitor` (or any other
    set of per-component logs) reconstructs one audit stream whose
    replay is reproducible regardless of wall-clock interleaving.
    ``tolerant=True`` forgives a torn *final* line per log (see
    :func:`iter_events`) — the read explain tooling does after a crash.

    Events without an hour (lifecycle events such as ``run_completed``)
    inherit the logical hour of the event before them *in their own
    log*, so they stay anchored to the point in fleet time where they
    happened; a log's leading hour-less events sort before everything.
    Original sequence numbers are preserved (they remain meaningful
    per source log); a single-log "merge" therefore returns the log
    unchanged.
    """
    annotated: list[tuple[float, int, int, Event]] = []
    for log_index, path in enumerate(paths):
        carried = float("-inf")
        for event in iter_events(path, tolerant=tolerant):
            if event.hour is not None:
                carried = float(event.hour)
            annotated.append((carried, log_index, event.seq, event))
    annotated.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in annotated]


# -- replay --------------------------------------------------------------------


def replay_health_counters(events: Iterable[Event]) -> dict:
    """Reconstruct the serving counters a live run's events imply.

    Returns a dict whose keys mirror the corresponding fields of
    :meth:`~repro.detection.streaming.FleetMonitor.health_report`:
    ``alerts``, ``faults_total``, ``faults_by_kind``,
    ``degraded_drives`` and ``vote_flips``.  The round-trip invariant —
    replaying a run's log reproduces the live report's counters exactly
    — is what makes the log trustworthy as an audit artefact.
    """
    alerts = faults_total = vote_flips = 0
    faults_by_kind: dict[str, int] = {}
    degraded: set[str] = set()
    for event in events:
        if event.type == "alert_raised":
            alerts += 1
        elif event.type == "tick_faulted":
            faults_total += 1
            kind = event.data.get("kind", "unknown")
            faults_by_kind[kind] = faults_by_kind.get(kind, 0) + 1
        elif event.type == "drive_quarantined":
            if event.drive is not None:
                degraded.add(event.drive)
        elif event.type == "vote_flip":
            vote_flips += 1
    return {
        "alerts": alerts,
        "faults_total": faults_total,
        "faults_by_kind": faults_by_kind,
        "degraded_drives": sorted(degraded),
        "vote_flips": vote_flips,
    }


# -- alert provenance ----------------------------------------------------------


def decision_path_payload(
    tree: object,
    row: Sequence[float],
    feature_names: Optional[Sequence[str]] = None,
) -> list[dict]:
    """Serialise a root-to-leaf decision path as JSON-able step dicts.

    ``tree`` is anything exposing ``decision_path(row) -> list[Node]``
    (:class:`~repro.tree.base.BaseDecisionTree`, whose compiled path
    matches a walk of the node graph by construction).  One dict per
    internal node on the walk — heap node id, feature index (and name
    when ``feature_names`` is given), threshold, the direction taken,
    the sample's value, and the node statistics an operator reads
    (``n_samples``, ``prediction``, ``impurity``) — plus a final leaf
    dict with the deciding leaf's statistics.  The per-step node ids
    are what :mod:`repro.explain` folds fleet-wide reports over.
    """
    path = tree.decision_path(row)
    steps: list[dict] = []
    for node, child in zip(path[:-1], path[1:]):
        value = float(row[node.feature])
        step = {
            "node_id": int(node.node_id),
            "feature": int(node.feature),
            "threshold": float(node.threshold),
            "value": value if math.isfinite(value) else None,
            "went_left": child is node.left,
            "n_samples": int(node.n_samples),
            "prediction": float(node.prediction),
            "impurity": float(node.impurity),
        }
        if feature_names is not None:
            step["name"] = str(feature_names[node.feature])
        steps.append(step)
    leaf = path[-1]
    leaf_step = {
        "leaf": True,
        "node_id": int(leaf.node_id),
        "n_samples": int(leaf.n_samples),
        "prediction": float(leaf.prediction),
        "impurity": float(leaf.impurity),
    }
    if leaf.class_distribution is not None:
        leaf_step["confidence"] = float(max(leaf.class_distribution))
    steps.append(leaf_step)
    return steps


def render_decision_path(steps: Sequence[dict]) -> list[str]:
    """Human-readable lines for a serialised decision path.

    The renderer behind ``repro-events explain``: one line per split
    condition (mirroring
    :class:`repro.detection.reporting.PathStep`), one for the leaf.
    """
    lines = []
    for step in steps:
        if step.get("leaf"):
            confidence = step.get("confidence")
            suffix = f", confidence {confidence:.0%}" if confidence is not None else ""
            lines.append(
                f"leaf node {step['node_id']}: predict {step['prediction']:g} "
                f"(n={step['n_samples']}{suffix})"
            )
            continue
        name = step.get("name", f"x[{step['feature']}]")
        value = step.get("value")
        rendered_value = f"{value:g}" if value is not None else "missing"
        comparator = "<" if step["went_left"] else ">="
        lines.append(
            f"{name} = {rendered_value} {comparator} {step['threshold']:g} "
            f"-> {'left' if step['went_left'] else 'right'} "
            f"(n={step['n_samples']}, impurity {step['impurity']:.3f})"
        )
    return lines
