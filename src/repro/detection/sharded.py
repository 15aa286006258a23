"""Sharded fleet serving: one logical monitor over millions of drives.

A single :class:`~repro.detection.streaming.FleetMonitor` — even on the
columnar engine — is one process, so fleet throughput stops at one
core.  This module scales the same serving semantics *out*:
:class:`ShardedFleetMonitor` partitions drives across N columnar shard
monitors by a stable serial hash (:func:`shard_for`), fans every
collection tick out to the shards and merges the per-shard results
back into one coordinator-level truth.  Each shard lives on one host
behind one contract: an :class:`~repro.utils.parallel.InProcessHost`
(``mode="serial"``) or a long-lived
:class:`~repro.utils.parallel.WorkerHost` process (``mode="process"``).
The mode picks the host class at construction and nothing else; every
dispatch, kill, restore and recovery path is the same for both.

* **One tick** — every ingress (:meth:`~ShardedFleetMonitor.observe`,
  ``observe_fleet``, ``observe_tick`` and the pinned feed) is
  validated and converted at the coordinator into one
  :class:`~repro.detection.streaming.NormalizedTick`: a duplicate-free
  roster (or the registered one), an aligned channel matrix (or the
  pinned feed), the duplicate serials and the wrong-shape records.  One
  dispatch path slices it into one shard payload shape; the supervised
  journal records it as one entry kind.
* **Alerts** come home per shard with shard-local ids, are re-ordered
  into the tick's roster order and re-assigned dense coordinator ids,
  so ``alerts``/``alert_id`` are bit-identical to a single columnar
  monitor over the same stream.
* **Faults** merge deterministically: duplicate-serial faults in global
  discovery order, then record faults in roster order — the exact
  list a single monitor would have appended.
* **Observability** ships home in
  :class:`~repro.observability.RemoteObservation` envelopes (the same
  protocol as :func:`~repro.utils.parallel.run_tasks`): shard counters
  merge into the coordinator registry, shard spans nest under the
  coordinator's ``serve.tick`` span, and shard events are absorbed in
  a deterministic merge order — logical hour, then shard id, then
  shard-local sequence — with ``alert_raised`` payloads rewritten to
  the coordinator alert ids, so replaying the coordinator's event log
  (``repro-events``) reconstructs its state exactly.
* **SLO state** lives only at the coordinator: shards serve,
  :meth:`ShardedFleetMonitor.resolve_outcome` feeds the one attached
  :class:`~repro.observability.slo.SLOMonitor`, and
  :meth:`health_report` embeds its burn status like a single monitor.

On top of the data path sit the operational tools the scale-out story
needs: :meth:`snapshot`/:meth:`restore_shard` persist per-shard state
through :class:`~repro.utils.checkpoint.JsonCheckpoint` (kind
``shard-snapshot``) so a killed shard resumes **bit-identically**
mid-stream, and :meth:`begin_deployment` rolls a new model out through
canary shards — the canaries serve generation N+1 while the control
shards stay on N, alert rates are compared over a soak window, and the
parity verdict drives an automatic fleet-wide cutover or rollback.

Parity contract (pinned by ``tests/test_detection_sharded.py``): over
any shard count, the coordinator's alerts, alert ids, faults,
quarantine decisions, ``health_report()`` counters, SLO state, and
event *set* are identical to a single columnar ``FleetMonitor`` on the
same stream.  Only the tick-level wall-time histogram and the
``shard.*`` instrumentation family differ — sharding is a deployment
choice, never a semantic one.

Strict mode (``quarantine=None``) is not supported here: a
mid-tick ``ValueError`` unwinding across process boundaries cannot
preserve the reference engine's partial-tick state.  Use a single
``FleetMonitor`` when the feed is trusted enough for strict mode.
"""

from __future__ import annotations

import pickle
import warnings
import zlib
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.detection.streaming import (
    Alert,
    DriveStatus,
    FleetMonitor,
    NormalizedTick,
    QuarantinePolicy,
    VoterSpec,
    _aligned_matrix,
    _check_voter,
    _health_report,
    _normalize_tick,
    _resolve_outcome,
    _stack_items,
    _tick_instrumentation,
    _unpack_predictor,
)
from repro.features.vectorize import Feature
from repro.observability import (
    RemoteObservation,
    absorb_remote,
    get_event_log,
    get_registry,
    get_tracer,
)
from repro.utils.checkpoint import (
    SHARD_SNAPSHOT_KIND,
    JsonCheckpoint,
    decode_object,
    encode_object,
)
from repro.utils.errors import (
    SampleFault,
    UnpicklableTaskWarning,
    WorkerDiedError,
)
from repro.utils.parallel import InProcessHost, WorkerHost, resolve_shards

#: Execution modes: ``"serial"`` hosts every shard in-process
#: (:class:`~repro.utils.parallel.InProcessHost`, zero processes),
#: ``"process"`` hosts each on its own long-lived worker
#: (:class:`~repro.utils.parallel.WorkerHost`, the scale-out path).
#: Both produce identical output — only the host class differs.
SHARD_MODES = ("serial", "process")

# Counter/histogram help strings (shared so snapshots merge cleanly).
SHARD_TICKS_HELP = "shard tick slices dispatched"
SHARD_TICK_SECONDS_HELP = "wall time of one shard's tick slice"
SHARD_SNAPSHOTS_HELP = "shard states written to a snapshot"
SHARD_RESTORES_HELP = "shard states restored from a snapshot"


def shard_for(serial: str, n_shards: int) -> int:
    """The shard owning ``serial`` — a stable, platform-independent hash.

    CRC-32 of the UTF-8 serial modulo the shard count: deterministic
    across runs, interpreters and platforms (unlike ``hash()``, which
    is salted per process), independent of insertion order by
    construction, and balanced to within binomial noise for real-world
    serial populations (pinned by a hypothesis test from fleets of 10
    to 100k serials).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(serial.encode("utf-8")) % n_shards


@dataclass(frozen=True)
class CanaryPolicy:
    """When does a canary generation win the fleet?

    After :meth:`ShardedFleetMonitor.begin_deployment` the canary
    shards serve the candidate model for ``soak_ticks`` collection
    ticks while the control shards stay on the incumbent.  At the end
    of the soak the per-drive-tick alert rates of the two groups are
    compared: the candidate passes when
    ``|canary_rate - control_rate| <= max_alert_rate_delta`` — alert
    parity, the serving-side analogue of the paper's updating story
    (a new model should page like the old one before it owns the
    fleet).
    """

    soak_ticks: int = 24
    max_alert_rate_delta: float = 0.01

    def __post_init__(self) -> None:
        if self.soak_ticks < 1:
            raise ValueError(f"soak_ticks must be >= 1, got {self.soak_ticks}")


@dataclass
class ShardSpec:
    """Everything needed to build one shard monitor, as picklable data.

    The coordinator ships this (not a built monitor) to worker
    processes; ``mode="process"`` therefore needs every field to be
    picklable — score with a module-level function or a fitted tree's
    bound ``predict``, not a lambda or closure.
    """

    features: tuple
    score: Callable
    voter: VoterSpec
    quarantine: Optional[QuarantinePolicy] = None
    tree: Optional[object] = None
    feature_names: Optional[tuple] = None
    model_generation: int = 0

    def build(self) -> FleetMonitor:
        """A fresh shard monitor (SLO state stays coordinator-side)."""
        return FleetMonitor(
            self.features,
            self.score,
            self.voter,
            quarantine=self.quarantine,
            tree=self.tree,
            feature_names=self.feature_names,
            model_generation=self.model_generation,
            slo=None,
        )


@dataclass(frozen=True)
class _ShardBuilder:
    """Worker-side state constructor: spec in, hosted shard cell out."""

    spec: ShardSpec

    def __call__(self) -> dict:
        return {"monitor": self.spec.build(), "feed": None}


@dataclass(frozen=True)
class _PickledShard:
    """Worker-side state constructor for restored shards (snapshot blob in)."""

    blob: bytes

    def __call__(self) -> dict:
        return {"monitor": pickle.loads(self.blob)["monitor"], "feed": None}


@dataclass
class _Deployment:
    """In-flight canary rollout bookkeeping."""

    new_model: dict
    old_model: dict
    canaries: frozenset
    policy: CanaryPolicy
    generation: int
    ticks: int = 0
    canary_alerts: int = 0
    canary_drives: int = 0
    control_alerts: int = 0
    control_drives: int = 0


@dataclass
class _RosterLayout:
    """A tick roster, sorted out and partitioned across the shards.

    ``roster`` holds the unique serials in first-position order and
    ``take`` each one's row (its final occurrence) in a matrix aligned
    with the raw serials — ``None`` when nothing repeats; ``duplicates``
    are the overridden occurrences.  ``buckets[sid]`` are the ascending
    roster indices shard ``sid`` owns, ``sub_rosters[sid]`` their
    serials, and ``pos`` maps serial → roster index, the merge's order.
    ``register_fleet`` builds the registered roster's layout once;
    ad-hoc ticks build one per tick.
    """

    roster: tuple[str, ...]
    take: Optional[np.ndarray]
    duplicates: tuple[str, ...]
    buckets: list[np.ndarray]
    sub_rosters: list[tuple[str, ...]]
    pos: dict[str, int]
    #: Whether the coordinator's first-seen order already covers it.
    noted: bool = False

    @classmethod
    def of(cls, serials: Sequence[str], n_shards: int) -> "_RosterLayout":
        roster = tuple(serials)
        take = None
        duplicates: list[str] = []
        if len(set(roster)) != len(roster):
            items, duplicates = _normalize_tick(zip(roster, range(len(roster))))
            roster = tuple(serial for serial, _ in items)
            take = np.fromiter((at for _, at in items), dtype=np.intp, count=len(items))
        buckets: list[list[int]] = [[] for _ in range(n_shards)]
        for at, serial in enumerate(roster):
            buckets[shard_for(serial, n_shards)].append(at)
        return cls(
            roster=roster,
            take=take,
            duplicates=tuple(duplicates),
            buckets=[np.asarray(ix, dtype=np.intp) for ix in buckets],
            sub_rosters=[tuple(roster[at] for at in ix) for ix in buckets],
            pos={serial: at for at, serial in enumerate(roster)},
        )


def _shard_payload(tick: NormalizedTick, layout: _RosterLayout, sid: int) -> dict:
    """Shard ``sid``'s slice of ``tick``: the one shard tick payload.

    Always ``hour`` and ``shard``; the rest only when present —
    ``roster`` (ad-hoc ticks; registered ticks use the sub-roster
    pinned shard-side), ``matrix`` (absent for the pinned feed), and
    the shard's ``duplicates`` and ``bad_shape`` (re-indexed into the
    slice).  Live dispatch and journal replay both slice through here.
    """
    n_shards = len(layout.buckets)
    ix = layout.buckets[sid]
    payload: dict = {"hour": tick.hour, "shard": sid}
    if tick.roster is not None:
        payload["roster"] = layout.sub_rosters[sid]
    if tick.matrix is not None:
        payload["matrix"] = tick.matrix[ix]
    duplicates = [s for s in tick.duplicates if shard_for(s, n_shards) == sid]
    if duplicates:
        payload["duplicates"] = duplicates
    bad_shape = {
        int(np.searchsorted(ix, at)): shape
        for at, shape in tick.bad_shape.items()
        if shard_for(layout.roster[at], n_shards) == sid
    }
    if bad_shape:
        payload["bad_shape"] = bad_shape
    return payload


def _model(score: Callable, tree: Optional[object], feature_names) -> dict:
    """One serving model as the coordinator ships it to shards."""
    return {
        "score": score,
        "tree": tree,
        "feature_names": tuple(feature_names) if feature_names is not None else None,
    }


# -- shard-side entry points ---------------------------------------------------
#
# Module-level ``func(state, payload)`` callables, submitted to a shard's
# host (InProcessHost or WorkerHost).  ``state`` is the shard cell dict
# built by _ShardBuilder or _PickledShard; everything they emit ships
# home in the envelope.


def _shard_tick(state: dict, payload: dict) -> dict:
    """Serve one shard payload (see :func:`_shard_payload`).

    A payload without ``roster`` ticks the sub-roster pinned on the
    shard monitor; one without ``matrix`` ticks the pinned feed.
    """
    monitor: FleetMonitor = state["monitor"]
    shard = payload["shard"]
    matrix = payload.get("matrix")
    if matrix is None:
        matrix = state["feed"]
    tick = NormalizedTick(
        payload["hour"],
        payload.get("roster"),
        matrix,
        payload.get("duplicates", ()),
        payload.get("bad_shape", {}),
    )
    registry = get_registry()
    n_faults = len(monitor.faults)
    start = perf_counter() if registry.enabled else 0.0
    with get_tracer().span(
        "shard.tick", category="shard", shard=shard, n_drives=len(matrix)
    ):
        alerts = monitor.shard_tick(tick)
    registry.counter(
        "shard.ticks", help=SHARD_TICKS_HELP, shard=str(shard)
    ).inc()
    if registry.enabled:
        registry.histogram(
            "shard.tick_seconds", unit="seconds", help=SHARD_TICK_SECONDS_HELP,
        ).observe(perf_counter() - start)
    return {"alerts": alerts, "faults": monitor.faults[n_faults:]}


def _shard_finalize(state: dict, payload: object) -> dict:
    return {"alerts": state["monitor"].finalize(), "faults": []}


def _shard_pin(state: dict, payload: dict) -> None:
    if "roster" in payload:
        state["monitor"].register_fleet(payload["roster"])
    if "feed" in payload:
        state["feed"] = payload["feed"]


def _shard_status(state: dict, payload: object) -> dict:
    monitor: FleetMonitor = state["monitor"]
    watched = monitor.watched_drives()
    return {
        "n_watched": len(watched),
        "watched": watched,
        "degraded": monitor.degraded_drives(),
        "fault_counts": monitor.fault_counts(),
        "vote_flips": monitor.vote_flips,
    }


def _shard_drive_status(state: dict, serial: str) -> str:
    return state["monitor"].drive_status(serial).value


def _shard_apply_model(state: dict, payload: dict) -> int:
    """Swap a shard's model under full coordinator control.

    Deliberately *not* ``FleetMonitor.set_model``: generations are
    owned by the coordinator (canaries run ahead, rollbacks go back)
    and the lifecycle events (``model_replaced``, ``canary_*``) are
    emitted exactly once at the coordinator, never per shard.
    """
    monitor: FleetMonitor = state["monitor"]
    monitor.score = payload["score"]
    monitor.tree = payload["tree"]
    if payload.get("feature_names") is not None:
        monitor.feature_names = tuple(payload["feature_names"])
    monitor.model_generation = int(payload["generation"])
    return monitor.model_generation


def _shard_export(state: dict, payload: object) -> dict:
    """The picklable snapshot of one shard (pinned feeds are not state)."""
    return {"monitor": state["monitor"]}


class ShardedFleetMonitor:
    """N columnar shard monitors behind one ``FleetMonitor``-shaped facade.

    Args:
        features, score, voter, tree, feature_names, model_generation:
            As :class:`~repro.detection.streaming.FleetMonitor`.  For
            ``mode="process"`` these must be picklable (see
            :class:`ShardSpec`); a non-:class:`VoterSpec` voter raises
            ``ValueError`` before any shard is built.
        quarantine: The degraded-mode policy; required (strict mode is
            single-process only, see the module docs).
        slo: Optional coordinator-side
            :class:`~repro.observability.slo.SLOMonitor` fed by
            :meth:`resolve_outcome`.
        n_shards: Shard count; ``None`` defers to the ``REPRO_SHARDS``
            environment knob via
            :func:`~repro.utils.parallel.resolve_shards` (which also
            caps env-derived counts so shards x ``REPRO_N_JOBS`` never
            oversubscribes the machine).
        mode: Which host class serves each shard: ``"serial"`` (an
            :class:`~repro.utils.parallel.InProcessHost`, zero
            processes) or ``"process"`` (a
            :class:`~repro.utils.parallel.WorkerHost`).  An
            unpicklable spec degrades ``"process"`` to ``"serial"``
            under an :class:`~repro.utils.errors.UnpicklableTaskWarning`
            instead of failing.

    Example:
        >>> import numpy as np
        >>> from repro.features.vectorize import Feature
        >>> monitor = ShardedFleetMonitor(
        ...     (Feature("POH"), Feature("TC")),
        ...     lambda X: np.ones(len(X)),
        ...     VoterSpec("majority", 3),
        ...     n_shards=2,
        ... )
        >>> monitor.observe_fleet(0.0, [("d1", np.ones(12))])
        []
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
        n_shards: Optional[int] = None,
        mode: str = "serial",
    ):
        if quarantine is None:
            raise ValueError(
                "ShardedFleetMonitor requires a quarantine policy; strict "
                "mode (quarantine=None) is only supported by a single "
                "FleetMonitor"
            )
        if mode not in SHARD_MODES:
            raise ValueError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
        self._spec = ShardSpec(
            features=tuple(features),
            score=score,
            voter=_check_voter(voter),
            quarantine=quarantine,
            tree=tree,
            feature_names=tuple(feature_names) if feature_names is not None else None,
            model_generation=int(model_generation),
        )
        self.n_shards = resolve_shards(n_shards)
        self.quarantine = quarantine
        self.model_generation = int(model_generation)
        self.slo = slo
        self.alerts: list[Alert] = []
        self.faults: list[SampleFault] = []
        self._first_seen: list[str] = []
        self._seen: set[str] = set()
        self._last_hour: Optional[float] = None
        self._deployment: Optional[_Deployment] = None
        self.last_verdict: Optional[dict] = None
        self._current_model = _model(score, tree, feature_names)
        self._roster: Optional[tuple[str, ...]] = None
        self._layout: Optional[_RosterLayout] = None
        self._feed_pinned = False
        self._quarantined: set[int] = set()
        if mode == "process":
            try:
                pickle.dumps(self._spec)
            except Exception as error:
                warnings.warn(
                    "shard spec cannot cross a process boundary "
                    f"({error!r}); running shards in-process instead",
                    UnpicklableTaskWarning,
                    stacklevel=2,
                )
                mode = "serial"
        self.mode = mode
        self._host_class = WorkerHost if mode == "process" else InProcessHost
        builder = _ShardBuilder(self._spec)
        self._hosts = [self._host_class(builder) for _ in range(self.n_shards)]

    @classmethod
    def from_predictor(
        cls,
        predictor,
        voter: VoterSpec,
        **kwargs,
    ) -> "ShardedFleetMonitor":
        """Shard-serve a fitted pipeline's tree.

        The sharded counterpart of :meth:`FleetMonitor.from_predictor`:
        scoring goes through the tree's bound ``predict``, which ships
        to shard workers whenever the tree itself pickles.
        """
        features, tree = _unpack_predictor(predictor)
        return cls(features, tree.predict, voter, tree=tree, **kwargs)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down every shard host."""
        for host in self._hosts:
            host.close()

    def __enter__(self) -> "ShardedFleetMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch plumbing -----------------------------------------------------

    def _raw_dispatch(
        self, calls: list[tuple[int, Callable, object]]
    ) -> list[tuple[int, object]]:
        """Run ``func(state, payload)`` per shard; results in call order.

        Every call is submitted before any result is collected, so
        worker shards execute their slices concurrently; every host
        hands back the same envelope shape.

        A shard that dies mid-call (or was already dead at submit time)
        surfaces as a :class:`~repro.utils.errors.WorkerDiedError`
        routed through :meth:`_handle_shard_death` — which re-raises
        here, and recovers in the supervised subclass.  A handler may
        return ``None`` to mean "this shard has no result this call"
        (quarantine); every merge path tolerates the gap.
        """
        submitted: list[tuple[int, Callable, object, object]] = []
        for sid, func, payload in calls:
            try:
                outcome: object = self._hosts[sid].submit(func, payload)
            except WorkerDiedError as error:
                outcome = error
            submitted.append((sid, func, payload, outcome))
        responses: list[tuple[int, object]] = []
        for sid, func, payload, outcome in submitted:
            if not isinstance(outcome, WorkerDiedError):
                try:
                    responses.append((sid, outcome.result()))
                    continue
                except WorkerDiedError as error:
                    outcome = error
            responses.append(
                (sid, self._handle_shard_death(sid, func, payload, outcome))
            )
        return responses

    def _call_shard(self, sid: int, func: Callable, payload: object = None) -> object:
        """One call on one shard through :meth:`_raw_dispatch`, unwrapped.

        A dead shard is handled like any dispatch (fatal here, recovered
        when supervised); a quarantined one raises
        :class:`~repro.utils.errors.WorkerDiedError`.
        """
        if sid not in self._quarantined:
            ((_, envelope),) = self._raw_dispatch([(sid, func, payload)])
            if envelope is not None:
                return self._absorb(envelope)
        raise WorkerDiedError(f"shard {sid} is quarantined")

    def _handle_shard_death(
        self, sid: int, func: Callable, payload: object, error: WorkerDiedError
    ) -> object:
        """What to do when shard ``sid`` died under ``func(payload)``.

        The base coordinator has no recovery machinery, so the death is
        fatal: the error propagates and the operator restores by hand
        (:meth:`restore_shard`).  ``SupervisedShardedMonitor`` overrides
        this with snapshot-restore + journal-replay and returns the
        replacement result for the in-flight call.
        """
        raise error

    def _active_shards(self) -> list[int]:
        """Shard ids still serving (quarantined shards are excluded)."""
        return [
            sid for sid in range(self.n_shards) if sid not in self._quarantined
        ]

    def kill_shard(self, shard: int) -> None:
        """Kill one shard's host without warning (chaos/testing hook).

        The host drops its state (a worker host terminates its process);
        the next dispatch to that shard raises
        :class:`~repro.utils.errors.WorkerDiedError` (or triggers
        supervised recovery).
        """
        self._hosts[shard].kill()

    def _replace_host(self, shard: int, build: Callable) -> None:
        """Kill shard ``shard``'s host and start a fresh one from ``build``."""
        self._hosts[shard].kill()
        self._hosts[shard] = self._host_class(build)

    def quarantine_shard(self, shard: int) -> None:
        """Permanently stop dispatching to one shard (degraded mode).

        The shard's drives stop being served and its worker is released;
        the hole is *reported* — ``health_report()['sharding']`` lists
        quarantined shards — but never paged.  This is the supervisor's
        last resort when a shard keeps flapping; the base class exposes
        it for operators who want to cut a shard loose by hand.
        """
        shard = int(shard)
        if shard in self._quarantined:
            return
        self._quarantined.add(shard)
        self._hosts[shard].kill()
        get_event_log().emit(
            "shard_quarantined",
            hour=self._last_hour,
            shard=shard,
            n_shards=self.n_shards,
        )

    @property
    def quarantined_shards(self) -> list[int]:
        """Shard ids currently excluded from serving."""
        return sorted(self._quarantined)

    def _absorb(self, envelope: object, id_map: Optional[dict] = None) -> object:
        """Fold one shard envelope into the coordinator's instruments."""
        if not isinstance(envelope, RemoteObservation):
            return envelope
        if id_map and envelope.events:
            envelope.events = [
                self._rewrite_alert_id(event, id_map) for event in envelope.events
            ]
        return absorb_remote(envelope, parent_path=get_tracer().current_path())

    @staticmethod
    def _rewrite_alert_id(event, id_map: dict):
        if event.type != "alert_raised":
            return event
        renamed = id_map.get(event.data.get("alert_id"))
        if renamed is None:
            return event
        return replace(event, data={**event.data, "alert_id": renamed})

    def _note_seen(self, serial: str) -> None:
        if serial not in self._seen:
            self._seen.add(serial)
            self._first_seen.append(serial)

    # -- tick ingestion --------------------------------------------------------

    def observe(
        self, serial: str, hour: float, channel_values: Sequence[float]
    ) -> Optional[Alert]:
        """Ingest one record via its owning shard (see ``FleetMonitor.observe``)."""
        roster, matrix, bad_shape = _stack_items([(serial, channel_values)])
        alerts = self._dispatch_tick(
            NormalizedTick(hour, roster, matrix, (), bad_shape), collection=False
        )
        return alerts[0] if alerts else None

    def observe_fleet(
        self,
        hour: float,
        records: Union[Mapping[str, Sequence[float]], Iterable[tuple]],
    ) -> list[Alert]:
        """Ingest one collection tick, fanned out across the shards.

        Semantics (normalization, duplicate-serial faults, alert order,
        alert ids) are exactly ``FleetMonitor.observe_fleet`` on a
        single columnar monitor — sharding is invisible in the result.
        """
        items, duplicates = _normalize_tick(records)
        roster, matrix, bad_shape = _stack_items(items)
        return self._dispatch_tick(
            NormalizedTick(hour, roster, matrix, tuple(duplicates), bad_shape)
        )

    def register_fleet(self, serials: Iterable[str]) -> tuple[str, ...]:
        """Fix the tick roster; partitions it and pins sub-rosters shard-side.

        The sorted-out roster, its partition and the serial→position
        map are built once here, and each shard's sub-roster is pinned
        (host-resident), so repeated
        :meth:`observe_tick` calls ship only the matrix slices.  A
        roster that repeats a serial resolves last-write-wins on every
        tick, with one ``duplicate-serial`` fault per overridden row.
        """
        self._roster = tuple(serials)
        self._layout = _RosterLayout.of(self._roster, self.n_shards)
        self._feed_pinned = False
        self._pin_shards(
            self._active_shards(),
            lambda sid: {"roster": self._layout.sub_rosters[sid]},
        )
        return self._roster

    def pin_feed(self, values: np.ndarray) -> None:
        """Ship each shard its static slice of the fleet matrix, once.

        For stable fleets whose readings are generated or ingested
        shard-locally (and for throughput benchmarks): after pinning,
        ``observe_tick(hour)`` with no ``values`` ticks the worker-
        resident slice — the coordinator sends one float per shard per
        tick instead of re-serializing gigabytes of telemetry.
        """
        matrix = self._pinnable(values)
        self._pin_shards(
            self._active_shards(),
            lambda sid: {"feed": matrix[self._layout.buckets[sid]]},
        )
        self._feed_pinned = True

    def _pinnable(self, values: np.ndarray) -> np.ndarray:
        """The validated feed matrix for :meth:`pin_feed` (raises first)."""
        if self._roster is None:
            raise ValueError(
                "no tick roster: pass serials= or call register_fleet() first"
            )
        matrix = _aligned_matrix(values, len(self._roster))
        if self._layout.duplicates:
            raise ValueError(
                "pin_feed needs a duplicate-free roster: call "
                "register_fleet() first"
            )
        return matrix

    def _pin_shards(self, shards: Iterable[int], payload_for: Callable) -> None:
        calls = [(sid, _shard_pin, payload_for(sid)) for sid in shards]
        for _, envelope in self._raw_dispatch(calls):
            self._absorb(envelope)

    def observe_tick(
        self,
        hour: float,
        values: Optional[np.ndarray] = None,
        serials: Optional[Sequence[str]] = None,
    ) -> list[Alert]:
        """Ingest one collection tick as a channel matrix (the array path).

        With ``values=None`` the shards tick their pinned feed (see
        :meth:`pin_feed`).  An explicit ``serials`` roster is exactly
        ``observe_fleet(hour, zip(serials, values))`` — correct, but
        partitioned per tick.
        """
        if serials is not None:
            if values is None:
                raise ValueError("values is required with an explicit roster")
            roster = tuple(serials)
            return self.observe_fleet(
                hour, zip(roster, _aligned_matrix(values, len(roster)))
            )
        if self._roster is None:
            raise ValueError(
                "no tick roster: pass serials= or call register_fleet() first"
            )
        if values is None and not self._feed_pinned:
            raise ValueError("no pinned feed: pass values= or call pin_feed() first")
        layout = self._layout
        matrix = None
        if values is not None:
            matrix = _aligned_matrix(values, len(self._roster))
            if layout.take is not None:
                matrix = matrix[layout.take]
        return self._dispatch_tick(
            NormalizedTick(hour, None, matrix, layout.duplicates)
        )

    def _dispatch_tick(
        self, tick: NormalizedTick, *, collection: bool = True
    ) -> list[Alert]:
        """Fan one normalized tick out to its shards and merge the results.

        Every ingress ends here.  ``serve.fleet_ticks``, the
        ``serve.tick`` span and ``serve.tick_seconds`` are emitted once
        per logical tick — never per shard — so the merged registry
        equals a single monitor's.  A single-record :meth:`observe`
        (``collection=False``) is not a collection tick: it gets no tick
        instrumentation and does not count toward a canary soak.
        """
        if tick.roster is None:
            layout = self._layout
        else:
            layout = _RosterLayout.of(tick.roster, self.n_shards)
        if not layout.noted:
            # First-seen bookkeeping mirrors the columnar engine's row
            # allocation: duplicate occurrences register before the roster.
            for serial in (*tick.duplicates, *layout.roster):
                self._note_seen(serial)
            layout.noted = True
        calls = [
            (sid, _shard_tick, _shard_payload(tick, layout, sid))
            for sid in self._active_shards()
            if len(layout.buckets[sid])
        ]
        instruments = (
            _tick_instrumentation(len(layout.roster)) if collection else nullcontext()
        )
        with instruments:
            alerts = self._merge_tick(
                self._raw_dispatch(calls), tick, layout, collection
            )
        self._last_hour = float(tick.hour) if np.isfinite(tick.hour) else self._last_hour
        if collection:
            self._maybe_resolve_deployment()
        return alerts

    def _adopt_alerts(
        self, responses: list[tuple[int, object]], position: Callable[[str], int]
    ) -> tuple[dict[int, dict], list[tuple[int, Alert]]]:
        """Unwrap shard responses and adopt their alerts in ``position`` order.

        Shard-local alert ids become dense coordinator ids, so
        ``alerts`` is bit-identical to one monitor's; envelopes are
        absorbed in shard-id order with those ids rewritten, so the
        merged event stream is ordered by (logical hour, shard id,
        shard-local seq) and names the coordinator's alerts.  A ``None``
        response (shard quarantined mid-call) has no result: its drives
        go unserved, never unreported.  Returns the shard results and
        the adopted ``(shard, alert)`` pairs.
        """
        results: dict[int, dict] = {}
        envelopes: list[tuple[int, RemoteObservation]] = []
        for sid, envelope in responses:
            if isinstance(envelope, RemoteObservation):
                results[sid] = envelope.result
                envelopes.append((sid, envelope))
            elif envelope is not None:
                results[sid] = envelope
        found = sorted(
            ((sid, alert) for sid in sorted(results) for alert in results[sid]["alerts"]),
            key=lambda entry: position(entry[1].serial),
        )
        id_maps: dict[int, dict] = {sid: {} for sid in results}
        adopted: list[tuple[int, Alert]] = []
        for sid, alert in found:
            renamed = replace(alert, alert_id=f"alert-{len(self.alerts):04d}")
            id_maps[sid][alert.alert_id] = renamed.alert_id
            self.alerts.append(renamed)
            adopted.append((sid, renamed))
        for sid, envelope in envelopes:
            self._absorb(envelope, id_maps[sid])
        return results, adopted

    def _merge_tick(
        self,
        responses: list[tuple[int, object]],
        tick: NormalizedTick,
        layout: _RosterLayout,
        collection: bool,
    ) -> list[Alert]:
        # Alerts in roster order; faults: every shard reports its
        # duplicate-serial faults first, then record faults in
        # sub-roster order — merged, duplicate faults in global
        # discovery order, then record faults in roster order.
        pos = layout.pos
        results, adopted = self._adopt_alerts(responses, pos.__getitem__)
        owners = [shard_for(serial, self.n_shards) for serial in tick.duplicates]
        dup_queues = {
            sid: deque(result["faults"][:owners.count(sid)])
            for sid, result in results.items()
        }
        for sid in owners:
            queue = dup_queues.get(sid)
            if queue:
                self.faults.append(queue.popleft())
        record_faults = [
            fault
            for sid, result in results.items()
            for fault in result["faults"][owners.count(sid):]
        ]
        self.faults.extend(sorted(record_faults, key=lambda fault: pos[fault.serial]))

        # Canary soak accounting (collection ticks only).
        deployment = self._deployment
        if deployment is not None and collection:
            for sid, _ in responses:
                if sid in deployment.canaries:
                    deployment.canary_drives += len(layout.buckets[sid])
                else:
                    deployment.control_drives += len(layout.buckets[sid])
            for sid, _ in adopted:
                if sid in deployment.canaries:
                    deployment.canary_alerts += 1
                else:
                    deployment.control_alerts += 1
            deployment.ticks += 1
        return [alert for _, alert in adopted]

    def finalize(self) -> list[Alert]:
        """Short-history flush, merged in global first-seen order."""
        calls = [(sid, _shard_finalize, None) for sid in self._active_shards()]
        first_seen = {serial: at for at, serial in enumerate(self._first_seen)}
        _, adopted = self._adopt_alerts(
            self._raw_dispatch(calls), first_seen.__getitem__
        )
        return [alert for _, alert in adopted]

    # -- model lifecycle and rolling deployment --------------------------------

    def set_model(
        self,
        score: Callable[[np.ndarray], np.ndarray],
        *,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Swap the serving model on every shard; returns the new generation.

        Emits exactly one ``model_replaced`` event (at the coordinator),
        like :meth:`FleetMonitor.set_model` on a single monitor.
        """
        if self._deployment is not None:
            raise RuntimeError(
                "a canary deployment is in flight; let it resolve (or "
                "restore from a snapshot) before swapping models directly"
            )
        model = _model(score, tree, feature_names)
        generation = self.model_generation + 1
        self._apply_model(range(self.n_shards), model, generation)
        previous = self.model_generation
        self.model_generation = generation
        self._current_model = model
        get_event_log().emit(
            "model_replaced",
            from_generation=previous,
            to_generation=generation,
        )
        return generation

    def _apply_model(
        self, shards: Iterable[int], model: dict, generation: int
    ) -> None:
        payload = {**model, "generation": generation}
        calls = [
            (sid, _shard_apply_model, payload)
            for sid in sorted(shards)
            if sid not in self._quarantined
        ]
        for _, envelope in self._raw_dispatch(calls):
            self._absorb(envelope)

    def begin_deployment(
        self,
        score: Callable[[np.ndarray], np.ndarray],
        *,
        canary_shards: Sequence[int] = (0,),
        policy: CanaryPolicy = CanaryPolicy(),
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Start a rolling deployment: canary shards serve the candidate.

        The canaries switch to generation ``current + 1`` immediately;
        the control shards keep serving the incumbent.  For the next
        ``policy.soak_ticks`` collection ticks the coordinator compares
        alert rates between the two groups, then resolves the rollout
        automatically: parity within ``policy.max_alert_rate_delta``
        cuts the whole fleet over (``fleet_cutover``), anything else
        rolls the canaries back (``fleet_rollback``).  Returns the
        candidate generation.
        """
        if self._deployment is not None:
            raise RuntimeError("a canary deployment is already in flight")
        canaries = frozenset(int(sid) for sid in canary_shards)
        if not canaries:
            raise ValueError("canary_shards must name at least one shard")
        if not canaries.issubset(range(self.n_shards)):
            raise ValueError(
                f"canary_shards {sorted(canaries)} outside 0..{self.n_shards - 1}"
            )
        if len(canaries) == self.n_shards:
            raise ValueError(
                "canary_shards covers every shard; a deployment needs a "
                "control group to compare against"
            )
        new_model = _model(score, tree, feature_names)
        generation = self.model_generation + 1
        self._apply_model(canaries, new_model, generation)
        self._deployment = _Deployment(
            new_model=new_model,
            old_model=dict(self._current_model),
            canaries=canaries,
            policy=policy,
            generation=generation,
        )
        get_event_log().emit(
            "canary_started",
            hour=self._last_hour,
            generation=generation,
            canary_shards=sorted(canaries),
            soak_ticks=policy.soak_ticks,
        )
        return generation

    def _maybe_resolve_deployment(self) -> None:
        deployment = self._deployment
        if deployment is None or deployment.ticks < deployment.policy.soak_ticks:
            return
        canary_rate = (
            deployment.canary_alerts / deployment.canary_drives
            if deployment.canary_drives
            else 0.0
        )
        control_rate = (
            deployment.control_alerts / deployment.control_drives
            if deployment.control_drives
            else 0.0
        )
        passed = bool(
            abs(canary_rate - control_rate)
            <= deployment.policy.max_alert_rate_delta
        )
        log = get_event_log()
        log.emit(
            "canary_verdict",
            hour=self._last_hour,
            generation=deployment.generation,
            passed=passed,
            canary_alert_rate=round(canary_rate, 9),
            control_alert_rate=round(control_rate, 9),
            soak_ticks=deployment.policy.soak_ticks,
        )
        if passed:
            controls = set(range(self.n_shards)) - deployment.canaries
            self._apply_model(controls, deployment.new_model, deployment.generation)
            previous = self.model_generation
            self.model_generation = deployment.generation
            self._current_model = deployment.new_model
            log.emit(
                "fleet_cutover",
                hour=self._last_hour,
                from_generation=previous,
                to_generation=deployment.generation,
                canary_shards=sorted(deployment.canaries),
            )
        else:
            self._apply_model(
                deployment.canaries, deployment.old_model, self.model_generation
            )
            log.emit(
                "fleet_rollback",
                hour=self._last_hour,
                from_generation=deployment.generation,
                to_generation=self.model_generation,
                canary_shards=sorted(deployment.canaries),
            )
        self.last_verdict = {
            "passed": passed,
            "generation": deployment.generation,
            "canary_alert_rate": canary_rate,
            "control_alert_rate": control_rate,
        }
        self._deployment = None

    @property
    def deployment_active(self) -> bool:
        """Whether a canary rollout is currently soaking."""
        return self._deployment is not None

    # -- snapshot / restore ----------------------------------------------------

    def _coordinator_state(self) -> dict:
        return {
            "spec": self._spec,
            "mode": self.mode,
            "n_shards": self.n_shards,
            "alerts": self.alerts,
            "faults": self.faults,
            "first_seen": self._first_seen,
            "model_generation": self.model_generation,
            "current_model": self._current_model,
            "slo": self.slo,
            "last_hour": self._last_hour,
            "deployment": self._deployment,
            "last_verdict": self.last_verdict,
            "quarantined": sorted(self._quarantined),
        }

    def _open_store(
        self, store: Union[str, Path, JsonCheckpoint]
    ) -> JsonCheckpoint:
        if isinstance(store, JsonCheckpoint):
            return store
        return JsonCheckpoint(store, kind=SHARD_SNAPSHOT_KIND)

    def snapshot_shard(
        self, shard: int, store: Union[str, Path, JsonCheckpoint]
    ) -> JsonCheckpoint:
        """Persist one shard's full state into a ``shard-snapshot`` checkpoint."""
        store = self._open_store(store)
        state = self._call_shard(shard, _shard_export)
        store.set(f"shard-{shard}", encode_object(state))
        get_registry().counter(
            "shard.snapshots", help=SHARD_SNAPSHOTS_HELP
        ).inc()
        monitor: FleetMonitor = state["monitor"]
        get_event_log().emit(
            "shard_snapshot",
            hour=self._last_hour,
            shard=shard,
            n_drives=len(monitor.watched_drives()),
        )
        return store

    def snapshot(self, store: Union[str, Path, JsonCheckpoint]) -> JsonCheckpoint:
        """Persist every shard plus the coordinator state, atomically per cell.

        The written checkpoint restores to a monitor that is
        bit-identical mid-stream: same alerts/faults/events-to-come,
        same voting windows, same SLO state.  Pinned feeds
        (:meth:`pin_feed`) are transient and must be re-pinned.
        """
        store = self._open_store(store)
        for shard in self._active_shards():
            self.snapshot_shard(shard, store)
        store.set("coordinator", encode_object(self._coordinator_state()))
        return store

    def restore_shard(
        self, shard: int, store: Union[str, Path, JsonCheckpoint]
    ) -> None:
        """Replace one shard's state from a snapshot (kill-and-resume).

        The shard's host (dead or alive) is replaced by a fresh one of
        the same class whose state is rebuilt from the snapshot blob —
        the resumed shard continues the stream bit-identically from
        the snapshot point.
        """
        store = self._open_store(store)
        cell = store.get(f"shard-{shard}")
        if cell is None:
            raise KeyError(f"snapshot has no cell for shard {shard}")
        state = decode_object(cell)
        self._replace_host(
            shard,
            _PickledShard(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)),
        )
        self._quarantined.discard(shard)
        # The snapshot's roster may predate the coordinator's current
        # registration; re-pin the live sub-roster so the matrix path
        # keys rows correctly on the restored shard.  Feeds are
        # transient on *every* shard-side cell, so one lost feed
        # invalidates the fleet-wide pin — callers re-pin via pin_feed.
        if self._layout is not None:
            self._pin_shards(
                [shard], lambda sid: {"roster": self._layout.sub_rosters[sid]}
            )
        self._feed_pinned = False
        get_registry().counter(
            "shard.restores", help=SHARD_RESTORES_HELP
        ).inc()
        monitor: FleetMonitor = state["monitor"]
        get_event_log().emit(
            "shard_restored",
            hour=self._last_hour,
            shard=shard,
            n_drives=len(monitor.watched_drives()),
        )

    @classmethod
    def restore(
        cls,
        store: Union[str, Path, JsonCheckpoint],
        *,
        mode: Optional[str] = None,
    ) -> "ShardedFleetMonitor":
        """Rebuild a whole coordinator (and all shards) from a snapshot.

        ``mode`` overrides the snapshotted execution mode — a snapshot
        taken from a process-mode fleet restores fine into serial mode
        and vice versa; the serving state is mode-independent.
        """
        if not isinstance(store, JsonCheckpoint):
            store = JsonCheckpoint(store, kind=SHARD_SNAPSHOT_KIND)
        cell = store.get("coordinator")
        if cell is None:
            raise KeyError("snapshot has no coordinator cell")
        coord = decode_object(cell)
        spec: ShardSpec = coord["spec"]
        self = cls(
            spec.features,
            spec.score,
            spec.voter,
            quarantine=spec.quarantine,
            tree=spec.tree,
            feature_names=spec.feature_names,
            model_generation=spec.model_generation,
            slo=coord["slo"],
            n_shards=coord["n_shards"],
            mode=mode if mode is not None else coord["mode"],
        )
        self.alerts = coord["alerts"]
        self.faults = coord["faults"]
        self._first_seen = coord["first_seen"]
        self._seen = set(self._first_seen)
        self.model_generation = coord["model_generation"]
        self._current_model = coord["current_model"]
        self._last_hour = coord["last_hour"]
        self._deployment = coord["deployment"]
        self.last_verdict = coord["last_verdict"]
        quarantined = set(coord.get("quarantined", ()))
        for shard in range(self.n_shards):
            if shard in quarantined:
                # The shard was cut loose before the snapshot; there is
                # no cell to restore and it stays out of the rotation.
                self._hosts[shard].kill()
                self._quarantined.add(shard)
                continue
            self.restore_shard(shard, store)
        return self

    # -- ground truth and SLO --------------------------------------------------

    def resolve_outcome(
        self,
        serial: str,
        failed: bool,
        *,
        hour: Optional[float] = None,
        failure_hour: Optional[float] = None,
    ) -> str:
        """Record ground truth for a drive (see ``FleetMonitor.resolve_outcome``).

        Outcomes resolve against the coordinator's merged alert list
        and feed the coordinator-side SLO monitor — shards never see
        ground truth.
        """
        return _resolve_outcome(
            self.alerts, self.slo, serial, failed,
            hour=hour, failure_hour=failure_hour,
        )

    # -- reporting -------------------------------------------------------------

    #: What a quarantined shard reports: nothing is served, nothing is
    #: counted — the hole shows up in the topology section instead.
    _QUARANTINED_STATUS = {
        "n_watched": 0,
        "watched": [],
        "degraded": [],
        "fault_counts": {},
        "vote_flips": 0,
    }

    def _statuses(self) -> list[dict]:
        calls = [(sid, _shard_status, None) for sid in self._active_shards()]
        by_sid = {
            sid: self._absorb(envelope)
            for sid, envelope in self._raw_dispatch(calls)
        }
        return [
            by_sid.get(sid) or dict(self._QUARANTINED_STATUS)
            for sid in range(self.n_shards)
        ]

    @property
    def vote_flips(self) -> int:
        """Fleet-total alarm-signal transitions (summed over shards)."""
        return sum(status["vote_flips"] for status in self._statuses())

    def watched_drives(self) -> list[str]:
        """Serials currently tracked, fleet-wide."""
        serials: list[str] = []
        for status in self._statuses():
            serials.extend(status["watched"])
        return sorted(serials)

    def degraded_drives(self) -> list[str]:
        """Serials currently quarantined, fleet-wide."""
        serials: list[str] = []
        for status in self._statuses():
            serials.extend(status["degraded"])
        return sorted(serials)

    def fault_counts(self) -> dict[str, int]:
        """Per-drive count of quarantined ticks, fleet-wide."""
        counts: dict[str, int] = {}
        for status in self._statuses():
            counts.update(status["fault_counts"])
        return dict(sorted(counts.items()))

    def drive_status(self, serial: str) -> DriveStatus:
        """Serving status of one drive (resolved on its owning shard).

        Goes through the dispatch path like every other query, so a
        supervised monitor recovers a dead owning shard first.
        """
        sid = shard_for(serial, self.n_shards)
        return DriveStatus(self._call_shard(sid, _shard_drive_status, serial))

    def health_report(self) -> dict[str, object]:
        """One-call fleet summary, shaped exactly like a single monitor's.

        Every shared key (schema, counters, degraded list, SLO status,
        ``serve.*`` metrics) is bit-identical to the report a single
        columnar ``FleetMonitor`` would produce on the same stream; the
        extra ``"sharding"`` section describes the deployment topology.
        """
        statuses = self._statuses()
        report = _health_report(
            self,
            watched=sum(status["n_watched"] for status in statuses),
            degraded=sorted(
                serial for status in statuses for serial in status["degraded"]
            ),
            vote_flips=sum(status["vote_flips"] for status in statuses),
        )
        report["sharding"] = {
            "n_shards": self.n_shards,
            "mode": self.mode,
            "shard_drives": [status["n_watched"] for status in statuses],
            "quarantined_shards": sorted(self._quarantined),
        }
        return report
