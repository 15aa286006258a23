"""Structure-of-arrays serving engine for :class:`~repro.detection.streaming.FleetMonitor`.

The paper's deployment protocol scores every drive of a population once
per hour.  This module is the monitor's one serving engine: every piece
of per-drive state lives in a preallocated array keyed by a stable
serial→row index, so a collection tick is a handful of vectorized
passes instead of ``n_drives`` python round-trips:

* the **validation gate** (shape / non-finite time / duplicate /
  out-of-order) becomes mask arithmetic against a ``_last_hour``
  column, feeding the exact same :class:`~repro.utils.errors.SampleFault`
  taxonomy and quarantine bookkeeping;
* **online features** come from :class:`_LagHistory`, a ring-buffered
  ``(n_drives, capacity)`` history holding only the channels that
  change-rate features look back at;
* **voting windows** are :class:`MajorityVoteMatrix` /
  :class:`MeanThresholdMatrix` — shift-left ``(n_drives, n_voters)``
  matrices whose storage order *is* window order, so provenance
  snapshots read straight out of a row;
* **scoring** stacks the tick's usable feature rows and makes a single
  ``score`` call (one compiled-tree routing pass for the fleet).

The reference is the per-drive object engine this module replaced: one
python object, feature buffer and voter per drive, kept as the test
oracle ``tests/oracles/object_monitor.py``.  The golden parity suite in
``tests/test_detection_columnar.py`` pins the two bit for bit — same
alerts, same ``health_report()``, same structured-event stream
(including ordering), same quarantine decisions.  Anywhere the two
could diverge in float space (pairwise summation reassociation in the
mean voter) the matrix voter re-judges boundary rows with the exact
per-row rule.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    NormalizedTick,
    VoterSpec,
    _check_voter,
    _duplicate_serial_fault,
    _json_score,
    _normalize_tick,
    _stack_items,
)
from repro.observability import get_event_log, get_registry
from repro.observability.events import decision_path_payload
from repro.smart.attributes import N_CHANNELS, channel_index
from repro.utils.errors import FaultKind, SampleFault

# Gate verdict codes (record-order fault emission keys off these).
_CLEAN, _SHAPE, _NF_TIME, _DUP_TIME, _OOO = 0, 1, 2, 3, 4


class _LagHistory:
    """Ring-buffered raw-channel history for change-rate lookback.

    Row-for-row equivalent of a per-drive deque of recent readings (the
    object-engine oracle's feature buffer), for the whole fleet at once.
    ``hours`` is ``(n_rows, capacity)`` with NaN marking empty slots;
    ``values`` keeps only the channels change-rate features actually
    read.  A slot is *live* while its hour is within ``max_lag`` of the
    drive's newest push — the same retention rule a per-drive deque
    applies by popping — so validity is decided at lookup time instead
    of by eviction, and a push that would overwrite a live slot doubles
    the capacity first.
    """

    def __init__(self, n_rows: int, channels: Sequence[int], max_lag: float):
        self.channels = tuple(channels)
        self.max_lag = float(max_lag)
        self.capacity = 8
        self.hours = np.full((n_rows, self.capacity), np.nan)
        self.values = np.full((n_rows, self.capacity, len(self.channels)), np.nan)
        self.pushes = np.zeros(n_rows, dtype=np.int64)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.hours.shape[0]
        self.hours = np.concatenate(
            [self.hours, np.full((extra, self.capacity), np.nan)]
        )
        self.values = np.concatenate(
            [self.values, np.full((extra, self.capacity, len(self.channels)), np.nan)]
        )
        self.pushes = np.concatenate([self.pushes, np.zeros(extra, dtype=np.int64)])

    def _grow_capacity(self) -> None:
        old = self.capacity
        n_rows = self.hours.shape[0]
        self.hours = np.concatenate(
            [self.hours, np.full((n_rows, old), np.nan)], axis=1
        )
        self.values = np.concatenate(
            [self.values, np.full((n_rows, old, len(self.channels)), np.nan)], axis=1
        )
        self.capacity = old * 2
        # Uniform write cursor: the next push of every row lands in the
        # first fresh slot.  Lookups rank by stored hour, never by slot
        # position, so re-aligning cursors is safe.
        self.pushes[:] = old

    def push(self, rows: np.ndarray, hour: float, lag_values: np.ndarray) -> None:
        slots = self.pushes[rows] % self.capacity
        stale = self.hours[rows, slots]
        if np.any(np.isfinite(stale) & (stale >= hour - self.max_lag)):
            self._grow_capacity()
            slots = self.pushes[rows] % self.capacity
        self.hours[rows, slots] = hour
        self.values[rows, slots, :] = lag_values
        self.pushes[rows] += 1

    def lookup(self, rows: np.ndarray, lag_hour: float, now: float) -> np.ndarray:
        """Lagged channel values per row; NaN where the lag hour is absent.

        Mirrors a per-drive history scan: only slots still within
        ``max_lag`` of ``now`` count, ``np.isclose`` matches the lag
        hour, and among multiple matches the oldest wins (per-drive
        hours are strictly increasing, so oldest = smallest).
        """
        stored = self.hours[rows]
        live = np.isfinite(stored) & (stored >= now - self.max_lag)
        with np.errstate(invalid="ignore"):
            match = live & np.isclose(stored, lag_hour)
        found = match.any(axis=1)
        pick = np.argmin(np.where(match, stored, np.inf), axis=1)
        out = self.values[rows, pick, :]
        out[~found] = np.nan
        return out


class MajorityVoteMatrix:
    """The ``"majority"`` :class:`~repro.detection.streaming.VoterSpec` rule, matrix-wide.

    One int8 shift-left window per row: ``-1`` marks an unfilled slot,
    ``0``/``1`` a vote, and storage order is window order (oldest
    first), so provenance reads a row verbatim.
    """

    def __init__(self, n_voters: int, failed_label: float, n_rows: int):
        self.n_voters = int(n_voters)
        self.failed_label = failed_label
        self.window = np.full((n_rows, self.n_voters), -1, dtype=np.int8)
        self.length = np.zeros(n_rows, dtype=np.int64)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.window.shape[0]
        self.window = np.concatenate(
            [self.window, np.full((extra, self.n_voters), -1, dtype=np.int8)]
        )
        self.length = np.concatenate([self.length, np.zeros(extra, dtype=np.int64)])

    def push(self, rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        votes = (np.isfinite(scores) & (scores == self.failed_label)).astype(np.int8)
        window = self.window[rows]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = votes
        self.window[rows] = window
        self.length[rows] = np.minimum(self.length[rows] + 1, self.n_voters)
        fails = (window == 1).sum(axis=1)
        return (self.length[rows] == self.n_voters) & (fails > self.n_voters / 2.0)

    def flush(self, row: int) -> bool:
        filled = int(self.length[row])
        if filled == 0 or filled >= self.n_voters:
            return False
        fails = int((self.window[row] == 1).sum())
        return fails > filled / 2.0

    def window_contents(self, row: int) -> list:
        window = self.window[row]
        return [bool(vote) for vote in window[window >= 0]]


class MeanThresholdMatrix:
    """The ``"mean"`` :class:`~repro.detection.streaming.VoterSpec` rule, matrix-wide.

    Float64 shift-left windows with NaN both as the unfilled-slot marker
    and as the unscorable-sample gap (the first ``length`` check keeps
    the two apart).  The alarm decision masks NaN to ``0.0`` and divides
    by the finite count — the same mean a per-drive voter takes over its
    compacted window, except that numpy's pairwise summation may
    associate the additions differently; rows whose mean lands within
    the reassociation error bound of the threshold are re-judged with
    the exact per-row rule so the decision is bit-for-bit the per-drive
    voter's (the test oracle ``tests/oracles/object_monitor.py``).
    """

    def __init__(self, n_voters: int, threshold: float, n_rows: int):
        self.n_voters = int(n_voters)
        self.threshold = float(threshold)
        self.window = np.full((n_rows, self.n_voters), np.nan)
        self.length = np.zeros(n_rows, dtype=np.int64)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.window.shape[0]
        self.window = np.concatenate(
            [self.window, np.full((extra, self.n_voters), np.nan)]
        )
        self.length = np.concatenate([self.length, np.zeros(extra, dtype=np.int64)])

    def push(self, rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        window = self.window[rows]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = scores
        self.window[rows] = window
        self.length[rows] = np.minimum(self.length[rows] + 1, self.n_voters)
        full = self.length[rows] == self.n_voters
        finite = np.isfinite(window)
        counts = finite.sum(axis=1)
        sums = np.where(finite, window, 0.0).sum(axis=1)
        sums_abs = np.where(finite, np.abs(window), 0.0).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
            alarm = full & (counts > 0) & (means < self.threshold)
            eps = np.finfo(float).eps
            tolerance = 4.0 * eps * (
                self.n_voters * sums_abs / np.maximum(counts, 1)
                + abs(self.threshold)
            )
            suspect = full & (counts > 0) & (
                np.abs(means - self.threshold) <= tolerance
            )
        for at in np.nonzero(suspect)[0]:
            alarm[at] = self._judge_exact(window[at])
        return alarm

    def _judge_exact(self, values: np.ndarray) -> bool:
        valid = values[np.isfinite(values)]
        return valid.size > 0 and float(valid.mean()) < self.threshold

    def flush(self, row: int) -> bool:
        filled = int(self.length[row])
        if filled == 0 or filled >= self.n_voters:
            return False
        return self._judge_exact(self.window[row, self.n_voters - filled:])

    def window_contents(self, row: int) -> list:
        filled = min(int(self.length[row]), self.n_voters)
        window = self.window[row, self.n_voters - filled:]
        return [float(v) if np.isfinite(v) else None for v in window]


def window_matrix_for(voter: VoterSpec, n_rows: int = 0):
    """The matrix voter serving ``voter``'s rule over ``n_rows`` drives."""
    if _check_voter(voter).kind == "majority":
        return MajorityVoteMatrix(voter.n_voters, voter.failed_label, n_rows)
    return MeanThresholdMatrix(voter.n_voters, voter.threshold, n_rows)


class ColumnarEngine:
    """The structure-of-arrays state behind every :class:`FleetMonitor`.

    Owned by one :class:`~repro.detection.streaming.FleetMonitor`;
    shares the monitor's public result surfaces (``alerts``, ``faults``,
    ``vote_flips``) and keeps everything per-drive in parallel arrays
    grown by capacity doubling.  Rows are allocated in first-seen order,
    so :meth:`finalize` walks drives in the order they first reported
    and assigns dense alert ids in that order.
    """

    def __init__(self, monitor):
        self.monitor = monitor
        features = monitor.features
        self._n_features = len(features)
        self._value_cols = [
            (j, channel_index(f.short))
            for j, f in enumerate(features)
            if not f.is_change_rate
        ]
        self._rate_cols = [
            (j, channel_index(f.short), float(f.change_interval_hours))
            for j, f in enumerate(features)
            if f.is_change_rate
        ]
        lag_channels = sorted({channel for _, channel, _ in self._rate_cols})
        self._lag_channels = np.asarray(lag_channels, dtype=np.intp)
        self._lag_col = {channel: at for at, channel in enumerate(lag_channels)}
        self._intervals = sorted({interval for _, _, interval in self._rate_cols})
        max_lag = max((interval for _, _, interval in self._rate_cols), default=0.0)
        # Fails fast on anything but a VoterSpec.
        self._voter = window_matrix_for(monitor.voter)
        self._history = (
            _LagHistory(0, lag_channels, max_lag) if self._rate_cols else None
        )
        self._capacity = 0
        self._row: dict[str, int] = {}
        self._serials: list[str] = []
        self._roster_cache: Optional[tuple] = None
        self._last_hour = np.empty(0)
        self._fault_count = np.empty(0, dtype=np.int64)
        self._degraded = np.empty(0, dtype=bool)
        self._alerted = np.empty(0, dtype=bool)
        self._cleared = np.empty(0, dtype=bool)
        self._last_signal = np.empty(0, dtype=np.int8)
        self._last_rows = np.empty((0, self._n_features))
        self._has_row = np.empty(0, dtype=bool)

    def __getstate__(self) -> dict:
        """Pickle support for shard snapshot/restore.

        The roster cache is keyed by tuple *identity*, which cannot
        survive a pickle round-trip; drop it so a restored engine
        re-resolves rows on its first tick (state, not caches, is what
        a snapshot preserves).
        """
        state = self.__dict__.copy()
        state["_roster_cache"] = None
        return state

    # -- row allocation -------------------------------------------------------

    def _ensure_capacity(self, n: int) -> None:
        if n <= self._capacity:
            return
        capacity = max(self._capacity * 2, 64)
        while capacity < n:
            capacity *= 2
        grow = capacity - self._capacity
        self._last_hour = np.concatenate([self._last_hour, np.full(grow, np.nan)])
        self._fault_count = np.concatenate(
            [self._fault_count, np.zeros(grow, dtype=np.int64)]
        )
        self._degraded = np.concatenate(
            [self._degraded, np.zeros(grow, dtype=bool)]
        )
        self._alerted = np.concatenate([self._alerted, np.zeros(grow, dtype=bool)])
        self._cleared = np.concatenate([self._cleared, np.zeros(grow, dtype=bool)])
        self._last_signal = np.concatenate(
            [self._last_signal, np.full(grow, -1, dtype=np.int8)]
        )
        self._last_rows = np.concatenate(
            [self._last_rows, np.full((grow, self._n_features), np.nan)]
        )
        self._has_row = np.concatenate([self._has_row, np.zeros(grow, dtype=bool)])
        if self._history is not None:
            self._history.grow_rows(capacity)
        self._voter.grow_rows(capacity)
        self._capacity = capacity

    def _row_for(self, serial: str) -> int:
        row = self._row.get(serial)
        if row is None:
            row = len(self._serials)
            self._ensure_capacity(row + 1)
            self._row[serial] = row
            self._serials.append(serial)
        return row

    # -- tick entry points ----------------------------------------------------

    def tick(
        self,
        hour: float,
        items: list[tuple],
        duplicates: list[str],
    ) -> list[Alert]:
        """One collection tick from normalized ``(serial, values)`` pairs.

        The pairs become one matrix first (:func:`_stack_items`), so a
        non-numeric record raises before any row is allocated or fault
        recorded; the tick is then served by :meth:`run`.
        """
        roster, matrix, bad_shape = _stack_items(items)
        return self.run(
            NormalizedTick(hour, roster, matrix, tuple(duplicates), bad_shape)
        )

    def tick_matrix(
        self, hour: float, roster: tuple, matrix: np.ndarray
    ) -> list[Alert]:
        """One collection tick as an aligned channel matrix (zero-copy).

        A roster that repeats a serial is normalized first (last write
        wins, see :func:`_normalize_tick`).
        """
        cache = self._roster_cache
        cached = cache is not None and cache[0] is roster
        if not cached and len(set(roster)) != len(roster):
            items, duplicates = _normalize_tick(zip(roster, matrix))
            return self.tick(hour, items, duplicates)
        return self.run(NormalizedTick(hour, roster, matrix))

    def run(self, tick: NormalizedTick) -> list[Alert]:
        """Serve one :class:`NormalizedTick`: duplicate faults, then the gate.

        Row resolution for the registered roster (``roster=None`` or the
        tuple ``register_fleet`` fixed) is cached by identity, so
        repeated registered ticks touch no per-drive python at all;
        ad-hoc rosters never evict that cache.
        """
        hour = tick.hour
        if tick.duplicates:
            registry = get_registry()
            if self.monitor.quarantine is None:
                # Record order: the tick counter covers the record that
                # raises, nothing past it is reached.
                registry.counter("serve.ticks", help=TICKS_HELP).inc()
                serial = tick.duplicates[0]
                self._fault_row(
                    serial, self._row_for(serial),
                    _duplicate_serial_fault(serial, hour),
                )
            registry.counter("serve.ticks", help=TICKS_HELP).inc(len(tick.duplicates))
            for serial in tick.duplicates:
                self._fault_row(
                    serial, self._row_for(serial),
                    _duplicate_serial_fault(serial, hour),
                )
        registered = self.monitor._tick_serials
        roster = tick.roster if tick.roster is not None else registered
        n_before = len(self._serials)
        cache = self._roster_cache
        if cache is not None and cache[0] is roster:
            rows = cache[1]
        else:
            rows = np.fromiter(
                (self._row_for(serial) for serial in roster),
                dtype=np.intp, count=len(roster),
            )
            if roster is registered:
                self._roster_cache = (roster, rows)
        return self._process(hour, roster, rows, tick.matrix, tick.bad_shape, n_before)

    # -- the vectorized hot path ----------------------------------------------

    def _process(
        self,
        hour: float,
        serials: Sequence[str],
        rows: np.ndarray,
        values: np.ndarray,
        bad_shape: dict[int, tuple],
        n_before: int,
    ) -> list[Alert]:
        monitor = self.monitor
        registry = get_registry()
        strict = monitor.quarantine is None
        n = len(rows)

        # Vectorized validation gate; per-record verdicts in priority
        # order shape, non-finite time, duplicate time, out of order.
        verdict = np.zeros(n, dtype=np.int8)
        for at in bad_shape:
            verdict[at] = _SHAPE
        last = self._last_hour[rows]
        if not np.isfinite(hour):
            verdict[verdict == _CLEAN] = _NF_TIME
        else:
            unjudged = verdict == _CLEAN
            verdict[unjudged & (last == hour)] = _DUP_TIME
            verdict[unjudged & (last > hour)] = _OOO
        faulted = verdict != _CLEAN

        if strict and faulted.any():
            first = int(np.argmax(faulted))
            # Records past the raising one count as never reached:
            # un-register any serial first seen there.
            doomed = rows[first + 1:]
            doomed = doomed[doomed >= n_before]
            if doomed.size:
                cutoff = int(doomed.min())
                for serial in self._serials[cutoff:]:
                    del self._row[serial]
                del self._serials[cutoff:]
                self._roster_cache = None
            registry.counter("serve.ticks", help=TICKS_HELP).inc(first + 1)
            head = ~faulted
            head[first:] = False
            if head.any():
                self._ingest(hour, rows[head], values[head])
            self._fault_row(
                serials[first], int(rows[first]),
                self._build_fault(
                    serials[first], hour, int(verdict[first]),
                    bad_shape.get(first), last[first],
                ),
            )  # raises

        if n:
            registry.counter("serve.ticks", help=TICKS_HELP).inc(n)
        if faulted.any():
            for at in np.nonzero(faulted)[0]:
                self._fault_row(
                    serials[at], int(rows[at]),
                    self._build_fault(
                        serials[at], hour, int(verdict[at]),
                        bad_shape.get(at), last[at],
                    ),
                )

        clean = ~faulted
        clean_rows = rows[clean]
        k = len(clean_rows)
        alerts: list[Alert] = []
        if k == 0:
            return alerts
        feature_rows = self._ingest(
            hour, clean_rows, values if k == n else values[clean]
        )

        # One scoring pass for the whole tick.
        usable = np.any(np.isfinite(feature_rows), axis=1)
        scores = np.full(k, np.nan)
        n_usable = int(np.count_nonzero(usable))
        if n_usable:
            batch = np.asarray(monitor.score(feature_rows[usable]), dtype=float)
            if batch.shape != (n_usable,):
                raise ValueError(
                    f"score must map a ({n_usable}, {self._n_features}) "
                    f"matrix to {n_usable} scores, got shape {batch.shape}"
                )
            scores[usable] = batch
            registry.counter("serve.scored", help=SCORED_HELP).inc(n_usable)

        # Fleet-wide voting and alert latching.
        alarmed = self._voter.push(clean_rows, scores)
        previous = self._last_signal[clean_rows]
        previous_true = previous == 1
        flips = (previous >= 0) & (alarmed != previous_true)
        n_flips = int(np.count_nonzero(flips))
        if n_flips:
            monitor.vote_flips += n_flips
            registry.counter("serve.vote_flips", help=FLIPS_HELP).inc(n_flips)
        healthy = ~self._degraded[clean_rows]
        latched = self._alerted[clean_rows]
        new_alert = alarmed & ~latched & healthy
        cleared = (
            ~alarmed & previous_true & latched
            & ~self._cleared[clean_rows] & healthy
        )

        log = get_event_log()
        if log.enabled:
            # Per-drive lifecycle events interleave in record order, as a
            # per-drive loop would emit them; the arrays above did the
            # work, this loop only narrates it.
            clean_at = np.nonzero(clean)[0]
            for at in range(k):
                serial = serials[clean_at[at]]
                score = scores[at]
                if np.isfinite(score):
                    log.emit(
                        "sample_scored", drive=serial, hour=hour,
                        score=float(score),
                    )
                if flips[at]:
                    log.emit(
                        "vote_flip", drive=serial, hour=hour,
                        signal=bool(alarmed[at]),
                    )
                if new_alert[at]:
                    alerts.append(
                        self._raise_alert(
                            serial, int(clean_rows[at]), hour, float(score), log
                        )
                    )
                elif cleared[at]:
                    log.emit(
                        "alert_cleared", drive=serial, hour=hour,
                        score=_json_score(score),
                    )
        elif new_alert.any():
            clean_at = np.nonzero(clean)[0]
            for at in np.nonzero(new_alert)[0]:
                alerts.append(
                    self._raise_alert(
                        serials[clean_at[at]], int(clean_rows[at]),
                        hour, float(scores[at]), log,
                    )
                )

        self._last_signal[clean_rows] = alarmed.astype(np.int8)
        if new_alert.any():
            self._alerted[clean_rows] |= new_alert
        if cleared.any():
            self._cleared[clean_rows] |= cleared
        return alerts

    def _ingest(
        self, hour: float, rows: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Push one tick of raw channels; return the tick's feature rows."""
        now = float(hour)
        feature_rows = np.empty((len(rows), self._n_features))
        lagged = {}
        if self._rate_cols:
            self._history.push(rows, now, values[:, self._lag_channels])
            for interval in self._intervals:
                lagged[interval] = self._history.lookup(rows, now - interval, now)
        for column, channel in self._value_cols:
            feature_rows[:, column] = values[:, channel]
        with np.errstate(invalid="ignore"):
            for column, channel, interval in self._rate_cols:
                current = values[:, channel]
                lag = lagged[interval][:, self._lag_col[channel]]
                rate = (current - lag) / interval
                feature_rows[:, column] = np.where(
                    np.isfinite(current) & np.isfinite(lag), rate, np.nan
                )
        self._last_hour[rows] = now
        self._last_rows[rows] = feature_rows
        self._has_row[rows] = True
        return feature_rows

    # -- fault and alert bookkeeping -------------------------------------------

    def _build_fault(
        self,
        serial: str,
        hour: float,
        verdict: int,
        shape: Optional[tuple],
        last: float,
    ) -> SampleFault:
        if verdict == _SHAPE:
            return SampleFault(
                serial, float(hour) if np.isfinite(hour) else np.nan,
                FaultKind.WRONG_SHAPE,
                f"expected ({N_CHANNELS},) channel values, got {shape}",
            )
        if verdict == _NF_TIME:
            return SampleFault(
                serial, np.nan, FaultKind.NON_FINITE_TIME,
                f"timestamp {hour!r} is not a finite hour",
            )
        if verdict == _DUP_TIME:
            return SampleFault(
                serial, float(hour), FaultKind.DUPLICATE_TIME,
                f"hour {hour} already ingested",
            )
        return SampleFault(
            serial, float(hour), FaultKind.OUT_OF_ORDER,
            f"hour {hour} arrived after {last}",
        )

    def _fault_row(self, serial: str, row: int, fault: SampleFault) -> None:
        """Record one malformed tick against a drive's quarantine budget.

        Strict mode (``quarantine=None``) raises instead.
        """
        monitor = self.monitor
        if monitor.quarantine is None:
            raise ValueError(f"drive {serial}: {fault.kind}: {fault.detail}")
        registry = get_registry()
        monitor.faults.append(fault)
        self._fault_count[row] += 1
        registry.counter(
            "serve.faults", help=FAULTS_HELP, kind=fault.kind.value,
        ).inc()
        log = get_event_log()
        log.emit(
            "tick_faulted", drive=serial, hour=fault.hour,
            kind=fault.kind.value, detail=fault.detail,
        )
        if monitor.quarantine.degrades(int(self._fault_count[row])):
            if not self._degraded[row]:
                registry.counter(
                    "serve.quarantined", help=QUARANTINED_HELP
                ).inc()
                log.emit(
                    "drive_quarantined", drive=serial, hour=fault.hour,
                    fault_count=int(self._fault_count[row]),
                    fault_limit=monitor.quarantine.fault_limit,
                )
            self._degraded[row] = True

    def _raise_alert(
        self, serial: str, row: int, hour: float, score: float, log
    ) -> Alert:
        monitor = self.monitor
        self._alerted[row] = True
        alert = Alert(
            serial=serial, hour=float(hour), score=score,
            alert_id=f"alert-{len(monitor.alerts):04d}",
        )
        monitor.alerts.append(alert)
        get_registry().counter("serve.alerts", help=ALERTS_HELP).inc()
        if log.enabled:
            log.emit(
                "alert_raised", drive=serial, hour=hour,
                **self._provenance(alert, row),
            )
        return alert

    def _provenance(self, alert: Alert, row: int) -> dict:
        monitor = self.monitor
        payload: dict = {
            "alert_id": alert.alert_id,
            "score": _json_score(alert.score),
            "model_generation": monitor.model_generation,
        }
        payload["window"] = self._voter.window_contents(row)
        if monitor.tree is not None and self._has_row[row]:
            payload["path"] = decision_path_payload(
                monitor.tree, self._last_rows[row], monitor.feature_names
            )
        return payload

    def finalize(self) -> list[Alert]:
        """Short-history flush in registration (first-seen) order."""
        monitor = self.monitor
        log = get_event_log()
        extra: list[Alert] = []
        for serial in self._serials:
            row = self._row[serial]
            if self._alerted[row] or self._degraded[row]:
                continue
            if not self._voter.flush(row):
                continue
            self._alerted[row] = True
            alert = Alert(
                serial=serial, hour=np.nan, score=np.nan,
                alert_id=f"alert-{len(monitor.alerts):04d}",
            )
            monitor.alerts.append(alert)
            get_registry().counter("serve.alerts", help=ALERTS_HELP).inc()
            if log.enabled:
                log.emit(
                    "alert_raised", drive=serial, hour=None,
                    short_history=True, **self._provenance(alert, row),
                )
            extra.append(alert)
        return extra

    # -- reporting accessors ---------------------------------------------------

    def watched_drives(self) -> list[str]:
        return sorted(self._row)

    def n_watched(self) -> int:
        return len(self._serials)

    def drive_status(self, serial: str) -> DriveStatus:
        row = self._row.get(serial)
        if row is not None and self._degraded[row]:
            return DriveStatus.DEGRADED
        return DriveStatus.OK

    def degraded_drives(self) -> list[str]:
        return sorted(
            serial for serial, row in self._row.items() if self._degraded[row]
        )

    def fault_counts(self) -> dict[str, int]:
        return {
            serial: int(self._fault_count[row])
            for serial, row in sorted(self._row.items())
            if self._fault_count[row]
        }
