"""The serving workloads: ``serve-steady`` and ``serve-supervised``.

A real CT (``DriveFailurePredictor``, critical-13 features with three
6 h change rates) is fitted on a seeded ``synthetic:`` fleet and serves a
larger fleet whose hourly tick rows are tiled from that fleet's samples:
each served drive replays one source drive's readings from its own
start hour, and a small share of served drives replays the last hours
of a failing drive, so about 0.1-1% of the fleet alerts.  The load
generator is a closed loop with one tick in flight; each tick's matrix
is gathered before the timed ``observe_tick`` call.

``serve-steady`` serves through ``FleetMonitor.from_predictor``;
``serve-supervised`` through ``SupervisedShardedMonitor.from_predictor``
with two shard worker processes, the tick matrix shipped with every
call and a buffered write-ahead journal.  Its alert stream is checked
against a single ``FleetMonitor`` fed the same ticks.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from measure import (
    Outcome,
    bench_span,
    counter_total,
    peak_rss_mb,
    rss_mb,
    shard_breakdown,
    span_total,
)

#: Voters in the serving majority vote (the paper's best CT setting).
N_VOTERS = 11
#: Shard worker processes of serve-supervised: one per core of the
#: two-core machine the baseline was measured on, fixed so that results
#: stay comparable across machines.
N_SHARDS = 2
#: Share of served drives that replay a failing drive's last hours.
FAILED_TILE_SHARE = 0.002
#: Alerted share of the fleet the workload is built to produce; outside
#: it the served model or the tiling is broken.
ALERT_SHARE_BOUNDS = (0.0005, 0.05)


@dataclass(frozen=True)
class ServeScale:
    n_drives: int
    fleet: dict            # synthetic:default params of the source fleet
    warm_ticks: int        # untimed ticks that fill lag rings and vote windows
    ticks_per_second: int  # timed ticks per --seconds, about the baseline rate
    setups: int


SCALES = {
    "full": ServeScale(
        n_drives=100_000,
        fleet={"w_good": 1000, "w_failed": 40, "q_good": 250, "q_failed": 10},
        warm_ticks=12, ticks_per_second=14, setups=3,
    ),
    "tiny": ServeScale(
        n_drives=2_000,
        fleet={"w_good": 120, "w_failed": 16, "q_good": 30, "q_failed": 4},
        warm_ticks=12, ticks_per_second=4, setups=1,
    ),
}


@dataclass
class Prepared:
    """A fitted model plus the seeded tick generator for one served fleet."""

    predictor: object
    handle: str
    source: np.ndarray  # (n_source_drives, n_hours, n_channels)
    rows: np.ndarray    # served drive -> source drive
    start: np.ndarray   # served drive -> source hour replayed at tick 0
    serials: tuple

    def tick(self, t: int) -> np.ndarray:
        """Tick ``t``'s (n_drives, n_channels) matrix."""
        return self.source[self.rows, self.start + t]


def prepare(scale: ServeScale, seed: int, n_ticks: int) -> Prepared:
    """Generate the source fleet, fit the CT and lay out the tiling."""
    from repro.core import DriveFailurePredictor
    from repro.core.config import CTConfig
    from repro.smart import SmartDataset, default_fleet_config
    from repro.smart.registry import canonical_handle

    days = max(12, -(-n_ticks // 24) + 2)
    params = dict(scale.fleet, collection_days=days)
    # The registry caches resolved fleets, which would hide the
    # generation cost from every set-up after the first; generate
    # directly.  The handle names exactly these drives.
    query = "&".join(f"{key}={value}" for key, value in params.items())
    handle = canonical_handle(f"synthetic:default?{query}&seed={seed}")
    dataset = SmartDataset.generate(default_fleet_config(**params, seed=seed))
    with bench_span("fit"):
        predictor = DriveFailurePredictor(CTConfig()).fit(dataset.split(seed=seed))
    with bench_span("compile"):
        predictor.tree_.recompile()

    width = days * 24

    def window(drive) -> np.ndarray:
        # Failing drives keep their last hours, so replay ends at failure.
        values = drive.values[-width:] if drive.failed else drive.values[:width]
        pad = width - len(values)
        if pad > 0:
            values = np.vstack([np.full((pad, values.shape[1]), np.nan), values])
        return values

    source = np.stack([window(drive) for drive in dataset.drives])
    failed = np.array([drive.failed for drive in dataset.drives])
    good_ids, failed_ids = np.flatnonzero(~failed), np.flatnonzero(failed)

    rng = np.random.default_rng(seed)
    n = scale.n_drives
    is_failed = rng.random(n) < FAILED_TILE_SHARE
    rows = np.where(
        is_failed,
        failed_ids[rng.integers(0, len(failed_ids), n)],
        good_ids[rng.integers(0, len(good_ids), n)],
    )
    start = np.where(is_failed, width - n_ticks, rng.integers(0, width - n_ticks + 1, n))
    serials = tuple(f"srv-{seed}-{i:07d}" for i in range(n))
    return Prepared(predictor, handle, source, rows, start, serials)


def alert_stream(monitor) -> list:
    """The alert ids, serials and hours, in raise order."""
    return [(a.alert_id, a.serial, a.hour) for a in monitor.alerts]


class Serving:
    """One served monitor over a prepared fleet."""

    def __init__(self, prepared: Prepared, supervised: bool, run_dir: Optional[Path]):
        from repro.detection import FleetMonitor, SupervisedShardedMonitor, VoterSpec

        self.prepared = prepared
        self.run_dir = run_dir
        voter = VoterSpec("majority", N_VOTERS)
        if supervised:
            self.monitor = SupervisedShardedMonitor.from_predictor(
                prepared.predictor, voter,
                n_shards=N_SHARDS, mode="process", run_dir=run_dir,
                snapshot_every=0, journal_fsync=False,
            )
        else:
            self.monitor = FleetMonitor.from_predictor(prepared.predictor, voter)
        self.monitor.register_fleet(prepared.serials)

    def ticks(self, out: Outcome, first: int, count: int, times: Optional[list] = None):
        """Replay ticks ``first..first+count-1``; each is one checked operation."""
        for t in range(first, first + count):
            matrix = self.prepared.tick(t)
            begin = time.perf_counter()
            try:
                self.monitor.observe_tick(float(t), matrix)
                ok, what = True, ""
            except Exception as error:  # a failed tick counts in error_rate
                traceback.print_exc()
                ok, what = False, f"tick {t}: {error!r}"
            elapsed = time.perf_counter() - begin
            out.check(ok, what)
            if times is not None:
                times.append(elapsed)

    def close(self) -> None:
        close = getattr(self.monitor, "close", None)
        if close is not None:
            close()
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)


def run(*, supervised: bool, seed: int, seconds: int, trace: bool, scale: str,
        workdir: Path) -> Outcome:
    sc = SCALES[scale]
    n_timed = sc.ticks_per_second * seconds
    n_ticks = sc.warm_ticks + n_timed
    out = Outcome()

    def set_up(tag: str) -> Serving:
        prepared = prepare(sc, seed, n_ticks)
        run_dir = workdir / f"run-{tag}" if supervised else None
        serving = Serving(prepared, supervised, run_dir)
        serving.ticks(out, 0, sc.warm_ticks)
        return serving

    serving = None
    for index in range(sc.setups):
        if serving is not None:
            serving.close()
            serving = None
            gc.collect()
        begin = time.perf_counter()
        serving = set_up(f"setup{index}")
        out.setup_s.append(time.perf_counter() - begin)

    gc.collect()
    serving.ticks(out, sc.warm_ticks, n_timed, out.tick_s)
    out.tick_drives = [sc.n_drives] * n_timed
    out.pipeline_s = [float(np.sum(out.tick_s))]
    out.peak_rss_mb = peak_rss_mb(reaped=False)
    prepared = serving.prepared
    stream = alert_stream(serving.monitor)
    n_faults = len(serving.monitor.faults)
    serving.close()
    del serving
    gc.collect()

    out.facts.update({
        "dataset": prepared.handle,
        "n_drives": sc.n_drives,
        "n_shards": N_SHARDS if supervised else 0,
        "n_voters": N_VOTERS,
        "warm_ticks": sc.warm_ticks,
        "timed_ticks": n_timed,
        "tree_leaves": int(prepared.predictor.tree_.n_leaves_),
        "input_digest": hashlib.sha256(prepared.tick(0).tobytes()).hexdigest()[:16],
        "alerts": len(stream),
        "faults": n_faults,
    })
    share = len({serial for _, serial, _ in stream}) / sc.n_drives
    out.check(ALERT_SHARE_BOUNDS[0] <= share <= ALERT_SHARE_BOUNDS[1],
              f"alerted share {share:.4%} outside {ALERT_SHARE_BOUNDS}")
    out.check(n_faults == 0, f"{n_faults} faults on a clean hourly feed")
    out.check([alert_id for alert_id, _, _ in stream]
              == [f"alert-{i:04d}" for i in range(len(stream))],
              "alert ids are not dense in raise order")
    if supervised:
        reference = Serving(prepared, False, None)
        reference.ticks(out, 0, n_ticks)
        out.check(stream == alert_stream(reference.monitor),
                  "supervised alert stream differs from a single FleetMonitor's")
        del reference
        gc.collect()

    if trace:
        traced = traced_pass(set_up, sc, n_timed, supervised, out)
        out.check(traced == stream, "traced alert stream differs from the untraced one")
    return out


def traced_pass(set_up, sc: ServeScale, n_timed: int, supervised: bool, out: Outcome) -> list:
    """Set up and replay once more with tracing on; fills ``out.layers``."""
    from repro import observability as obs
    from repro.smart.attributes import N_CHANNELS

    _, tracer, _ = obs.enable(metrics=True, tracing=True, events=False)
    serving = set_up("traced")
    setup_spans = tracer.drain()
    if supervised:
        journal = serving.monitor.journal
        append = journal.append_tick_matrix

        def traced_append(*args, **kwargs):
            with bench_span("journal_append"):
                return append(*args, **kwargs)

        journal.append_tick_matrix = traced_append
    rss_warm = rss_mb()
    registry, tracer, _ = obs.enable(metrics=True, tracing=True, events=False)
    gc.collect()
    times: list = []
    serving.ticks(out, sc.warm_ticks, n_timed, times)
    spans = tracer.drain()
    traced_rate = sc.n_drives * n_timed / float(np.sum(times))
    untraced_rate = out.samples_per_s()
    monitor = serving.monitor
    layers = {
        "detection.tick_s": span_total(spans, "serve.tick"),
        "tree.compiled.score_s": span_total(spans, "score.batch", within="serve.tick"),
        "detection.scored_rows": counter_total(registry, "serve.scored"),
        "detection.alerts": float(len(monitor.alerts)),
        "detection.vote_flips": float(monitor.vote_flips),
        "detection.faults": float(len(monitor.faults)),
        "detection.rss_growth_mb": rss_mb() - rss_warm,
        "core.predictor.fit_s": span_total(setup_spans, "perfbench.fit"),
        "tree.fit.grow_s": span_total(setup_spans, "fit.grow"),
        "tree.compiled.compile_s": span_total(setup_spans, "perfbench.compile"),
        "observability.traced_samples_per_s": traced_rate,
        "observability.trace_overhead_pct": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
    }
    if supervised:
        layers.update(shard_breakdown(spans))
        layers["detection.columnar.self_s"] = (
            span_total(spans, "shard.tick") - layers["tree.compiled.score_s"])
        # Computed from array sizes: each timed tick ships every shard its
        # float64 slice of the tick matrix; replies are not counted.
        layers["utils.parallel.ipc_bytes"] = float(n_timed * sc.n_drives * N_CHANNELS * 8)
        layers["detection.supervision.journal_append_s"] = span_total(
            spans, "perfbench.journal_append")
        # Everything the coordinator process spends per tick that is not
        # waiting for the slowest shard or writing the journal: probing,
        # partitioning, dispatch and merge.
        layers["detection.sharded.coordinator_s"] = (
            float(np.sum(times)) - layers["detection.sharded.shard_tick_s"]
            - layers["detection.supervision.journal_append_s"])
        layers["detection.supervision.journal_bytes"] = float(
            journal.path.stat().st_size
            + sum(f.stat().st_size for f in journal.sidecar_dir.iterdir()))
    else:
        layers["detection.columnar.self_s"] = (
            layers["detection.tick_s"] - layers["tree.compiled.score_s"])
    out.layers = layers
    out.spans = setup_spans + spans
    stream = alert_stream(monitor)
    serving.close()
    obs.disable()
    return stream
