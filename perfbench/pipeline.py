"""The ``pipeline`` workload: ingest -> fit -> compile -> serve -> explain.

Set-up writes a seeded Backblaze-format daily-CSV dump (``dump.py``).
Each timed pass then runs the whole offline path on it through public
functions: ``ingest_backblaze`` into a fresh columnar store,
``load_store``, the paper's split, a CT fit at daily cadence,
``evaluate``, a replay of the fleet's daily history through a
``FleetMonitor`` with a recording event log (drives join and leave, a
one-voter detector makes alerts dense, ground truth is resolved for
every alerted or failed drive), and the explain suite on the result:
``build_explain_report``
over the events, ``crossfit_models``, ``simulate_uplift`` and
``summarize_redundancy``.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from dump import write_dump
from measure import Outcome, bench_span, counter_total, peak_rss_mb, span_total

#: Voters of the offline evaluation and of the replay's detector.
EVAL_VOTERS = 3
REPLAY_VOTERS = 1
#: Sanity bounds on the evaluated detection rates: outside them the
#: fitted tree or the ingest is broken, not merely noisy.
FDR_BOUNDS = (0.2, 1.0)
FAR_BOUNDS = (0.0, 0.05)
#: Ingest parse workers, fixed like serve-supervised's shard count.
INGEST_JOBS = 2
#: Temperature shifts swept by the what-if simulation.
TC_SHIFTS = (-4.0, -2.0, 0.0, 2.0, 4.0)
CROSSFIT_FOLDS = 3

STAGES = (
    "ingest", "load", "split", "fit", "evaluate", "replay",
    "report", "crossfit", "simulate", "redundancy",
)


@dataclass(frozen=True)
class PipelineScale:
    n_drives: int
    n_days: int
    failed_share: float
    pass_seconds: int  # --seconds per timed pass, about one pass at baseline
    setups: int


SCALES = {
    "full": PipelineScale(n_drives=1200, n_days=42, failed_share=0.05, pass_seconds=2, setups=3),
    "tiny": PipelineScale(n_drives=400, n_days=28, failed_share=0.06, pass_seconds=5, setups=1),
}


def daily_config():
    """The CT pipeline at Backblaze's daily cadence: the critical-13 idea
    with 24 h change rates and a one-week failed window."""
    from repro.core.config import CTConfig, SamplingConfig
    from repro.features import Feature
    from repro.smart.attributes import channel_shorts

    features = [Feature(short) for short in channel_shorts()
                if short not in ("CPSC", "CPSC_RAW")]
    features += [Feature(short, 24.0) for short in ("RRER", "HER", "RSC_RAW")]
    return CTConfig(features=features, sampling=SamplingConfig(failed_window_hours=168.0))


def replay_ticks(drives) -> list:
    """The drives' histories as daily ticks: ``(hour, roster, matrix)`` in
    time order.

    The whole fleet is replayed, not the test split: a split's good drives
    keep only their last days, which leaves most ticks a few drives wide
    and makes tick percentiles jump between two tick sizes.
    """
    hours = np.concatenate([drive.hours for drive in drives])
    values = np.concatenate([drive.values for drive in drives])
    owner = np.concatenate([np.full(drive.n_samples, i) for i, drive in enumerate(drives)])
    order = np.lexsort((owner, hours))
    hours, values, owner = hours[order], values[order], owner[order]
    cuts = np.flatnonzero(np.diff(hours)) + 1
    ticks = []
    for rows in np.split(np.arange(len(hours)), cuts):
        roster = tuple(drives[i].serial for i in owner[rows])
        ticks.append((float(hours[rows[0]]), roster, values[rows]))
    return ticks


def replay(predictor, drives, tick_s: list, tick_drives: list) -> tuple[int, list]:
    """Serve the drives' histories with a recording event log; returns the
    alert count and the events.  Appends each timed tick's seconds and size."""
    from repro.detection import FleetMonitor, VoterSpec
    from repro.observability import disable_events, enable_events

    ticks = replay_ticks(drives)
    log = enable_events()
    try:
        monitor = FleetMonitor.from_predictor(predictor, VoterSpec("majority", REPLAY_VOTERS))
        for hour, roster, matrix in ticks:
            monitor.register_fleet(roster)
            begin = time.perf_counter()
            monitor.observe_tick(hour, matrix)
            tick_s.append(time.perf_counter() - begin)
            tick_drives.append(len(roster))
        failure_hours = {d.serial: d.failure_hour for d in drives if d.failed}
        alerted = {alert.serial for alert in monitor.alerts}
        for serial in sorted(alerted | set(failure_hours)):
            if serial in failure_hours:
                monitor.resolve_outcome(serial, failed=True, failure_hour=failure_hours[serial])
            else:
                monitor.resolve_outcome(serial, failed=False)
    finally:
        disable_events()
    return len(monitor.alerts), list(log.events)


class Pass:
    """One timed ingest -> explain pass; each stage is one checked operation."""

    def __init__(self, out: Outcome, dump: Path, store: Path, seed: int):
        self.out = out
        self.dump = dump
        self.store = store
        self.seed = seed
        self.tick_s: list = []
        self.tick_drives: list = []

    def run(self) -> dict:
        state: dict = {}
        for index, stage in enumerate(STAGES):
            try:
                getattr(self, stage)(state)
            except Exception as error:  # a failed stage counts in error_rate
                traceback.print_exc()
                self.out.check(False, f"{stage}: {error!r}")
                for skipped in STAGES[index + 1:]:
                    self.out.check(False, f"{skipped}: skipped after {stage} failed")
                return state
            self.out.check(True, stage)
        return state

    def ingest(self, state):
        from repro.smart.ingest import IngestConfig, ingest_backblaze

        state["manifest"] = ingest_backblaze(IngestConfig(
            source=str(self.dump), out=str(self.store), n_jobs=INGEST_JOBS,
        ))

    def load(self, state):
        from repro.smart.ingest import load_store

        with bench_span("load"):
            state["dataset"] = load_store(self.store)

    def split(self, state):
        state["split"] = state["dataset"].split(seed=self.seed)

    def fit(self, state):
        from repro.core import DriveFailurePredictor

        with bench_span("fit"):
            state["predictor"] = DriveFailurePredictor(daily_config()).fit(state["split"])
        with bench_span("compile"):
            state["predictor"].tree_.recompile()

    def evaluate(self, state):
        with bench_span("evaluate"):
            state["result"] = state["predictor"].evaluate(state["split"], n_voters=EVAL_VOTERS)

    def replay(self, state):
        with bench_span("replay"):
            state["alerts"], state["events"] = replay(
                state["predictor"], state["dataset"].drives, self.tick_s, self.tick_drives)

    def report(self, state):
        from repro.explain import build_explain_report

        state["report"] = build_explain_report(state["events"])

    def crossfit(self, state):
        from repro.core.sampling import build_training_set
        from repro.explain import crossfit_models
        from repro.tree.classification import ClassificationTree

        config = daily_config()
        split = state["split"]
        training = build_training_set(
            state["predictor"].extractor, split.train_good, split.train_failed,
            config.sampling, failed_share=config.failed_share,
        )
        factory = partial(
            ClassificationTree,
            minsplit=config.minsplit, minbucket=config.minbucket, cp=config.cp,
            criterion=config.criterion,
            loss_matrix=[[0.0, 1.0], [config.false_alarm_loss_weight, 0.0]],
        )
        state["training"] = training
        state["crossfit"] = crossfit_models(
            factory, training.X, training.y, n_folds=CROSSFIT_FOLDS,
            sample_weight=training.sample_weight, seed=self.seed, n_jobs=1,
        )

    def simulate(self, state):
        from repro.explain import simulate_uplift

        training = state["training"]
        names = list(training.feature_names)
        state["uplift"] = simulate_uplift(
            state["crossfit"], training.X, names.index("TC"),
            shifts=TC_SHIFTS, feature_names=names, n_jobs=1,
        )

    def redundancy(self, state):
        from repro.explain import summarize_redundancy

        training = state["training"]
        state["redundancy"] = summarize_redundancy(
            state["crossfit"], training.X, feature_names=training.feature_names)


def check_pass(out: Outcome, state: dict, truth) -> None:
    """The pipeline's output checks; each counts in error_rate."""
    from repro.explain.redundancy import REDUNDANCY_SCHEMA
    from repro.explain.report import EXPLAIN_REPORT_SCHEMA
    from repro.explain.simulate import UPLIFT_SCHEMA

    if "redundancy" not in state:
        return  # a stage failed; already counted
    totals = state["manifest"]["totals"]
    for key, expected in (("n_files", truth.n_files), ("n_rows", truth.n_rows),
                          ("n_drives", truth.n_drives), ("n_failed", truth.n_failed),
                          ("n_skipped_rows", truth.n_bad_rows)):
        out.check(totals.get(key) == expected,
                  f"manifest {key} {totals.get(key)} != dump's {expected}")
    result = state["result"]
    out.check(FDR_BOUNDS[0] <= result.fdr <= FDR_BOUNDS[1], f"FDR {result.fdr} outside {FDR_BOUNDS}")
    out.check(FAR_BOUNDS[0] <= result.far <= FAR_BOUNDS[1], f"FAR {result.far} outside {FAR_BOUNDS}")
    out.check(state["alerts"] > 0, "the replay raised no alert")
    for name, schema in (("report", EXPLAIN_REPORT_SCHEMA), ("uplift", UPLIFT_SCHEMA),
                         ("redundancy", REDUNDANCY_SCHEMA)):
        out.check(state[name].get("schema") == schema,
                  f"{name} schema {state[name].get('schema')!r} != {schema!r}")


def pass_layers(spans: list, registry, n_events: int) -> dict:
    """Per-layer numbers of one traced pass."""
    ingest_s = span_total(spans, "ingest.run")
    rows = counter_total(registry, "ingest.rows")
    serve_ticks = span_total(spans, "serve.tick")
    score = span_total(spans, "score.batch", within="serve.tick")
    return {
        "detection.tick_s": serve_ticks,
        "tree.compiled.score_s": score,
        "detection.columnar.self_s": serve_ticks - score,
        "detection.scored_rows": counter_total(registry, "serve.scored"),
        "detection.alerts": counter_total(registry, "serve.alerts"),
        "detection.vote_flips": counter_total(registry, "serve.vote_flips"),
        "detection.faults": counter_total(registry, "serve.faults"),
        "smart.ingest.run_s": ingest_s,
        "smart.ingest.chunk_s": span_total(spans, "ingest.chunk"),
        "smart.ingest.assemble_s": span_total(spans, "ingest.assemble"),
        "smart.ingest.rows_per_s": rows / ingest_s if ingest_s else 0.0,
        "smart.ingest.rows": rows,
        "smart.ingest.skipped_rows": counter_total(registry, "ingest.skipped_rows"),
        "smart.ingest.load_s": span_total(spans, "perfbench.load"),
        "core.predictor.fit_s": span_total(spans, "perfbench.fit"),
        # Crossfit models grow under explain.crossfit; count the served fit only.
        "tree.fit.grow_s": span_total(spans, "fit.grow", within="perfbench.fit"),
        "tree.compiled.compile_s": span_total(spans, "perfbench.compile"),
        "core.predictor.evaluate_s": span_total(spans, "perfbench.evaluate"),
        "detection.replay_s": span_total(spans, "perfbench.replay"),
        "observability.events": float(n_events),
        "explain.report_s": span_total(spans, "explain.report"),
        "explain.crossfit_s": span_total(spans, "explain.crossfit"),
        "explain.simulate_s": span_total(spans, "explain.simulate"),
        "explain.redundancy_s": span_total(spans, "explain.redundancy"),
        "utils.parallel.tasks": counter_total(registry, "parallel.tasks"),
    }


def run(*, seed: int, seconds: int, trace: bool, scale: str, workdir: Path) -> Outcome:
    from repro import observability as obs

    sc = SCALES[scale]
    passes = max(1, seconds // sc.pass_seconds)
    out = Outcome()
    dump = workdir / "dump"
    for _ in range(sc.setups):
        shutil.rmtree(dump, ignore_errors=True)
        begin = time.perf_counter()
        truth = write_dump(dump, n_drives=sc.n_drives, n_days=sc.n_days,
                           failed_share=sc.failed_share, seed=seed)
        out.setup_s.append(time.perf_counter() - begin)

    def one_pass(tag: str) -> tuple[Pass, float, Optional[int], int]:
        """Run one pass; returns it, its seconds, its alerts and its events."""
        store = workdir / f"store-{tag}"
        timed = Pass(out, dump, store, seed)
        # Every pass starts from the same collector state, so full
        # collections land on the same ticks in every pass and run.
        gc.collect()
        begin = time.perf_counter()
        state = timed.run()
        elapsed = time.perf_counter() - begin
        shutil.rmtree(store, ignore_errors=True)
        check_pass(out, state, truth)
        return timed, elapsed, state.get("alerts"), len(state.get("events", ()))

    # One untimed pass first: lazy imports and the first worker pool
    # would otherwise land in the first timed pass only.
    one_pass("warm")
    alerts = []
    for index in range(passes):
        timed, elapsed, n_alerts, _ = one_pass(f"p{index}")
        out.pipeline_s.append(elapsed)
        out.tick_s += timed.tick_s
        out.tick_drives += timed.tick_drives
        alerts.append(n_alerts)
    out.check(len(set(alerts)) == 1, f"alert counts differ between passes: {alerts}")
    out.peak_rss_mb = peak_rss_mb(reaped=True)
    out.facts.update({
        "dump": {"n_drives": sc.n_drives, "n_days": sc.n_days, "n_rows": truth.n_rows,
                 "n_failed": truth.n_failed, "seed": seed},
        "passes": passes,
        "replay_ticks": len(timed.tick_s),
        "alerts": alerts[0],
        "input_digest": _dump_digest(dump),
    })

    if trace:
        per_pass = []
        tick_s: list = []
        tick_drives: list = []
        for index in range(passes):
            registry, tracer, _ = obs.enable(metrics=True, tracing=True, events=False)
            timed, _, _, n_events = one_pass(f"t{index}")
            spans = tracer.drain()
            per_pass.append(pass_layers(spans, registry, n_events))
            tick_s += timed.tick_s
            tick_drives += timed.tick_drives
            out.spans += spans
        obs.disable()
        out.layers = {key: float(np.median([p[key] for p in per_pass])) for key in per_pass[0]}
        traced = float(np.sum(tick_drives) / np.sum(tick_s)) if tick_s else 0.0
        untraced = out.samples_per_s()
        out.layers["observability.traced_samples_per_s"] = traced
        out.layers["observability.trace_overhead_pct"] = (
            100.0 * (untraced - traced) / untraced if untraced and traced else 0.0)
    return out


def _dump_digest(dump: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(dump.iterdir()):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
