"""Measurement plumbing shared by the workloads.

Timings of the timed calls come from ``time.perf_counter`` around each
call.  Per-layer numbers come from the program's own tracer spans and
metric counters (``repro.observability``), read only in the traced
run, plus the few spans this benchmark opens itself around public calls
that carry no span (``perfbench.*``).  Memory comes from ``/proc``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

#: End-to-end metrics: (name, unit).  The tick metrics time each
#: ``observe_tick`` call: the timed ticks on the serve workloads, the
#: replay stage's ticks (event log recording) on ``pipeline``.
#: ``pipeline_s`` is the wall time of the timed work: one ingest->explain
#: pass on ``pipeline`` (median over passes), the sum of the timed ticks
#: on the serve workloads.  ``error_rate`` is the result line's
#: ``failed / attempted``, not a metric, because it is 0 when all is well.
END_TO_END = (
    ("setup_s", "s"),
    ("serve_samples_per_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p95", "ms"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit, the end-to-end metric it should move
#: and on which workload).  Metrics that do not apply to a workload read 0.
PER_LAYER = (
    ("detection.tick_s", "s", "tick_ms_p50 on serve-*"),
    # Tick time minus scoring; on serve-supervised, summed over both shards.
    ("detection.columnar.self_s", "s",
     "serve_samples_per_s, tick_ms_p50 on serve-steady; less on serve-supervised"),
    ("tree.compiled.score_s", "s", "serve_samples_per_s on serve-* (small share)"),
    ("detection.scored_rows", "count", "none: repeats exactly at a fixed seed"),
    ("detection.alerts", "count", "none: repeats exactly at a fixed seed"),
    ("detection.vote_flips", "count", "none: repeats exactly at a fixed seed"),
    ("detection.faults", "count", "none: repeats exactly at a fixed seed"),
    ("detection.sharded.coordinator_s", "s", "serve_samples_per_s on serve-supervised"),
    ("detection.sharded.shard_tick_s", "s", "serve_samples_per_s on serve-supervised"),
    ("detection.sharded.shard_skew", "ratio", "tick_ms_p95 on serve-supervised"),
    ("utils.parallel.ipc_bytes", "B", "serve_samples_per_s on serve-supervised"),
    ("detection.supervision.journal_append_s", "s", "tick_ms_p50 on serve-supervised"),
    ("detection.supervision.journal_bytes", "B", "tick_ms_p50 on serve-supervised"),
    ("detection.rss_growth_mb", "MB", "peak_rss_mb on serve-*"),
    ("smart.ingest.run_s", "s", "pipeline_s on pipeline"),
    ("smart.ingest.chunk_s", "s", "pipeline_s on pipeline"),
    ("smart.ingest.assemble_s", "s", "pipeline_s on pipeline"),
    ("smart.ingest.rows_per_s", "1/s", "pipeline_s on pipeline"),
    ("smart.ingest.rows", "count", "none: repeats exactly at a fixed seed"),
    ("smart.ingest.skipped_rows", "count", "none: repeats exactly at a fixed seed"),
    ("smart.ingest.load_s", "s", "pipeline_s on pipeline"),
    ("core.predictor.fit_s", "s", "pipeline_s on pipeline; setup_s on serve-*"),
    ("tree.fit.grow_s", "s", "pipeline_s on pipeline; setup_s on serve-*"),
    ("tree.compiled.compile_s", "s", "pipeline_s on pipeline; setup_s on serve-*"),
    ("core.predictor.evaluate_s", "s", "pipeline_s on pipeline"),
    ("detection.replay_s", "s", "pipeline_s on pipeline"),
    ("observability.events", "count", "pipeline_s on pipeline"),
    ("explain.report_s", "s", "pipeline_s on pipeline"),
    ("explain.crossfit_s", "s", "pipeline_s on pipeline"),
    ("explain.simulate_s", "s", "pipeline_s on pipeline"),
    ("explain.redundancy_s", "s", "pipeline_s on pipeline"),
    ("utils.parallel.tasks", "count", "pipeline_s on pipeline"),
    ("observability.traced_samples_per_s", "1/s", "none: serving rate with tracing on"),
    ("observability.trace_overhead_pct", "%", "none: untraced minus traced serving rate"),
)


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    setup_s: list = field(default_factory=list)
    tick_s: list = field(default_factory=list)
    tick_drives: list = field(default_factory=list)
    pipeline_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def samples_per_s(self) -> float:
        return float(np.sum(self.tick_drives) / np.sum(self.tick_s)) if self.tick_s else 0.0

    def end_to_end(self) -> dict:
        """The end-to-end metrics; 0 where a failed stage left nothing to time."""
        ticks_ms = np.asarray(self.tick_s or [0.0]) * 1e3
        return {
            "setup_s": float(np.median(self.setup_s)),
            "serve_samples_per_s": self.samples_per_s(),
            "tick_ms_p50": float(np.percentile(ticks_ms, 50)),
            "tick_ms_p95": float(np.percentile(ticks_ms, 95)),
            "pipeline_s": float(np.median(self.pipeline_s or [0.0])),
            "peak_rss_mb": self.peak_rss_mb,
        }


# -- spans --------------------------------------------------------------------

@contextmanager
def bench_span(name: str, **args):
    """A span of this benchmark's own around a public call with no span."""
    from repro.observability import get_tracer

    with get_tracer().span(f"perfbench.{name}", category="perfbench", **args):
        yield


def span_total(spans: Iterable, name: str, *, within: Optional[str] = None) -> float:
    """Summed wall seconds of spans called ``name`` (under ``within`` if given)."""
    return float(sum(
        s.dur_s for s in spans
        if s.name == name and (within is None or within in s.path.split("/")[:-1])
    ))


def counter_total(registry, name: str) -> float:
    """A counter's value summed over its label series (0 when never touched)."""
    entry = registry.snapshot().get("metrics", {}).get(name)
    return float(sum(entry["series"].values())) if entry else 0.0


def shard_breakdown(spans: list) -> dict:
    """The slowest shard's time and the shards' skew, per sharded tick.

    A shard's ``shard.tick`` spans are absorbed into the coordinator's
    tracer before the enclosing ``serve.tick`` span closes, so in
    recording order each ``serve.tick`` follows the shard spans it waited
    for.  Skew is the mean over ticks of (slowest - fastest) / slowest.
    """
    slowest_total = 0.0
    skews = []
    pending: list[float] = []
    for span in spans:
        if span.name == "shard.tick":
            pending.append(span.dur_s)
        elif span.name == "serve.tick" and pending:
            slowest = max(pending)
            slowest_total += slowest
            skews.append((slowest - min(pending)) / slowest if slowest > 0 else 0.0)
            pending = []
    return {
        "detection.sharded.shard_tick_s": slowest_total,
        "detection.sharded.shard_skew": float(np.mean(skews)) if skews else 0.0,
    }


# -- memory -------------------------------------------------------------------

def _status_kb(pid: int, key: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found += [int(p) for p in task.read_text().split()]
        except OSError:
            continue
    return found


def rss_mb(key: str = "VmRSS") -> float:
    """This process plus its live children, in MB (``VmHWM`` for peaks)."""
    pids = [os.getpid()] + _children(os.getpid())
    return sum(_status_kb(pid, key) for pid in pids) / 1024.0


def peak_rss_mb(*, reaped: bool) -> float:
    """High-water RSS of this process and its live children, in MB.

    ``reaped`` adds the largest child already waited for (the pool
    workers of a finished fan-out); leave it out where earlier set-ups
    left workers that the measured run never used.
    """
    import resource

    extra = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if reaped else 0.0
    return rss_mb("VmHWM") + extra
