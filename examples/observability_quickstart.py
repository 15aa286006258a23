"""Observability quickstart: watch a training-and-serving run from inside.

Enables the recording metrics registry and tracer, runs a small
fit/score/serve pipeline, and writes the three export formats an
operator consumes: the canonical JSON snapshot, the Prometheus text
exposition, and a Chrome-trace timeline.  The same instrumentation is
reachable with zero code via ``repro-experiments --metrics-out``.

Run:
    python examples/observability_quickstart.py

See docs/observability.md for the full metric/span catalog.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro import CTConfig, DriveFailurePredictor, SmartDataset, default_fleet_config
from repro import observability as obs
from repro.detection import FleetMonitor, VoterSpec


def main() -> None:
    # 1. Turn the instruments on.  Until this call every instrumented
    #    site records into shared no-op handles and costs nothing.
    registry, tracer, _ = obs.enable()

    # 2. A small end-to-end run: fit the CT pipeline, evaluate it, and
    #    replay a few hours of streaming telemetry.
    config = default_fleet_config(
        w_good=120, w_failed=16, q_good=0, q_failed=0, collection_days=7, seed=42
    )
    fleet = SmartDataset.generate(config)
    split = fleet.filter_family("W").split(seed=1)
    predictor = DriveFailurePredictor(
        CTConfig(minsplit=4, minbucket=2)
    ).fit(split)                                    # -> fit.* metrics, fit.grow span
    result = predictor.evaluate(split, n_voters=3)  # -> score.*, detect.*
    print(f"Offline evaluation: {result.as_percentages()}")

    monitor = FleetMonitor(                         # -> serve.* metrics
        predictor.extractor.features,
        predictor.tree_.predict,                    # one batch scorer
        VoterSpec("majority", 3),
    )
    drive = split.test_good[0]
    for hour, values in zip(drive.hours[:24], drive.values[:24]):
        monitor.observe(drive.serial, float(hour), np.asarray(values, dtype=float))
    report = monitor.health_report()
    print(f"Health report [{report['schema']}]: "
          f"{report['watched_drives']} drive(s), {report['alerts']} alert(s)")

    # 3. Read the live registry: every name is documented in
    #    docs/observability.md (and enforced by the integration test).
    snapshot = registry.snapshot()
    for name in ("fit.trees", "score.batches", "detect.drives", "serve.ticks"):
        series = snapshot["metrics"][name]["series"]
        print(f"  {name:16s} = {sum(series.values()):.0f}")
    print(f"  spans recorded   = {len(tracer.spans)} "
          f"({', '.join(sorted(tracer.span_names()))})")

    # 4. Export all three formats.
    out = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    obs.write_metrics(out / "metrics.json")   # canonical JSON snapshot
    obs.write_metrics(out / "metrics.prom")   # Prometheus text exposition
    obs.write_trace(out / "trace.json")       # load in chrome://tracing
    document = json.loads((out / "metrics.json").read_text())
    print(f"Exports in {out} (snapshot schema: {document['schema']})")

    # 5. Restore the free no-op instruments.
    obs.disable()


if __name__ == "__main__":
    main()
