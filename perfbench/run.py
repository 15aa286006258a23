"""The repository's benchmark: fleet serving and the ingest->explain pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 12 --trace 0

All three workloads, then their per-layer tables::

    for w in serve-steady serve-supervised pipeline; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 12 --trace 0
        python3 perfbench/run.py --workload $w --seed 1 --seconds 12 --trace 1
    done

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve-steady`` -- a fitted CT serves 100k drives through one
  ``FleetMonitor`` (``serve.py``);
* ``serve-supervised`` -- the same ticks through a process-sharded,
  journaled ``SupervisedShardedMonitor`` (``serve.py``);
* ``pipeline`` -- ingest, load, fit, evaluate, replay with events, explain
  (``pipeline.py``).

``--seconds`` sizes the timed work, which lasts about that long at the
baseline rate: serving replays 14 timed ticks per second, the pipeline
times one pass per 2 seconds (after one untimed warm-up pass).  The work
is fixed by ``--seconds`` and ``--seed`` alone, so counts repeat exactly
at a fixed seed.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the same measurement, then a second pass with the
program's tracer and metrics on, prints the per-layer metrics and writes
the spans as a Chrome trace under ``.perfbench_out/``.  The last line of
standard output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``error_rate`` is
``failed / attempted`` over ticks, pipeline stages and output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("serve-steady", "serve-supervised", "pipeline")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long run for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
    }


def run_workload(args: argparse.Namespace, workdir: Path):
    if args.workload == "pipeline":
        import pipeline

        return pipeline.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            scale=args.scale, workdir=workdir)
    import serve

    return serve.run(supervised=args.workload == "serve-supervised", seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace), scale=args.scale,
                     workdir=workdir)


def report(args, outcome, record: dict) -> dict:
    """Print the human-readable table; return the metrics of the result line."""
    from measure import END_TO_END, PER_LAYER

    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"# facts {json.dumps(record['facts'], sort_keys=True)}")
    end_to_end = outcome.end_to_end()
    print(f"{'end-to-end metric':<40} {'value':>16}  unit")
    for name, unit in END_TO_END:
        print(f"{name:<40} {end_to_end[name]:>16.6g}  {unit}")
    error_rate = outcome.failed / outcome.attempted
    print(f"{'error_rate':<40} {error_rate:>16.6g}  ({outcome.failed}/{outcome.attempted})")
    for failure in outcome.failures[:20]:
        print(f"#   failed: {failure}")
    if not args.trace:
        return {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    print(f"\n{'per-layer metric':<40} {'value':>16}  {'unit':<6} should move")
    layers = {}
    for name, unit, moves in PER_LAYER:
        value = float(outcome.layers.get(name, 0.0))
        layers[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>16.6g}  {unit:<6} {moves}")
    print(f"# chrome trace: {record['trace_file']}")
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # Worker processes import the program from the same source tree, and
    # every temporary file stays inside the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    try:
        outcome = run_workload(args, workdir)
        record = {
            "provenance": provenance(args),
            "facts": outcome.facts,
            "end_to_end": outcome.end_to_end(),
            "layers": outcome.layers,
            "setup_s": outcome.setup_s,
            "pipeline_s": outcome.pipeline_s,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "failures": outcome.failures,
            "trace_file": None,
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            from repro.observability import Tracer, write_trace

            tracer = Tracer()
            tracer.spans = list(outcome.spans)
            record["trace_file"] = str(write_trace(OUT_DIR / f"trace-{stem}.json", tracer))
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        metrics = report(args, outcome, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
