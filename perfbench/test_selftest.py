"""Self-test of the benchmark at tiny scale (about a minute on two cores).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted, that a
new seed changes the inputs, that the work counts repeat exactly at a
fixed seed, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer counts that must repeat exactly at a fixed seed.
COUNTS = (
    "detection.scored_rows", "detection.alerts", "detection.vote_flips", "detection.faults",
    "utils.parallel.ipc_bytes", "detection.supervision.journal_bytes",
    "smart.ingest.rows", "smart.ingest.skipped_rows", "observability.events",
    "utils.parallel.tasks",
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@lru_cache(maxsize=None)
def result(workload: str, seed: int, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """``(result line, facts)`` of one tiny run (``repeat`` forces a rerun)."""
    done = _run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    facts = next(json.loads(line[len("# facts "):]) for line in lines
                 if line.startswith("# facts "))
    return json.loads(lines[-1]), facts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = result(workload, 1, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        named = {metric["name"]: metric["unit"] for metric in SPEC[key]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == named
    end_to_end, _ = result(workload, 1, 0)
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_new_seed_changes_the_inputs(workload):
    _, first = result(workload, 1, 0)
    _, second = result(workload, 2, 0)
    assert first["input_digest"] != second["input_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_a_fixed_seed(workload):
    first, _ = result(workload, 1, 1)
    again, _ = result(workload, 1, 1, repeat=1)
    counts = {name: first["metrics"][name]["value"] for name in COUNTS}
    assert counts == {name: again["metrics"][name]["value"] for name in COUNTS}
    assert first["attempted"] == again["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    done = _run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
