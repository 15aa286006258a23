"""Seeded Backblaze-format daily-CSV dumps for the pipeline workload.

One file per day in the public drive-stats schema (``date``,
``serial_number``, ``model``, ``capacity_bytes``, ``failure`` and the
``smart_<id>_<normalized|raw>`` columns the library maps).  Two drive
models stand in for the paper's two families.  Drives are provisioned
late and retired early, so histories start and end at different days,
and a few rows per day are malformed on purpose so the ingest's lenient
ledger has work.  A failing drive degrades over its last days, by a
random amount, on the attributes the paper finds predictive; some
healthy drives carry mild, persistent anomalies and every drive has an
occasional bad day, so the fitted tree has misses and false alarms.

The same ``(n_drives, n_days, seed)`` always writes the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

START = date(2024, 1, 1)

HEADER = (
    "date,serial_number,model,capacity_bytes,failure,"
    "smart_1_normalized,smart_3_normalized,smart_5_normalized,"
    "smart_7_normalized,smart_9_normalized,smart_187_normalized,"
    "smart_189_normalized,smart_194_normalized,smart_195_normalized,"
    "smart_197_normalized,smart_5_raw,smart_197_raw"
)

MODELS = (("ST4000DM000", 4_000_787_030_016), ("ST12000NM0007", 12_000_138_625_024))

# Healthy level and day-to-day noise of each written column, in header
# order, and how far a failing drive's column moves at full stress.
_LEVEL = np.array([115, 95, 100, 88, 96, 100, 100, 80, 98, 100, 0, 0], float)
_NOISE = np.array([3.0, 1.0, 0.3, 2.0, 0.5, 0.2, 0.3, 3.0, 1.5, 0.3, 1.0, 0.5])
_STRESS = np.array([-40, 0, -25, -20, 0, -12, 0, 8, -30, -40, 40, 24], float)

#: Typical days over which a failing drive degrades before it dies.
RAMP_DAYS = 7
#: Share of drive-days that read like a degrading drive for one day.
SPIKE_SHARE = 0.02
#: Malformed rows written per day (a bad date), skipped by lenient ingest.
BAD_ROWS_PER_DAY = 2


@dataclass(frozen=True)
class DumpTruth:
    """What the written dump holds, for checking the ingest against it."""

    n_rows: int
    n_drives: int
    n_failed: int
    n_files: int
    n_bad_rows: int


def write_dump(
    out: Path, *, n_drives: int, n_days: int, failed_share: float, seed: int
) -> DumpTruth:
    """Write ``n_days`` daily CSVs under ``out``; returns their ground truth."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    first = np.where(rng.random(n_drives) < 0.1, rng.integers(1, n_days // 2, n_drives), 0)
    last = np.where(
        rng.random(n_drives) < 0.1, rng.integers(n_days // 2, n_days - 1, n_drives), n_days - 1
    )
    failed = rng.random(n_drives) < failed_share
    # A failure lands late enough for the drive to have a full ramp.
    fail_day = rng.integers(RAMP_DAYS + 2, n_days, n_drives)
    last = np.where(failed, np.maximum(fail_day, first + RAMP_DAYS + 1), last)
    last = np.minimum(last, n_days - 1)
    model = rng.integers(0, len(MODELS), n_drives)
    ramp = rng.integers(3, 2 * RAMP_DAYS, n_drives)
    severity = rng.uniform(0.3, 1.0, n_drives)
    anomalous = (~failed) & (rng.random(n_drives) < 0.1)
    offset = np.where(
        anomalous[:, None],
        rng.uniform(0.1, 0.5, (n_drives, 1)) * (rng.random((n_drives, len(_LEVEL))) < 0.5)
        * _STRESS[None, :],
        0.0,
    )
    serials = [f"PB{seed % 1000:03d}{i:06d}" for i in range(n_drives)]
    prefix = [f"{serials[i]},{MODELS[m][0]},{MODELS[m][1]}" for i, m in enumerate(model)]

    n_rows = 0
    for day in range(n_days):
        stamp = (START + timedelta(days=day)).isoformat()
        active = np.flatnonzero((first <= day) & (day <= last))
        stress = np.where(
            failed[active],
            severity[active]
            * np.clip(1.0 - (last[active] - day) / ramp[active], 0.0, 1.0),
            0.0,
        )
        # Transient bad days on any drive: the source of false alarms.
        spike = rng.random(len(active)) < SPIKE_SHARE
        stress = np.where(spike, np.maximum(stress, rng.uniform(0.2, 0.9, len(active))), stress)
        values = (
            _LEVEL
            + offset[active]
            + stress[:, None] * _STRESS
            + rng.normal(size=(len(active), len(_LEVEL))) * _NOISE
        )
        values[:, 4] -= day / 30.0  # power-on hours age the normalized value
        cells = np.rint(np.maximum(values, 0.0)).astype(np.int64)
        flags = (failed[active] & (last[active] == day)).astype(int)
        lines = [HEADER]
        for row, drive in enumerate(active):
            lines.append(
                f"{stamp},{prefix[drive]},{flags[row]},"
                + ",".join(map(str, cells[row].tolist()))
            )
        for bad in range(BAD_ROWS_PER_DAY):
            lines.append(f"{day:04d}-13-99,PBBAD{bad},{MODELS[0][0]},0,0" + ",0" * 12)
        (out / f"{stamp}.csv").write_text("\n".join(lines) + "\n")
        n_rows += len(active)
    return DumpTruth(
        n_rows=n_rows,
        n_drives=n_drives,
        n_failed=int(failed.sum()),
        n_files=n_days,
        n_bad_rows=BAD_ROWS_PER_DAY * n_days,
    )
