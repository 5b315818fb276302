"""DATA -- the data-aware grid (repro.data) under measurement.

Three storage-equipped sites, a dataset-driven CMS reconstruction pass
(``repro.workloads.cms.DataCMSConfig``), and the question the replica
catalog + data-aware broker exist to answer: how many bytes cross the
WAN when placement knows where the data lives, versus when it doesn't?

Cells:

* ``data-cms``      -- staging-bound workload, data-aware broker
* ``data-blind``    -- the *same* workload, locality-blind queue-aware
  broker (the baseline the data-aware numbers are judged against)
* ``data-compute``  -- compute-bound sibling: placement matters less,
  correctness machinery (staging, checksums, registration) still runs
* ``smoke-data``    -- downsized aware-vs-blind pair for CI

Every cell records its :func:`repro.chaos.digest.run_digest`, which
``check_bench_regression.py`` holds to the committed value
(docs/PERFORMANCE.md).  ``test_locality_reduces_bytes_moved`` then
asserts the headline claim: the data-aware broker moves strictly fewer
bytes than the blind one.

Results land in ``BENCH_data.json`` (committed at the repo root; CI
regenerates the smoke cell and compares digests and wall times via
``benchmarks/check_bench_regression.py``).

Environment knobs:

* ``BENCH_DATA_CELLS`` -- comma-separated subset of cells (default: all).
  CI sets ``smoke-data``.
* ``BENCH_DATA_OUT``   -- where to write the JSON (default: the
  committed ``BENCH_data.json`` at the repo root).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.chaos.digest import run_digest
from repro.grid.metrics import data_rollup
from repro.grid.scenarios import COMPUTE_BOUND_CMS, STAGING_BOUND_CMS, \
    data_cms_grid
from repro.workloads.cms import DataCMSConfig

SEED = 811
CAP = 100_000.0
CHUNK = 2000.0

#: the full-size staging-bound pass: 96 jobs over 12 run files
BENCH_STAGING = DataCMSConfig(
    n_jobs=96, n_run_datasets=12,
    run_size=STAGING_BOUND_CMS.run_size,
    calibration_size=STAGING_BOUND_CMS.calibration_size,
    reco_seconds=STAGING_BOUND_CMS.reco_seconds)

BENCH_COMPUTE = DataCMSConfig(
    n_jobs=96, n_run_datasets=12,
    run_size=COMPUTE_BOUND_CMS.run_size,
    calibration_size=COMPUTE_BOUND_CMS.calibration_size,
    reco_seconds=COMPUTE_BOUND_CMS.reco_seconds)

SMOKE = DataCMSConfig(
    n_jobs=18, n_run_datasets=6,
    run_size=STAGING_BOUND_CMS.run_size,
    calibration_size=STAGING_BOUND_CMS.calibration_size,
    reco_seconds=STAGING_BOUND_CMS.reco_seconds)

#: name -> dict(cms=workload config, broker=broker kind).  The aware vs
#: blind *pairs* share a workload config so their byte counts compare.
CELLS = {
    "data-cms": dict(cms=BENCH_STAGING, broker="data-aware"),
    "data-blind": dict(cms=BENCH_STAGING, broker="queue-aware"),
    "data-compute": dict(cms=BENCH_COMPUTE, broker="data-aware"),
    "smoke-data": dict(cms=SMOKE, broker="data-aware"),
    "smoke-blind": dict(cms=SMOKE, broker="queue-aware"),
}

#: (aware cell, blind cell) pairs the locality assertion runs over
PAIRS = (("data-cms", "data-blind"), ("smoke-data", "smoke-blind"))

_results: dict[str, dict] = {}


def _cells_to_run() -> list[str]:
    raw = os.environ.get("BENCH_DATA_CELLS", "")
    if not raw:
        return list(CELLS)
    return [c.strip() for c in raw.split(",") if c.strip()]


def _out_path() -> Path:
    raw = os.environ.get("BENCH_DATA_OUT", "")
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parent.parent / "BENCH_data.json"


def _nonterminal(tb) -> int:
    return sum(1 for agent in tb.agents.values()
               for j in agent.scheduler.jobs.values()
               if not j.is_terminal)


def _run_cell(cell: str) -> dict:
    """One timed end-to-end run of `cell`; returns wall/digest/rollup."""
    spec = CELLS[cell]
    gc.collect()
    wall0 = time.perf_counter()
    tb = data_cms_grid(seed=SEED, cms=spec["cms"],
                       broker_kind=spec["broker"])
    while tb.sim.now < CAP and _nonterminal(tb):
        tb.run(until=tb.sim.now + CHUNK)
    wall = time.perf_counter() - wall0
    rollup = data_rollup(tb)
    result = {
        "wall_s": round(wall, 2),
        "digest": run_digest(tb),
        "sim_end": tb.sim.now,
        "unfinished": _nonterminal(tb),
        "bytes_moved": rollup["bytes_moved"],
        "transfers": rollup["transfers"],
        "stage_in_hits": rollup["stage_in_hits"],
        "stage_out_bytes": rollup["stage_out_bytes"],
        "locality": rollup["broker_locality"],
    }
    del tb
    gc.collect()
    return result


@pytest.mark.parametrize("cell", list(CELLS))
def test_data_cell(cell, report):
    if cell not in _cells_to_run():
        pytest.skip(f"cell {cell!r} not in BENCH_DATA_CELLS")
    spec = CELLS[cell]
    result = _run_cell(cell)
    assert result["unfinished"] == 0, \
        f"{cell}: {result['unfinished']} jobs unfinished at cap"
    _results[cell] = {
        "jobs": spec["cms"].n_jobs,
        "broker": spec["broker"],
        "optimized_wall_s": result["wall_s"],
        "digest": result["digest"],
        "sim_makespan": result["sim_end"],
        "bytes_moved": result["bytes_moved"],
        "transfers": result["transfers"],
        "stage_in_hits": result["stage_in_hits"],
        "stage_out_bytes": result["stage_out_bytes"],
    }
    report.table(f"DATA {cell}", [{
        "jobs": spec["cms"].n_jobs,
        "broker": spec["broker"],
        "bytes moved": f"{result['bytes_moved'] / 1e6:.0f} MB",
        "wall (s)": result["wall_s"],
    }])


@pytest.mark.parametrize("aware,blind", PAIRS)
def test_locality_reduces_bytes_moved(aware, blind, report):
    """The headline claim: knowing where the replicas are saves WAN bytes.

    Runs after the cell tests (pytest executes in file order), reading
    their recorded rollups; skips when either half of a pair wasn't
    selected.
    """
    if aware not in _results or blind not in _results:
        pytest.skip(f"pair ({aware}, {blind}) not fully measured")
    moved_aware = _results[aware]["bytes_moved"]
    moved_blind = _results[blind]["bytes_moved"]
    assert moved_aware < moved_blind, (
        f"data-aware broker moved {moved_aware:.0f} bytes, locality-blind "
        f"moved {moved_blind:.0f}: locality scoring bought nothing")
    report.table(f"DATA locality: {aware} vs {blind}", [{
        "aware bytes": f"{moved_aware / 1e6:.0f} MB",
        "blind bytes": f"{moved_blind / 1e6:.0f} MB",
        "reduction": f"{(1 - moved_aware / moved_blind) * 100:.0f}%",
    }])


def test_write_results(report):
    """Persist every measured cell (runs last: file order == run order)."""
    if not _results:
        pytest.skip("no data cells ran")
    out = _out_path()
    cells: dict[str, dict] = {}
    if out.exists():
        try:
            cells = json.loads(out.read_text()).get("cells", {})
        except (json.JSONDecodeError, OSError):
            cells = {}
    cells.update(_results)
    payload = {
        "generated_by": "benchmarks/bench_data.py",
        "seed": SEED,
        "cells": cells,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.note("DATA results file", f"wrote {out}")
