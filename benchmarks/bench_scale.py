"""SCALE -- the paper's §6 runs at 10x, 100x and 1000 clients.

The paper's largest runs kept ~650 jobs in flight; this suite pushes the
same machinery to 10k jobs over 20 x 50-cpu sites, once down the GRAM
path (grid universe, userlist broker) and once down the GlideIn path
(vanilla universe on 1000 glideins); ``gram-monitor`` repeats the GRAM
cell with the §5.1 Grid Monitor batching site status into per-interval
reports, ``scale-100k`` drives 100,000 monitored GRAM jobs over 25
sites (the poll storm that made monitoring necessary), ``scale-100k-pool``
drives 100,000 jobs through a claim-reusing personal pool, and
``kiloclient`` runs 1000 independent Condor-G agents against shared
fair-share sites.  Each cell records its
:func:`repro.chaos.digest.run_digest`; ``check_bench_regression.py``
requires a fresh run to reproduce the committed digest, so a change may
alter wall time but never behaviour without re-pinning the cell.

Every run also tallies wire RPCs (``repro.sim.rpc.RPC_STATS`` -- plain
bookkeeping, digest-neutral) so monitored cells record how many
status/probe RPCs the Grid Monitor actually replaced.

Results land in ``BENCH_scale.json`` (committed at the repo root; CI
regenerates a downsized cell and compares against it, see
``benchmarks/check_bench_regression.py``).

Environment knobs:

* ``BENCH_SCALE_CELLS`` -- comma-separated subset of cells to run
  (default: all).  CI sets ``smoke-gram,smoke-pool``.
* ``BENCH_SCALE_OUT``   -- where to write the JSON (default: the
  committed ``BENCH_scale.json`` at the repo root).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.chaos.digest import run_digest
from repro.grid.scenarios import kiloclient_grid, scale_glidein_grid, \
    scale_gram_grid, scale_pool_grid
from repro.sim import rpc
from repro.states import is_terminal

SEED = 706
CAP = 60_000.0
CHUNK = 2000.0

#: name -> dict(build=scenario builder, kwargs=..., queues=which job
#: queues hold the *workload* (glidein pilots in the grid queue never
#: terminate and are infrastructure, not workload), cap=..., chunk=...
CELLS = {
    "gram": dict(build=scale_gram_grid,
                 kwargs=dict(jobs=10_000, n_sites=20, cpus=50),
                 queues=("grid",)),
    "gram-monitor": dict(build=scale_gram_grid,
                         kwargs=dict(jobs=10_000, n_sites=20, cpus=50,
                                     grid_monitor=True),
                         queues=("grid",)),
    "glidein": dict(build=scale_glidein_grid,
                    kwargs=dict(jobs=10_000, n_sites=20,
                                glideins_per_site=50),
                    queues=("condor",)),
    "scale-100k": dict(build=scale_gram_grid,
                       kwargs=dict(jobs=100_000, n_sites=25, cpus=200,
                                   grid_monitor=True,
                                   runtime_base=30.0, runtime_step=2.0),
                       queues=("grid",), cap=200_000.0, chunk=5_000.0),
    "scale-100k-pool": dict(build=scale_pool_grid,
                            kwargs=dict(jobs=100_000, n_sites=25,
                                        glideins_per_site=100),
                            queues=("condor",), cap=200_000.0,
                            chunk=5_000.0),
    "kiloclient": dict(build=kiloclient_grid,
                       kwargs=dict(users=1000, jobs_per_user=10,
                                   n_sites=20, cpus=50),
                       queues=("grid",), cap=200_000.0, chunk=5_000.0),
    "smoke-gram": dict(build=scale_gram_grid,
                       kwargs=dict(jobs=400, n_sites=5, cpus=20),
                       queues=("grid",)),
    "smoke-gram-monitor": dict(build=scale_gram_grid,
                               kwargs=dict(jobs=400, n_sites=5, cpus=20,
                                           grid_monitor=True),
                               queues=("grid",)),
    "smoke-pool": dict(build=scale_pool_grid,
                       kwargs=dict(jobs=600, n_sites=4,
                                   glideins_per_site=10),
                       queues=("condor",), cap=20_000.0, chunk=1_000.0),
}

#: RPC methods that make up the GRAM status path: what the Grid Monitor
#: exists to collapse (per-job ``status`` probes) and what it replaces
#: them with (batched reports + launch requests).
_STATUS_METHODS = ("status",)
_MONITOR_METHODS = ("monitor_report", "start_monitor")


def _cell_jobs(cell: str) -> int:
    kwargs = CELLS[cell]["kwargs"]
    if "jobs" in kwargs:
        return kwargs["jobs"]
    return kwargs["users"] * kwargs["jobs_per_user"]

_results: dict[str, dict] = {}


def _cells_to_run() -> list[str]:
    raw = os.environ.get("BENCH_SCALE_CELLS", "")
    if not raw:
        return list(CELLS)
    return [c.strip() for c in raw.split(",") if c.strip()]


def _out_path() -> Path:
    raw = os.environ.get("BENCH_SCALE_OUT", "")
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def _build(cell: str):
    spec = CELLS[cell]
    return spec["build"](seed=SEED, **spec["kwargs"])


def _nonterminal(tb, queues) -> int:
    """Open workload jobs across every agent's listed queue kinds."""
    total = 0
    for agent in tb.agents.values():
        schedd = getattr(agent, "schedd", None)
        if "condor" in queues and schedd is not None:
            total += sum(1 for j in schedd.jobs.values()
                         if not is_terminal(j.state))
        scheduler = getattr(agent, "scheduler", None)
        if "grid" in queues and scheduler is not None:
            total += sum(1 for j in scheduler.jobs.values()
                         if not j.is_terminal)
    return total


def _run_cell(cell: str) -> dict:
    """One timed end-to-end run of `cell`; returns wall/digest/shape."""
    spec = CELLS[cell]
    cap = spec.get("cap", CAP)
    chunk = spec.get("chunk", CHUNK)
    queues = spec["queues"]
    gc.collect()
    rpc.RPC_STATS = {}
    try:
        wall0 = time.perf_counter()
        tb = _build(cell)
        while tb.sim.now < cap and _nonterminal(tb, queues):
            tb.run(until=tb.sim.now + chunk)
        wall = time.perf_counter() - wall0
        stats = rpc.RPC_STATS
    finally:
        rpc.RPC_STATS = None
    result = {
        "wall_s": round(wall, 2),
        "digest": run_digest(tb),
        "sim_end": tb.sim.now,
        "unfinished": _nonterminal(tb, queues),
        "status_rpcs": sum(v for (s, m), v in stats.items()
                           if m in _STATUS_METHODS),
        "monitor_rpcs": sum(v for (s, m), v in stats.items()
                            if m in _MONITOR_METHODS),
    }
    del tb
    gc.collect()
    return result


@pytest.mark.parametrize("cell", list(CELLS))
def test_scale_cell(cell, report):
    if cell not in _cells_to_run():
        pytest.skip(f"cell {cell!r} not in BENCH_SCALE_CELLS")
    spec = CELLS[cell]
    kwargs = spec["kwargs"]
    result = _run_cell(cell)
    assert result["unfinished"] == 0, \
        f"{cell}: {result['unfinished']} jobs unfinished at cap"
    _results[cell] = {
        **kwargs,
        "optimized_wall_s": result["wall_s"],
        "digest": result["digest"],
        "sim_makespan": result["sim_end"],
        "status_rpcs": result["status_rpcs"],
        "monitor_rpcs": result["monitor_rpcs"],
    }
    row = {
        "jobs": _cell_jobs(cell),
        "sites": kwargs["n_sites"],
        "wall (s)": result["wall_s"],
        "status RPCs": result["status_rpcs"],
        "monitor RPCs": result["monitor_rpcs"],
    }
    report.table(f"SCALE {cell}: kernel measurements", [row])


def test_write_results(report):
    """Persist every measured cell (runs last: file order == run order)."""
    if not _results:
        pytest.skip("no scale cells ran")
    out = _out_path()
    cells: dict[str, dict] = {}
    if out.exists():
        # Partial runs (BENCH_SCALE_CELLS) refresh only their cells;
        # the other committed cells survive.
        try:
            cells = json.loads(out.read_text()).get("cells", {})
        except (json.JSONDecodeError, OSError):
            cells = {}
    cells.update(_results)
    # The Grid Monitor's reason to exist: same workload, ~>=10x fewer
    # status-path RPCs.  Record the ratio whenever both halves of a
    # monitored/unmonitored pair have been measured (this run or a
    # previous one -- partial BENCH_SCALE_CELLS runs merge).
    for moff, mon in (("gram", "gram-monitor"),
                      ("smoke-gram", "smoke-gram-monitor")):
        if moff in cells and mon in cells \
                and "status_rpcs" in cells[moff] \
                and "status_rpcs" in cells[mon]:
            before = cells[moff]["status_rpcs"]
            after = max(cells[mon]["status_rpcs"]
                        + cells[mon]["monitor_rpcs"], 1)
            cells[mon]["rpc_reduction_vs_" + moff] = \
                round(before / after, 1)
    payload = {
        "generated_by": "benchmarks/bench_scale.py",
        "seed": SEED,
        "cells": cells,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.note("SCALE results file", f"wrote {out}")
