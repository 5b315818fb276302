"""CLAIM-SCALE -- §1/§6: one desktop agent manages hundreds of remote
jobs across many sites.

The paper's headline runs kept ~650 jobs active from a single personal
agent.  We sweep the batch size over a 10-site grid and measure, per
sweep point: completion, peak concurrently ACTIVE remote jobs, the
agent's management efficiency (ideal-makespan / achieved-makespan), and
the simulator's event throughput (a proxy for agent overhead).
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import drain

SITES = 10
CPUS_PER_SITE = 16
RUNTIME = 300.0


def run_point(n_jobs: int):
    import time

    tb = GridTestbed(TestbedConfig(seed=706))
    for i in range(SITES):
        tb.add_site(SiteSpec(f"site{i}", scheduler="pbs", cpus=CPUS_PER_SITE))
    agent = tb.add_agent(AgentSpec("user", broker_kind="userlist"))
    wall0 = time.perf_counter()
    ids = [agent.submit(JobDescription(runtime=RUNTIME))
           for _ in range(n_jobs)]
    drain(tb, lambda: all(agent.status(j).is_terminal for j in ids),
          cap=10**5, chunk=1000.0)
    wall = time.perf_counter() - wall0
    done = sum(1 for j in ids if agent.status(j).is_complete)
    # peak concurrency from the scheduler's ACTIVE transitions
    events = []
    for jid in ids:
        s = agent.status(jid)
        if s.start_time is not None:
            events.append((s.start_time, +1))
            events.append((s.end_time, -1))
    events.sort()
    peak = busy = 0
    for _t, d in events:
        busy += d
        peak = max(peak, busy)
    total_cpu = sum(CPUS_PER_SITE for _ in range(SITES))
    import math

    ideal = math.ceil(n_jobs / total_cpu) * RUNTIME
    ends = [agent.status(j).end_time for j in ids]
    achieved = max(ends) - min(agent.status(j).submit_time for j in ids)
    return {
        "jobs": n_jobs,
        "done": f"{done}/{n_jobs}",
        "peak active": peak,
        "makespan (s)": achieved,
        "efficiency vs ideal": f"{ideal / achieved:.2f}",
        "wall (s)": round(wall, 1),
    }


def run_sweep():
    return [run_point(n) for n in (40, 80, 160, 320)]


def test_claim_single_agent_scaling(benchmark, report):
    rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)
    report.table(
        f"CLAIM-SCALE: one agent, {SITES} sites x {CPUS_PER_SITE} cpus",
        rows, order=["jobs", "done", "peak active", "makespan (s)",
                     "efficiency vs ideal", "wall (s)"])
    for row in rows:
        n = row["jobs"]
        assert row["done"] == f"{n}/{n}"
        assert float(row["efficiency vs ideal"]) > 0.5
    # the agent really did keep hundreds of remote jobs in flight
    assert rows[-1]["peak active"] >= 150
