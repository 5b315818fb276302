"""The benchmark's four grid workloads, and how one run is driven.

Each workload is a function ``build(seed) -> GridTestbed`` that builds
the topology and submits every workload job as one batch at simulated
t=0, plus a description of which jobs are *workload* jobs (GlideIn
pilots are not).  :func:`drive` advances the simulator until every
workload job is terminal; :func:`settle` then lets the grid wind down
(pilots retire, monitors go idle) so the invariant suite sees a
quiescent testbed.

Everything here uses the repository's public API only
(``repro.grid``, ``repro.chaos``, ``repro.core``); nothing under
``src/`` is patched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import JobDescription
from repro.chaos.plan import FaultPlan, PlannedFault
from repro.core.scheduler import CondorGScheduler, install_recovery
from repro.gass.server import GassServer
from repro.grid.config import AgentSpec, TestbedConfig
from repro.grid.scenarios import multiuser_gram_grid, scale_gram_grid, \
    scale_sites
from repro.grid.testbed import GridTestbed
from repro.states import JobState

#: simulated seconds between "is every workload job terminal?" checks
STEP = 20.0
#: simulated-seconds cap; a run that has not finished by then fails
CAP = 50_000.0
#: simulated seconds per slice of a run (``drive(between=...)``)
LAP = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    build: Callable[[int], GridTestbed]
    #: "grid" (GRAM jobs in the agents' schedulers) or "vanilla"
    #: (jobs in the agents' personal-pool schedds)
    kind: str = "grid"


# -- gram-monitor ---------------------------------------------------------------

GRAM_MONITOR_JOBS = 1000


def build_gram_monitor(seed: int) -> GridTestbed:
    """One agent, Grid-Monitor GRAM jobs round-robin over 20 sites."""
    return scale_gram_grid(seed=seed, jobs=GRAM_MONITOR_JOBS, n_sites=20,
                           cpus=20, grid_monitor=True)


# -- glidein-pool ----------------------------------------------------------------

GLIDEIN_JOBS = 1000
GLIDEIN_SITES = 10
GLIDEINS_PER_SITE = 25
#: pilots retire after this long without work, so the pool drains once
#: the workload is done (the walltime never binds)
PILOT_IDLE_TIMEOUT = 300.0


def build_glidein_pool(seed: int) -> GridTestbed:
    """Vanilla jobs negotiated per job onto a GlideIn personal pool."""
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        trace_max_records=200_000,
        sites=scale_sites(GLIDEIN_SITES, cpus=GLIDEINS_PER_SITE),
        agents=(AgentSpec("scale"),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["scale"]
    for site in tb.sites.values():
        agent.glide_in(site.contact, count=GLIDEINS_PER_SITE,
                       walltime=100_000.0, idle_timeout=PILOT_IDLE_TIMEOUT)
    for i in range(GLIDEIN_JOBS):
        agent.submit(JobDescription(executable="mw.exe", universe="vanilla",
                                    runtime=30.0 + 1.0 * (i % 40)))
    return tb


# -- gram-faults -----------------------------------------------------------------

GRAM_FAULTS_JOBS = 1000
#: fixed fault counts; only targets and times come from the seed
FAULT_COUNTS = (("crash", 2), ("partition", 2), ("jm_kill", 3),
                ("monitor_kill", 2))
FAULT_WINDOW = (50.0, 600.0)
SUBMIT_CRASH_WINDOW = (150.0, 450.0)


def fault_plan(tb: GridTestbed, seed: int) -> FaultPlan:
    """The seed's fault plan for a gram-faults testbed."""
    rng = random.Random(f"perfbench-faults-{seed}")
    agent = tb.agents["scale"]
    gatekeepers = sorted(site.gk_host.name for site in tb.sites.values())
    events = []
    for kind, count in FAULT_COUNTS:
        for target in rng.sample(gatekeepers, count):
            when = round(rng.uniform(*FAULT_WINDOW), 3)
            duration = None
            if kind in ("crash", "partition"):
                duration = round(rng.uniform(60.0, 240.0), 3)
            if kind == "partition":
                target = f"{agent.host.name}|{target}"
            events.append(PlannedFault(when, kind, target, duration))
    events.append(PlannedFault(round(rng.uniform(*SUBMIT_CRASH_WINDOW), 3),
                               "crash", agent.host.name,
                               round(rng.uniform(60.0, 180.0), 3)))
    events.sort(key=lambda ev: (ev.time, ev.kind, ev.target))
    return FaultPlan(events=events)


def _rebuild_queue_on_boot(tb: GridTestbed, user: str) -> None:
    """The operator's init script: restart the agent's GASS server and
    rebuild its queue from disk (both read back from stable storage)."""
    agent = tb.agents[user]
    old = agent.scheduler
    gass_name = agent.gass.name

    def make_scheduler() -> None:
        agent.gass = GassServer(agent.host, name=gass_name)
        agent.scheduler = CondorGScheduler(
            agent.host, user, broker=old.broker,
            notifier=old.notifier, userlog=old.userlog,
            max_submitted_per_resource=old.max_submitted_per_resource,
            grid_monitor=old.grid_monitor)

    install_recovery(agent.host, make_scheduler)


def build_gram_faults(seed: int) -> GridTestbed:
    """Monitored GRAM under a seeded plan of the four failure classes."""
    tb = scale_gram_grid(seed=seed, jobs=GRAM_FAULTS_JOBS, n_sites=20,
                         cpus=20, grid_monitor=True)
    _rebuild_queue_on_boot(tb, "scale")
    fault_plan(tb, seed).apply(tb)
    return tb


# -- many-agents -----------------------------------------------------------------

MANY_USERS = 100
MANY_JOBS_PER_USER = 10
MANY_SITES = 5


def build_many_agents(seed: int) -> GridTestbed:
    """Many agents, a few unmonitored GRAM jobs each, per-user caps."""
    return multiuser_gram_grid(
        seed=seed, users=MANY_USERS, jobs_per_user=MANY_JOBS_PER_USER,
        n_sites=MANY_SITES, cpus=100, max_user_jobmanagers=1,
        max_submitted_per_resource=2)


WORKLOADS = {w.name: w for w in (
    Workload("gram-monitor", GRAM_MONITOR_JOBS, build_gram_monitor),
    Workload("glidein-pool", GLIDEIN_JOBS, build_glidein_pool,
             kind="vanilla"),
    Workload("gram-faults", GRAM_FAULTS_JOBS, build_gram_faults),
    Workload("many-agents", MANY_USERS * MANY_JOBS_PER_USER,
             build_many_agents),
)}


# -- driving a run ---------------------------------------------------------------

def workload_jobs(tb: GridTestbed, workload: Workload) -> list:
    """Every workload job record (GlideIn pilots excluded)."""
    out = []
    for agent in tb.agents.values():
        if workload.kind == "vanilla":
            out.extend(agent.schedd.jobs.values())
        else:
            pilots = set(agent.glideins.submitted) \
                if agent.glideins is not None else set()
            out.extend(job for job in agent.scheduler.jobs.values()
                       if job.job_id not in pilots)
    return out


def _terminal(job) -> bool:
    return job.state in (JobState.DONE, JobState.FAILED,
                         JobState.COMPLETED, JobState.REMOVED)


def all_terminal(tb: GridTestbed, workload: Workload) -> bool:
    return all(_terminal(job) for job in workload_jobs(tb, workload))


def drive(tb: GridTestbed, workload: Workload, between=None) -> None:
    """Run until every workload job is terminal (or the cap).

    With ``between``, the run goes in slices of ``LAP`` simulated
    seconds and ``between()`` is called after each one.
    """
    sim = tb.sim
    while sim.now < CAP and not all_terminal(tb, workload):
        end = sim.now + STEP
        if between is None:
            sim.run(until=end)
            continue
        while sim.now < end:
            sim.run(until=min(end, sim.now + LAP))
            between()


def settle(tb: GridTestbed) -> None:
    """Let pilots retire and queues go quiescent before the invariants."""
    sim = tb.sim

    def quiet() -> bool:
        for agent in tb.agents.values():
            if any(not job.is_terminal and job.state != JobState.HELD
                   for job in agent.scheduler.jobs.values()):
                return False
        return True

    while sim.now < CAP and not quiet():
        sim.run(until=sim.now + STEP)
