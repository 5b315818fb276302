"""The scheduler's incremental indexes against plain filters over its queue.

``CondorGScheduler`` keeps nonterminal/unsubmitted/watchable/jmid views
of ``scheduler.jobs`` up to date on every persist, and the GridManager
loops read only those views.  These tests step faulty runs in small
slices and, at every step, hold each view to the brute-force filter it
replaces.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.core import job as J
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.grid.scenarios import get_scenario

_INFLIGHT = (J.STAGING, J.SUBMITTING, J.PENDING, J.ACTIVE)


def _ids(jobs):
    return [job.job_id for job in jobs]


def check_indexes(sched, seen_jmids):
    """Compare every index with its filter; `seen_jmids` collects every
    jmid observed so far, so superseded ones must map to no job."""
    jobs = sorted(sched.jobs.values(), key=lambda j: j.job_id)
    watchable = [j for j in jobs
                 if j.committed and j.jmid and not j.is_terminal
                 and j.state in (J.PENDING, J.ACTIVE)]
    nonterminal = [j for j in jobs if not j.is_terminal]

    assert _ids(sched.jobs_for_user()) == _ids(jobs)
    assert _ids(sched.watchable_jobs()) == _ids(watchable)
    assert sched.watchable_count() == len(watchable)
    assert _ids(sched.nonterminal_jobs()) == _ids(nonterminal)
    assert sched.nonterminal_count() == len(nonterminal)
    assert sched.unsubmitted_count() == \
        sum(1 for j in jobs if j.state == J.UNSUBMITTED)
    assert sched.all_terminal() == all(j.is_terminal for j in jobs)
    seen_jmids.update(j.jmid for j in jobs if j.jmid)
    for jmid in seen_jmids:
        owner = [j for j in jobs if j.jmid == jmid]
        assert sched.job_by_jmid(jmid) is (owner[0] if owner else None)
    assert sched.job_by_jmid("no-such-jobmanager") is None
    for resource in {j.resource for j in jobs if j.resource}:
        assert sched.inflight_on(resource) == sum(
            1 for j in jobs if j.resource == resource
            and not j.is_terminal and j.state in _INFLIGHT)


def _faulty_gram(seed):
    """Two sites, early partitions (one fails a committed job's
    stage-in, so it is resubmitted under a fresh jmid), a JobManager
    kill and a gatekeeper reboot for the indexes to follow."""
    tb = GridTestbed(TestbedConfig(seed=seed))
    for name in ("s0", "s1"):
        tb.add_site(SiteSpec(name, scheduler="pbs", cpus=3))
    agent = tb.add_agent(AgentSpec("alice"))
    for i in range(10):
        agent.submit(JobDescription(runtime=150.0 + 20.0 * i),
                     resource=f"s{i % 2}-gk")
    s0, s1 = tb.sites["s0"], tb.sites["s1"]
    tb.failures.partition_at(0.2, agent.host.name, s0.gk_host.name,
                             heal_after=100.0)
    tb.failures.partition_at(0.8, agent.host.name, s1.gk_host.name,
                             heal_after=100.0)
    tb.failures.crash_service_at(120.0, s1.gk_host, "jm:")
    tb.failures.crash_host_at(200.0, s0.gk_host, down_for=150.0)
    return tb


TESTBEDS = {
    "faulty-gram": _faulty_gram,
    "credential": lambda seed: get_scenario("credential").build(seed),
    "three-site": lambda seed: get_scenario("three-site").build(seed),
}


@pytest.mark.parametrize("name", sorted(TESTBEDS))
def test_indexes_match_queue_filters(name):
    tb = TESTBEDS[name](4)
    checked = 0
    seen_jmids = set()
    while tb.sim.now < 3000.0:
        tb.run(until=tb.sim.now + 15.0)
        for agent in tb.agents.values():
            if agent.scheduler is not None:
                check_indexes(agent.scheduler, seen_jmids)
                checked += 1
    assert checked
    if name == "faulty-gram":
        assert tb.sim.trace.select("gridmanager", "resubmit")
