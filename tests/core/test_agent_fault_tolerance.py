"""Agent-level fault tolerance: the four §4.2 failure classes, driven by
the GridManager's own probing/restart machinery (no manual recovery)."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=8, **kw):
    tb = GridTestbed(TestbedConfig(seed=seed, **kw))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
    return tb


def jm_services(tb, site="wisc"):
    gk = tb.sites[site].gk_host
    return [s for name, s in gk.services.items() if name.startswith("jm:")]


def test_class1_jobmanager_crash_auto_restarted():
    """GridManager probes, notices the dead JobManager, and restarts it
    via the gatekeeper -- job completes without user action."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0),
                       resource="wisc-gk")
    tb.run(until=100.0)
    jms = jm_services(tb)
    assert len(jms) == 1
    jms[0].crash()
    tb.run_until_quiet(max_time=5000.0)
    assert agent.status(jid).is_complete
    assert tb.sim.trace.select("gridmanager", "jobmanager_restarted")
    assert len(tb.sites["wisc"].lrm.jobs) == 1       # exactly once


def test_class2_remote_machine_crash_recovered():
    """The whole gatekeeper machine reboots; the agent reconnects."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=400.0),
                       resource="wisc-gk")
    tb.run(until=100.0)
    tb.failures.crash_host_at(100.0, tb.sites["wisc"].gk_host,
                              down_for=120.0)
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete
    assert len(tb.sites["wisc"].lrm.jobs) == 1
    # while the machine was down the agent observed unreachability
    assert tb.sim.trace.select("gridmanager", "resource_unreachable")


def test_class3_submit_machine_crash_recovers_from_queue():
    """The submit machine reboots; the recovered agent reconnects to the
    running remote job via the persisted queue (seq + jmid)."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=600.0),
                       resource="wisc-gk")
    tb.run(until=150.0)
    assert agent.status(jid).state == "ACTIVE"
    submit_host = agent.host
    submit_host.crash()
    tb.run(until=250.0)
    submit_host.restart()
    # Rebuild the queue from stable storage on the same machine (the
    # boot path an operator's init script would run): the recovered
    # scheduler spawns a GridManager that reconnects to the live job.
    from repro.core.scheduler import CondorGScheduler
    scheduler = CondorGScheduler(submit_host, "alice")
    assert jid in scheduler.jobs
    job = scheduler.jobs[jid]
    assert job.committed and job.jmid        # protocol state survived
    tb.sim.run(until=5000.0)
    assert scheduler.jobs[jid].state == "DONE"
    assert len(tb.sites["wisc"].lrm.jobs) == 1    # no duplicate


def test_class4_network_partition_heals():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0),
                       resource="wisc-gk")
    tb.run(until=100.0)
    tb.failures.partition_at(100.0, agent.host.name, "wisc-gk",
                             heal_after=400.0)
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete
    assert len(tb.sites["wisc"].lrm.jobs) == 1


def test_job_finishing_during_partition_not_lost():
    """'the JobManager exited normally (because the job completed during
    a network failure)... the new JobManager will tell the GridManager
    that the job has completed.'"""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=100.0),
                       resource="wisc-gk")
    tb.run(until=50.0)
    tb.failures.partition_at(50.0, agent.host.name, "wisc-gk",
                             heal_after=500.0)   # job ends at ~100
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete


def test_gatekeeper_crash_before_commit_no_duplicate():
    """Crash in the 2PC window: the uncommitted JobManager is lost with
    the machine; the agent retries the same submission; exactly one LRM
    job results."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    # crash the gatekeeper the instant the submit request would arrive
    tb.failures.crash_host_at(0.5, tb.sites["wisc"].gk_host,
                              down_for=60.0)
    jid = agent.submit(JobDescription(runtime=100.0),
                       resource="wisc-gk")
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete
    assert len(tb.sites["wisc"].lrm.jobs) == 1


def test_submit_host_crash_after_commit_before_persist_runs_once(
        monkeypatch):
    """The JobManager receives the commit, then the submit host crashes
    before it persists ``committed``: the recovered agent retries with
    the stored seq, the gatekeeper hands back the committed JobManager,
    and the job runs exactly once."""
    from repro.core.scheduler import CondorGScheduler
    from repro.gass.server import GassServer
    from repro.gram.jobmanager import JobManager

    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    submit_host = agent.host
    stored = {}
    recovered = []

    def reboot():
        # The init script: the GASS server the JobManager stages from,
        # then the queue rebuilt from stable storage.
        submit_host.restart()
        GassServer(submit_host, name=agent.gass.name)
        recovered.append(CondorGScheduler(submit_host, "alice"))

    commit = JobManager.handle_commit

    def commit_then_crash(self, ctx):
        if not stored:
            [job] = agent.scheduler.jobs.values()
            assert job.jmid and not job.committed
            stored.update(seq=job.seq, jmid=job.jmid)
            # The commit ACK is in flight; the agent never sees it.
            tb.sim.schedule(0.0, submit_host.crash)
            tb.sim.schedule(0.01, reboot)
        return commit(self, ctx)

    monkeypatch.setattr(JobManager, "handle_commit", commit_then_crash)
    jid = agent.submit(JobDescription(runtime=100.0), resource="wisc-gk")
    tb.sim.run(until=5000.0)
    job = recovered[0].jobs[jid]
    assert job.state == "DONE"
    assert job.seq == stored["seq"] and job.jmid == stored["jmid"]
    assert len(tb.sites["wisc"].lrm.jobs) == 1    # ran exactly once
    assert tb.sim.trace.select("gatekeeper:wisc", "duplicate_submit")


def test_transient_remote_failure_resubmitted_elsewhere():
    """A job killed by a site's walltime limit... stays FAILED (that is
    an application/site mismatch), but an infrastructure failure is
    resubmitted: here, stage-in failing because the executable URL is
    bad never resolves, so after max_attempts the job fails with the
    stage-in reason recorded."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    from repro.gram.protocol import GramJobRequest

    request = GramJobRequest(executable_url="gass://nowhere/gass/x",
                             runtime=10.0)
    jid = agent.scheduler.submit(request, resource="wisc-gk")
    tb.run_until_quiet(max_time=20000.0)
    job = agent.scheduler.jobs[jid]
    assert job.state == "FAILED"
    assert job.attempts == job.max_attempts       # it did retry
    assert "stage-in" in job.failure_reason


def test_flaky_network_run_completes_exactly_once():
    """Everything on at once: 10% WAN loss, a gatekeeper reboot, a
    JobManager crash -- all jobs still complete exactly once."""
    tb = make_tb(seed=17, loss_rate=0.1)
    agent = tb.add_agent(AgentSpec("alice"))
    ids = [agent.submit(JobDescription(runtime=200.0 + 10 * i),
                        resource="wisc-gk") for i in range(6)]
    tb.failures.crash_host_at(150.0, tb.sites["wisc"].gk_host,
                              down_for=90.0)
    tb.run_until_quiet(max_time=30000.0)
    assert all(agent.status(j).is_complete for j in ids)
    lrm = tb.sites["wisc"].lrm
    completed = [j for j in lrm.jobs.values() if j.state == "COMPLETED"]
    assert len(completed) == 6          # exactly once each
