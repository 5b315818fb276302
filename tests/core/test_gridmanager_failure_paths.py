"""Regressions for two silent failure-handling bugs in the GridManager.

1. The status poll used to swallow :class:`AuthenticationError` with the
   generic RPC handler, so a proxy that expired between probe rounds was
   never routed to the §5 hold-and-notify path.  The status request is
   now the probe itself, and it must still hold the job.
2. ``_submission_failed`` used to rewrite every failure reason as
   "local scheduler submission failed: ..." -- masking the real cause in
   the userlog *and* making the transient classification depend on the
   mask string instead of the failure itself.
"""

from repro import GridTestbed, JobDescription
from repro.gram.client import Gram2Client, GramClientError
from repro.sim.errors import AuthenticationError
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=44):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    return tb


def test_poll_loop_routes_auth_errors_to_credential_hold(monkeypatch):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=800.0), resource="site-gk")
    tb.run(until=15.0)
    assert agent.status(jid).state in ("PENDING", "ACTIVE")

    # Make every status probe fail auth.
    def bad_status(self, contact, jmid):
        raise AuthenticationError("proxy expired while polling")
        yield  # pragma: no cover -- generator like the real method

    monkeypatch.setattr(Gram2Client, "status", bad_status)
    tb.run(until=100.0)

    status = agent.status(jid)
    assert status.state == "HELD"
    assert "credential problem" in status.hold_reason
    assert "proxy expired while polling" in status.hold_reason
    assert agent.notifier.emails_about("credential")
    reg = tb.sim.metrics
    assert reg.counter("gridmanager.probe_outcomes").labelled(
        "credential") >= 1
    # held jobs leave the watch set: the probe loop stops re-holding them
    assert reg.counter("scheduler.credential_holds").value == 1


def test_stale_poll_auth_error_does_not_count_or_hold(monkeypatch):
    """Regression: the credential-error count used to increment even
    when the failed status response belonged to a superseded attempt --
    the hold was correctly gated on the attempt match, but the metric
    fired first, so resubmission races inflated the credential-error
    count.  Both must be gated: a stale error for a dead attempt says
    nothing about the current attempt's credential."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=800.0), resource="site-gk")
    tb.run(until=15.0)
    job = agent.scheduler.jobs[jid]
    assert job.jmid

    attempt = [0]

    def racing_status(self, contact, jmid):
        # The attempt is superseded while the status RPC is in flight
        # (exactly what a concurrent failure-report + resubmit does),
        # then the in-flight poll comes back with an auth error.
        attempt[0] += 1
        job.jmid = f"jm-attempt-{attempt[0]}"
        raise AuthenticationError("stale proxy error for old attempt")
        yield  # pragma: no cover -- generator like the real method

    monkeypatch.setattr(Gram2Client, "status", racing_status)
    tb.run(until=60.0)

    reg = tb.sim.metrics
    assert reg.counter("gridmanager.status_polls").value >= 1
    assert reg.counter("gridmanager.probe_outcomes").labelled(
        "credential") == 0
    assert reg.counter("scheduler.credential_holds").value == 0
    assert agent.status(jid).state != "HELD"


def test_submission_failure_reason_is_not_masked(monkeypatch):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))

    def bad_phase1(self, resource, request, seq, callback):
        raise GramClientError(
            f"submit to {resource} failed after "
            f"{self.max_attempts} attempts")
        yield  # pragma: no cover

    monkeypatch.setattr(Gram2Client, "submit_phase1", bad_phase1)
    jid = agent.submit(JobDescription(runtime=50.0), resource="site-gk")
    tb.run(until=2000.0)

    status = agent.status(jid)
    assert status.state == "FAILED"
    # the userlog keeps the *real* reason...
    assert status.failure_reason.startswith("submit to site-gk")
    assert "local scheduler submission failed" not in status.failure_reason
    # ...and the failure still classified as transient: every attempt
    # before max_attempts was resubmitted, not failed outright.
    resubmits = tb.sim.trace.select("gridmanager", "resubmit")
    assert len(resubmits) == status.attempts - 1 >= 1
    reg = tb.sim.metrics
    assert reg.counter("gridmanager.resubmits").value == len(resubmits)
    assert reg.counter("gridmanager.submit_failures").labelled("phase1") \
        == status.attempts


def test_unacknowledged_commit_does_not_resubmit():
    """Regression (found by the exactly-once property test): a lost
    commit *ACK* is indistinguishable from a lost commit, and the
    JobManager may already be running the job.  The GridManager used to
    exhaust its commit retries and resubmit -- executing the job twice.
    It must park the job under the probe machinery instead."""
    tb = GridTestbed(TestbedConfig(seed=268, loss_rate=0.15))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=6))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=150.0 + 10 * i),
                        resource="site-gk") for i in range(3)]
    tb.failures.crash_host_at(11.0, site.gk_host, down_for=30.0)
    cap = 4 * 10**4
    while not all(agent.status(j).is_terminal for j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + 1000.0)

    assert all(agent.status(j).is_complete for j in ids)
    completed = [j for j in site.lrm.jobs.values()
                 if j.state == "COMPLETED"]
    assert len(completed) == len(site.lrm.jobs) == 3   # exactly once
    # the dangerous moment was taken: an unacknowledged commit was
    # parked, not resubmitted
    assert tb.sim.trace.select("gridmanager", "commit_unacknowledged")


def test_phase1_auth_failure_holds_instead_of_failing(monkeypatch):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))

    def bad_phase1(self, resource, request, seq, callback):
        raise AuthenticationError("bad proxy signature")
        yield  # pragma: no cover

    monkeypatch.setattr(Gram2Client, "submit_phase1", bad_phase1)
    jid = agent.submit(JobDescription(runtime=50.0), resource="site-gk")
    tb.run(until=200.0)

    status = agent.status(jid)
    assert status.state == "HELD"
    assert "bad proxy signature" in status.hold_reason
    assert not tb.sim.trace.select("gridmanager", "resubmit")
