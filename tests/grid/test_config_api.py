"""TestbedConfig / SiteSpec / AgentSpec: the typed topology API.

Covers value semantics, the declarative build path, rejection of
untyped (kwargs-only) arguments, and the JobState str-enum's string
compatibility.
"""

from __future__ import annotations

import json

import pytest

from repro.core.api import JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.grid.testbed import GridTestbed
from repro.states import JobState, is_complete, is_terminal


def _two_site_config(**overrides) -> TestbedConfig:
    return TestbedConfig(
        sites=(SiteSpec("wisc", scheduler="pbs", cpus=4),
               SiteSpec("anl", scheduler="lsf", cpus=2)),
        agents=(AgentSpec("alice", broker_kind="userlist"),),
        **overrides)


# -- config values ------------------------------------------------------------

def test_config_is_a_value():
    a = _two_site_config(seed=3)
    b = _two_site_config(seed=3)
    assert a == b
    assert a.sites[0] == b.sites[0]
    assert a.with_seed(9).seed == 9
    assert a.with_seed(9) != a          # replace, not mutate
    assert a.seed == 3


def test_with_sites_and_agents_append():
    cfg = _two_site_config().with_sites(SiteSpec("ucsd", cpus=8))
    assert [s.name for s in cfg.sites] == ["wisc", "anl", "ucsd"]
    cfg = cfg.with_agents(AgentSpec("bob"))
    assert [a.name for a in cfg.agents] == ["alice", "bob"]


# -- building -----------------------------------------------------------------

def test_from_config_builds_topology():
    tb = GridTestbed.from_config(_two_site_config(), seed=7)
    assert tb.config.seed == 7
    assert set(tb.sites) == {"wisc", "anl"}
    assert set(tb.agents) == {"alice"}
    assert tb.sites["wisc"].cpus == 4
    jid = tb.agents["alice"].submit(JobDescription(runtime=50.0))
    tb.run(until=2000.0)
    assert tb.agents["alice"].status(jid).is_complete


def test_config_and_kwargs_are_mutually_exclusive():
    with pytest.raises(TypeError):
        GridTestbed(_two_site_config(), latency=0.5)
    with pytest.raises(TypeError):
        GridTestbed("not a config")
    tb = GridTestbed(TestbedConfig())
    with pytest.raises(TypeError):
        tb.add_site(SiteSpec("x"), cpus=4)
    with pytest.raises(TypeError):
        tb.add_agent(AgentSpec("u"), personal_pool=False)
    # the untyped kwargs-only forms are gone too
    with pytest.raises(TypeError):
        GridTestbed(seed=1, latency=0.1)
    with pytest.raises(TypeError, match="expected SiteSpec"):
        tb.add_site("legacy")
    with pytest.raises(TypeError, match="expected AgentSpec"):
        tb.add_agent("dave")


# -- JobState -----------------------------------------------------------------

def test_jobstate_is_string_compatible():
    s = JobState.DONE
    assert s == "DONE"
    assert str(s) == "DONE"
    assert f"{s}" == "DONE"
    assert json.dumps({"state": s}) == '{"state": "DONE"}'
    assert {s: 1}["DONE"] == 1
    assert sorted([JobState.PENDING, JobState.ACTIVE]) == \
        ["ACTIVE", "PENDING"]


def test_jobstate_terminal_helpers():
    assert is_terminal("DONE")
    assert is_terminal(JobState.COMPLETED)
    assert is_terminal("REMOVED")
    assert is_terminal("FAILED")
    assert is_terminal("CANCELLED")
    assert not is_terminal("ACTIVE")
    assert not is_terminal("somestring")
    assert is_complete("DONE") and is_complete("COMPLETED")
    assert not is_complete("FAILED")
    assert JobState.DONE.is_terminal and JobState.DONE.is_complete
    assert not JobState.ACTIVE.is_terminal


def test_jobstate_round_trips_through_queue_records():
    from repro.condor.jobs import CondorJob, job_ad
    job = CondorJob(job_id="1.0", ad=job_ad("u"), runtime=10.0)
    rec = job.queue_record()
    assert rec["state"] == "IDLE"
    back = CondorJob.from_record(json.loads(json.dumps(rec)))
    assert back.state == JobState.IDLE


# -- depth() ------------------------------------------------------------------

def test_lrm_depth_tracks_queue():
    tb = GridTestbed.from_config(_two_site_config())
    site = tb.sites["anl"]       # 2 cpus
    agent = tb.agents["alice"]
    assert site.queue_depth() == 0
    for _ in range(5):
        agent.submit(JobDescription(runtime=400.0),
                     resource=site.contact)
    tb.run(until=200.0)
    # 2 running + 3 still queued; depth() counts the waiting queue
    assert site.queue_depth() == site.lrm.depth() == len(site.lrm.queue)
    assert site.lrm.depth() == 3
    info = site.lrm.queue_info()
    assert info["queued_jobs"] == 3
    tb.run(until=2000.0)
    assert site.lrm.depth() == 0
    assert site.lrm.queued_cpus == 0
