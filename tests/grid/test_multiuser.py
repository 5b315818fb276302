"""Multi-tenant grids: fair-share throttles, rollups, and agent isolation."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.grid.metrics import fairness, grid_cost_report, user_rollup
from repro.grid.scenarios import multiuser_glidein_grid, multiuser_gram_grid
from repro.chaos.digest import run_digest


def _small_grid(seed=3, users=3, jobs=6, throttle=None, user_cap=None):
    cfg = TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        sites=(SiteSpec("alpha", scheduler="pbs", cpus=6,
                        max_user_jobmanagers=user_cap),
               SiteSpec("beta", scheduler="condor", cpus=6,
                        max_user_jobmanagers=user_cap, register_mds=False)),
        agents=tuple(
            AgentSpec(f"u{i}", broker_kind="userlist", personal_pool=False,
                      max_submitted_per_resource=throttle)
            for i in range(users)))
    tb = GridTestbed.from_config(cfg)
    ids = {}
    for i, (name, agent) in enumerate(sorted(tb.agents.items())):
        ids[name] = [agent.submit(JobDescription(runtime=50.0 + 7 * k))
                     for k in range(jobs)]
    return tb, ids


def _drain(tb, cap=50_000.0, chunk=1000.0):
    while tb.sim.now < cap and \
            not all(a.all_terminal() for a in tb.agents.values()):
        tb.run(until=tb.sim.now + chunk)


class TestFairShareThrottles:
    def test_client_side_throttle_engages_and_everything_drains(self):
        tb, ids = _small_grid(jobs=10, throttle=2)
        _drain(tb)
        assert all(a.all_terminal() for a in tb.agents.values())
        throttled = tb.sim.metrics.get("gridmanager.submit_throttled")
        assert throttled is not None and throttled.value > 0
        rollup = user_rollup(tb)
        assert all(row["done"] == 10 for row in rollup.values())

    def test_throttle_caps_inflight_per_resource(self):
        tb, _ = _small_grid(users=1, jobs=10, throttle=2)
        agent = tb.agents["u0"]
        peak = {"n": 0}

        def watcher():
            while not agent.all_terminal():
                for res in ("alpha-gk", "beta-gk"):
                    peak["n"] = max(peak["n"],
                                    agent.scheduler.inflight_on(res))
                yield tb.sim.timeout(5.0)

        tb.sim.spawn(watcher())
        _drain(tb)
        assert 0 < peak["n"] <= 2

    def test_unthrottled_baseline_has_no_throttle_events(self):
        tb, _ = _small_grid(jobs=4)
        _drain(tb)
        throttled = tb.sim.metrics.get("gridmanager.submit_throttled")
        assert throttled is None or throttled.value == 0


class TestPerUserAccounting:
    def test_rollup_joins_queue_metrics_and_ledgers(self):
        tb, ids = _small_grid(users=3, jobs=5)
        _drain(tb)
        rollup = user_rollup(tb)
        assert sorted(rollup) == ["u0", "u1", "u2"]
        for name, row in rollup.items():
            assert row["jobs"] == 5
            assert row["done"] == 5
            assert row["failed"] == 0
            assert row["queued_counter"] == 5.0
            assert row["finished_counter"] == 5.0
            assert row["gatekeeper_submits"] >= 5
            assert row["cpu_seconds"] > 0
            assert row["cpu_hours"] == pytest.approx(
                row["cpu_seconds"] / 3600.0)
        # identical workloads -> near-perfect fairness
        assert fairness(r["cpu_seconds"] for r in rollup.values()) > 0.95

    def test_grid_cost_report_totals_agree(self):
        cfg = TestbedConfig(
            seed=5, with_mds=False, with_repo=False,
            sites=(SiteSpec("alpha", cpus=4, allocation_cost=2.0),
                   SiteSpec("beta", cpus=4, allocation_cost=3.0,
                            register_mds=False)),
            agents=(AgentSpec("ann", broker_kind="userlist",
                              personal_pool=False),
                    AgentSpec("bea", broker_kind="userlist",
                              personal_pool=False)))
        tb = GridTestbed.from_config(cfg)
        for agent in tb.agents.values():
            for k in range(4):
                agent.submit(JobDescription(runtime=100.0 + k))
        _drain(tb)
        report = grid_cost_report(tb)
        assert set(report["users"]) == {"ann", "bea"}
        assert set(report["per_site"]) == {"alpha", "beta"}
        for user_report in report["users"].values():
            assert user_report["total"] == pytest.approx(
                sum(v for k, v in user_report.items() if k != "total"))
        assert report["total"] == pytest.approx(
            sum(report["per_site"].values()))
        assert report["total"] == pytest.approx(
            sum(r["total"] for r in report["users"].values()))
        assert report["total"] > 0
        assert tb.cost_report_all() == report

    def test_fairness_index(self):
        assert fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert fairness([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert fairness([]) == 1.0
        assert fairness([0.0, 0.0]) == 1.0


class TestMultiuserScenarios:
    def test_gram_scenario_shape(self):
        tb = multiuser_gram_grid(seed=2, users=4, jobs_per_user=3,
                                 n_sites=3, cpus=4)
        assert len(tb.agents) == 4
        assert len(tb.sites) == 3
        assert all(len(a.scheduler.jobs) == 3
                   for a in tb.agents.values())

    def test_gram_scenario_is_deterministic(self):
        def digest():
            tb = multiuser_gram_grid(seed=4, users=4, jobs_per_user=4,
                                     n_sites=2, cpus=4)
            _drain(tb, cap=20_000.0)
            return run_digest(tb)

        assert digest() == digest()

    def test_glidein_scenario_payloads_complete(self):
        tb = multiuser_glidein_grid(seed=2, users=2, jobs_per_user=4,
                                    n_sites=2, glideins_per_site=2)
        _drain(tb, cap=30_000.0)
        rollup = user_rollup(tb)
        for row in rollup.values():
            assert row["condor_jobs"] == 4
            assert row["condor_done"] == 4
