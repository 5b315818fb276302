"""Named, seed-parameterized grid scenarios.

One place to describe "a grid plus a workload" so that benchmarks, the
chaos campaign engine (:mod:`repro.chaos`), and ad-hoc experiments all
drive the *same* testbeds.  A scenario is everything needed to rebuild a
run from ``(name, seed)`` -- which is exactly what the multi-process
chaos runner ships across its worker boundary instead of pickling live
simulators.

Builders must be deterministic functions of the seed: all randomness
inside a scenario comes from the testbed's named RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Callable, Optional

from ..core.api import JobDescription
from ..workloads.cms import DataCMSConfig, build_data_cms_jobs, \
    data_cms_dataset_sizes
from ..workloads.synthetic import TrafficProfile, saturate
from .config import AdmissionPolicy, AgentSpec, DatasetSpec, \
    FactoryPolicy, SiteSpec, TestbedConfig
from .testbed import GridTestbed


@dataclass(frozen=True)
class Scenario:
    """A rebuildable experiment: topology + workload + chaos envelope.

    ``build(seed)`` returns a :class:`GridTestbed` with agents created
    and jobs submitted.  The remaining fields describe the window the
    chaos engine may inject faults into (``fault_horizon``), how long to
    keep simulating before declaring the run wedged (``cap``), which
    fault kinds make sense here (``fault_kinds``), and how many faults a
    generated plan may carry (``max_faults``).
    """

    name: str
    description: str
    build: Callable[[int], GridTestbed]
    fault_horizon: float = 2000.0
    cap: float = 40_000.0
    settle: float = 500.0
    fault_kinds: tuple[str, ...] = ("crash", "partition", "isolate",
                                    "jm_kill")
    max_faults: int = 4
    chunk: float = 1000.0

    def with_overrides(self, name: str,
                       description: Optional[str] = None,
                       **params) -> "Scenario":
        """A named variant of this scenario.

        Keyword arguments that are :class:`Scenario` fields
        (``fault_horizon``, ``cap``, ...) override the envelope; every
        other keyword is bound into the builder, so
        ``sc.with_overrides("big", jobs=10_000)`` builds with
        ``sc.build(seed, jobs=10_000)``.  This is how scenario families
        (scale/multiuser/data/burst) derive variants without copy-pasting
        builder blocks.  The variant is *not* registered -- pass it to
        :func:`register` if it should be.
        """
        meta_fields = {f.name for f in dataclass_fields(Scenario)} \
            - {"name", "description", "build"}
        meta = {key: params.pop(key) for key in list(params)
                if key in meta_fields}
        build = self.build
        if params:
            base, bound = self.build, dict(params)

            def build(seed: int, _base=base, _bound=bound):
                return _base(seed, **_bound)

        return replace(
            self, name=name, build=build,
            description=description
            if description is not None else self.description,
            **meta)


SCENARIOS: dict[str, Scenario] = {}


def _add(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def register(scenario: Optional[Scenario] = None, **fields):
    """Register a scenario -- as a value or as a builder decorator.

    Value form (variants, pre-built Scenario objects)::

        register(base.with_overrides("big", jobs=10_000))

    Decorator form (the common case -- the builder function stays a
    plain importable function, its Scenario rides on ``fn.scenario``)::

        @register(name="burst-flash", description="...", cap=60_000.0)
        def burst_flash_grid(seed=0, **knobs) -> GridTestbed: ...
    """
    if scenario is not None:
        if fields:
            raise TypeError(
                "pass either a Scenario or decorator fields, not both")
        return _add(scenario)

    def decorator(fn):
        fn.scenario = _add(Scenario(build=fn, **fields))
        return fn

    return decorator


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") \
            from None


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


# -- shared topology builders --------------------------------------------------

_THREE_SITES = (
    SiteSpec("alpha", scheduler="pbs", cpus=8),
    SiteSpec("beta", scheduler="lsf", cpus=8),
    SiteSpec("gamma", scheduler="loadleveler", cpus=8),
)


def three_site_grid(seed: int = 0, loaded: bool = True,
                    **tb_kwargs) -> GridTestbed:
    """One idle and two loaded sites: the broker/glidein playground.

    (Also the topology behind the benchmark suite; see
    ``benchmarks/_scenarios.py``.)
    """
    config = TestbedConfig(seed=seed, sites=_THREE_SITES, **tb_kwargs)
    tb = GridTestbed.from_config(config)
    if loaded:
        saturate(tb.sites["alpha"].lrm, jobs=24, runtime=2000.0)
        saturate(tb.sites["beta"].lrm, jobs=12, runtime=1500.0)
    return tb


# -- registered chaos scenarios -----------------------------------------------

QUICKSTART_CONFIG = TestbedConfig(
    use_gsi=True,
    sites=(SiteSpec("wisc", scheduler="pbs", cpus=16),
           SiteSpec("anl", scheduler="lsf", cpus=8)),
    agents=(AgentSpec("alice", broker_kind="mds"),),
)


@register(
    name="quickstart",
    description="two GSI sites + MDS broker (examples/quickstart.py)",
    fault_horizon=2500.0,
    fault_kinds=("crash", "partition", "isolate", "jm_kill",
                 "proxy_expire"),
)
def _build_quickstart(seed: int) -> GridTestbed:
    """The examples/quickstart.py grid: two GSI sites, MDS broker."""
    tb = GridTestbed.from_config(QUICKSTART_CONFIG, seed)
    agent = tb.agents["alice"]
    tb.run(until=120.0)          # let MDS registrations warm up
    for i in range(2):
        agent.submit(JobDescription(executable="sim.exe",
                                    runtime=300.0 + 60 * i,
                                    input_size=20_000),
                     resource=tb.sites["wisc"].contact)
    for _ in range(3):
        agent.submit(JobDescription(executable="sweep.exe", runtime=200.0))
    return tb


@register(
    name="three-site",
    description="three heterogeneous sites, userlist broker, light load",
    fault_horizon=2500.0,
)
def _build_three_site(seed: int) -> GridTestbed:
    """Three heterogeneous sites, light background load, userlist broker."""
    # The background load lands *between* sites and agent (order is part
    # of the digest), so only the sites come from the config.
    tb = GridTestbed.from_config(TestbedConfig(sites=_THREE_SITES), seed)
    saturate(tb.sites["alpha"].lrm, jobs=8, runtime=600.0)
    agent = tb.add_agent(AgentSpec("bob", broker_kind="userlist"))
    for i in range(6):
        agent.submit(JobDescription(executable="sweep.exe",
                                    runtime=150.0 + 25 * i))
    return tb


CREDENTIAL_CONFIG = TestbedConfig(
    use_gsi=True,
    sites=(SiteSpec("wisc", scheduler="pbs", cpus=4),),
    agents=(AgentSpec("carol"),),
)


@register(
    name="credential",
    description="single GSI site; §4.3 expiry/hold/notify/refresh drills",
    fault_horizon=1500.0,
    fault_kinds=("proxy_expire", "jm_kill", "partition"),
    max_faults=3,
)
def _build_credential(seed: int) -> GridTestbed:
    """One GSI site, one user, long-ish jobs: the §4.3 playground."""
    tb = GridTestbed.from_config(CREDENTIAL_CONFIG, seed)
    agent = tb.agents["carol"]
    for i in range(4):
        agent.submit(JobDescription(runtime=300.0 + 40 * i),
                     resource="wisc-gk")
    return tb


# -- scale-out scenarios (benchmarks/bench_scale.py) ---------------------------

_SCALE_SCHEDULERS = ("pbs", "lsf", "loadleveler")


def scale_sites(n_sites: int = 20, cpus: int = 50) -> tuple[SiteSpec, ...]:
    """A uniform fleet of `n_sites` clusters for scale-out runs."""
    return tuple(
        SiteSpec(f"site{i:02d}",
                 scheduler=_SCALE_SCHEDULERS[i % len(_SCALE_SCHEDULERS)],
                 cpus=cpus, register_mds=False)
        for i in range(n_sites))


@register(
    name="scale-gram",
    description="10k GRAM jobs over 20 sites x 50 cpus, userlist broker",
    fault_horizon=5000.0,
    cap=200_000.0,
    chunk=5000.0,
    max_faults=2,
)
def scale_gram_grid(seed: int = 0, jobs: int = 10_000, n_sites: int = 20,
                    cpus: int = 50, grid_monitor: bool = False,
                    runtime_base: float = 60.0,
                    runtime_step: float = 5.0) -> GridTestbed:
    """The GRAM-path scale cell: one agent spraying `jobs` grid-universe
    jobs round-robin over `n_sites` x `cpus` slots.

    Keeps MDS/repo off and stdout streaming disabled so the event load
    is the job-management machinery itself, not ancillary chatter.
    ``grid_monitor=True`` swaps the per-job status probes for per-site
    Grid Monitor reports (the §5.1 fix) -- the same workload, a
    different RPC pattern.
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        trace_max_records=200_000,
        sites=scale_sites(n_sites, cpus),
        agents=(AgentSpec("scale", broker_kind="userlist",
                          personal_pool=False,
                          grid_monitor=grid_monitor),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["scale"]
    for i in range(jobs):
        agent.submit(JobDescription(
            executable="scale.exe",
            runtime=runtime_base + runtime_step * (i % 40),
            stream_stdout=False))
    return tb


@register(
    name="scale-glidein",
    description="10k vanilla jobs on 1000 glideins across 20 sites",
    fault_horizon=5000.0,
    cap=200_000.0,
    chunk=5000.0,
    max_faults=2,
)
def scale_glidein_grid(seed: int = 0, jobs: int = 10_000, n_sites: int = 20,
                       glideins_per_site: int = 50) -> GridTestbed:
    """The GlideIn-path scale cell: a personal pool spanning `n_sites`
    sites, `jobs` vanilla jobs matched onto the glideins.

    Walltime/idle_timeout are sized so no glidein retires mid-run -- the
    cell measures steady-state matchmaking + execution, not churn.
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        trace_max_records=200_000,
        sites=scale_sites(n_sites, cpus=glideins_per_site),
        agents=(AgentSpec("scale"),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["scale"]
    for site in tb.sites.values():
        agent.glide_in(site.contact, count=glideins_per_site,
                       walltime=100_000.0, idle_timeout=100_000.0)
    for i in range(jobs):
        agent.submit(JobDescription(executable="mw.exe", universe="vanilla",
                                    runtime=60.0 + 5.0 * (i % 40)))
    return tb


@register(
    name="scale-100k",
    description="100k vanilla jobs on a 2500-glidein claim-reuse pool",
    fault_horizon=5000.0,
    cap=200_000.0,
    chunk=5000.0,
    max_faults=2,
)
def scale_pool_grid(seed: int = 0, jobs: int = 100_000, n_sites: int = 25,
                    glideins_per_site: int = 100, warmup: float = 400.0,
                    advertise_interval: float = 120.0) -> GridTestbed:
    """The 100k-job pool cell: claim reuse carries the steady state.

    A single personal pool glides into `n_sites` x `glideins_per_site`
    slots; the job flood arrives *after* a warmup so the first
    negotiation cycles bind the whole fleet, and from then on every
    completion re-matches a queued job through the schedd's claim-reuse
    fast path -- no per-job negotiation round-trips.  Jobs are short
    (sub-checkpoint-interval) so the measured cost is matchmaking and
    claim turnover, not execution chatter.
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        trace_max_records=200_000,
        sites=scale_sites(n_sites, cpus=glideins_per_site),
        agents=(AgentSpec("scale", claim_reuse=True,
                          negotiation_interval=30.0),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["scale"]
    for site in tb.sites.values():
        agent.glide_in(site.contact, count=glideins_per_site,
                       walltime=1_000_000.0, idle_timeout=1_000_000.0,
                       advertise_interval=advertise_interval)
    tb.run(until=warmup)
    for i in range(jobs):
        agent.submit(JobDescription(executable="mw.exe", universe="vanilla",
                                    runtime=30.0 + 1.0 * (i % 40)))
    return tb


def kiloclient_grid(seed: int = 0, users: int = 1000,
                    jobs_per_user: int = 10, n_sites: int = 20,
                    cpus: int = 50) -> GridTestbed:
    """The 1000-agent cell: every user runs their own Condor-G agent
    (scheduler + GridManager + submit machine), spraying a small GRAM
    workload over shared fair-share sites.  Stresses the many-client
    side of the system the way scale-100k stresses the many-job side.
    """
    return multiuser_gram_grid(
        seed=seed, users=users, jobs_per_user=jobs_per_user,
        n_sites=n_sites, cpus=cpus,
        max_user_jobmanagers=8, max_submitted_per_resource=2)


@register(
    name="pool-reuse",
    description="small claim-reuse pool: 40 vanilla jobs on 8 glideins",
    fault_horizon=1500.0,
    fault_kinds=("crash", "partition", "isolate"),
    max_faults=3,
)
def pool_reuse_grid(seed: int = 0, jobs: int = 40) -> GridTestbed:
    """A small claim-reuse pool: the chaos/equivalence workout for the
    collector indexes, negotiator memoization, and reuse protocol."""
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        sites=(SiteSpec("wisc", scheduler="pbs", cpus=4,
                        register_mds=False),
               SiteSpec("anl", scheduler="lsf", cpus=4,
                        register_mds=False)),
        agents=(AgentSpec("dave", claim_reuse=True,
                          negotiation_interval=15.0),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["dave"]
    for site in tb.sites.values():
        agent.glide_in(site.contact, count=4, walltime=20_000.0,
                       idle_timeout=3_000.0)
    tb.run(until=150.0)
    for i in range(jobs):
        agent.submit(JobDescription(executable="mw.exe", universe="vanilla",
                                    runtime=40.0 + 10.0 * (i % 5)))
    return tb


# -- data-aware scenarios (benchmarks/bench_data.py) ---------------------------

_DATA_SITE_NAMES = ("caltech", "wisc", "ncsa")

#: transfer-cost dominated: big event files, short reconstruction
STAGING_BOUND_CMS = DataCMSConfig(
    n_jobs=24, n_run_datasets=6,
    run_size=60_000_000, calibration_size=20_000_000,
    reco_seconds=120.0)

#: compute dominated: small inputs, long reconstruction
COMPUTE_BOUND_CMS = DataCMSConfig(
    n_jobs=24, n_run_datasets=6,
    run_size=2_000_000, calibration_size=1_000_000,
    reco_seconds=1200.0)


def data_cms_config(cms: DataCMSConfig,
                    broker_kind: str = "data-aware",
                    seed: int = 0) -> TestbedConfig:
    """Three storage-equipped sites + the dataset-driven CMS workload.

    Calibration constants start out only at the first site; the run
    files are spread round-robin, so any placement that ignores replica
    locality must haul most of its inputs across the WAN.
    """
    sites = tuple(
        SiteSpec(name, scheduler=_SCALE_SCHEDULERS[i],
                 cpus=4, register_mds=False, storage=25_000_000.0)
        for i, name in enumerate(_DATA_SITE_NAMES))
    datasets = []
    for j, (name, size) in enumerate(data_cms_dataset_sizes(cms)):
        if name == cms.calibration_name:
            home = _DATA_SITE_NAMES[0]
        else:
            home = _DATA_SITE_NAMES[j % len(_DATA_SITE_NAMES)]
        datasets.append(DatasetSpec(name, size=size, replicas=(home,)))
    return TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        sites=sites, datasets=tuple(datasets),
        data_link_bandwidth=2_000_000.0, data_max_streams=2,
        agents=(AgentSpec("phys", broker_kind=broker_kind,
                          personal_pool=False),),
    )


@register(
    name="data-cms",
    description="dataset-driven CMS reco: 24 staging-bound jobs, "
                "3 storage sites, data-aware broker",
    fault_horizon=2500.0,
    fault_kinds=("crash", "partition", "isolate", "corrupt"),
    max_faults=3,
)
def data_cms_grid(seed: int = 0, cms: DataCMSConfig = STAGING_BOUND_CMS,
                  broker_kind: str = "data-aware") -> GridTestbed:
    """The dataset-driven CMS reconstruction pass, broker-placed."""
    tb = GridTestbed.from_config(data_cms_config(cms, broker_kind), seed)
    agent = tb.agents["phys"]
    for description in build_data_cms_jobs(cms):
        agent.submit(description)
    return tb


def data_cms_compute_grid(seed: int = 0) -> GridTestbed:
    """Compute-bound sibling of ``data-cms`` (same topology/catalog)."""
    return data_cms_grid(seed, cms=COMPUTE_BOUND_CMS)


# -- multi-tenant scenarios (benchmarks/bench_multiuser.py) --------------------

def multiuser_sites(n_sites: int = 20, cpus: int = 25,
                    max_user_jobmanagers: int = 6) -> tuple[SiteSpec, ...]:
    """A fleet of shared sites with per-user gatekeeper fair-share caps."""
    return tuple(
        SiteSpec(f"site{i:02d}",
                 scheduler=_SCALE_SCHEDULERS[i % len(_SCALE_SCHEDULERS)],
                 cpus=cpus, register_mds=False,
                 max_user_jobmanagers=max_user_jobmanagers)
        for i in range(n_sites))


@register(
    name="multiuser-gram",
    description="50 agents x 100 GRAM jobs over 20 fair-share sites",
    fault_horizon=3000.0,
    cap=200_000.0,
    chunk=5000.0,
    max_faults=2,
)
def multiuser_gram_grid(seed: int = 0, users: int = 50,
                        jobs_per_user: int = 100, n_sites: int = 20,
                        cpus: int = 25, max_user_jobmanagers: int = 6,
                        max_submitted_per_resource: int = 4) -> GridTestbed:
    """The multi-tenant GRAM cell: `users` concurrent Condor-G agents
    (one scheduler + GridManager + submit machine each, as §3 requires)
    spraying `jobs_per_user` grid jobs over the same `n_sites` sites.

    Both fair-share layers are on: each gatekeeper caps live JobManagers
    per user, and each GridManager throttles its own in-flight jobs per
    resource.  Submissions interleave round-robin across users so every
    site sees genuine multi-tenant contention from t=0.
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        trace_max_records=200_000,
        sites=multiuser_sites(n_sites, cpus, max_user_jobmanagers),
        agents=tuple(
            AgentSpec(f"u{i:02d}", broker_kind="userlist",
                      personal_pool=False,
                      max_submitted_per_resource=max_submitted_per_resource)
            for i in range(users)),
    )
    tb = GridTestbed.from_config(config)
    agents = list(tb.agents.values())
    for k in range(jobs_per_user):
        for u, agent in enumerate(agents):
            agent.submit(JobDescription(
                executable="mt.exe",
                runtime=60.0 + 5.0 * ((u + k) % 40),
                stream_stdout=False))
    return tb


@register(
    name="multiuser-glidein",
    description="10 personal pools x 60 vanilla jobs over 5 shared sites",
    fault_horizon=3000.0,
    cap=200_000.0,
    chunk=5000.0,
    max_faults=2,
)
def multiuser_glidein_grid(seed: int = 0, users: int = 10,
                           jobs_per_user: int = 60, n_sites: int = 5,
                           glideins_per_site: int = 4) -> GridTestbed:
    """The multi-tenant GlideIn cell: every user builds their own
    personal pool over the same sites (Figure 2, in the plural) and runs
    vanilla jobs on their own glideins.
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        trace_max_records=200_000,
        sites=multiuser_sites(n_sites, cpus=users * glideins_per_site,
                              max_user_jobmanagers=glideins_per_site),
        agents=tuple(AgentSpec(f"u{i:02d}") for i in range(users)),
    )
    tb = GridTestbed.from_config(config)
    agents = list(tb.agents.values())
    for agent in agents:
        for site in tb.sites.values():
            agent.glide_in(site.contact, count=glideins_per_site,
                           walltime=100_000.0, idle_timeout=100_000.0)
    for k in range(jobs_per_user):
        for u, agent in enumerate(agents):
            agent.submit(JobDescription(
                executable="mw.exe", universe="vanilla",
                runtime=60.0 + 5.0 * ((u + k) % 40)))
    return tb


# -- bursty-traffic scenarios (benchmarks/bench_burst.py) ----------------------

#: the autoscaler the burst scenarios run: small floors, generous
#: ceilings, fast reaction -- the point is elasticity, not steady state.
BURST_POLICY = FactoryPolicy(
    min_glideins=0, max_glideins=12, jobs_per_glidein=2.0,
    max_step=6, scale_up_cooldown=40.0, scale_down_cooldown=120.0,
    idle_reserve=0, idle_grace=60.0, lease=100_000.0,
    idle_timeout=240.0, interval=20.0, wait_target=120.0)


@register(
    name="burst-flash",
    description="flash crowd into a factory-scaled glidein pool: "
                "1000 virtual users, 10x spike at t=600",
    fault_horizon=1500.0,
    cap=60_000.0,
    fault_kinds=("crash", "partition", "isolate", "jm_kill",
                 "factory_kill"),
    max_faults=3,
    chunk=2000.0,
)
def burst_flash_grid(seed: int = 0, *,
                     users: int = 1000,
                     n_sites: int = 3,
                     cpus: int = 16,
                     base_rate: float = 0.08,
                     flash_at: tuple = (600.0,),
                     flash_multiplier: float = 10.0,
                     flash_duration: float = 200.0,
                     diurnal_amplitude: float = 0.0,
                     diurnal_period: float = 2000.0,
                     horizon: float = 1500.0,
                     runtime_min: float = 20.0,
                     runtime_cap: float = 300.0,
                     policy: FactoryPolicy = BURST_POLICY) -> GridTestbed:
    """Bursty vanilla traffic into one factory-managed personal pool.

    The factory sees demand explode when the flash crowd hits, scales
    each site up within its policy envelope, and reaps the surplus once
    the spike drains -- the elasticity loop of docs/AUTOSCALING.md under
    the paper's own glidein machinery.
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        sites=tuple(
            SiteSpec(f"site{i:02d}",
                     scheduler=_SCALE_SCHEDULERS[i % len(_SCALE_SCHEDULERS)],
                     cpus=cpus, register_mds=False, factory=policy)
            for i in range(n_sites)),
        agents=(AgentSpec("burst", negotiation_interval=15.0),),
        traffic=TrafficProfile(
            users=users, horizon=horizon, base_rate=base_rate,
            diurnal_amplitude=diurnal_amplitude,
            diurnal_period=diurnal_period,
            flash_at=flash_at, flash_multiplier=flash_multiplier,
            flash_duration=flash_duration,
            runtime_min=runtime_min, runtime_cap=runtime_cap,
            universe="vanilla"),
    )
    return GridTestbed.from_config(config)


register(burst_flash_grid.scenario.with_overrides(
    "burst-diurnal",
    description="diurnal swell into a factory-scaled glidein pool: "
                "the autoscaler tracks a day/night cycle",
    fault_horizon=2500.0,
    flash_at=(), diurnal_amplitude=0.8, diurnal_period=2000.0,
    horizon=3000.0, base_rate=0.12))


@register(
    name="burst-overload",
    description="the §6 overload incident, survived: a 20x submission "
                "storm against admission-controlled gatekeepers",
    fault_horizon=1200.0,
    cap=60_000.0,
    fault_kinds=("crash", "partition", "jm_kill"),
    max_faults=3,
    chunk=2000.0,
)
def burst_overload_grid(seed: int = 0, *,
                        users: int = 400,
                        agents: int = 4,
                        n_sites: int = 2,
                        cpus: int = 10,
                        base_rate: float = 0.1,
                        flash_at: tuple = (100.0,),
                        flash_multiplier: float = 20.0,
                        flash_duration: float = 300.0,
                        horizon: float = 1200.0,
                        runtime_min: float = 10.0,
                        runtime_cap: float = 120.0,
                        admission_rate: float = 0.3,
                        admission_burst: int = 5,
                        admission_max_queue: int = 40) -> GridTestbed:
    """The §6 gatekeeper-overload incident as a surviving scenario.

    A submission storm (20x flash over many virtual users) slams
    GRAM-universe traffic into two small sites.  Without admission
    control the era's gatekeepers fell over; here the token bucket and
    queue-depth backpressure shed load with the congestion-backoff
    "JobManager limit" signal, so every submission eventually lands
    exactly once -- zero lost jobs is the acceptance criterion.
    """
    admission = AdmissionPolicy(rate=admission_rate,
                                burst=admission_burst,
                                max_queue=admission_max_queue,
                                poll_interval=10.0)
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        sites=tuple(
            SiteSpec(f"site{i:02d}",
                     scheduler=_SCALE_SCHEDULERS[i % len(_SCALE_SCHEDULERS)],
                     cpus=cpus, register_mds=False, admission=admission)
            for i in range(n_sites)),
        agents=tuple(
            AgentSpec(f"storm{i}", broker_kind="userlist",
                      personal_pool=False)
            for i in range(agents)),
        traffic=TrafficProfile(
            users=users, horizon=horizon, base_rate=base_rate,
            flash_at=flash_at, flash_multiplier=flash_multiplier,
            flash_duration=flash_duration,
            runtime_min=runtime_min, runtime_cap=runtime_cap,
            universe="grid"),
    )
    return GridTestbed.from_config(config)


# -- derived variants (Scenario.with_overrides) --------------------------------
# The scale/multiuser/data/burst cells are registered for the benchmark
# suite and explicit `--scenarios <name>` chaos runs; they are NOT in
# the chaos engine's DEFAULT_SCENARIOS, so routine campaigns stay light.

register(scale_gram_grid.scenario.with_overrides(
    "monitored-gram",
    description="small GRAM grid with per-site Grid Monitor fan-in",
    fault_horizon=1500.0,
    cap=20_000.0,
    chunk=1000.0,
    fault_kinds=("crash", "partition", "isolate", "jm_kill",
                 "monitor_kill"),
    jobs=80, n_sites=4, cpus=10, grid_monitor=True))

register(scale_gram_grid.scenario.with_overrides(
    "scale-gram-monitor",
    description="scale-gram with per-site Grid Monitor status fan-in",
    fault_kinds=("crash", "partition", "isolate", "jm_kill",
                 "monitor_kill"),
    grid_monitor=True))

register(scale_gram_grid.scenario.with_overrides(
    "scale-100k-monitor",
    description="100k GRAM jobs over 25 sites x 200 cpus, Grid Monitor "
                "fan-in carrying all status traffic",
    fault_kinds=("crash", "partition", "isolate", "jm_kill",
                 "monitor_kill"),
    jobs=100_000, n_sites=25, cpus=200, grid_monitor=True,
    runtime_base=30.0, runtime_step=2.0))

register(multiuser_gram_grid.scenario.with_overrides(
    "kiloclient",
    description="1000 Condor-G agents x 10 GRAM jobs over 20 sites",
    fault_horizon=5000.0,
    users=1000, jobs_per_user=10, n_sites=20, cpus=50,
    max_user_jobmanagers=8, max_submitted_per_resource=2))

register(data_cms_grid.scenario.with_overrides(
    "data-cms-compute",
    description="compute-bound sibling of data-cms (same catalog)",
    cms=COMPUTE_BOUND_CMS))


# -- snapshot/restore scenarios (repro.sim.snapshot) ---------------------------

#: one week of simulated time -- the long-horizon regression envelope.
WEEK = 7 * 86_400.0


@register(
    name="week-credential-cycle",
    description="a week of long-haul GSI jobs on 8h proxies: ~20 "
                "expiry/hold/MyProxy-refresh/release cycles "
                "(run as snapshot/restore segments by the regression "
                "suite)",
    fault_horizon=86_400.0,
    cap=WEEK,
    settle=2000.0,
    fault_kinds=("proxy_expire", "jm_kill", "partition"),
    max_faults=2,
    chunk=21_600.0,
)
def _build_week_credential(seed: int) -> GridTestbed:
    """Six ~day-long jobs serialized through one cpu for a sim-week.

    The agent's proxies live 8 hours, so the CredentialMonitor must ride
    ~20 expiry -> hold -> MyProxy-refresh -> reforward -> release cycles
    to get every job home; the week-long horizon is what the segmented
    snapshot/restore regression suite replays in day-sized pieces.
    ``max_submitted_per_resource=1`` keeps at most one JobManager alive,
    which bounds the 5s LRM poll storm over 600k simulated seconds.
    """
    config = TestbedConfig(
        seed=seed, use_gsi=True,
        with_mds=False, with_repo=False, with_myproxy=True,
        sites=(SiteSpec("fnal", scheduler="pbs", cpus=1,
                        register_mds=False),),
        agents=(AgentSpec("week", broker_kind="userlist",
                          personal_pool=False,
                          proxy_lifetime=8 * 3600.0, myproxy=True,
                          max_submitted_per_resource=1),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["week"]
    for i in range(6):
        agent.submit(JobDescription(executable="longhaul.exe",
                                    runtime=80_000.0 + 2_500.0 * i,
                                    stream_stdout=False))
    return tb


@register(
    name="shrink-lab",
    description="one busy pbs site, late-fault window: the "
                "shrink-from-snapshot testbed (long pre-fault prefix, "
                "short suffix)",
    fault_horizon=4200.0,
    cap=7000.0,
    settle=400.0,
    chunk=500.0,
)
def _build_shrink_lab(seed: int) -> GridTestbed:
    """A deliberately prefix-heavy cell for snapshot-mode shrinking.

    24 jobs keep 4 cpus busy to ~4650s; faults land after ~4000s, so a
    ddmin replay from zero re-simulates a long fault-free prefix that
    the fork-from-snapshot path skips entirely (>= 2x fewer replayed
    sim-seconds -- asserted by the shrink benchmark).
    """
    config = TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        sites=(SiteSpec("lab", scheduler="pbs", cpus=4,
                        register_mds=False),),
        agents=(AgentSpec("dana", broker_kind="userlist",
                          personal_pool=False),),
    )
    tb = GridTestbed.from_config(config)
    agent = tb.agents["dana"]
    for i in range(24):
        agent.submit(JobDescription(executable="churn.exe",
                                    runtime=600.0 + 50.0 * (i % 8),
                                    stream_stdout=False))
    return tb
