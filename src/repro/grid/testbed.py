"""Testbed builder: whole multi-site grids in a few lines.

Assembles everything a Condor-G experiment needs: a CA and per-site
gridmaps (GSI), gatekeepers + local schedulers (one pair of hosts per
site, so interface-machine crashes never kill the cluster), MDS
registration, a central GridFTP repository holding the Condor binaries
for GlideIn bootstrap, and per-user agents on their own submit machines.

This is the module the examples and benchmarks drive; see
``examples/quickstart.py`` for the canonical usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..condor.jobs import reset_cluster_ids
from ..core.api import CondorGAgent
from ..core.broker import Broker, MDSBroker, QueueAwareBroker, UserListBroker
from ..core.job import reset_grid_job_ids
from ..data.broker import DataAwareBroker
from ..factory.daemon import GlideInFactory
from ..factory.policy import FactoryPolicy
from ..data.catalog import CATALOG_HOST, ReplicaCatalog, dataset_path
from ..data.services import DataServices
from ..data.transfer import DTS_HOST, TransferScheduler
from ..gass.files import SimFile
from ..gram.gatekeeper import Gatekeeper
from ..gridftp.server import GridFTPServer
from ..gsi.auth import GridMap, GSIAuthorizer
from ..gsi.crypto import reset_oracle
from ..gsi.myproxy import MyProxyServer
from ..gsi.pki import CertificateAuthority
from ..gsi.proxy import GridUser
from ..lrm.base import LocalResourceManager
from ..lrm.flavors import make_lrm
from ..mds.giis import GIIS, ResourceRegistrar
from ..mds.schema import resource_ad
from ..sim.failures import FailureInjector
from ..sim.hosts import Host
from ..sim.kernel import Simulator
from ..sim.network import Network
from ..workloads.synthetic import SyntheticTraffic
from .config import AgentSpec, SiteSpec, TestbedConfig

GIIS_HOST = "mds"
REPO_HOST = "condor-repo"
MYPROXY_HOST = "myproxy"
CONDOR_BINARIES = "condor/binaries.tar"


@dataclass
class Site:
    """One administrative domain: a gatekeeper and a cluster behind it."""

    name: str
    gk_host: Host
    lrm_host: Host
    lrm: LocalResourceManager
    gatekeeper: Gatekeeper
    gridmap: GridMap
    cpus: int
    arch: str = "INTEL"
    memory: int = 512
    allocation_cost: float = 0.0
    registrar: Optional[ResourceRegistrar] = None
    #: the site's storage element (repro.data), if configured
    se_host: Optional[Host] = None
    se: Optional[GridFTPServer] = None
    storage: Optional[float] = None
    #: autoscaling policy (from SiteSpec.factory): agents' factories
    #: provision glideins here within these bounds
    factory_policy: Optional[FactoryPolicy] = None

    @property
    def contact(self) -> str:
        return self.gk_host.name

    def queue_depth(self) -> int:
        return self.lrm.depth()


def _require(spec, cls: type) -> None:
    """Reject anything but the typed spec (a bare name, say)."""
    if not isinstance(spec, cls):
        raise TypeError(
            f"expected {cls.__name__}, got {type(spec).__name__}")


class GridTestbed:
    """A multi-institutional grid in a box.

    Build one declaratively from a :class:`TestbedConfig`
    (:meth:`from_config`), or imperatively by passing a
    :class:`SiteSpec` / :class:`AgentSpec` to ``add_site`` / ``add_agent``.
    """

    def __init__(self, config: Optional[TestbedConfig] = None):
        if config is None:
            config = TestbedConfig()
        _require(config, TestbedConfig)
        self.config = config
        # Restart the module-level id counters so a testbed's ids are a
        # pure function of its seed.  Without this, the second build of
        # the same (scenario, seed) in one process numbers its jobs and
        # keys from wherever the first build left off, and the
        # determinism audit (repro.chaos.digest) flags a divergence on
        # the very first trace record.
        reset_grid_job_ids()
        reset_cluster_ids()
        reset_oracle()
        self.sim = Simulator(seed=config.seed,
                             trace_max_records=config.trace_max_records)
        self.net = Network(self.sim, latency=config.latency,
                           jitter=config.jitter,
                           loss_rate=config.loss_rate)
        self.failures = FailureInjector(self.sim)
        self.use_gsi = config.use_gsi
        self.ca = CertificateAuthority("TestGrid")
        self.sites: dict[str, Site] = {}
        self.users: dict[str, GridUser] = {}
        self.agents: dict[str, CondorGAgent] = {}
        self.factories: dict[str, GlideInFactory] = {}
        self.traffic: Optional[SyntheticTraffic] = None
        self.giis: Optional[GIIS] = None
        self.repo: Optional[GridFTPServer] = None
        self.myproxy: Optional[MyProxyServer] = None
        self.data_services: Optional[DataServices] = None
        self.replica_catalog: Optional[ReplicaCatalog] = None
        self.transfer_scheduler: Optional[TransferScheduler] = None
        if config.with_mds:
            self.giis = GIIS(Host(self.sim, GIIS_HOST))
        if config.with_repo:
            repo_host = Host(self.sim, REPO_HOST)
            self.repo = GridFTPServer(repo_host)
            self.repo.publish(CONDOR_BINARIES, size=5_000_000)
        if config.with_myproxy:
            self.myproxy = MyProxyServer(Host(self.sim, MYPROXY_HOST))
        # Declarative topology: sites first (agents' brokers snapshot
        # site contacts), then plain users, then agents.
        for site_spec in config.sites:
            self.add_site(site_spec)
        self._seed_datasets(config.datasets)
        for user_name in config.extra_users:
            self.add_user(user_name)
        for agent_spec in config.agents:
            self.add_agent(agent_spec)
        if config.traffic is not None:
            if not self.agents:
                raise ValueError("TestbedConfig.traffic needs agents")
            self.traffic = SyntheticTraffic(
                list(self.agents.values()), config.traffic)

    @classmethod
    def from_config(cls, config: TestbedConfig,
                    seed: Optional[int] = None) -> "GridTestbed":
        """Build the grid a :class:`TestbedConfig` describes.

        `seed` (if given) overrides ``config.seed``, which is how
        scenario builders reuse one topology value across seeds.
        """
        if seed is not None:
            config = config.with_seed(seed)
        return cls(config)

    # -- sites ---------------------------------------------------------------
    def add_site(self, spec: SiteSpec) -> Site:
        """Add the site a :class:`SiteSpec` describes."""
        _require(spec, SiteSpec)
        name = spec.name
        gk_host = Host(self.sim, f"{name}-gk", site=name)
        lrm_host = Host(self.sim, f"{name}-lrm", site=name)
        lrm = make_lrm(spec.scheduler, lrm_host, spec.cpus,
                       **spec.lrm_options)
        gridmap = GridMap()
        for user in self.users.values():
            gridmap.add(user.dn, f"{name}_{user.name}")
        authorizer = GSIAuthorizer.for_ca(self.ca, gridmap) \
            if self.use_gsi else None
        gatekeeper = Gatekeeper(gk_host, lrm_contact=lrm_host.name,
                                authorizer=authorizer, site=name,
                                max_jobmanagers=spec.max_jobmanagers,
                                max_user_jobmanagers=(
                                    spec.max_user_jobmanagers),
                                admission=spec.admission)
        site = Site(name=name, gk_host=gk_host, lrm_host=lrm_host,
                    lrm=lrm, gatekeeper=gatekeeper, gridmap=gridmap,
                    cpus=spec.cpus, arch=spec.arch, memory=spec.memory,
                    allocation_cost=spec.allocation_cost,
                    factory_policy=spec.factory)
        if spec.storage:
            # The site's storage element: a persistent GridFTP server on
            # its own machine, so gatekeeper crashes never lose data.
            self._ensure_data_services()
            site.se_host = Host(self.sim, f"{name}-se", site=name)
            site.se = GridFTPServer(site.se_host, bandwidth=spec.storage)
            site.storage = spec.storage
            self.data_services.se_of[gk_host.name] = site.se_host.name
        if spec.register_mds and self.giis is not None:
            site.registrar = ResourceRegistrar(
                gk_host, GIIS_HOST, lambda s=site: self._site_ad(s),
                interval=spec.mds_interval, ttl=spec.mds_interval * 2.5)
        self.sites[name] = site
        return site

    # -- data services (repro.data) -------------------------------------------
    def _ensure_data_services(self) -> None:
        """Bring up the replica catalog + transfer scheduler once, the
        first time anything needs them (a site with storage)."""
        if self.data_services is not None:
            return
        config = self.config
        self.data_services = DataServices(
            catalog_host=CATALOG_HOST, dts_host=DTS_HOST,
            link_bandwidth=config.data_link_bandwidth)
        self.replica_catalog = ReplicaCatalog(
            Host(self.sim, CATALOG_HOST))
        self.transfer_scheduler = TransferScheduler(
            Host(self.sim, DTS_HOST),
            catalog_host=CATALOG_HOST,
            link_bandwidth=config.data_link_bandwidth,
            max_streams=config.data_max_streams)

    def _seed_datasets(self, datasets) -> None:
        """Pre-place each dataset's replicas at t=0 (direct file puts,
        no RPC, no bandwidth) and seed the catalog to match."""
        for ds in datasets:
            path = dataset_path(ds.name)
            replicas: dict[str, str] = {}
            checksum = SimFile(path, size=ds.size).checksum
            for site_name in ds.replicas:
                site = self.sites.get(site_name)
                if site is None or site.se is None:
                    raise ValueError(
                        f"dataset {ds.name!r} names replica site "
                        f"{site_name!r}, which has no storage element")
                site.se.files.put(SimFile(path, size=ds.size))
                replicas[site.se_host.name] = site.se.url(path)
            if self.replica_catalog is None:
                raise ValueError(
                    f"dataset {ds.name!r} configured but no site has "
                    "storage (set SiteSpec.storage)")
            self.replica_catalog.seed(ds.name, ds.size, checksum,
                                      replicas=replicas)

    def _site_ad(self, site: Site):
        info = site.lrm.queue_info()
        return resource_ad(
            name=site.name,
            contact=site.contact,
            lrm_type=site.lrm.flavor,
            total_cpus=site.cpus,
            free_cpus=info["free_slots"],
            queued_jobs=info["queued_jobs"],
            arch=site.arch,
            memory=site.memory,
            site=site.name,
            allocation_cost=site.allocation_cost,
        )

    # -- users / agents --------------------------------------------------------
    def add_user(self, name: str) -> GridUser:
        user = GridUser(name, self.ca, now=self.sim.now)
        self.users[name] = user
        for site in self.sites.values():
            site.gridmap.add(user.dn, f"{site.name}_{name}")
        return user

    def add_agent(self, spec: AgentSpec,
                  broker: Optional[Broker] = None) -> CondorGAgent:
        """Create a user + their desktop agent on `submit-<name>`.

        `broker` is a runtime argument: a live Broker instance is not
        config-value material (``AgentSpec.broker_kind`` is).
        """
        _require(spec, AgentSpec)
        name = spec.name
        user = self.users.get(name) or self.add_user(name)
        host = Host(self.sim, f"submit-{name}")
        proxy = user.proxy(now=self.sim.now, lifetime=spec.proxy_lifetime) \
            if self.use_gsi else None
        myproxy_cfg = None
        if spec.myproxy and self.myproxy is not None and proxy is not None:
            long_proxy = user.proxy(now=self.sim.now,
                                    lifetime=7 * 86400.0)
            self.myproxy._store[name] = (f"{name}-pass", long_proxy)
            myproxy_cfg = {"host": MYPROXY_HOST, "username": name,
                           "passphrase": f"{name}-pass",
                           "lifetime": spec.proxy_lifetime}
        if broker is None and spec.broker_kind:
            broker = self.make_broker(spec.broker_kind, host)
        agent = CondorGAgent(
            host, name,
            proxy=proxy,
            broker=broker,
            myproxy=myproxy_cfg,
            glidein_binaries_url=self.binaries_url,
            personal_pool=spec.personal_pool,
            negotiation_interval=spec.negotiation_interval,
            claim_reuse=spec.claim_reuse,
            warn_threshold=spec.warn_threshold,
            max_submitted_per_resource=spec.max_submitted_per_resource,
            data_services=self.data_services,
            grid_monitor=spec.grid_monitor,
        )
        # Brokers that talk to GSI-protected services need the user's
        # credential; wire it in once the credential monitor exists.
        if broker is not None and agent.credmon is not None and \
                getattr(broker, "credential_source", False) is None:
            broker.credential_source = agent.credmon.credential_source
        # Factory-managed sites: every personal-pool agent gets its own
        # autoscaler over them (Condor-G's per-user architecture -- the
        # factory serves one user's pool, not the grid).
        managed = {site.name: (site.contact, site.factory_policy)
                   for site in self.sites.values()
                   if site.factory_policy is not None}
        if managed and spec.personal_pool:
            agent.factory = GlideInFactory(agent, managed)
            self.factories[name] = agent.factory
        self.agents[name] = agent
        return agent

    def make_broker(self, kind: str, host: Host,
                    **kwargs) -> Broker:
        if kind == "userlist":
            return UserListBroker([s.contact for s in self.sites.values()])
        if kind == "mds":
            return MDSBroker(host, GIIS_HOST, **kwargs)
        if kind == "queue-aware":
            return QueueAwareBroker(
                host, [s.contact for s in self.sites.values()], **kwargs)
        if kind == "data-aware":
            if self.data_services is None:
                raise ValueError(
                    "data-aware broker needs data services; give at "
                    "least one site SiteSpec.storage")
            return DataAwareBroker(
                host, [s.contact for s in self.sites.values()],
                self.data_services, **kwargs)
        raise ValueError(f"unknown broker kind {kind!r}")

    @property
    def binaries_url(self) -> str:
        if self.repo is None:
            return ""
        return self.repo.url(CONDOR_BINARIES)

    # -- running ------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def snapshot(self, scenario: Optional[str] = None, plan=None):
        """Checkpoint the testbed's full state right now.

        Convenience wrapper over :func:`repro.sim.snapshot.capture`;
        pass the registered scenario name (and the applied fault plan,
        if any) to make the snapshot restorable in a fresh process.
        """
        from ..sim.snapshot import capture

        return capture(self, scenario=scenario, plan=plan)

    def run_until_quiet(self, check_interval: float = 50.0,
                        max_time: float = 10**7) -> None:
        """Run until every agent's every job is terminal (or max_time)."""
        guard = {"done": False}

        def watchdog():
            while self.sim.now < max_time:
                yield self.sim.timeout(check_interval)
                if self.traffic is not None and not self.traffic.finished:
                    continue    # the arrival trace is still being replayed
                if all(agent.all_terminal()
                       for agent in self.agents.values()):
                    guard["done"] = True
                    return

        self.sim.spawn(watchdog())
        while not guard["done"] and self.sim.now < max_time:
            target = min(self.sim.now + 10_000.0, max_time)
            self.sim.run(until=target)

    # -- metrics shortcuts ----------------------------------------------------
    def total_cpu_seconds(self) -> float:
        return sum(site.lrm.total_busy_time for site in self.sites.values())

    def cost_report(self, user: str) -> dict:
        """Per-site and total cost for one user (§1: users "do care...
        how much these tasks will cost").

        Each site charges ``allocation_cost`` per CPU-hour consumed by
        the user's site-local account(s).
        """
        per_site: dict[str, float] = {}
        for site in self.sites.values():
            cpu_seconds = sum(
                usage for account, usage in site.lrm.user_usage.items()
                if user in account)
            per_site[site.name] = (cpu_seconds / 3600.0
                                   * site.allocation_cost)
        per_site["total"] = sum(per_site.values())
        return per_site

    def cost_report_all(self) -> dict:
        """Every user's cost report plus the grid-wide total.

        Convenience wrapper over :func:`repro.grid.metrics.
        grid_cost_report`, which is where the aggregation logic lives.
        """
        from .metrics import grid_cost_report

        return grid_cost_report(self)
