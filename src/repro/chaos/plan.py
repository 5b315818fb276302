"""Fault plans: serializable, seed-generated failure schedules.

A :class:`FaultPlan` is the unit the chaos engine fuzzes, replays, and
shrinks: an explicit list of :class:`PlannedFault` events (crash a
gatekeeper machine, partition the WAN, isolate a host, kill one
JobManager daemon, expire a user's proxy) that can

* be **generated** from a testbed's topology using the simulator's named
  RNG streams -- so ``(scenario, seed)`` fully determines the plan;
* **round-trip through JSON** -- so a violating schedule travels in a
  bug report and replays anywhere;
* be **applied** to a fresh testbed through the
  :class:`~repro.sim.failures.FailureInjector`, which records every
  injected event for post-hoc analysis.

Every fault is survivable by design (crashed hosts restart, partitions
heal, expired proxies are usually refreshed): the invariant suite then
asserts that the grid *actually* recovers, which is the paper's §4.2
claim under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..grid.scenarios import Scenario
    from ..grid.testbed import GridTestbed

PLAN_VERSION = 1

# Fault kinds a plan may carry.  `duration` is downtime / outage length /
# delay-until-refresh, depending on the kind.
KINDS = ("crash", "partition", "isolate", "jm_kill", "proxy_expire",
         "corrupt", "factory_kill", "monitor_kill")


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled fault.  ``target`` is a host name, an ``a|b`` host
    pair (partition), or a user name (proxy_expire)."""

    time: float
    kind: str
    target: str
    duration: Optional[float] = None

    def to_dict(self) -> dict:
        return {"time": self.time, "kind": self.kind,
                "target": self.target, "duration": self.duration}

    @classmethod
    def from_dict(cls, data: dict) -> "PlannedFault":
        return cls(time=float(data["time"]), kind=str(data["kind"]),
                   target=str(data["target"]),
                   duration=(None if data.get("duration") is None
                             else float(data["duration"])))


@dataclass
class FaultPlan:
    """An ordered schedule of planned faults for one run."""

    events: list[PlannedFault] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def end_time(self) -> float:
        """When the last scheduled disturbance (including recovery) ends."""
        out = 0.0
        for ev in self.events:
            out = max(out, ev.time + (ev.duration or 0.0))
        return out

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {"version": PLAN_VERSION,
                "events": [ev.to_dict() for ev in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported fault-plan version {version!r}")
        return cls(events=[PlannedFault.from_dict(ev)
                           for ev in data.get("events", [])])

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- generation --------------------------------------------------------
    @classmethod
    def generate(
        cls,
        tb: "GridTestbed",
        horizon: float,
        kinds: tuple[str, ...] = ("crash", "partition", "isolate",
                                  "jm_kill"),
        max_faults: int = 4,
        stream: str = "chaos.plan",
    ) -> "FaultPlan":
        """Draw a random-but-reproducible plan against `tb`'s topology.

        All randomness comes from the testbed's ``stream`` RNG stream, so
        rebuilding the same scenario with the same seed regenerates the
        identical plan (the named-RNG-stream discipline), and skipping
        generation (replaying a stored plan) perturbs nothing else.
        """
        surface = fault_surface(tb)
        kinds = tuple(k for k in kinds if surface.get(k))
        rng = tb.sim.rng.stream(stream)
        events: list[PlannedFault] = []
        if kinds:
            start = tb.sim.now
            for _ in range(rng.randint(0, max_faults)):
                kind = rng.choice(kinds)
                target = rng.choice(surface[kind])
                when = round(start + rng.uniform(10.0, horizon), 3)
                duration = round(rng.uniform(30.0, 300.0), 3)
                if kind in ("jm_kill", "monitor_kill"):
                    duration = None
                elif kind == "proxy_expire" and rng.random() < 0.3:
                    duration = None    # no refresh: jobs must hold+notify
                events.append(PlannedFault(when, kind, target, duration))
        events.sort(key=lambda ev: (ev.time, ev.kind, ev.target))
        return cls(events=events)

    # -- application -------------------------------------------------------
    def apply(self, tb: "GridTestbed") -> None:
        """Schedule every planned fault on `tb` via its FailureInjector."""
        for ev in self.events:
            _apply_one(tb, ev)
        tb.sim.trace.log("chaos", "plan_applied", events=len(self.events))


def fault_surface(tb: "GridTestbed") -> dict[str, list[str]]:
    """What can break in this testbed, per fault kind.

    Gatekeeper machines crash and get isolated (the interface-machine
    failure classes of §4.2); the WAN between each submit machine and
    each gatekeeper partitions; individual JobManager daemons die; and
    proxies of users whose agents run a credential monitor expire.
    Submit and cluster machines are deliberately *not* on the default
    surface: agent-host recovery needs an operator action (see
    tests/core/test_agent_fault_tolerance.py) and cluster nodes are the
    jobs themselves, so plans stay survivable by construction.
    """
    gk_hosts = sorted(site.gk_host.name for site in tb.sites.values())
    submit_hosts = sorted(agent.host.name for agent in tb.agents.values())
    pairs = [f"{sub}|{gk}" for sub in submit_hosts for gk in gk_hosts]
    cred_users = sorted(name for name, agent in tb.agents.items()
                        if agent.credmon is not None)
    # Storage elements (repro.data) crash and get isolated like any
    # interface machine, and their disks silently corrupt incoming
    # writes -- the fault the checksum/repair machinery exists for.
    se_hosts = sorted(site.se_host.name for site in tb.sites.values()
                      if site.se_host is not None)
    # Users running a GlideInFactory: the autoscaler daemon dies and is
    # operator-restarted later (its control loop is stateless, so the
    # fresh instance re-derives everything from the queue and the fleet).
    factory_users = sorted(name for name, agent in tb.agents.items()
                           if agent.factory is not None)
    # Grid Monitors (repro.gram.monitor) live on gatekeeper hosts when
    # any agent opted into monitored status fan-in; killing one must
    # degrade cleanly to per-job probing until the client relaunches it.
    monitored = any(getattr(agent.scheduler, "grid_monitor", False)
                    for agent in tb.agents.values())
    return {
        "crash": gk_hosts + se_hosts,
        "partition": pairs,
        "isolate": gk_hosts + se_hosts,
        "jm_kill": gk_hosts,
        "proxy_expire": cred_users,
        "corrupt": se_hosts,
        "factory_kill": factory_users,
        "monitor_kill": gk_hosts if monitored else [],
    }


def _apply_one(tb: "GridTestbed", ev: PlannedFault) -> None:
    inj = tb.failures
    if ev.kind == "crash":
        host = tb.sim.hosts[ev.target]
        inj.crash_host_at(ev.time, host, down_for=ev.duration or 120.0)
    elif ev.kind == "partition":
        a, b = ev.target.split("|", 1)
        inj.partition_at(ev.time, a, b, heal_after=ev.duration or 120.0)
    elif ev.kind == "isolate":
        inj.isolate_at(ev.time, ev.target,
                       rejoin_after=ev.duration or 120.0)
    elif ev.kind == "jm_kill":
        host = tb.sim.hosts[ev.target]
        inj.crash_service_at(ev.time, host, "jm:")
    elif ev.kind == "monitor_kill":
        host = tb.sim.hosts[ev.target]
        inj.crash_service_at(ev.time, host, "monitor:")
    elif ev.kind == "proxy_expire":
        _apply_proxy_expiry(tb, ev)
    elif ev.kind == "corrupt":
        _apply_corruption(tb, ev)
    elif ev.kind == "factory_kill":
        _apply_factory_kill(tb, ev)
    else:
        raise ValueError(f"unknown fault kind {ev.kind!r}")


def _apply_factory_kill(tb: "GridTestbed", ev: PlannedFault) -> None:
    """Kill a user's GlideInFactory daemon mid-flight (and restart it).

    The control loop dies between observation and action -- in-flight
    provisioning already submitted stays submitted, glideins keep
    serving, but nothing scales until the operator restarts the daemon
    ``duration`` later.  Because the factory re-derives its whole view
    each cycle, the restarted instance must converge without help; the
    invariant suite checks the pool still drains.
    """
    user = ev.target

    def kill() -> None:
        agent = tb.agents[user]
        if agent.factory is not None:
            agent.factory.crash()

    tb.failures.custom_at(ev.time, "factory_kill", user, kill)

    def restart() -> None:
        agent = tb.agents[user]
        if agent.factory is not None and \
                agent.host.get_service(agent.factory.name) is None:
            fresh = agent.factory.restarted()
            tb.factories[user] = fresh

    tb.failures.custom_at(ev.time + (ev.duration or 120.0),
                          "factory_restart", user, restart)


def _apply_corruption(tb: "GridTestbed", ev: PlannedFault) -> None:
    """Arm an SE's GridFTP server to corrupt its next incoming write.

    Silent data corruption at rest: the next file stored at the target
    storage element loses its final byte.  The file stays internally
    consistent (size matches data), but its digest no longer matches the
    catalog's expected checksum -- the transfer scheduler and stage-out
    paths must detect that, delete the bad copy, and re-transfer.
    """
    def arm() -> None:
        host = tb.sim.hosts[ev.target]
        server = host.services.get("gridftp")
        if server is not None:
            server.corrupt_next(1)

    tb.failures.custom_at(ev.time, "corrupt", ev.target, arm)


def _apply_proxy_expiry(tb: "GridTestbed", ev: PlannedFault) -> None:
    """Force a user's proxy to its end of life (and maybe refresh later).

    Expiry is modelled by handing the credential monitor a zero-lifetime
    proxy: from that instant ``credential_source`` returns None and the
    §4.3 hold-and-notify machinery must take over.  If the fault carries
    a duration, the user "runs grid-proxy-init" that much later.
    """
    user = ev.target
    agent = tb.agents[user]

    def expire() -> None:
        dead = tb.users[user].credential.create_proxy(
            now=tb.sim.now, lifetime=0.0)
        agent.credmon.proxy = dead

    tb.failures.custom_at(ev.time, "proxy_expire", user, expire)
    if ev.duration is not None:
        def refresh() -> None:
            fresh = tb.users[user].proxy(now=tb.sim.now,
                                         lifetime=12 * 3600.0)
            agent.refresh_proxy(fresh)

        tb.failures.custom_at(ev.time + ev.duration, "proxy_refresh",
                              user, refresh)
