"""Simulated network: latency, jitter, loss, and partitions.

:meth:`Network.send` carries every message between named services on
hosts.  Delivery is best-effort, exactly matching the failure model
Condor-G's protocols were designed for:

* the source host is down, or a partition separates the endpoints, at
  send time -> silent drop;
* the loss rate eats the message (WAN traffic only) -> silent drop;
* otherwise the message arrives after the link latency plus
  ``U(0, jitter)`` seconds, drawn per message from the ``"network"`` RNG
  stream;
* at arrival a partition, a crashed destination or a missing service
  still drops it silently; else the sender's arrival callback runs with
  the service object registered there *at that moment* (a service
  restarted while the message was in flight receives it).

The network carries no payloads: the sender's callback closes over
whatever crosses the wire, already copied.  Request/response is layered
on top in :mod:`repro.sim.rpc`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .errors import SimulationError
from .kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .hosts import Host
    from .kernel import Simulator


class Network:
    """The single network fabric of a simulation."""

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.05,
        jitter: float = 0.01,
        loss_rate: float = 0.0,
    ):
        if sim.network is not None:
            raise SimulationError("simulator already has a network")
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        # Traffic within one site rides the LAN at this fraction of the
        # WAN latency (and is never randomly lost).
        self.lan_factor = 0.2
        self._rng = sim.rng.stream("network")
        # Pairs of host names that cannot exchange messages.
        self._partitions: set[frozenset[str]] = set()
        # Per-host-name isolation (cuts a host off from everyone).
        self._isolated: set[str] = set()
        # Per-pair latency overrides (host or site names, unordered).
        self._link_latency: dict[frozenset[str], float] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        sim.network = self

    # -- partitions ---------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block traffic (both directions) between hosts named `a` and `b`."""
        self._partitions.add(frozenset((a, b)))
        self.sim.trace.log("network", "partition", a=a, b=b)

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))
        self.sim.trace.log("network", "heal", a=a, b=b)

    def isolate(self, host: str) -> None:
        """Cut a host off from the entire network."""
        self._isolated.add(host)
        self.sim.trace.log("network", "isolate", host=host)

    def rejoin(self, host: str) -> None:
        self._isolated.discard(host)
        self.sim.trace.log("network", "rejoin", host=host)

    def reachable(self, src: str, dst: str) -> bool:
        # Fully-connected fabrics (the common case) skip the frozenset
        # allocation; this is the hottest check in the simulator.
        if not self._isolated and not self._partitions:
            return True
        if src in self._isolated or dst in self._isolated:
            return False
        return frozenset((src, dst)) not in self._partitions

    # -- topology -------------------------------------------------------------
    def set_link_latency(self, a: str, b: str, latency: float) -> None:
        """Override the one-way latency between two hosts *or sites*.

        Lookup precedence at send time: host-pair override, then
        site-pair override, then the LAN factor (same site), then the
        global WAN default.
        """
        self._link_latency[frozenset((a, b))] = latency

    def _base_latency(self, src: "Host", dst: Optional["Host"],
                      dst_name: str) -> float:
        if self._link_latency:
            override = self._link_latency.get(
                frozenset((src.name, dst_name)))
            if override is not None:
                return override
            if dst is not None and src.site and dst.site:
                override = self._link_latency.get(
                    frozenset((src.site, dst.site)))
                if override is not None:
                    return override
        if dst is not None and src.site and src.site == dst.site:
            return self.latency * self.lan_factor
        return self.latency

    # -- delivery -------------------------------------------------------------
    def send(
        self,
        src: "Host",
        dst_name: str,
        service: str,
        on_arrive: Callable[[Any], None],
    ) -> None:
        """Fire-and-forget message; drops are silent (caller must timeout).

        On delivery ``on_arrive`` is called with the destination's service
        object.
        """
        self.sent += 1
        if not src.up or not self.reachable(src.name, dst_name):
            self.dropped += 1
            return
        # Loss models the WAN: traffic inside one site (same non-empty
        # `site` tag) rides the LAN and is not subject to random loss.
        dst_host = self.sim.hosts.get(dst_name)
        same_site = (dst_host is not None and src.site
                     and src.site == dst_host.site)
        if not same_site and self.loss_rate > 0.0 and \
                self._rng.random() < self.loss_rate:
            self.dropped += 1
            self.sim.trace.log("network", "loss", src=src.name, dst=dst_name,
                               service=service)
            return
        latency = self._base_latency(src, dst_host, dst_name) \
            + self._rng.uniform(0.0, self.jitter)
        src_name = src.name

        def arrive(_ev) -> None:
            # Partitions/crashes that happened in flight still stop
            # delivery.
            if not self.reachable(src_name, dst_name):
                self.dropped += 1
                return
            dst = self.sim.hosts.get(dst_name)
            svc = dst.get_service(service) if dst is not None else None
            if svc is None:
                self.dropped += 1
                return
            self.delivered += 1
            on_arrive(svc)

        Timeout(self.sim, latency).callbacks.append(arrive)
