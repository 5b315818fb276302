"""Golden digests: the simulator must reproduce every pinned run exactly.

``golden_digests.json`` (next to this file) pins the chaos run digest of
each light registered scenario, the per-component hashes behind one
digest, and two raw RPC-layer fingerprints.  Optimizations must leave
every value untouched; a change that moves one is a behaviour change, and
is re-pinned in the same change with its reason stated.

Regenerate the table with::

    PYTHONPATH=src python tests/sim/test_golden_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.chaos.digest import digest_parts, run_digest
from repro.grid.scenarios import get_scenario
from repro.sim import (
    AuthenticationError,
    Host,
    Network,
    RemoteError,
    RPCTimeout,
    Service,
    Simulator,
    call,
    notify,
)

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
REGENERATE = "PYTHONPATH=src python tests/sim/test_golden_digests.py"

LIGHT_SCENARIOS = ("quickstart", "three-site", "credential", "pool-reuse",
                   "monitored-gram")


def _hash(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _run(scenario: str, seed: int, until: float) -> tuple[str, dict]:
    """Run digest and per-part hashes of one cell (cached: one run each)."""
    tb = get_scenario(scenario).build(seed)
    tb.run(until=until)
    parts = digest_parts(tb)
    return run_digest(tb), {name: _hash(value)
                            for name, value in parts.items()}


def _run_digest(scenario: str, seed: int, until: float) -> str:
    return _run(scenario, seed, until)[0]


def _part_digest(scenario: str, seed: int, until: float, part: str) -> str:
    return _run(scenario, seed, until)[1][part]


class _Ping(Service):
    service_name = "svc"

    def handle_ping(self, ctx, text):
        return text.upper()


def _rpc_jitter_loss() -> str:
    """Twenty pings over a jittery, lossy link: completion times and
    network counters pin the RPC layer's RNG draws and heap order."""
    sim = Simulator(seed=77)
    net = Network(sim, latency=0.1, jitter=0.4, loss_rate=0.2)
    a = Host(sim, "a")
    b = Host(sim, "b")
    _Ping(b)
    events = []

    def proc():
        for i in range(20):
            try:
                value = yield from call(a, "b", "svc", "ping",
                                        timeout=3.0, text=str(i))
            except RPCTimeout:
                value = None
            events.append([repr(sim.now), value])

    sim.spawn(proc())
    sim.run()
    return _hash([events, net.sent, net.delivered, net.dropped])


class _Kinds(Service):
    """Every handler shape: sync, generator, typed error, fresh result,
    one-way note.  Side effects go to a log shared across restarts."""

    service_name = "kinds"
    rpc_fresh_results = ("fresh",)

    def __init__(self, host, log, **kw):
        super().__init__(host, **kw)
        self.log = log

    def _note(self, *what):
        self.log.append([repr(self.sim.now), self.name, *what])

    def handle_ping(self, ctx, text):
        self._note("ping", text, ctx.caller_host, ctx.principal)
        return text.upper()

    def handle_slow(self, ctx, duration):
        self._note("slow-start", duration, ctx.principal)
        yield self.sim.timeout(duration)
        self._note("slow-end", duration)
        return {"slept": duration}

    def handle_boom(self, ctx):
        self._note("boom")
        raise ValueError("kaboom")

    def handle_fresh(self, ctx, n):
        self._note("fresh", n)
        return {"n": n, "items": list(range(n))}

    def handle_note(self, ctx, n):
        self._note("note", n)


class _Gate:
    """Accepts one credential, rejects every other."""

    def authorize(self, credential, now):
        if credential != "alice":
            raise AuthenticationError(f"rejected {credential!r}")
        return "alice-local"


#: (service, method, credential, kwargs) cycled through by each client.
_KIND_CALLS = (
    ("kinds", "ping", None, {"text": "hi"}),
    ("kinds", "slow", None, {"duration": 0.5}),
    ("kinds", "boom", None, {}),
    ("kinds", "fresh", None, {"n": 3}),
    ("gated", "ping", "alice", {"text": "ok"}),
    ("gated", "ping", "mallory", {"text": "no"}),
    ("gated", "slow", "alice", {"duration": 0.3}),
    ("gated", "slow", "mallory", {"duration": 0.3}),
)


def _rpc_handler_kinds_run(jitter: float) -> list:
    sim = Simulator(seed=77)
    net = Network(sim, latency=0.1, jitter=jitter, loss_rate=0.2)
    clients = [Host(sim, "a"), Host(sim, "c")]
    server = Host(sim, "b")
    log = []

    def boot(host):
        _Kinds(host, log)
        _Kinds(host, log, name="gated", authorizer=_Gate())

    server.add_boot_action(boot)
    boot(server)
    events = []

    def client(host, offset):
        yield sim.timeout(offset)
        for i in range(24):
            service, method, cred, args = \
                _KIND_CALLS[(i + len(host.name)) % len(_KIND_CALLS)]
            notify(host, "b", "kinds", "note", n=i)
            try:
                value = yield from call(host, "b", service, method,
                                        timeout=2.0, credential=cred,
                                        **args)
            except RemoteError as exc:
                value = ["remote", exc.kind, str(exc)]
            except RPCTimeout:
                value = ["timeout"]
            except AuthenticationError as exc:
                value = ["auth", str(exc)]
            events.append([repr(sim.now), host.name, i, value])

    for k, host in enumerate(clients):
        sim.spawn(client(host, 0.05 * k))
    # One long outage, then short crash+restart blips that in-flight
    # requests straddle and running generator handlers die in.
    outages = [(3.0, 6.0)] + [(t, t + 0.04) for t in (8.37, 10.47, 11.3,
                                                      12.64, 15.3, 17.2,
                                                      20.5, 23.0)]
    for down, up in outages:
        sim.schedule(down, lambda: server.crash())
        sim.schedule(up, lambda: server.restart())
    sim.run()
    return [events, log, net.sent, net.delivered, net.dropped]


def _rpc_handler_kinds() -> str:
    """Sync, generator, error, fresh and one-way handlers on an open and
    an authorized service, across server crashes, with and without
    jitter: pins the RPC layer's draws, heap order and failure windows
    for every handler shape."""
    return _hash([_rpc_handler_kinds_run(jitter) for jitter in (0.0, 0.4)])


def _cases() -> dict:
    """Case id -> zero-argument function computing its digest."""
    cases = {}
    for name in LIGHT_SCENARIOS:
        cases[f"run/{name}/seed=5/until=4000"] = \
            functools.partial(_run_digest, name, 5, 4000.0)
    for seed in (5, 6):
        cases[f"run/monitored-gram/seed={seed}/until=3000"] = \
            functools.partial(_run_digest, "monitored-gram", seed, 3000.0)
    for part in ("trace", "trace_dropped", "metrics", "queues", "time"):
        cases[f"part/three-site/seed=2/until=3000/{part}"] = \
            functools.partial(_part_digest, "three-site", 2, 3000.0, part)
    cases["rpc/jitter-loss/seed=77"] = _rpc_jitter_loss
    cases["rpc/handler-kinds/seed=77"] = _rpc_handler_kinds
    return cases


CASES = _cases()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_table_covers_every_case():
    assert sorted(_golden()) == sorted(CASES), (
        f"golden table and cases disagree; regenerate with: {REGENERATE}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    pinned = _golden().get(case)
    fresh = CASES[case]()
    assert fresh == pinned, (
        f"{case}: digest moved\n  pinned: {pinned}\n  fresh:  {fresh}\n"
        f"If the behaviour change is intended, regenerate with "
        f"`{REGENERATE}` and give the reason in CHANGES.md.")


def test_seeds_matter():
    golden = _golden()
    assert golden["run/monitored-gram/seed=5/until=3000"] != \
        golden["run/monitored-gram/seed=6/until=3000"]


def main() -> int:
    table = {"regenerate": REGENERATE,
             "digests": {case: CASES[case]() for case in sorted(CASES)}}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(table['digests'])} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
