"""Request/response RPC over the simulated network.

Semantics are deliberately *at-most-once with silent loss*: a call either
returns the handler's value, raises a typed remote error, or raises
:class:`~repro.sim.errors.RPCTimeout` -- and on timeout the caller cannot
know whether the request was lost, the response was lost, or the server
crashed.  Exactly-once behaviour has to be built *on top* of this (that is
what GRAM's two-phase commit with sequence numbers does, and what the
CLAIM-2PC benchmark measures).

Usage::

    class EchoService(Service):
        service_name = "echo"
        def handle_ping(self, ctx, text):
            return text.upper()

    # inside a process generator:
    value = yield from call(my_host, "server-host", "echo", "ping",
                            timeout=5.0, text="hi")
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional, TYPE_CHECKING

from .errors import (
    AuthenticationError,
    AuthorizationError,
    RemoteError,
    RPCTimeout,
    ServiceUnavailable,
)
from .fastcopy import fast_deepcopy
from .kernel import Event, Timeout
from .network import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .hosts import Host

_ERROR_KINDS = {
    "AuthenticationError": AuthenticationError,
    "AuthorizationError": AuthorizationError,
    "ServiceUnavailable": ServiceUnavailable,
}


@dataclass(frozen=True)
class CallContext:
    """Information about the remote caller, passed to every handler."""

    caller_host: str
    credential: Any = None
    principal: Optional[str] = None   # local account after gridmap mapping


class _ReplyDispatch:
    """Hidden per-host service that routes RPC responses to waiting events."""

    SERVICE = "_rpc"

    def __init__(self, host: "Host"):
        self.pending: dict[int, Any] = {}
        host.register_service(self.SERVICE, self)

    def deliver(self, dgram: "Datagram") -> None:
        token = dgram.payload.get("token")
        ev = self.pending.pop(token, None)
        if ev is not None and not ev.triggered:
            ev.succeed(dgram.payload)


def _dispatch(host: "Host") -> _ReplyDispatch:
    disp = host.get_service(_ReplyDispatch.SERVICE)
    if disp is None:
        disp = _ReplyDispatch(host)
    return disp


def _next_token(sim) -> int:
    counter = getattr(sim, "_rpc_tokens", None)
    if counter is None:
        counter = itertools.count(1)
        sim._rpc_tokens = counter
    return next(counter)


# -- inline fast path ---------------------------------------------------------
#
# The inline path short-circuits the common RPC shape -- a plain
# synchronous handler on a reachable host, no authorizer -- skipping the
# Datagram wrappers, the full-payload deep-copies and the per-request serve
# process.  The contract is the usual one: bit-identical digests versus the
# real path, which pins three things exactly:
#
# * RNG draws -- the shared "network" stream sees the same draws in the
#   same order at the same times (a jitter draw per non-dropped leg, a loss
#   roll exactly where ``Network.send`` would roll one);
# * heap positions -- each stage is scheduled at the execution point where
#   the real machinery pushes its event: the request arrival where ``send``
#   schedules ``_arrive``, the handler via a zero-delay schedule issued
#   inside the arrival (the serve process's boot event lands in precisely
#   that slot), and the reply arrival where the response send schedules;
# * failure windows -- host/partition/service state is re-checked at each
#   hop's *arrival* time.  A service object swapped in flight by a
#   crash+restart falls back to real datagram delivery (the new instance
#   must serve the request, as it would for the real in-flight message),
#   while a swap during the zero-delay serve window drops the call (the
#   crash would have killed the serve process).
#
# Anything that does not fit -- generator handlers, authorizers, Mailboxes,
# services overriding ``deliver``/``_serve`` -- transparently takes the
# real path.  The decision is made per send, so mid-run topology or
# loss-rate changes are honoured.

_INLINE_CACHE: dict[tuple[type, str], Optional[tuple[bool, str]]] = {}

#: Optional live RPC tally for profiling (see ``repro.profile``): when a
#: dict is installed here, every ``call()``/``notify()`` increments
#: ``RPC_STATS[(service, method)]``.  Plain Python bookkeeping outside
#: the simulation -- no events, no RNG, no metrics -- so enabling it
#: never changes a run's digest.
RPC_STATS: Optional[dict] = None

# Immutable result types that never need the serialization copy.
_ATOMS = frozenset((type(None), bool, int, float, str))

# CallContext is frozen, so unauthenticated contexts are shareable; one
# cached instance per caller host saves an allocation per inline call.
_CTX_CACHE: dict[str, CallContext] = {}


def _inline_plan(sim, dst: str, service: str, method: str):
    """Return ``(service, fresh_result, handler_name)`` or None."""
    dst_host = sim.hosts.get(dst)
    if dst_host is None or not dst_host.up:
        return None
    svc = dst_host.services.get(service)
    if svc is None:
        return None
    cls = type(svc)
    key = (cls, method)
    plan = _INLINE_CACHE.get(key, False)
    if plan is False:
        mname = "handle_" + method
        handler = getattr(cls, mname, None)
        ok = (getattr(cls, "deliver", None) is Service.deliver
              and getattr(cls, "_serve", None) is Service._serve
              and handler is not None
              and not inspect.isgeneratorfunction(handler))
        fresh = method in getattr(cls, "rpc_fresh_results", ())
        plan = (fresh, mname) if ok else None
        _INLINE_CACHE[key] = plan
    if plan is None or svc.authorizer is not None:
        return None
    return svc, plan[0], plan[1]


def _mimic_send(net, src_host: "Host", dst: str, service: str,
                on_arrive) -> None:
    """Replicate ``Network.send``'s bookkeeping, draws and scheduling.

    Identical control flow minus the Datagram and the payload copy (the
    caller copies exactly what crosses the boundary).  ``on_arrive`` is
    attached directly as an event callback (it receives the event).
    """
    net.sent += 1
    if not src_host.up:
        net.dropped += 1
        return
    if not net.reachable(src_host.name, dst):
        net.dropped += 1
        return
    dst_host = net.sim.hosts.get(dst)
    same_site = (dst_host is not None and src_host.site
                 and src_host.site == dst_host.site)
    if not same_site and net.loss_rate > 0.0 and \
            net._rng.random() < net.loss_rate:
        net.dropped += 1
        net.sim.trace.log("network", "loss", src=src_host.name, dst=dst,
                          service=service)
        return
    latency = net._base_latency(src_host, dst_host, dst) \
        + net._rng.uniform(0.0, net.jitter)
    Timeout(net.sim, latency).callbacks.append(on_arrive)


def _drain(net, host: "Host", reply_to: str, token, gen):
    # Only reachable if a handler was swapped for a generator in flight
    # (never in-tree); finish it under serve semantics.
    ok, value, error = True, None, None
    try:
        value = yield from gen
    except Exception as exc:  # noqa: BLE001 - marshalled to the caller
        ok = False
        error = {"kind": type(exc).__name__, "message": str(exc)}
    if token is None:
        return
    net.send(host, reply_to, _ReplyDispatch.SERVICE, {
        "kind": "response", "token": token, "ok": ok,
        "value": value, "error": error,
    })


def _inline_request(sim, net, src: "Host", dst: str, service: str,
                    method: str, svc, plan, token, credential,
                    args) -> None:
    """One request (and, for calls, its response) on the inline path."""
    fresh, mname = plan
    # Snapshot what crosses the wire now, like the real send's payload
    # copy.  The kwargs dict itself is rebuilt by the ** call below, so
    # only the values need isolating.
    req_args = fast_deepcopy(args) if args else args
    req_cred = credential if credential is None else fast_deepcopy(credential)

    def serve(_ev) -> None:
        # A crash in the zero-delay window would have killed the serve
        # process; the services dict is cleared (and repopulated with new
        # objects on restart), so object identity detects it.
        dst_host = sim.hosts.get(dst)
        if dst_host is None or not dst_host.up or \
                dst_host.services.get(service) is not svc:
            return
        ok, value, error = True, None, None
        try:
            if req_cred is None:
                ctx = _CTX_CACHE.get(src.name)
                if ctx is None:
                    ctx = CallContext(caller_host=src.name)
                    _CTX_CACHE[src.name] = ctx
            else:
                ctx = CallContext(caller_host=src.name,
                                  credential=req_cred, principal=None)
            handler = getattr(svc, mname, None)
            if handler is None:
                raise ServiceUnavailable(
                    f"service {svc.name} has no method {method!r}")
            result = handler(ctx, **req_args)
            if inspect.isgenerator(result):
                dst_host.spawn(_drain(net, dst_host, src.name, token, result))
                return
            value = result
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            ok = False
            error = {"kind": type(exc).__name__, "message": str(exc)}
        if token is None:
            return
        # Immutable results and declared-fresh ones cross without the
        # serialization copy; content is identical either way.
        if fresh or type(value) in _ATOMS:
            value_copy = value
        else:
            value_copy = fast_deepcopy(value)

        def reply_arrive(_ev) -> None:
            if not net.reachable(dst, src.name):
                net.dropped += 1
                return
            caller = sim.hosts.get(src.name)
            if caller is None or not caller.up:
                net.dropped += 1
                return
            disp = caller.services.get(_ReplyDispatch.SERVICE)
            if disp is None:
                net.dropped += 1
                return
            net.delivered += 1
            ev = disp.pending.pop(token, None)
            if ev is not None and not ev.triggered:
                ev.succeed({"ok": ok, "value": value_copy, "error": error})

        _mimic_send(net, dst_host, src.name, _ReplyDispatch.SERVICE,
                    reply_arrive)

    def arrive(_ev) -> None:
        if not net.reachable(src.name, dst):
            net.dropped += 1
            return
        dst_host = sim.hosts.get(dst)
        if dst_host is None or not dst_host.up:
            net.dropped += 1
            return
        svc_now = dst_host.services.get(service)
        if svc_now is None:
            net.dropped += 1
            return
        net.delivered += 1
        if svc_now is svc:
            # The serve process's boot event: the same zero-delay push the
            # real spawn would make at this execution point.
            Timeout(sim, 0.0).callbacks.append(serve)
        else:
            # Service replaced in flight (crash + restart): the real
            # datagram would reach the new instance -- deliver it.
            svc_now.deliver(Datagram(src.name, dst, service, {
                "kind": "request", "method": method, "args": req_args,
                "token": token, "reply_to": src.name,
                "credential": req_cred,
            }))

    _mimic_send(net, src, dst, service, arrive)


def call(
    src: "Host",
    dst: str,
    service: str,
    method: str,
    timeout: float = 10.0,
    credential: Any = None,
    **args: Any,
) -> Generator[Any, Any, Any]:
    """RPC a remote service method; use with ``yield from``.

    Raises :class:`RPCTimeout` if no response arrives within ``timeout``
    simulated seconds, or a typed error mirroring the remote exception.
    """
    sim = src.sim
    net = sim.network
    if net is None:
        raise RuntimeError("simulation has no Network")
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1
    disp = _dispatch(src)
    token = _next_token(sim)
    plan = _inline_plan(sim, dst, service, method)
    if plan is not None:
        reply = Event(sim, name="rpc")
        disp.pending[token] = reply
        _inline_request(sim, net, src, dst, service, method, plan[0],
                        plan[1:], token, credential, args)
        timer = Timeout(sim, timeout)
        # Lightweight any_of: the wakeup event is succeeded from inside
        # the winning child's callbacks, so the process resumes exactly
        # one event push after the child fires -- the same distance the
        # real AnyOf's own scheduled event puts it at.
        wake = Event(sim, name="any_of")

        def _reply_won(ev, wake=wake):
            if not wake.triggered:
                wake.succeed((0, ev._value))

        def _timed_out(ev, wake=wake):
            if not wake.triggered:
                wake.succeed((1, None))

        reply.callbacks.append(_reply_won)
        timer.callbacks.append(_timed_out)
        index, value = yield wake
    else:
        reply = sim.event(name=f"rpc:{service}.{method}:{token}")
        disp.pending[token] = reply
        net.send(src, dst, service, {
            "kind": "request",
            "method": method,
            "args": args,
            "token": token,
            "reply_to": src.name,
            "credential": credential,
        })
        timer = sim.timeout(timeout)
        index, value = yield sim.any_of([reply, timer])
    if index == 1:
        disp.pending.pop(token, None)
        raise RPCTimeout(f"{service}.{method} on {dst} (after {timeout}s)")
    timer.cancel()
    if value["ok"]:
        return value["value"]
    err = value["error"]
    exc_type = _ERROR_KINDS.get(err["kind"], RemoteError)
    if exc_type is RemoteError:
        raise RemoteError(err["message"], kind=err["kind"])
    raise exc_type(err["message"])


def notify(
    src: "Host",
    dst: str,
    service: str,
    method: str,
    credential: Any = None,
    **args: Any,
) -> None:
    """One-way datagram dispatched to ``handle_<method>`` (no response)."""
    sim = src.sim
    net = sim.network
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1
    if net is not None:
        plan = _inline_plan(sim, dst, service, method)
        if plan is not None:
            _inline_request(sim, net, src, dst, service, method, plan[0],
                            plan[1:], None, credential, args)
            return
    net.send(src, dst, service, {
        "kind": "request",
        "method": method,
        "args": args,
        "token": None,
        "reply_to": src.name,
        "credential": credential,
    })


class Service:
    """Base class for RPC services.

    Subclasses define ``handle_<method>(self, ctx, **kwargs)``; handlers may
    be plain methods or generators (which can do simulated work / nested
    RPCs).  Setting ``authorizer`` enforces GSI-style authentication on
    every request; on success the mapped local principal is available as
    ``ctx.principal``.

    ``rpc_fresh_results`` lists method names whose return values are
    freshly allocated per call (no aliasing with server state); the
    inline RPC fast path hands those to the caller without the
    serialization deep-copy.  Only declare a method when every container
    it returns is built inside the handler.
    """

    service_name: str = ""
    rpc_fresh_results: tuple = ()

    def __init__(self, host: "Host", name: str = "", authorizer: Any = None):
        self.host = host
        self.sim = host.sim
        self.name = name or self.service_name
        if not self.name:
            raise ValueError("service needs a name")
        self.authorizer = authorizer
        host.register_service(self.name, self)

    def shutdown(self) -> None:
        self.host.unregister_service(self.name)

    # -- delivery -----------------------------------------------------------
    def deliver(self, dgram: "Datagram") -> None:
        payload = dgram.payload
        if payload.get("kind") != "request":
            return
        self.host.spawn(
            self._serve(dgram),
            name=f"{self.name}.{payload.get('method')}@{self.host.name}",
        )

    def _serve(self, dgram: "Datagram") -> Generator[Any, Any, None]:
        payload = dgram.payload
        method = payload["method"]
        token = payload["token"]
        ok, value, error = True, None, None
        try:
            principal = None
            if self.authorizer is not None:
                principal = self.authorizer.authorize(
                    payload.get("credential"), self.sim.now
                )
            ctx = CallContext(
                caller_host=dgram.src,
                credential=payload.get("credential"),
                principal=principal,
            )
            handler = getattr(self, "handle_" + method, None)
            if handler is None:
                raise ServiceUnavailable(
                    f"service {self.name} has no method {method!r}")
            result = handler(ctx, **payload["args"])
            if inspect.isgenerator(result):
                result = yield from result
            value = result
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            ok = False
            error = {"kind": type(exc).__name__, "message": str(exc)}
        if token is None:
            return
        self.sim.network.send(self.host, payload["reply_to"],
                              _ReplyDispatch.SERVICE, {
            "kind": "response",
            "token": token,
            "ok": ok,
            "value": value,
            "error": error,
        })
