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

How a request travels: :func:`call` and :func:`notify` copy the
arguments and credential (serialization: nothing is shared across hosts)
and hand :meth:`~repro.sim.network.Network.send` a callback.  When the
request arrives, that callback authorizes it, runs the handler and --
for calls -- sends the reply through the same ``send`` to the caller's
pending table.  A generator handler is drained by one process on the
server host, so a server crash kills it and the caller sees silence.
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

if TYPE_CHECKING:  # pragma: no cover
    from .hosts import Host

_ERROR_KINDS = {
    "AuthenticationError": AuthenticationError,
    "AuthorizationError": AuthorizationError,
    "ServiceUnavailable": ServiceUnavailable,
}

#: Hidden per-host service: the caller's table of pending replies,
#: token -> the event its ``call`` waits on.
_REPLY_SERVICE = "_rpc"

#: Optional live RPC tally for profiling (see ``repro.profile``): when a
#: dict is installed here, every ``call()``/``notify()`` increments
#: ``RPC_STATS[(service, method)]``.  Plain Python bookkeeping outside
#: the simulation -- no events, no RNG, no metrics -- so enabling it
#: never changes a run's digest.
RPC_STATS: Optional[dict] = None

# Immutable result types that never need the serialization copy.
_ATOMS = frozenset((type(None), bool, int, float, str))


@dataclass(frozen=True)
class CallContext:
    """Information about the remote caller, passed to every handler."""

    caller_host: str
    credential: Any = None
    principal: Optional[str] = None   # local account after gridmap mapping


# CallContext is frozen, so unauthenticated contexts are shareable; one
# cached instance per caller host saves an allocation per call.
_CTX_CACHE: dict[str, CallContext] = {}


def _pending(host: "Host") -> dict:
    table = host.get_service(_REPLY_SERVICE)
    if table is None:
        table = {}
        host.register_service(_REPLY_SERVICE, table)
    return table


def _next_token(sim) -> int:
    counter = getattr(sim, "_rpc_tokens", None)
    if counter is None:
        counter = itertools.count(1)
        sim._rpc_tokens = counter
    return next(counter)


def _error(exc: Exception) -> dict:
    return {"kind": type(exc).__name__, "message": str(exc)}


def _request(src: "Host", dst: str, service: str, method: str,
             args: dict, credential: Any, token: Optional[int]) -> None:
    """Send one request; its arrival serves it and, given a token,
    replies to ``src``'s pending table."""
    net = src.sim.network
    caller = src.name
    # Snapshot what crosses the wire now.  The kwargs dict itself is
    # rebuilt by the ** call below, so only the values need isolating.
    if args:
        args = fast_deepcopy(args)
    if credential is not None:
        credential = fast_deepcopy(credential)

    def reply(svc, ok: bool, value: Any, error: Optional[dict]) -> None:
        if token is None:
            return
        # Immutable results and declared-fresh ones cross without the
        # serialization copy; content is identical either way.
        if type(value) not in _ATOMS and \
                method not in svc.rpc_fresh_results:
            value = fast_deepcopy(value)
        response = {"ok": ok, "value": value, "error": error}

        def resolve(pending: dict) -> None:
            ev = pending.pop(token, None)
            if ev is not None and not ev.triggered:
                ev.succeed(response)

        net.send(svc.host, caller, _REPLY_SERVICE, resolve)

    def finish(svc, gen) -> Generator[Any, Any, None]:
        try:
            value = yield from gen
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            reply(svc, False, None, _error(exc))
            return
        reply(svc, True, value, None)

    def serve(svc) -> None:
        try:
            principal = None
            if svc.authorizer is not None:
                principal = svc.authorizer.authorize(credential, svc.sim.now)
            if credential is None and principal is None:
                ctx = _CTX_CACHE.get(caller)
                if ctx is None:
                    ctx = _CTX_CACHE[caller] = CallContext(caller)
            else:
                ctx = CallContext(caller, credential, principal)
            handler = getattr(svc, "handle_" + method, None)
            if handler is None:
                raise ServiceUnavailable(
                    f"service {svc.name} has no method {method!r}")
            result = handler(ctx, **args)
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            reply(svc, False, None, _error(exc))
            return
        if inspect.isgenerator(result):
            host = svc.host
            host.spawn(finish(svc, result),
                       name=f"{svc.name}.{method}@{host.name}")
        else:
            reply(svc, True, result, None)

    net.send(src, dst, service, serve)


def _tally(service: str, method: str) -> None:
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1


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
    if sim.network is None:
        raise RuntimeError("simulation has no Network")
    _tally(service, method)
    pending = _pending(src)
    token = _next_token(sim)
    reply = Event(sim, name="rpc")
    pending[token] = reply
    _request(src, dst, service, method, args, credential, token)
    timer = Timeout(sim, timeout)
    # Lightweight any_of: the wakeup event is succeeded from inside the
    # winning child's callbacks, so the process resumes one event push
    # after the child fires -- where AnyOf would resume it.
    wake = Event(sim, name="any_of")

    def _reply_won(ev):
        if not wake.triggered:
            wake.succeed((0, ev._value))

    def _timed_out(ev):
        if not wake.triggered:
            wake.succeed((1, None))

    reply.callbacks.append(_reply_won)
    timer.callbacks.append(_timed_out)
    index, value = yield wake
    if index == 1:
        pending.pop(token, None)
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
    """One-way request dispatched to ``handle_<method>`` (no response)."""
    if src.sim.network is None:
        raise RuntimeError("simulation has no Network")
    _tally(service, method)
    _request(src, dst, service, method, args, credential, None)


class Service:
    """Base class for RPC services.

    Subclasses define ``handle_<method>(self, ctx, **kwargs)``; handlers may
    be plain methods or generators (which can do simulated work / nested
    RPCs).  A plain handler runs when the request arrives; a generator
    handler is drained by a process on this service's host.  Setting
    ``authorizer`` enforces GSI-style authentication on every request; on
    success the mapped local principal is available as ``ctx.principal``.

    ``rpc_fresh_results`` lists method names whose return values are
    freshly allocated per call (no aliasing with server state); their
    replies reach the caller without the serialization deep-copy.  Only
    declare a method when every container it returns is built inside the
    handler.
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
