"""Discrete-event simulation kernel.

A tiny, deterministic, generator-based DES in the style of SimPy, tuned for
protocol simulation:

* :class:`Event` -- one-shot occurrence carrying a value or an exception.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- wraps a generator; the generator ``yield``\\ s events
  (or other processes) and is resumed with the event's value when it fires.
  A process is itself an event that fires when the generator returns.
* :class:`Simulator` -- the event loop: a binary heap of ``(time, seq,
  event)`` entries.  ``seq`` makes ordering total and the whole simulation
  deterministic.

Design notes
------------
The kernel never touches wall-clock time or global randomness; randomness is
injected through :class:`repro.sim.rng.RngRegistry` streams so that every
experiment is reproducible from a single seed.

Processes may be bound to a :class:`repro.sim.hosts.Host`.  When the host
crashes, the kernel closes the process generator and *fails the process
event* with :class:`~repro.sim.errors.ProcessKilled`, so local joiners see
the death while remote parties (which can only interact over the simulated
network) observe silence -- exactly the failure model Condor-G was built
against.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import Interrupt, ProcessKilled, SimulationError

_UNSET = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` moves it to *triggered*, after which its callbacks run at
    the current simulation time (via the heap, preserving determinism).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_scheduled", "name",
                 "_cancelled")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._scheduled = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _UNSET or self._exc is not None

    @property
    def ok(self) -> bool:
        return self._exc is None

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError(f"event {self} has no value yet")
        return self._value

    @property
    def exc(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._scheduled or self.triggered:
            raise SimulationError(f"event {self} triggered twice")
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._scheduled or self.triggered:
            raise SimulationError(f"event {self} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exc = exc
        self._value = None
        self.sim._schedule_event(self)
        return self

    def cancel(self) -> None:
        """Abandon a scheduled-but-unfired event (e.g. an unneeded timer).

        Cancelled events are skipped when popped from the heap, so they no
        longer hold the simulation clock open.  Cancelling a triggered
        event is a no-op.

        Cancelling an event that a :class:`Process` is currently blocked
        on would strand that process forever (its resume callback is
        dropped without ever firing): in strict mode that raises
        :class:`SimulationError` at the cancel site; otherwise it is
        surfaced as a ``kernel/stranded_waiters`` trace record and
        metric so the leak is observable.
        """
        if self.triggered or self._cancelled:
            return
        if self.callbacks:
            stranded = [
                cb.__self__ for cb in self.callbacks
                if getattr(cb, "__func__", None) is Process._resume
                and cb.__self__._alive and cb.__self__._target is self
            ]
            if stranded:
                names = ", ".join(p.name for p in stranded)
                if self.sim.strict:
                    raise SimulationError(
                        f"cancel() on event {self.name or hex(id(self))} "
                        f"strands waiting process(es): {names}")
                self.sim.trace.log("kernel", "stranded_waiters",
                                   cancelled=self.name, processes=names)
                self.sim.metrics.counter("kernel.stranded_waiters").inc(
                    len(stranded))
        self._cancelled = True
        if self._scheduled:
            self.sim._note_tombstone()

    def _run_callbacks(self) -> None:
        if self._cancelled:
            self.callbacks.clear()
            return
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Unlike a plain event, a timeout is scheduled at construction but only
    becomes *triggered* (value readable, waiters resumable) when the clock
    reaches it.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 at: Optional[float] = None):
        if at is not None:
            delay = at - sim.now
        if delay < 0:
            raise ValueError(f"negative timeout {delay!r}")
        # Static name: formatting f"timeout({delay})" per instance was
        # measurable on the hot path; __repr__ still shows the delay.
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._pending_value = value if value is not None else delay
        sim._schedule_event(self, delay=delay, at=at)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<Timeout delay={self.delay} {state}>"

    def _run_callbacks(self) -> None:
        self._value = self._pending_value
        super()._run_callbacks()


class AnyOf(Event):
    """Fires when the *first* of the child events fires.

    Succeeds with ``(index, value)`` of the first successful child; fails
    with the first child's exception if that child failed.  Remaining
    children are left un-consumed (their failures are defused so they do not
    count as unhandled).
    """

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        self._done = False
        if not self.events:
            raise ValueError("AnyOf needs at least one event")
        for i, ev in enumerate(self.events):
            if ev.triggered:
                self._on_child(i, ev)
                break
            ev.callbacks.append(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        return lambda ev: self._on_child(index, ev)

    def _on_child(self, index: int, ev: Event) -> None:
        if self._done:
            return
        self._done = True
        for other in self.events:
            if other is not ev:
                _defuse(other)
        if ev.ok:
            self.succeed((index, ev._value))
        else:
            self.fail(ev._exc)  # type: ignore[arg-type]


class AllOf(Event):
    """Fires when *all* child events fire; value is the list of values.

    Fails fast with the first child failure (other children are defused).
    """

    __slots__ = ("events", "_pending", "_failed")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._failed = False
        self._pending = 0
        for i, ev in enumerate(self.events):
            if ev.triggered:
                if not ev.ok:
                    self._failed = True
                    self.fail(ev._exc)  # type: ignore[arg-type]
                    return
            else:
                self._pending += 1
                ev.callbacks.append(self._on_child)
        if self._pending == 0 and not self.triggered:
            self.succeed([ev._value for ev in self.events])

    def _on_child(self, ev: Event) -> None:
        if self._failed or self.triggered:
            return
        if not ev.ok:
            self._failed = True
            for other in self.events:
                if other is not ev:
                    _defuse(other)
            self.fail(ev._exc)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self.events])


def _defuse(ev: Event) -> None:
    """Mark a pending/failed event as handled so its failure is not fatal."""

    def _sink(_e: Event) -> None:
        return None

    ev.callbacks.append(_sink)


ProcessGen = Generator[Any, Any, Any]


class Process(Event):
    """A running activity driven by a generator.

    The generator yields :class:`Event` instances (including other
    processes) and is resumed with the event's value; a failed event is
    re-raised *inside* the generator, so processes handle remote failures
    with ordinary ``try/except``.
    """

    __slots__ = ("gen", "host", "_target", "_alive", "_had_waiter")

    def __init__(
        self,
        sim: "Simulator",
        gen: ProcessGen,
        name: str = "",
        host: Optional[object] = None,
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        self.host = host
        self._target: Optional[Event] = None
        self._alive = True
        self._had_waiter = False
        if host is not None:
            host._attach_process(self)
        # Kick off at the current time.
        boot = Event(sim, name=f"boot:{self.name}")
        boot.callbacks.append(self._resume)
        boot.succeed(None)

    @property
    def alive(self) -> bool:
        return self._alive

    # -- stepping ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if not self._alive:
            return
        self._target = None
        try:
            if event.ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._exc)  # type: ignore[arg-type]
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process body failed
            self._finish(exc=exc)
            return
        self._bind(target)

    def _bind(self, target: Any) -> None:
        if isinstance(target, Process):
            target._had_waiter = True
        if not isinstance(target, Event):
            self._finish(
                exc=SimulationError(
                    f"process {self.name} yielded non-event {target!r}"
                )
            )
            return
        if target.sim is not self.sim:
            self._finish(
                exc=SimulationError("yielded event belongs to another simulator")
            )
            return
        self._target = target
        if target.triggered:
            # Re-schedule immediately so resumption stays in heap order.
            relay = Event(self.sim, name=f"relay:{self.name}")
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._exc)  # type: ignore[arg-type]
        else:
            target.callbacks.append(self._resume)

    def _finish(
        self, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        if self.triggered or self._scheduled:
            return   # killed from inside its own execution
        self._alive = False
        if self.host is not None:
            self.host._detach_process(self)
        if exc is None:
            self.succeed(value)
        else:
            self.fail(exc)
            self.sim._note_process_failure(self, exc)

    def _run_callbacks(self) -> None:
        if not self.ok and self.callbacks:
            self._had_waiter = True
        super()._run_callbacks()

    # -- control ----------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        self._unhook()
        relay = Event(self.sim, name=f"interrupt:{self.name}")
        relay.callbacks.append(self._resume)
        relay.fail(Interrupt(cause))

    def kill(self, cause: object = None) -> None:
        """Destroy the process (host crash semantics).

        The generator is closed without running except-blocks against a
        specific exception, and joiners receive :class:`ProcessKilled`.
        """
        if not self._alive:
            return
        self._alive = False
        self._unhook()
        if self.host is not None:
            self.host._detach_process(self)
        try:
            self.gen.close()
        except BaseException:  # noqa: BLE001 - generator misbehaved on close
            pass
        if not self.triggered:
            self.fail(ProcessKilled(self.name, cause))
            # A killed process is expected collateral, never a test failure.
            self.sim._forgive(self)

    def _unhook(self) -> None:
        if self._target is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator(seed=7)
        sim.spawn(my_process(sim))
        sim.run(until=3600)
    """

    def __init__(self, seed: int = 0, strict: bool = True,
                 trace_max_records: Optional[int] = None):
        from .rng import RngRegistry
        from .stats import MetricsRegistry
        from .trace import Trace

        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._tombstones = 0       # cancelled events still in the heap
        self.strict = strict
        self._failures: list[tuple[Process, BaseException]] = []
        self._forgiven: set[int] = set()
        self.rng = RngRegistry(seed)
        self.trace = Trace(self, max_records=trace_max_records)
        self.metrics = MetricsRegistry(self)
        self.hosts: dict[str, object] = {}
        self.network = None  # set by Network.__init__

    # -- scheduling -------------------------------------------------------
    def _schedule_event(self, ev: Event, delay: float = 0.0,
                        at: Optional[float] = None) -> None:
        if ev._scheduled:
            return
        ev._scheduled = True
        self._seq += 1
        t = self.now + delay if at is None else at
        heapq.heappush(self._heap, (t, self._seq, ev))

    def _note_tombstone(self) -> None:
        """A scheduled event was cancelled; compact once tombstones win.

        Tombstones hold their ``(time, seq, event)`` triple in the heap
        until popped; a workload that cancels most of its timers (every
        RPC abandons its timeout) can leave the heap mostly dead.
        Compaction filters the dead entries and re-heapifies; pop order
        of the survivors is untouched because ordering is a pure
        function of the (time, seq) keys.
        """
        self._tombstones += 1
        if self._tombstones > 256 and self._tombstones * 2 > len(self._heap):
            self.compact_heap()

    def schedule(self, delay: float, fn: Callable[[], None],
                 at: Optional[float] = None) -> Event:
        """Run a plain callback after ``delay`` seconds.

        With ``at`` the callback fires at that *absolute* time instead;
        like :meth:`timeout_until` this avoids the ``now + (t - now)``
        float round-trip, so a callback armed mid-run fires at exactly
        the same instant as one armed at t=0.
        """
        ev = Timeout(self, delay, at=at)
        ev.callbacks.append(lambda _e: fn())
        return ev

    def compact_heap(self) -> int:
        """Drop cancelled entries from the heap; returns how many went.

        Pop order of survivors is untouched (ordering is a pure function
        of the ``(time, seq)`` keys), so this is behaviour-neutral --
        it is the canonicalization step snapshots use so that heap
        contents do not depend on when automatic tombstone compaction
        last ran.
        """
        dropped = self._tombstones
        if dropped:
            # In-place: run() may hold a local alias to the heap list.
            self._heap[:] = [entry for entry in self._heap
                             if not entry[2]._cancelled]
            heapq.heapify(self._heap)
            self._tombstones = 0
        return dropped

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_until(self, t: float, value: Any = None) -> Timeout:
        """A timeout firing at *absolute* simulated time ``t`` (>= now).

        Unlike ``timeout(t - now)``, the fire time is exactly ``t`` with
        no float round-trip through a relative delay; the idle-skipping
        probe loop relies on this to keep its tick times on the same
        phase grid as an always-ticking loop.
        """
        return Timeout(self, 0.0, value, at=t)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(
        self,
        gen: ProcessGen,
        name: str = "",
        host: Optional[object] = None,
    ) -> Process:
        return Process(self, gen, name=name, host=host)

    # -- failure bookkeeping -----------------------------------------------
    def _note_process_failure(self, proc: Process, exc: BaseException) -> None:
        # Only fatal if nobody is joined on the process *after* callbacks run;
        # record now, filter at run() time.
        self._failures.append((proc, exc))

    def _forgive(self, proc: Process) -> None:
        self._forgiven.add(id(proc))

    def unhandled_failures(self) -> list[tuple[Process, BaseException]]:
        out = []
        for proc, exc in self._failures:
            if id(proc) in self._forgiven:
                continue
            if proc._had_waiter:
                continue
            out.append((proc, exc))
        return out

    # -- main loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time passes ``until``."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev._cancelled:
                heappop(heap)
                if self._tombstones > 0:
                    self._tombstones -= 1
                continue
            t = entry[0]
            if until is not None and t > until:
                self.now = until
                break
            heappop(heap)
            self.now = t
            ev._run_callbacks()
        else:
            if until is not None:
                self.now = until
        if self.strict:
            bad = self.unhandled_failures()
            if bad:
                proc, exc = bad[0]
                raise SimulationError(
                    f"{len(bad)} process(es) died unhandled; first: "
                    f"{proc.name}: {type(exc).__name__}: {exc}"
                ) from exc

    def step(self) -> bool:
        """Process a single event; returns False when the heap is empty."""
        while self._heap:
            t, _seq, ev = heapq.heappop(self._heap)
            if ev._cancelled:
                if self._tombstones > 0:
                    self._tombstones -= 1
                continue
            self.now = t
            ev._run_callbacks()
            return True
        return False

    def peek(self) -> Optional[float]:
        while self._heap and self._heap[0][2]._cancelled:
            heapq.heappop(self._heap)
            if self._tombstones > 0:
                self._tombstones -= 1
        return self._heap[0][0] if self._heap else None
