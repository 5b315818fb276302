"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's host shares its cores with other tenants.  Its speed
for one process drifts by up to 1.8x, in spells that last from under a
second to minutes, so a run's host seconds say as much about the
neighbours as about the simulator.  :class:`Metronome` calls
:func:`reference_kernel` between slices of a workload run, once per
``INTERVAL`` of run time, so both see the same host.  Each stretch of
the run's host seconds divided by the kernel call that follows it,
summed, is the run's cost in *reference units* (``ref``), which stays
put when the whole host slows down.

The kernel uses only the standard library and the same kinds of work
as the simulator: a heap of timed events, generator processes, small
objects with slots, dict stores, string keys and ``copy.deepcopy`` of
small records.  It never changes, so a ``ref`` measured by one commit
compares with one measured by another.
"""

from __future__ import annotations

import copy
import heapq
import time

#: host seconds of run between two reference calls
INTERVAL = 0.003
#: jobs in one kernel call (about 1 ms of host time on a quiet core)
KERNEL_JOBS = 48


class _Job:
    __slots__ = ("name", "record", "steps")

    def __init__(self, i: int) -> None:
        self.name = f"job-{i}"
        self.record = {"id": i, "state": "IDLE", "attrs": {"cpus": 1},
                       "history": [i]}
        self.steps = 0


def _process(job: _Job, store: dict):
    """One job's life: a few timed steps, persisting as it goes."""
    for state in ("PENDING", "ACTIVE", "DONE"):
        job.steps += 1
        job.record["state"] = state
        store[f"{job.name}/{state}"] = copy.deepcopy(job.record) \
            if job.steps % 3 == 0 else dict(job.record)
        yield 1.0 + (job.steps * 7919 % 13)


def reference_kernel() -> int:
    """A tiny discrete-event run; returns the number of events."""
    heap: list = []
    store: dict = {}
    seq = 0
    for i in range(KERNEL_JOBS):
        heapq.heappush(heap, (0.0, seq, _process(_Job(i), store)))
        seq += 1
    events = 0
    while heap:
        now, _, proc = heapq.heappop(heap)
        events += 1
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc))
    return events


class Metronome:
    """Times a run in reference units, call by call.

    Call :meth:`start` when the run starts, the instance itself after
    each slice of the run, and :meth:`stop` when the run ends.  Every
    ``interval`` host seconds a call runs the reference kernel, and the
    run's host seconds since the previous kernel call are divided by
    this call's kernel time: each stretch of the run is read against
    the host's speed at that moment, not against a mean speed.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.calls = 0
        self.ref_s = 0.0
        self.run_ref = 0.0
        self._last = 0.0
        self._since = self._due = 0.0

    def start(self) -> None:
        self._since = time.perf_counter()
        self._due = self._since

    def __call__(self) -> None:
        t0 = time.perf_counter()
        if t0 < self._due:
            return
        reference_kernel()
        t1 = time.perf_counter()
        self._last = t1 - t0
        self.run_ref += (t0 - self._since) / self._last
        self.ref_s += self._last
        self.calls += 1
        self._since = t1
        self._due = t1 + self.interval

    def stop(self) -> float:
        """Read the run's last stretch against the last kernel call;
        return the run's cost in reference units."""
        if not self.calls:
            self()
        self.run_ref += (time.perf_counter() - self._since) / self._last
        return self.run_ref

    def unit_s(self) -> float:
        """Mean host seconds of one reference call."""
        return self.ref_s / self.calls
