"""Grid job records held by the Condor-G agent.

State machine (paper §4.2)::

    UNSUBMITTED -> SUBMITTING -> PENDING -> ACTIVE -> DONE
         |  \\          |            |         |
         |   \\         v            v         v
         |    HELD   FAILED       FAILED    FAILED
         |     ^
         +-----+   (credential expiry holds; refresh releases)

Everything needed to survive a submit-machine crash is in
``queue_record()``: notably the GRAM *sequence number* (so a recovered
GridManager retries the same logical submission instead of creating a
new one) and the JobManager contact (so it reconnects instead of
resubmitting).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..gram.protocol import GramJobRequest
from ..states import JobState

# Module-level aliases: the enum members compare and serialize exactly
# like the string literals they replace (see repro.states).
UNSUBMITTED = JobState.UNSUBMITTED
STAGING = JobState.STAGING
SUBMITTING = JobState.SUBMITTING
PENDING = JobState.PENDING
ACTIVE = JobState.ACTIVE
STAGING_OUT = JobState.STAGING_OUT
DONE = JobState.DONE
FAILED = JobState.FAILED
HELD = JobState.HELD

TERMINAL = frozenset({DONE, FAILED})

_ids = itertools.count(1)


def next_grid_job_id() -> str:
    return f"gridjob-{next(_ids)}"


def reset_grid_job_ids() -> None:
    """Restart job numbering (testbed isolation helper)."""
    global _ids
    _ids = itertools.count(1)


@dataclass
class GridJob:
    """One entry in the agent's persistent queue."""

    job_id: str
    request: GramJobRequest
    resource: str = ""            # gatekeeper contact ("" = broker decides)
    state: str = UNSUBMITTED
    seq: Optional[int] = None     # GRAM sequence number (persisted!)
    jmid: str = ""
    contact: str = ""
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    exit_code: Optional[int] = None
    failure_reason: str = ""
    hold_reason: str = ""
    attempts: int = 0             # resubmissions after remote failures
    max_attempts: int = 5
    backoff_until: float = 0.0    # congestion backoff (gatekeeper busy)
    committed: bool = False       # two-phase commit completed
    history: list = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return self.state == DONE

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL

    def record_event(self, now: float, event: str, **details: Any) -> None:
        self.history.append((now, event, details))

    # -- persistence ----------------------------------------------------------
    def queue_record(self) -> dict:
        request = self.request
        if request.program is not None:
            # Callables do not survive a crash; the resubmitting layer
            # (e.g. the GlideIn manager) owns re-creating such jobs.
            request = replace(request, program=None)
        return {
            "job_id": self.job_id,
            "request": request,
            "resource": self.resource,
            "state": self.state,
            "seq": self.seq,
            "jmid": self.jmid,
            "contact": self.contact,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "exit_code": self.exit_code,
            "failure_reason": self.failure_reason,
            "hold_reason": self.hold_reason,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "backoff_until": self.backoff_until,
            "committed": self.committed,
            "history": list(self.history),
        }

    @classmethod
    def from_record(cls, record: dict) -> "GridJob":
        job = cls(**record)
        if job.state == SUBMITTING:
            # We crashed mid-protocol.  If the commit had gone through we
            # reconnect via jmid; otherwise the same seq is retried, so
            # the gatekeeper hands back the JobManager this seq already
            # created (which may have received the commit before the
            # crash) instead of starting a second one.  The retry bumps
            # `attempts` again, so undo this attempt's bump: a crash of
            # our own is not a remote failure.
            if job.committed:
                job.state = PENDING
            else:
                job.state = UNSUBMITTED
                job.attempts = max(0, job.attempts - 1)
        elif job.state == STAGING:
            # Input staging is idempotent (replicas already placed are
            # found in the catalog and skipped), so just start over.
            job.state = UNSUBMITTED
        elif job.state == STAGING_OUT:
            # The remote run finished; reconnecting via jmid re-reports
            # DONE and re-runs the (idempotent) output placement.
            job.state = PENDING if (job.committed and job.jmid) \
                else UNSUBMITTED
        return job
