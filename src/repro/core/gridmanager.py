"""The GridManager daemon (paper §4.2, Figure 1).

One GridManager per user, created by the Scheduler when grid-universe
jobs enter the queue, terminating when none remain.  It owns the whole
remote lifecycle:

* **submission** via the two-phase GRAM protocol, persisting the sequence
  token before phase 1 and the JobManager contact before phase 2, so a
  submit-machine crash at *any* point resumes without duplicating or
  losing the job;
* **failure detection** by probing JobManagers, with the exact §4.2
  decision tree: JobManager silent -> probe the Gatekeeper; Gatekeeper
  answers -> restart the JobManager; Gatekeeper silent -> crash and
  partition are indistinguishable, so keep probing until contact returns,
  then restart/reconnect (the revived JobManager either resumes watching
  or reports that the job finished during the outage);
* **resubmission** of jobs that failed for transient, non-application
  reasons;
* **status callbacks** (a sink service) backed up by the probe itself:
  each probe is a GRAM ``status`` request, so one answer both proves the
  JobManager alive and carries its state.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..gram.client import Gram2Client, GramClientError
from ..sim.errors import (
    AuthenticationError,
    AuthorizationError,
    RPCError,
    RPCTimeout,
)
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from . import job as J
from .job import GridJob

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import CondorGScheduler

# Failure reasons worth resubmitting (infrastructure, not the app).
_TRANSIENT_PREFIXES = (
    "stage-in failed",
    "local scheduler submission failed",
    "commit window expired",
    "jobmanager crashed",
    "lost contact",
    "gatekeeper busy",
)


def _is_transient(reason: str) -> bool:
    return any(reason.startswith(p) for p in _TRANSIENT_PREFIXES)


class GridManager(Service):
    """Callback sink + the per-user submission/probing machinery."""

    PROBE_INTERVAL = 30.0
    # The submit loop's tick while a job waits out `backoff_until`.
    POLL_INTERVAL = 20.0
    # A site's heartbeat is stale once this many report intervals pass
    # in silence: per-job probing resumes and the monitor is relaunched
    # (with a cooldown so a dead gatekeeper isn't hammered).
    MONITOR_MISS_FACTOR = 2.5
    MONITOR_START_COOLDOWN = 60.0

    def __init__(
        self,
        scheduler: "CondorGScheduler",
        user: str,
        host: Host,
        credential_source=None,
        max_submitted_per_resource: Optional[int] = None,
        data_services=None,
        grid_monitor: bool = False,
    ):
        self.callback_service = f"gramcb:{user}"
        super().__init__(host, name=self.callback_service)
        self.scheduler = scheduler
        self.user = user
        # Client-side fair-share throttle (§5: a user's unthrottled
        # submissions once overloaded a gatekeeper): never keep more
        # than this many of our jobs in flight per remote resource.
        self.max_submitted_per_resource = max_submitted_per_resource
        # repro.data wiring (replica catalog + transfer scheduler + the
        # site -> storage-element map), or None in data-free grids.
        self.data = data_services
        # Grid Monitor fan-in (§5.1, repro.gram.monitor): one per-site
        # daemon batches all our JobManagers' states into one report
        # per interval.  Semantic opt-in -- it changes the RPC pattern
        # (and so the digest), which is why it rides AgentSpec.
        self.grid_monitor = grid_monitor
        self._monitor_last: dict[str, float] = {}     # contact -> last report
        self._monitor_attempt: dict[str, float] = {}  # contact -> last launch
        self._monitor_suspect: set[str] = set()       # jmids absent from report
        self._credential_source = credential_source
        self.client = Gram2Client(host, credential_source=credential_source)
        self.exited = False
        self._wake = self.sim.event(name=f"gm-wake:{user}")
        self._watch_wake = None   # the probe loop's, while it sits idle
        self._procs = [
            host.spawn(self._submit_loop(), name=f"gridmanager:{user}"),
            host.spawn(self._probe_loop(), name=f"gm-probe:{user}"),
        ]
        self.sim.trace.log("gridmanager", "start", user=user)

    # -- plumbing -----------------------------------------------------------
    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log("gridmanager", event, user=self.user, **details)

    def kick(self) -> None:
        if not self._wake.triggered and not self._wake._scheduled:
            self._wake.succeed(None)

    def notify_watchable(self) -> None:
        """A job just became watchable: rouse the idle probe loop."""
        wake, self._watch_wake = self._watch_wake, None
        if wake is not None and not wake.triggered and not wake._scheduled:
            wake.succeed(None)

    # -- submission ------------------------------------------------------------
    def _submit_loop(self):
        while not self.exited:
            # A snapshot of the nonterminal jobs suffices: any job found
            # UNSUBMITTED at visit time was nonterminal at pass start
            # (terminal states are absorbing).  Order is job_id order.
            for job in self.scheduler.nonterminal_jobs():
                if job.state == J.UNSUBMITTED and \
                        self.sim.now >= job.backoff_until:
                    yield from self._submit_one(job)
            if self._check_all_done():
                return
            self._wake = self.sim.event(name=f"gm-wake:{self.user}")
            if self.scheduler.unsubmitted_count() == 0:
                # No UNSUBMITTED jobs at all: every transition into
                # UNSUBMITTED (submit/resubmit/release) kicks the wake
                # event, so a pure wait cannot miss work.  The interval
                # tick only exists to notice backoff_until expiring,
                # and backoff implies an UNSUBMITTED job.
                yield self._wake
            else:
                yield self.sim.any_of(
                    [self._wake, self.sim.timeout(self.POLL_INTERVAL)])

    def _submit_one(self, job: GridJob):
        if not job.resource:
            resource = yield from self.scheduler.pick_resource(job)
            if resource is None:
                return     # broker has no candidate yet; retry next pass
            job.resource = resource
        limit = self.max_submitted_per_resource
        if limit is not None and \
                self.scheduler.inflight_on(job.resource) >= limit:
            # Fair-share throttle: this resource already carries our
            # quota of in-flight jobs.  Leave the job UNSUBMITTED (the
            # next pass retries; completions kick the wake event) and,
            # when a broker owns placement, release the pick so it may
            # route the job to a less-loaded site next time.
            self.sim.metrics.counter("gridmanager.submit_throttled").inc(
                label=job.resource)
            if self.scheduler.broker is not None:
                job.resource = ""
            return
        if job.request.input_datasets and self.data is not None:
            ok = yield from self._stage_inputs_for(job)
            if not ok:
                return
        attempt_start = self.sim.now
        job.state = J.SUBMITTING
        job.attempts += 1
        job.seq = f"{job.job_id}/{job.attempts}"
        job.submit_time = job.submit_time or self.sim.now
        self.scheduler.persist(job)
        self.scheduler.log(job, "submit", resource=job.resource,
                           attempt=job.attempts)
        try:
            response = yield from self.client.submit_phase1(
                job.resource, job.request, seq=job.seq,
                callback=(self.host.name, self.callback_service))
        except (GramClientError, RPCError) as exc:
            if "JobManager limit" in str(exc):
                # Gatekeeper at capacity: congestion, not failure --
                # back off without consuming a retry attempt.
                job.attempts -= 1
                job.state = J.UNSUBMITTED
                job.backoff_until = self.sim.now + 60.0
                self.scheduler.persist(job)
                self._trace("gatekeeper_busy_backoff", job=job.job_id,
                            until=job.backoff_until)
                return
            self._submission_failed(job, exc, phase="phase1")
            return
        if job.state != J.SUBMITTING:
            # Superseded while phase 1 was in flight: a stale failure
            # report for an earlier attempt reclaimed the job (it is
            # UNSUBMITTED again, or terminal).  Walk away -- the
            # JobManager we just created is uncommitted, so it times
            # out and cleans up site-side; committing it here would
            # pin the job to an attempt the scheduler has disowned.
            self._trace("submit_superseded", job=job.job_id, seq=job.seq)
            return
        job.jmid = response["jmid"]
        job.contact = response["contact"]
        self.scheduler.persist(job)
        try:
            yield from self.client.commit(job.contact, job.jmid)
        except (AuthenticationError, AuthorizationError) as exc:
            self.scheduler.credential_problem(job, str(exc))
            return
        except (GramClientError, RPCError) as exc:
            # A lost commit *ACK* is indistinguishable from a lost
            # commit: the JobManager may have received phase 2 and
            # already be running the job, so resubmitting here would
            # break exactly-once.  Park the job under the §4.2 probe
            # machinery instead -- a restarted JobManager resumes from
            # its state file (or reports the job finished), and one
            # with no state file never ran anything, which *is* safe
            # to resubmit (the probe path does exactly that).
            self.sim.metrics.counter("gridmanager.submit_failures").inc(
                label="commit")
            job.committed = True
            job.state = J.PENDING
            self.scheduler.persist(job)
            self._trace("commit_unacknowledged", job=job.job_id,
                        jmid=job.jmid, reason=str(exc))
            return
        job.committed = True
        job.state = J.PENDING
        self.scheduler.persist(job)
        self.sim.metrics.counter("gridmanager.submits").inc()
        self.sim.metrics.histogram("gridmanager.submit_latency").observe(
            self.sim.now - attempt_start)
        self._trace("submitted", job=job.job_id, jmid=job.jmid,
                    resource=job.resource)
        self._ensure_monitor(job.contact)

    # -- data placement (repro.data) -----------------------------------------
    def _data_credential(self, audience: str):
        if self._credential_source is None:
            return None
        return self._credential_source(audience)

    def _stage_inputs_for(self, job: GridJob):
        """Place the job's input datasets at its site's SE.  True = go on
        to GRAM submission; False = the job left the submission path
        (failed staging and was resubmitted/failed, or was superseded).
        """
        job.state = J.STAGING
        self.scheduler.persist(job)
        self.scheduler.log(job, "stage_in", resource=job.resource,
                           datasets=len(job.request.input_datasets))
        started = self.sim.now
        try:
            staged = yield from self._stage_inputs(job)
        except (RPCError, RuntimeError) as exc:
            # Same transient treatment as a remote stage-in failure,
            # plus a breather so a dead SE/catalog is not hammered.
            job.attempts += 1
            job.backoff_until = self.sim.now + 30.0
            self._remote_failure(job, f"stage-in failed: {exc}")
            return False
        if job.state != J.STAGING:
            return False    # cancelled/held while transfers ran
        self.sim.metrics.histogram("gridmanager.stage_in_time").observe(
            self.sim.now - started)
        if staged:
            self.sim.metrics.counter("gridmanager.stage_in_bytes").inc(
                staged, label=job.resource)
        self._trace("staged_in", job=job.job_id, resource=job.resource,
                    moved=staged)
        return True

    def _stage_inputs(self, job: GridJob):
        """Move each missing input dataset to the site's SE; returns the
        bytes actually transferred (0 = everything was already local)."""
        from ..data.catalog import dataset_path

        data = self.data
        se = data.storage_element(job.resource)
        if not se:
            raise RuntimeError(f"no storage element at {job.resource}")
        moved = 0
        for name in job.request.input_datasets:
            entry = yield from call(
                self.host, data.catalog_host, "rls", "lookup",
                timeout=30.0,
                credential=self._data_credential(data.catalog_host),
                name=name)
            replicas = entry["replicas"]
            if se in replicas:
                self.sim.metrics.counter("gridmanager.stage_in_hits").inc(
                    label=se)
                continue
            if not replicas:
                raise RuntimeError(f"dataset {name!r} has no replicas")
            src_se = sorted(replicas)[0]
            result = yield from call(
                self.host, data.dts_host, "dts", "transfer",
                timeout=14_400.0,
                credential=self._data_credential(data.dts_host),
                src_url=replicas[src_se], dst_host=se,
                dst_path=dataset_path(name), dataset=name,
                expected_checksum=entry["checksum"])
            moved += result["size"]
        return moved

    def _stage_out_datasets(self, job: GridJob):
        """Archive the finished job's output datasets at its site's SE.

        Runs as its own process after the remote DONE: the job sits in
        STAGING_OUT (non-terminal, so the GridManager stays alive and
        ``run_until_quiet`` waits) until every output is verified at the
        SE and registered in the catalog.  Placement retries forever
        with capped backoff -- the payload already ran to completion, so
        resubmitting would break exactly-once; durable placement is the
        only way forward.
        """
        from ..data.catalog import dataset_path
        from ..gass.files import file_digest

        data = self.data
        se = data.storage_element(job.resource)
        if not se:
            # Misconfiguration (dataset job matched to an SE-less site):
            # don't deadlock the queue -- finish the job and let the
            # durable_outputs invariant flag the missing archive.
            self._trace("stage_out_no_se", job=job.job_id,
                        resource=job.resource)
            job.state = J.DONE
            job.end_time = self.sim.now
            self.scheduler.persist(job)
            self.scheduler.job_finished(job)
            self.kick()
            return
        for name, size in job.request.output_datasets:
            size = int(size)
            path = dataset_path(name)
            expected = file_digest(path, size, "")
            backoff = 10.0
            while not job.is_terminal:
                try:
                    yield from call(
                        self.host, se, "gridftp", "stor", timeout=3600.0,
                        credential=self._data_credential(se),
                        path=path, size=size)
                    actual = yield from call(
                        self.host, se, "gridftp", "checksum", timeout=60.0,
                        credential=self._data_credential(se), path=path)
                    if actual != expected:
                        self.sim.metrics.counter(
                            "gridmanager.stage_out_corrupt").inc(label=se)
                        self._trace("stage_out_corrupt", job=job.job_id,
                                    dataset=name, se=se)
                        yield from call(
                            self.host, se, "gridftp", "delete",
                            timeout=60.0,
                            credential=self._data_credential(se),
                            path=path)
                        raise RPCError("stage-out checksum mismatch")
                    yield from call(
                        self.host, data.catalog_host, "rls", "register",
                        timeout=60.0,
                        credential=self._data_credential(
                            data.catalog_host),
                        name=name, se_host=se, size=size,
                        checksum=expected)
                    self.sim.metrics.counter(
                        "gridmanager.stage_out_bytes").inc(size, label=se)
                    break
                except RPCError:
                    yield self.sim.timeout(backoff)
                    backoff = min(backoff * 2.0, 120.0)
        if job.is_terminal:
            return    # removed by the user while we were placing outputs
        job.state = J.DONE
        job.end_time = self.sim.now
        self.scheduler.persist(job)
        self._trace("staged_out", job=job.job_id, resource=job.resource,
                    datasets=len(job.request.output_datasets))
        self.scheduler.job_finished(job)
        self.kick()

    def _submission_failed(self, job: GridJob, exc: Exception,
                           phase: str = "phase1") -> None:
        if isinstance(exc, (AuthenticationError, AuthorizationError)):
            self.scheduler.credential_problem(job, str(exc))
            return
        self.sim.metrics.counter("gridmanager.submit_failures").inc(
            label=phase)
        # Keep the real reason (e.g. "commit of jm-3 failed after 8
        # attempts"): a generic "local scheduler submission failed" prefix
        # would mask the cause in the userlog and make the transient
        # classification depend on the mask instead of the failure.  Any
        # failure of the submission exchange itself is infrastructure,
        # never the application, so it is transient by construction.
        self._remote_failure(job, str(exc), transient=True)

    # -- callbacks ------------------------------------------------------------
    def handle_gram_callback(self, ctx, jmid: str, state: str,
                             failure_reason: str = "",
                             exit_code: Optional[int] = None) -> bool:
        job = self.scheduler.job_by_jmid(jmid)
        if job is None:
            return False
        self._apply_remote_state(job, state, failure_reason, exit_code)
        return True

    def handle_monitor_report(self, ctx, site: str, seq: int,
                              reports: dict) -> bool:
        """One batched status report from a site's Grid Monitor.

        Each entry goes through the same `_apply_remote_state` as a
        callback or probe answer, under the same superseded-``jmid``
        staleness discipline: a report snapshotted before a resubmission
        must not touch the new attempt.  The report doubles as the
        site's liveness heartbeat, and a *watchable* job whose
        JobManager is absent from its site's report is marked suspect --
        the probe loop gives exactly those jobs the per-job §4.2
        treatment while everything covered by the monitor stays quiet.
        """
        if not self.grid_monitor or self.exited:
            return False
        contact = ctx.caller_host
        self._monitor_last[contact] = self.sim.now
        self.sim.metrics.counter("gridmanager.monitor_reports").inc(
            label=site)
        self.sim.metrics.counter("gridmanager.monitor_jobs_reported").inc(
            len(reports))
        for jmid in sorted(reports):
            job = self.scheduler.job_by_jmid(jmid)
            if job is None or job.jmid != jmid:
                continue    # superseded attempt: drop the stale entry
            entry = reports[jmid]
            self._apply_remote_state(
                job, entry["state"], entry.get("failure_reason", ""),
                entry.get("exit_code"))
        for job in self.scheduler.watchable_jobs():
            if (job.contact or job.resource) != contact or not job.jmid:
                continue
            if job.jmid in reports:
                self._monitor_suspect.discard(job.jmid)
            elif job.jmid not in self._monitor_suspect:
                # Still watchable but invisible to the site's monitor:
                # its JobManager died (monitors see every live *and*
                # unacked-terminal JobManager of ours).
                self._monitor_suspect.add(job.jmid)
                self.sim.metrics.counter(
                    "gridmanager.monitor_suspects").inc()
                self._trace("monitor_missing_jm", job=job.job_id,
                            jmid=job.jmid, contact=contact)
        return True

    # -- grid monitor lifecycle ---------------------------------------------
    def _monitor_fresh(self, contact: str) -> bool:
        """Has `contact`'s monitor reported (or been launched) recently?"""
        last = self._monitor_last.get(contact)
        if last is None:
            return False
        from ..gram.monitor import GridMonitor

        horizon = GridMonitor.REPORT_INTERVAL * self.MONITOR_MISS_FACTOR
        return self.sim.now - last <= horizon

    def _ensure_monitor(self, contact: str) -> None:
        """Launch (or relaunch) the Grid Monitor at `contact`, lazily.

        Called on every successful submit and on every stale-heartbeat
        probe pass; the freshness check and launch cooldown make both
        O(1) no-ops while a monitor is alive, so the steady state costs
        one ``start_monitor`` RPC per site per outage, not per job.
        """
        if not self.grid_monitor or self.exited or not contact:
            return
        if self._monitor_fresh(contact):
            return
        last = self._monitor_attempt.get(contact)
        if last is not None and \
                self.sim.now - last < self.MONITOR_START_COOLDOWN:
            return
        self._monitor_attempt[contact] = self.sim.now
        self.host.spawn(self._start_monitor(contact),
                        name=f"gm-monitor:{self.user}")

    def _start_monitor(self, contact: str):
        starts = self.sim.metrics.counter("gridmanager.monitor_starts")
        try:
            yield from self.client.start_monitor(
                contact, callback=(self.host.name, self.callback_service))
        except RPCError as exc:
            starts.inc(label="failed")
            self._trace("monitor_start_failed", contact=contact,
                        reason=str(exc))
            return
        # Optimistic heartbeat: the monitor exists *now*; its first
        # report lands one interval out, well inside the staleness
        # horizon -- so the probe loop stands down immediately instead
        # of fanning out per-job probes while the monitor warms up.
        self._monitor_last[contact] = self.sim.now
        starts.inc(label="ok")
        self._trace("monitor_started", contact=contact)

    def _apply_remote_state(self, job: GridJob, state: str,
                            failure_reason: str,
                            exit_code: Optional[int]) -> None:
        if job.is_terminal:
            return
        if job.state == J.STAGING_OUT:
            # The remote side already reported DONE; the stage-out
            # process owns the rest of the lifecycle.  A stale probe
            # answer must not regress the state machine.
            return
        if state == "PENDING" and job.state != J.PENDING:
            job.state = J.PENDING
            self.scheduler.persist(job)
        elif state == "ACTIVE" and job.state != J.ACTIVE:
            job.state = J.ACTIVE
            job.start_time = self.sim.now
            self.scheduler.persist(job)
            self.scheduler.log(job, "execute", resource=job.resource)
        elif state == "DONE":
            job.exit_code = exit_code if exit_code is not None else 0
            if job.request.output_datasets and self.data is not None:
                # Archive declared outputs at the site's storage element
                # before the job is allowed to go terminal.
                job.state = J.STAGING_OUT
                self.scheduler.persist(job)
                self.scheduler.log(job, "stage_out", resource=job.resource,
                                   datasets=len(job.request.output_datasets))
                self.host.spawn(self._stage_out_datasets(job),
                                name=f"stageout:{job.job_id}")
                return
            job.state = J.DONE
            job.end_time = self.sim.now
            self.scheduler.persist(job)
            self.scheduler.job_finished(job)
            self.kick()
        elif state == "FAILED":
            self._remote_failure(job, failure_reason)

    def _remote_failure(self, job: GridJob, reason: str,
                        transient: Optional[bool] = None) -> None:
        if job.is_terminal:
            return
        self.scheduler.log(job, "remote_failure", reason=reason,
                           attempt=job.attempts)
        if transient is None:
            transient = _is_transient(reason)
        if transient and job.attempts < job.max_attempts:
            # Resubmit: new logical attempt, broker may pick a new site.
            job.state = J.UNSUBMITTED
            job.jmid = ""
            job.contact = ""
            job.committed = False
            if self.scheduler.broker is not None:
                job.resource = ""
            self.scheduler.persist(job)
            self.sim.metrics.counter("gridmanager.resubmits").inc()
            self._trace("resubmit", job=job.job_id, reason=reason)
            self.kick()
        else:
            job.state = J.FAILED
            job.end_time = self.sim.now
            job.failure_reason = reason
            self.scheduler.persist(job)
            self.scheduler.job_finished(job)
            self.kick()

    # -- idle skipping -------------------------------------------------------
    def _idle_realign(self, interval: float):
        """Generator: sleep while nothing is watchable, then re-tick.

        The probe loop ticks every `interval`; an idle pass (nothing
        to watch) is invisible (no trace, no RPC, no metrics), so
        skipping it preserves the digest *provided* the next real pass
        lands on the same tick.  Tick times accumulate as repeated
        ``t += interval`` float additions from the last tick, so we
        replay exactly that accumulation and then sleep to the absolute
        result (timeout_until: no drift through a relative delay).
        """
        last_tick = self.sim.now
        wake = self._watch_wake = self.sim.event(
            name=f"gm-watch:{self.user}")
        yield wake
        tick = last_tick
        while tick <= self.sim.now:
            tick += interval
        yield self.sim.timeout_until(tick)

    # -- failure detection (§4.2 decision tree) ----------------------------------
    def _probe_loop(self):
        while not self.exited:
            yield self.sim.timeout(self.PROBE_INTERVAL)
            while not self.scheduler.watchable_count():
                yield from self._idle_realign(self.PROBE_INTERVAL)
            for job in self.scheduler.watchable_jobs():
                if self.grid_monitor:
                    jmid = job.jmid
                    contact = job.contact or job.resource
                    if self._monitor_fresh(contact):
                        # Liveness piggybacks on the heartbeat: probe
                        # per-job only what the monitor reported missing.
                        if jmid and jmid in self._monitor_suspect:
                            self._monitor_suspect.discard(jmid)
                            yield from self._probe_job(job)
                        continue
                    # Stale heartbeat: the monitor (or the whole site)
                    # is gone.  Degrade to the full per-job §4.2
                    # machinery for this site and ask for a new monitor.
                    self._ensure_monitor(contact)
                yield from self._probe_job(job)

    def _probe_job(self, job: GridJob):
        """Probe one JobManager with a ``status`` request (§4.2).

        An answer proves the JobManager alive and carries its state; a
        credential error holds the job (§5); silence walks the decision
        tree.  Every yield can interleave with a resubmission, after
        which this probe is about a dead attempt and must not touch the
        job -- hence the ``jmid`` snapshot and the checks against it.
        """
        outcomes = self.sim.metrics.counter("gridmanager.probe_outcomes")
        jmid = job.jmid
        if not jmid or job.is_terminal:
            return    # mutated since the probe round's list was drawn
        self.sim.metrics.counter("gridmanager.status_polls").inc()
        try:
            status = yield from self.client.status(job.contact, jmid)
        except AuthenticationError as exc:
            if job.jmid == jmid:
                outcomes.inc(label="credential")
                self.scheduler.credential_problem(job, str(exc))
            return
        except RPCError:
            pass    # silent (timeout or a vanished JobManager)
        else:
            outcomes.inc(label="alive")
            if job.jmid == jmid:    # else superseded: drop the answer
                self._apply_remote_state(
                    job, status["state"], status.get("failure_reason", ""),
                    status.get("exit_code"))
            return
        if job.jmid != jmid:
            return
        outcomes.inc(label="silent")
        self._trace("jobmanager_silent", job=job.job_id, jmid=job.jmid)
        try:
            yield from self.client.ping_gatekeeper(job.contact)
        except (RPCError, AuthenticationError):
            # Machine crash or network failure: indistinguishable (§4.2).
            # Keep the job and retry on the next probe round.
            outcomes.inc(label="unreachable")
            self._trace("resource_unreachable", job=job.job_id,
                        contact=job.contact)
            return
        if job.jmid != jmid:
            return
        # Gatekeeper is alive: only the JobManager died.  Restart it.
        yield from self._restart_jobmanager(job)

    def _restart_jobmanager(self, job: GridJob):
        outcomes = self.sim.metrics.counter("gridmanager.probe_outcomes")
        jmid = job.jmid
        try:
            yield from self.client.restart_jobmanager(job.contact, jmid)
            outcomes.inc(label="restarted")
            self._trace("jobmanager_restarted", job=job.job_id,
                        jmid=job.jmid)
        except RPCTimeout:
            return    # lost it again; next probe round retries
        except RPCError as exc:
            # No state file: the JobManager never survived to persist.
            outcomes.inc(label="restart_failed")
            if job.jmid == jmid:
                self._remote_failure(job, f"jobmanager crashed: {exc}")
            return
        # Point the revived JobManager's streaming at our GASS server.
        if job.request.stdout_url:
            try:
                yield from self.client.update_env(
                    job.contact, job.jmid, "GASS_URL",
                    job.request.stdout_url)
            except RPCError:
                pass

    # -- exit ---------------------------------------------------------------
    def _check_all_done(self) -> bool:
        if not self.scheduler.jobs or self.scheduler.nonterminal_count():
            return False
        n_jobs = len(self.scheduler.jobs)
        self.exited = True
        self._trace("exit", jobs=n_jobs)
        self.shutdown()
        for proc in self._procs:
            if proc.alive:
                proc.kill(cause="gridmanager exit")
        self.scheduler.gridmanager_exited()
        return True
