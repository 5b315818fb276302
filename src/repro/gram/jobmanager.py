"""The Globus JobManager daemon (paper Figure 1, §3.2, §4.2).

One JobManager per submitted job, created by the Gatekeeper on the site's
interface machine.  It:

* waits for the two-phase *commit* before doing anything irreversible;
* stages the executable and stdin from the client's GASS server;
* submits the job to the site's local scheduler (PBS/LSF/Condor/...),
  using a dedup key so that a replayed submission after a JobManager
  restart cannot create a second LRM job;
* polls the local scheduler, pushing status callbacks to the client;
* tails the job's site-local stdout file and streams new bytes to the
  client's GASS server with explicit offsets (duplicate-safe), asking the
  server how much it already has after any interruption;
* persists its state to the interface machine's disk so a *restarted*
  JobManager (GRAM-2 `restart` request) resumes watching the same LRM job.

The JobManager is deliberately the *fragile* component: it lives on the
crashable gatekeeper host, while the LRM and the job itself survive on
the cluster side -- reproducing the §4.2 failure matrix.
"""

from __future__ import annotations

from typing import Optional

from ..gass.client import gass_append, gass_get, gass_received
from ..sim.errors import RPCError, RPCTimeout
from ..sim.hosts import Host
from ..sim.rpc import Service, call, notify
from . import protocol
from .protocol import GramJobRequest, to_lrm_spec

STATE_NS = "gram-jm"          # stable-storage namespace on the gatekeeper


class JobManager(Service):
    """Per-job manager daemon; service name ``jm:<jmid>``."""

    COMMIT_WINDOW = 120.0      # abort if no commit arrives in time
    POLL_INTERVAL = 5.0
    # status replies are built from scratch per call, so they may skip
    # the reply's serialization copy.
    rpc_fresh_results = ("status",)

    def __init__(
        self,
        host: Host,
        jmid: str,
        lrm_contact: str,
        request: Optional[GramJobRequest] = None,
        client_callback: Optional[tuple[str, str]] = None,
        owner: str = "",
        credential=None,
        restarted: bool = False,
    ):
        super().__init__(host, name=f"jm:{jmid}")
        self.jmid = jmid
        self.lrm_contact = lrm_contact
        self.request = request
        self.client_callback = client_callback   # (host, service)
        self.owner = owner
        self.credential = credential
        self.state = protocol.UNCOMMITTED
        self.local_id: Optional[str] = None
        self.failure_reason = ""
        self.exit_code: Optional[int] = None
        self.stdout_sent = 0
        self.stderr_sent = 0
        self._committed = host.sim.event(name=f"commit:{jmid}")
        self._store = host.stable.namespace(STATE_NS)
        self._procs = []
        if restarted:
            self._recover()
        else:
            self._persist()
            self._procs.append(
                host.spawn(self._lifecycle(), name=f"jobmanager:{jmid}"))

    # -- persistence ----------------------------------------------------------
    def _persist(self) -> None:
        self._store.put(self.jmid, {
            "jmid": self.jmid,
            "state": self.state,
            "local_id": self.local_id,
            "owner": self.owner,
            "client_callback": self.client_callback,
            "request": self.request,
            "stdout_sent": self.stdout_sent,
            "stderr_sent": self.stderr_sent,
            "failure_reason": self.failure_reason,
            "exit_code": self.exit_code,
        })

    def _recover(self) -> None:
        record = self._store.get(self.jmid)
        if record is None:
            raise RPCError(f"no state file for jobmanager {self.jmid}")
        self.state = record["state"]
        self.local_id = record["local_id"]
        self.owner = record["owner"]
        self.client_callback = record["client_callback"]
        self.request = record["request"]
        self.failure_reason = record.get("failure_reason", "")
        self.exit_code = record.get("exit_code")
        # Conservative: re-derive stream progress from the client, not
        # from our own possibly-stale counters.
        self.stdout_sent = 0
        self.stderr_sent = 0
        self._trace("recovered", state=self.state, local=self.local_id)
        if self.state == protocol.UNCOMMITTED:
            # Crash before commit: nothing was submitted; abort cleanly.
            self._fail("jobmanager crashed before commit")
        elif self.state not in protocol.GRAM_TERMINAL:
            if self.local_id is None:
                # Crashed after commit but before the LRM accepted the
                # job: resume the pipeline (the dedup key makes a raced
                # earlier submission harmless).
                self._procs.append(self.host.spawn(
                    self._resume_submission(),
                    name=f"jobmanager:{self.jmid}"))
            else:
                self._procs.append(self.host.spawn(
                    self._monitor(), name=f"jobmanager:{self.jmid}"))

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"jobmanager:{self.jmid}", event, **details)

    def crash(self) -> None:
        """Kill just this daemon (failure class 1 of §4.2).

        The state file stays on disk; the LRM job, if any, keeps running.
        The GridManager's probing will notice the silence and ask the
        gatekeeper to restart us.
        """
        self._trace("crash")
        for proc in self._procs:
            proc.kill(cause="jobmanager crash")
        self._procs.clear()
        self.shutdown()    # unregister the service: probes now time out

    # -- RPC handlers -----------------------------------------------------------
    def handle_commit(self, ctx) -> bool:
        """Phase 2 of the submission protocol (idempotent)."""
        if not self._committed.triggered and not self._committed._scheduled:
            self._committed.succeed(None)
        return True

    def handle_status(self, ctx) -> dict:
        """State report; also the GridManager's §4.2 liveness probe."""
        return {
            "jmid": self.jmid,
            "state": self.state,
            "failure_reason": self.failure_reason,
            "exit_code": self.exit_code,
        }

    def handle_cancel(self, ctx):
        if self.local_id is not None and \
                self.state not in protocol.GRAM_TERMINAL:
            yield from call(self.host, self.lrm_contact, "lrm", "cancel",
                            local_id=self.local_id)
        self._fail("cancelled by client")
        return True

    def handle_update_env(self, ctx, name: str, value) -> object:
        """Rewrite the job's environment file (GASS redirect, §4.2)."""
        if self.local_id is None:
            # Not yet submitted: mutate the pending request.
            if self.request is not None:
                self.request = self.request.with_env(**{name: value})
            self._persist()
            return True
        return self._forward_env(name, value)

    def _forward_env(self, name: str, value):
        result = yield from call(self.host, self.lrm_contact, "lrm",
                                 "update_env", local_id=self.local_id,
                                 name=name, value=value)
        return result

    def handle_refresh_credential(self, ctx) -> bool:
        """Accept a re-forwarded (refreshed) proxy from the client (§4.3)."""
        self.credential = ctx.credential
        self._trace("credential_refreshed")
        return True

    def handle_update_gass(self, ctx, stdout_url: str):
        """The client's GASS server moved (e.g. submit machine restarted):
        point our streaming and the job's redirect file at the new URL."""
        if self.request is not None:
            from dataclasses import replace
            self.request = replace(self.request, stdout_url=stdout_url)
        self.stdout_sent = 0   # re-derive against the new server
        self._persist()
        self._trace("gass_redirect", url=stdout_url)
        if self.local_id is not None:
            yield from self._forward_env("GASS_URL", stdout_url)
        return True

    # -- lifecycle -----------------------------------------------------------
    def _lifecycle(self):
        # Phase 2 wait: abort if the commit never arrives.
        created = self.sim.now
        index, _ = yield self.sim.any_of(
            [self._committed, self.sim.timeout(self.COMMIT_WINDOW)])
        if index == 1:
            self.sim.metrics.counter("jobmanager.commit_expired").inc()
            self._fail("commit window expired (two-phase abort)")
            self._trace("commit_timeout")
            return
        self.sim.metrics.histogram("jobmanager.commit_wait").observe(
            self.sim.now - created)
        self._trace("committed")
        self.state = protocol.STAGE_IN
        self._persist()
        try:
            yield from self._stage_in()
        except RPCError as exc:
            self._fail(f"stage-in failed: {exc}")
            yield from self._notify_client()
            return
        yield from self._submit_to_lrm()
        if self.state not in protocol.GRAM_TERMINAL:
            yield from self._monitor_body()

    def _stage_in(self):
        """Fetch executable and stdin from the client's GASS server."""
        assert self.request is not None
        for url in (self.request.executable_url, self.request.stdin_url):
            if url:
                got = yield from gass_get(self.host, url,
                                          credential=self.credential)
                self._trace("staged", url=url, size=got["size"])

    def _submit_to_lrm(self):
        assert self.request is not None
        spec = to_lrm_spec(self.request)
        last_error = None
        for _attempt in range(4):
            self.sim.metrics.counter("jobmanager.lrm_submit_rpcs").inc()
            try:
                self.local_id = yield from call(
                    self.host, self.lrm_contact, "lrm", "submit",
                    spec=spec, owner=self.owner, dedup_key=self.jmid)
                break
            except RPCError as exc:
                last_error = exc   # dedup key makes the retry safe
        else:
            self._fail(f"local scheduler submission failed: {last_error}")
            yield from self._notify_client()
            return
        self.state = protocol.PENDING
        self._persist()
        self._trace("lrm_submit", local=self.local_id,
                    lrm=self.lrm_contact)
        yield from self._notify_client()

    def _monitor(self):
        """Entry point used after recovery."""
        yield from self._monitor_body()

    def _resume_submission(self):
        """Recovery entry point for a crash inside the commit->LRM window."""
        try:
            yield from self._stage_in()
        except RPCError as exc:
            self._fail(f"stage-in failed: {exc}")
            yield from self._notify_client()
            return
        yield from self._submit_to_lrm()
        if self.state not in protocol.GRAM_TERMINAL:
            yield from self._monitor_body()

    def _monitor_body(self):
        while self.state not in protocol.GRAM_TERMINAL:
            yield self.sim.timeout(self.POLL_INTERVAL)
            try:
                view = yield from call(self.host, self.lrm_contact, "lrm",
                                       "poll", local_id=self.local_id)
            except RPCError:
                continue    # intra-site hiccup; try again next round
            new_state = self._map_lrm(view)
            reached_terminal = (new_state in protocol.GRAM_TERMINAL
                                and self.state not in protocol.GRAM_TERMINAL)
            if reached_terminal and new_state == protocol.DONE:
                # stage-out before the DONE callback: when the user hears
                # "done", the output files are already home (GRAM order).
                yield from self._stage_out()
            if new_state != self.state:
                self.state = new_state
                self.failure_reason = view.get("failure_reason", "")
                self.exit_code = view.get("exit_code")
                self._persist()
                self.sim.metrics.counter("jobmanager.state_changes").inc(
                    label=new_state)
                self._trace("state", state=new_state)
                yield from self._notify_client()
            yield from self._pump_stdout()
            yield from self._pump_stderr()
        self._trace("exit", state=self.state)

    def _stage_out(self):
        """Push declared output files from site scratch to client GASS."""
        request = self.request
        if request is None or not request.output_files:
            return
        from ..gass.client import gass_put

        for name, url in sorted(request.output_files.items()):
            try:
                entry = yield from call(self.host, self.lrm_contact,
                                        "lrm", "read_file",
                                        local_id=self.local_id, name=name)
            except RPCError as exc:
                self._trace("stage_out_missing", file=name, error=str(exc))
                continue
            for _attempt in range(4):
                try:
                    yield from gass_put(self.host, url,
                                        size=entry["size"],
                                        data=entry["data"],
                                        credential=self.credential)
                    self._trace("staged_out", file=name,
                                size=entry["size"], url=url)
                    break
                except RPCError:
                    yield self.sim.timeout(10.0)

    def _map_lrm(self, view: dict) -> str:
        lrm_state = view["state"]
        if lrm_state == "QUEUED" and view.get("preempt_count", 0) > 0:
            return protocol.PENDING   # requeued after preemption
        return protocol.gram_state_of(lrm_state)

    # -- stdout/stderr streaming ---------------------------------------------
    def _pump_stdout(self):
        yield from self._pump_stream("read_output", "stdout_sent",
                                     (self.request.stdout_url
                                      if self.request else ""))

    def _pump_stderr(self):
        yield from self._pump_stream("read_error", "stderr_sent",
                                     (self.request.stderr_url
                                      if self.request else ""))

    def _pump_stream(self, reader: str, counter: str, url: str):
        """Forward new site-local bytes of one stream to the client GASS."""
        if not url or self.local_id is None:
            return
        sent = getattr(self, counter)
        try:
            text = yield from call(self.host, self.lrm_contact, "lrm",
                                   reader, local_id=self.local_id,
                                   offset=sent)
        except RPCError:
            return
        if not text:
            return
        try:
            new_total = yield from gass_append(
                self.host, url, text, offset=sent,
                credential=self.credential)
            setattr(self, counter, new_total)
        except RPCError:
            # Client side unreachable or restarted with less data than we
            # think: re-derive the offset and let the next round resend.
            try:
                setattr(self, counter, (yield from gass_received(
                    self.host, url, credential=self.credential)))
            except RPCError:
                pass
        self._persist()

    # -- callbacks ------------------------------------------------------------
    def _notify_client(self):
        """Push a status callback (best-effort; probes also fetch state)."""
        if self.client_callback is None:
            return
        host_name, service = self.client_callback
        notify(self.host, host_name, service, "gram_callback",
               jmid=self.jmid, state=self.state,
               failure_reason=self.failure_reason,
               exit_code=self.exit_code)
        if False:   # pragma: no cover - keeps this a generator
            yield None

    def _fail(self, reason: str) -> None:
        if self.state not in protocol.GRAM_TERMINAL:
            self.state = protocol.FAILED
            self.failure_reason = reason
            self._persist()
