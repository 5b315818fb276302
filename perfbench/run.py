#!/usr/bin/env python3
"""The Condor-G simulator benchmark: one command, four grid workloads.

Run from the root of a checkout::

    python3 perfbench/run.py                    # every workload, both passes
    python3 perfbench/run.py --workload gram-monitor --seed 3 \\
        --seconds 20 --trace 0

With ``--workload`` it runs that one workload in this process and prints
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs every workload, each in its own child process
(so ``peak_rss_mb`` is that workload's own), untraced and then traced,
one at a time, and prints one table.  Any failed correctness check
gives a nonzero exit.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    from repro.chaos.digest import run_digest
    from repro.chaos.invariants import evaluate_invariants
    from repro.sim import rpc
    from repro.states import JobState
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import the simulator from "
                     f"{os.path.join(ROOT, 'src')}: {exc}\n")
    sys.exit(2)

import layers
from reference import Metronome
from workloads import WORKLOADS, drive, settle, workload_jobs

#: a seed never used while tuning; quote later claims on it as well
HELD_OUT_SEED = 7919
#: every untraced run repeats the workload at least this often (the
#: repeats must agree on the run digest) ...
MIN_REPEATS = 3
#: ... and times at least this many builds for ``setup_s``
MIN_SETUPS = 21

UNITS = {
    "setup_s": "s", "run_ref": "ref", "jobs_per_kref": "1/kref",
    "peak_rss_mb": "MB",
    "turnaround_p50_s": "sim_s", "turnaround_p99_s": "sim_s",
    "makespan_s": "sim_s", "completed_frac": "fraction",
}


# -- one repeat ------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def account(tb, workload) -> dict:
    """Workload-job outcomes, from the jobs' own timestamps."""
    jobs = workload_jobs(tb, workload)
    done_state = JobState.COMPLETED if workload.kind == "vanilla" \
        else JobState.DONE
    done = [job for job in jobs if job.state == done_state]
    if workload.kind == "vanilla":
        runs = _counter(tb, "schedd.jobs", "completed")
    else:
        runs = sum(1 for site in tb.sites.values()
                   for lrm_job in site.lrm.jobs.values()
                   if lrm_job.state == JobState.COMPLETED)
    duplicates = max(0, int(runs) - len(done))
    turnaround = [job.end_time - job.submit_time for job in done]
    return {
        "submitted": len(jobs),
        "failed": len(jobs) - len(done) + duplicates,
        "turnaround": turnaround,
        "makespan": (max(job.end_time for job in done)
                     - min(job.submit_time for job in jobs))
        if done else 0.0,
    }


def one_repeat(workload, seed: int, invariants: bool,
               profiler=None, metronome=None) -> dict:
    """Build, drive to the last workload job, settle, check."""
    gc.collect()
    t0 = time.perf_counter()
    tb = workload.build(seed)
    t1 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    if metronome is not None:
        metronome.start()
    drive(tb, workload, metronome)
    if metronome is not None:
        metronome.stop()
    if profiler is not None:
        profiler.disable()
    t2 = time.perf_counter()
    out = {"setup_s": t1 - t0, "run_s": t2 - t1,
           "sim_end": tb.sim.now, **account(tb, workload)}
    if metronome is not None:
        out.update(run_ref=metronome.run_ref, ref_unit_s=metronome.unit_s())
    settle(tb)
    if invariants:
        out["violations"] = [str(v) for v in evaluate_invariants(tb)]
    out["digest"] = run_digest(tb)
    out["tb"] = tb
    return out


def time_setup(workload, seed: int) -> float:
    gc.collect()
    t0 = time.perf_counter()
    tb = workload.build(seed)
    elapsed = time.perf_counter() - t0
    del tb
    return elapsed


# -- the two passes --------------------------------------------------------------

def check(reps: list[dict], workload, problems: list[str]) -> None:
    first = reps[0]
    if first["submitted"] != workload.jobs:
        problems.append(f"{first['submitted']} workload jobs, expected "
                        f"{workload.jobs}")
    if first["failed"]:
        problems.append(f"{first['failed']} workload job(s) did not "
                        "complete exactly once")
    for violation in first.get("violations", []):
        problems.append(f"invariant: {violation}")
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append("run digest differs across repeats (a traced "
                        "repeat counts: observing must not change the "
                        f"run): {sorted(digests)}")


def untraced_pass(workload, seed: int, seconds: float):
    """End-to-end metrics: repeat the workload for ``seconds``.

    Each repeat runs with a :class:`reference.Metronome`, so its cost
    is read in reference units (``run_ref``), which the host's drifting
    speed does not move; see ``reference.py``.
    """
    started = time.perf_counter()
    reps: list[dict] = []
    while len(reps) < MIN_REPEATS or \
            time.perf_counter() - started < seconds:
        rep = one_repeat(workload, seed, invariants=not reps,
                         metronome=Metronome())
        del rep["tb"]
        reps.append(rep)
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(workload, seed))
    problems: list[str] = []
    check(reps, workload, problems)
    first = reps[0]
    n = first["submitted"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_ref": statistics.median(rep["run_ref"] for rep in reps),
        "jobs_per_kref":
            statistics.median(1000.0 * n / rep["run_ref"] for rep in reps),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "turnaround_p50_s": percentile(first["turnaround"], 50)
        if first["turnaround"] else 0.0,
        "turnaround_p99_s": percentile(first["turnaround"], 99)
        if first["turnaround"] else 0.0,
        "makespan_s": first["makespan"],
        "completed_frac": (n - first["failed"]) / n if n else 0.0,
    }
    notes = {"repeat_run_s": [rep["run_s"] for rep in reps],
             "repeat_run_ref": [rep["run_ref"] for rep in reps],
             "repeat_ref_unit_ms":
                 [rep["ref_unit_s"] * 1e3 for rep in reps],
             "setups": len(setups),
             "turnaround_samples": len(first["turnaround"]),
             "failed_frac": first["failed"] / n if n else 1.0,
             "digest": first["digest"]}
    return metrics, {k: UNITS[k] for k in metrics}, first, problems, notes


def _rpc_counts(stats: dict) -> dict:
    total = status = monitor = lrm_poll = 0
    for (service, method), count in stats.items():
        total += count
        if method in ("status", "probe") and service.startswith("jm:"):
            status += count
        if method in ("monitor_report", "start_monitor"):
            monitor += count
        if service == "lrm" and method == "poll":
            lrm_poll += count
    return {"msgs": total, "status": status, "monitor": monitor,
            "lrm_poll": lrm_poll}


def _status_lag(tb, workload) -> list[float]:
    """Sim seconds from the LRM finishing a job to the agent's DONE."""
    lrms = {site.lrm.host.name: site.lrm for site in tb.sites.values()}
    trace = tb.sim.trace
    lags = []
    for job in workload_jobs(tb, workload):
        if workload.kind == "vanilla" or not job.jmid or \
                job.end_time is None:
            continue
        for rec in trace.select(f"jobmanager:{job.jmid}", "lrm_submit"):
            lrm = lrms.get(str(rec.details.get("lrm", "")))
            lrm_job = lrm.jobs.get(rec.details.get("local")) \
                if lrm is not None else None
            if lrm_job is not None and lrm_job.end_time is not None:
                lags.append(job.end_time - lrm_job.end_time)
                break
    return lags


def _p50(tb, name: str) -> float:
    hist = tb.sim.metrics.get(name)
    if hist is None or not hist.count:
        return 0.0
    return hist.snapshot()["p50"]


def _counter(tb, name: str, label=None) -> float:
    counter = tb.sim.metrics.get(name)
    if counter is None:
        return 0.0
    return counter.labelled(label) if label is not None else counter.value


def traced_pass(workload, seed: int):
    """Per-layer metrics: one untraced and one profiled repeat."""
    plain = one_repeat(workload, seed, invariants=True)
    del plain["tb"]
    profiler = cProfile.Profile()
    rpc.RPC_STATS = {}
    try:
        traced = one_repeat(workload, seed, invariants=False,
                            profiler=profiler)
        rpc_stats = rpc.RPC_STATS
    finally:
        rpc.RPC_STATS = None
    problems: list[str] = []
    check([plain, traced], workload, problems)
    tb = traced.pop("tb")
    stats = pstats.Stats(profiler)
    self_s = layers.attribute(stats)
    profiled = sum(self_s.values())
    n = traced["submitted"]
    per_job = (lambda x: x / n) if n else (lambda x: 0.0)

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = float(value)
        units[name] = unit

    for layer in layers.LAYERS:
        put(f"{layer}.self_s", self_s[layer], "s")
        put(f"{layer}.share", self_s[layer] / profiled if profiled else 0.0,
            "fraction")

    # one dispatch = one _run_callbacks call made by the event loop
    # (subclass overrides chain to the base through super())
    events = sum(layers.edge_calls(stats, func, "sim/kernel.py",
                                   caller_names=("run", "step"))
                 for func in stats.stats
                 if func[2] == "_run_callbacks"
                 and layers.layer_of_file(func[0]) == "sim.kernel")
    put("sim.kernel.events_per_job", per_job(events), "count/job")
    put("sim.kernel.us_per_event",
        plain["run_s"] * 1e6 / events if events else 0.0, "us")

    wire = _rpc_counts(rpc_stats)
    put("sim.rpc.msgs_per_job", per_job(wire["msgs"]), "count/job")
    put("sim.rpc.lrm_poll_per_job", per_job(wire["lrm_poll"]), "count/job")
    put("sim.rpc.status_per_job", per_job(wire["status"]), "count/job")
    put("sim.rpc.monitor_per_job", per_job(wire["monitor"]), "count/job")

    copy_fn = layers.find(stats, "sim/fastcopy.py", "fast_deepcopy")
    deepcopy = next((f for f in stats.stats
                     if f[2] == "deepcopy" and f[0].endswith("copy.py")
                     and layers.layer_of_file(f[0]) is None), None)
    put("sim.fastcopy.calls_per_job",
        per_job(stats.stats[copy_fn][0] if copy_fn else 0), "count/job")
    put("sim.fastcopy.fallbacks_per_job",
        per_job(layers.edge_calls(stats, deepcopy, "sim/fastcopy.py")),
        "count/job")

    puts = layers.edge_calls(stats, copy_fn, "sim/hosts.py",
                             caller_names=("put",))
    gets = layers.edge_calls(stats, copy_fn, "sim/hosts.py",
                             exclude=("put",))
    put("sim.hosts.puts_per_job", per_job(puts), "count/job")
    put("sim.hosts.gets_per_job", per_job(gets), "count/job")

    put("sim.trace.records_per_job",
        per_job(len(tb.sim.trace) + tb.sim.trace.dropped), "count/job")

    evals = sum(layers.calls(stats, "classads/classad.py", name)
                for name in ("eval", "evaluate_expr", "requirements_met",
                             "rank_value"))
    put("classads.evals_per_job", per_job(evals), "count/job")
    matches = sum(getattr(agent.host.services.get("negotiator"),
                          "matches_made", 0)
                  for agent in tb.agents.values())
    started = _counter(tb, "startd.jobs_run")
    put("condor.matches_per_job", per_job(matches), "count/job")
    put("condor.match_yield", started / matches if matches else 0.0,
        "ratio")

    put("gram.commit_wait_p50_s", _p50(tb, "jobmanager.commit_wait"),
        "sim_s")
    ok = _counter(tb, "monitor.reports", "ok")
    bad = _counter(tb, "monitor.reports", "failed")
    put("gram.monitor_yield", ok / (ok + bad) if ok + bad else 0.0,
        "ratio")
    put("gram.admission_rejects",
        _counter(tb, "gatekeeper.admission_rejects")
        + _counter(tb, "gatekeeper.submits", "rejected_busy")
        + _counter(tb, "gatekeeper.submits", "rejected_user_busy"),
        "count")
    put("lrm.queue_wait_p50_s", _p50(tb, "lrm.queue_wait"), "sim_s")
    lags = _status_lag(tb, workload)
    put("core.status_lag_p50_s", percentile(lags, 50) if lags else 0.0,
        "sim_s")
    put("core.submit_latency_p50_s", _p50(tb, "gridmanager.submit_latency"),
        "sim_s")
    put("core.resubmits", _counter(tb, "gridmanager.resubmits"), "count")
    put("core.jm_restarts", _counter(tb, "gatekeeper.jm_restarts"), "count")
    put("trace_overhead", traced["run_s"] / plain["run_s"], "ratio")

    notes = {"traced_run_s": traced["run_s"], "untraced_run_s":
             plain["run_s"], "profiled_s": profiled,
             "status_lag_samples": len(lags), "digest": plain["digest"]}
    return metrics, units, traced, problems, notes


# -- provenance and output -------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over every .py file under src/repro (names and contents)."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "git_commit": git_commit(),
            "source_sha256": source_digest()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    if trace:
        metrics, units, rep, problems, notes = traced_pass(workload, seed)
    else:
        metrics, units, rep, problems, notes = untraced_pass(
            workload, seed, seconds)
    print(json.dumps({"provenance": provenance(seed), "workload": name,
                      "trace": int(trace), **notes}, sort_keys=True))
    for key, value in metrics.items():
        print(f"{name:<14} {key:<32} {value:>16.6g} {units[key]}")
    for problem in problems:
        print(f"CORRECTNESS {name}: {problem}", file=sys.stderr)
    # a run that fails a check other than job outcomes still counts one
    failed = rep["failed"] or int(bool(problems))
    print(json.dumps({
        "correct": not problems,
        "attempted": rep["submitted"] or 1,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                print(f"{name} trace={trace}: no result "
                      f"(exit {proc.returncode})")
                continue
            print(lines[0])
            result = json.loads(lines[-1])
            for key, metric in result["metrics"].items():
                rows.append((name, key, metric["value"], metric["unit"]))
            rows.append((name, f"correct(trace={trace})",
                         float(result["correct"]), "bool"))
    print()
    for name, key, value, unit in rows:
        print(f"{name:<14} {key:<32} {value:>16.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them, "
                             "each in a child process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced pass repeats the "
                             "workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the profiled per-layer pass")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
