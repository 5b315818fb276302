"""The Negotiator's memoized matcher against the linear best_match scan.

Within a cycle the matcher must choose, job after job, exactly the
machine ``classads.best_match`` would choose over the machines still
unclaimed -- including Rank ties (first machine wins), unmatchable
ranks, and dynamic ads that reference ``CurrentTime``.
"""

import random

import pytest

from repro.classads import ClassAd, best_match
from repro.condor.negotiator import _CycleMatcher

MACHINE_REQS = (
    'TARGET.Owner != "banned"',
    "TARGET.ImageSize <= MY.Memory",
    "true",
    "CurrentTime > 50",                          # dynamic
    "CurrentTime >= 0 && TARGET.ImageSize < 100",  # dynamic
)
JOB_REQS = (
    'TARGET.Arch == "INTEL"',
    "TARGET.Memory >= MY.ImageSize",
    "true",
    "CurrentTime < 1000 && TARGET.Mips > 50",    # dynamic
)
JOB_RANKS = (
    None,
    "TARGET.Mips",
    "TARGET.Memory",
    "-TARGET.Mips",
    "TARGET.NoSuchAttr",                         # undefined: ranks 0
    "CurrentTime - TARGET.Mips",                 # dynamic
)


def _machines(rng, n):
    out = []
    for i in range(n):
        out.append(ClassAd.parse(
            f'[ Name = "m{i:03d}"; Arch = "{rng.choice(("INTEL", "SPARC"))}";'
            f" Memory = {rng.choice((32, 64, 128))};"
            f" Mips = {rng.choice((50, 100, 200))};"
            f" Requirements = {rng.choice(MACHINE_REQS)} ]"))
    return out


def _job_templates(rng, n):
    out = []
    for _ in range(n):
        rank = rng.choice(JOB_RANKS)
        rank_attr = f" Rank = {rank};" if rank is not None else ""
        owner = rng.choice(("alice", "bob", "banned"))
        out.append(
            f'[ Owner = "{owner}"; ImageSize = {rng.choice((16, 48, 96))};'
            f"{rank_attr} Requirements = {rng.choice(JOB_REQS)} ]")
    return out


@pytest.mark.parametrize("seed", range(6))
def test_memo_choices_equal_best_match(seed):
    rng = random.Random(seed)
    machines = _machines(rng, 40)
    # few templates, many jobs: repeated signatures exercise the memo
    templates = _job_templates(rng, 6)
    jobs = [ClassAd.parse(rng.choice(templates)) for _ in range(60)]
    now = 100.0

    matcher = _CycleMatcher(list(machines), {})
    available = list(machines)
    for job in jobs:
        index = matcher.best(job, now)
        expected = best_match(job, available, now=now)
        chosen = matcher.machines[index] if index is not None else None
        assert chosen is expected
        if chosen is not None:
            matcher.consume(index)
            available.remove(chosen)
    assert matcher.remaining == len(available)
    assert matcher.memo_hits > 0
