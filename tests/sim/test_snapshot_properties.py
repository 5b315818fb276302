"""Property suite for the snapshot digest contract.

The contract (``repro.sim.snapshot``): for any scenario, seed, and
snapshot boundary ``t`` strictly inside the run,

    run(0, T)  ==digest==  run(0, t); capture; restore; run(t, T)

-- where ``restore`` covers both the
*resume* flavor (keep the live testbed and run past the boundary; the
capture must be side-effect-free) and the *rehydrate* flavor
(:func:`repro.sim.snapshot.restore`: rebuild from provenance, replay to
``t``, verify bit-identity, then continue).

Hypothesis drives the boundary and seed; the scenarios are
pytest-parametrized so every one is exercised regardless of how the
search space is sampled.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.digest import run_digest
from repro.grid.scenarios import get_scenario
from repro.sim.snapshot import capture, restore, state_digest

#: end-of-run horizon per scenario: late enough that real grid traffic
#: (submissions, GRAM polls, completions) straddles any boundary.
SCENARIOS = {
    "quickstart": 1500.0,
    "three-site": 1500.0,
    "credential": 1500.0,
}

_baselines: dict = {}


def _baseline_digest(scenario: str, seed: int) -> str:
    """The uninterrupted run(0, T) digest, cached per cell."""
    key = (scenario, seed)
    if key not in _baselines:
        tb = get_scenario(scenario).build(seed)
        tb.run(until=SCENARIOS[scenario])
        _baselines[key] = run_digest(tb)
    return _baselines[key]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_segmented_run_matches_uninterrupted(scenario, seed, frac):
    horizon = SCENARIOS[scenario]
    boundary = round(frac * horizon, 3)
    baseline = _baseline_digest(scenario, seed)

    # resume flavor: capture mid-run, keep going on the live object.
    tb = get_scenario(scenario).build(seed)
    tb.run(until=boundary)
    snap = capture(tb, scenario=scenario)
    tb.run(until=horizon)
    assert run_digest(tb) == baseline, \
        f"resume diverged at boundary t={boundary}"

    # rehydrate flavor: rebuild from provenance in a fresh testbed
    # (restore verifies state bit-identity internally, raising
    # SnapshotMismatch with the divergent path on failure).
    tb2 = restore(snap)
    assert tb2.sim.now == boundary or tb2.sim.now == snap.time
    tb2.run(until=horizon)
    assert run_digest(tb2) == baseline, \
        f"rehydrate diverged at boundary t={boundary}"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_capture_does_not_perturb_state(scenario, seed, frac):
    """capture() at any boundary leaves the state digest unchanged."""
    boundary = round(frac * SCENARIOS[scenario], 3)
    tb = get_scenario(scenario).build(seed)
    tb.run(until=boundary)
    before = state_digest(tb)
    snap = capture(tb, scenario=scenario)
    assert snap.digest == before
    assert state_digest(tb) == before


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2),
       fracs=st.lists(st.floats(min_value=0.05, max_value=0.95),
                      min_size=2, max_size=4, unique=True))
def test_repeated_boundaries_compose(seed, fracs):
    """Several snapshot boundaries in one run still land on the
    uninterrupted digest (segments compose, not just one split)."""
    horizon = SCENARIOS["three-site"]
    baseline = _baseline_digest("three-site", seed)
    tb = get_scenario("three-site").build(seed)
    for frac in sorted(fracs):
        tb.run(until=round(frac * horizon, 3))
        capture(tb, scenario="three-site")
    tb.run(until=horizon)
    assert run_digest(tb) == baseline
