"""Checks on the benchmark's own machinery (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_layers.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def test_every_repro_module_has_a_layer():
    unmapped = []
    for dirpath, dirnames, filenames in os.walk(layers.REPRO_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name),
                                  layers.REPRO_ROOT)
            try:
                assert layers.layer_of_path(rel) in layers.LAYERS
            except layers.UnmappedModule:
                unmapped.append(rel)
    assert not unmapped, f"add these to LAYER_TABLE: {unmapped}"


def test_table_names_only_known_layers():
    assert set(layers.LAYER_TABLE.values()) <= set(layers.LAYERS)


def test_new_module_is_reported_unmapped():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_path("brandnew/module.py")
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_path("brandnew.py")


class _FakeStats:
    """The slice of pstats.Stats that ``layers.attribute`` reads."""

    def __init__(self, stats):
        self.stats = stats


def _repro(rel: str, name: str) -> tuple:
    return (os.path.join(layers.REPRO_ROOT, rel), 1, name)


def test_foreign_time_goes_to_the_calling_layer():
    core = _repro("core/gridmanager.py", "tick")
    kernel = _repro("sim/kernel.py", "run")
    stdlib = ("/usr/lib/python3/copy.py", 10, "deepcopy")
    builtin = ("~", 0, "<built-in method _heapq.heappop>")
    root = ("bench.py", 1, "main")
    stats = _FakeStats({
        root: (1, 1, 0.5, 10.0, {}),
        kernel: (1, 1, 1.0, 9.0, {root: (1, 1, 1.0, 9.0)}),
        core: (4, 4, 2.0, 6.0, {kernel: (4, 4, 2.0, 6.0)}),
        # deepcopy: 3s under core, 1s under itself (recursion)
        stdlib: (6, 8, 3.0, 4.0, {core: (6, 6, 3.0, 4.0),
                                  stdlib: (0, 2, 0.0, 0.0)}),
        # heappop: 0.75s under the kernel, 0.25s under deepcopy
        builtin: (9, 9, 1.0, 1.0, {kernel: (6, 6, 0.75, 0.75),
                                   stdlib: (3, 3, 0.25, 0.25)}),
    })
    out = layers.attribute(stats)
    assert out["sim.kernel"] == pytest.approx(1.0 + 0.75)
    assert out["core"] == pytest.approx(2.0 + 3.0 + 0.25)
    assert out["other"] == pytest.approx(0.5)
    assert sum(out.values()) == pytest.approx(7.5)


def test_workloads_build_their_stated_size():
    for workload in workloads.WORKLOADS.values():
        tb = workload.build(3)
        assert len(workloads.workload_jobs(tb, workload)) == workload.jobs
        assert tb.sim.now == pytest.approx(0.0)


def test_fault_plan_is_a_function_of_the_seed():
    build = workloads.WORKLOADS["gram-faults"].build
    a = workloads.fault_plan(build(5), 5).to_dict()
    b = workloads.fault_plan(build(5), 5).to_dict()
    c = workloads.fault_plan(build(6), 6).to_dict()
    assert a == b and a != c
    kinds = [ev["kind"] for ev in a["events"]]
    for kind, count in workloads.FAULT_COUNTS:
        assert kinds.count(kind) == count + (kind == "crash")


def test_reference_kernel_does_fixed_work():
    assert reference.reference_kernel() == reference.reference_kernel()


def test_metronome_reads_a_run_in_reference_units():
    metronome = reference.Metronome(interval=0.0)
    metronome.start()
    for _ in range(5):
        reference.reference_kernel()    # a slice of "run" ...
        metronome()                     # ... read against one call
    run_ref = metronome.stop()
    assert metronome.calls == 5
    # each slice did one kernel call's work, read against one call
    assert 2.0 < run_ref < 10.0
