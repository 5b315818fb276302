"""Per-layer attribution of a profiled run's host time.

The layers are this repository's own modules (table below).  A
``cProfile`` pass over the run gives every function's self time; a
function under ``src/repro`` belongs to the layer that owns its file.
Everything else -- C builtins such as ``heapq.heappush`` or
``dict.get``, and stdlib Python such as ``copy.deepcopy`` -- counts
toward the layer that called it: its self time is split over its
callers in proportion to the time it spent under each (cProfile's
per-caller edges), following chains of non-repro callers until a repro
function is reached.  Time with no repro caller at all (the benchmark's
own driving loop) is ``other``.  The layer self times therefore sum to
the profiled total exactly.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Optional

import repro

LAYERS = ("sim.kernel", "sim.rpc", "sim.fastcopy", "sim.hosts",
          "sim.trace", "classads", "condor", "gram", "lrm", "core",
          "other")

#: path under ``src/repro`` -> layer.  A key ending in "/" covers that
#: whole package; every other key names one file.  Every module of the
#: package must be covered (``test_layers.py`` walks the tree).
LAYER_TABLE = {
    "sim/kernel.py": "sim.kernel",
    "sim/rpc.py": "sim.rpc",
    "sim/network.py": "sim.rpc",
    "sim/fastcopy.py": "sim.fastcopy",
    "sim/hosts.py": "sim.hosts",
    "sim/trace.py": "sim.trace",
    "sim/stats.py": "sim.trace",
    "classads/": "classads",
    "condor/": "condor",
    "gram/": "gram",
    "lrm/": "lrm",
    "core/": "core",
    # everything else is "other", listed so an unmapped new module shows
    "__init__.py": "other",
    "compat.py": "other",
    "profile.py": "other",
    "states.py": "other",
    "sim/__init__.py": "other",
    "sim/errors.py": "other",
    "sim/failures.py": "other",
    "sim/perf.py": "other",
    "sim/rng.py": "other",
    "sim/snapshot.py": "other",
    "sim/sync.py": "other",
    "chaos/": "other",
    "dagman/": "other",
    "data/": "other",
    "factory/": "other",
    "gass/": "other",
    "grid/": "other",
    "gridftp/": "other",
    "gsi/": "other",
    "mds/": "other",
    "workloads/": "other",
}

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


class UnmappedModule(KeyError):
    """A module under src/repro that LAYER_TABLE does not cover."""


def layer_of_path(rel: str) -> str:
    """The layer owning ``rel`` (a path relative to ``src/repro``)."""
    rel = rel.replace(os.sep, "/")
    if rel in LAYER_TABLE:
        return LAYER_TABLE[rel]
    package = rel.split("/", 1)[0] + "/"
    if "/" in rel and package in LAYER_TABLE:
        return LAYER_TABLE[package]
    raise UnmappedModule(f"src/repro/{rel} has no layer in LAYER_TABLE")


def layer_of_file(filename: str) -> Optional[str]:
    """The layer of a profiled code file, or None if it is not repro's."""
    path = os.path.abspath(filename)
    if not path.startswith(REPRO_ROOT + os.sep):
        return None
    return layer_of_path(os.path.relpath(path, REPRO_ROOT))


def attribute(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer; the values sum to the profiled total."""
    raw = stats.stats
    own: dict[tuple, Optional[str]] = {
        func: layer_of_file(func[0]) for func in raw}

    # For each foreign (non-repro) function: the share of its self time
    # spent under each caller.  Edges carry per-caller self time; a
    # function whose edges carry none is split by call count instead.
    weights: dict[tuple, list[tuple[tuple, float]]] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in raw.items():
        if own[func] is not None:
            continue
        edges = [(caller, edge[2]) for caller, edge in callers.items()
                 if caller != func]
        total = sum(w for _c, w in edges)
        if total <= 0.0:
            edges = [(caller, float(edge[1]))
                     for caller, edge in callers.items() if caller != func]
            total = sum(w for _c, w in edges)
        weights[func] = [(c, w / total) for c, w in edges] if total else []

    # Absorption: the chance that a foreign function's time belongs to
    # each layer, found by iterating over chains of foreign callers.
    share: dict[tuple, dict[str, float]] = {f: {} for f in weights}
    for _ in range(64):
        moved = 0.0
        for func, edges in weights.items():
            mix: dict[str, float] = defaultdict(float)
            for caller, w in edges:
                layer = own.get(caller)
                if layer is not None:
                    mix[layer] += w
                else:
                    for name, p in share.get(caller, {}).items():
                        mix[name] += w * p
            old = share[func]
            moved = max([moved] + [abs(mix[k] - old.get(k, 0.0))
                                   for k in set(mix) | set(old)])
            share[func] = dict(mix)
        if moved < 1e-12:
            break

    out = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        layer = own[func]
        if layer is not None:
            out[layer] += tt
            continue
        placed = 0.0
        for name, p in share[func].items():
            out[name] += tt * p
            placed += p
        out["other"] += tt * max(0.0, 1.0 - placed)
    return out


def find(stats: pstats.Stats, rel: str, name: str) -> Optional[tuple]:
    """The profile key of function ``name`` in ``src/repro/<rel>``."""
    for func in stats.stats:
        if func[2] == name and layer_of_file(func[0]) is not None and \
                os.path.relpath(os.path.abspath(func[0]), REPRO_ROOT) \
                .replace(os.sep, "/") == rel:
            return func
    return None


def calls(stats: pstats.Stats, rel: str, name: str) -> int:
    """Total calls of one repro function (0 if it never ran)."""
    func = find(stats, rel, name)
    return stats.stats[func][1] if func is not None else 0


def edge_calls(stats: pstats.Stats, callee: Optional[tuple],
               caller_rel: str, caller_names=None,
               exclude=()) -> int:
    """Calls into ``callee`` made from functions of ``caller_rel``."""
    if callee is None or callee not in stats.stats:
        return 0
    total = 0
    for caller, edge in stats.stats[callee][4].items():
        if layer_of_file(caller[0]) is None:
            continue
        rel = os.path.relpath(os.path.abspath(caller[0]), REPRO_ROOT) \
            .replace(os.sep, "/")
        if rel != caller_rel or caller[2] in exclude:
            continue
        if caller_names is not None and caller[2] not in caller_names:
            continue
        total += edge[1]
    return total
