"""The Condor Collector: the pool's soft-state ad registry.

Startds, schedds, and (glided-in) daemons advertise ClassAds here; the
Negotiator and the Condor-G Scheduler query it.  Identical in spirit to
the MDS GIIS, but holding Condor ads keyed by (ad type, name) and
supporting invalidation -- a startd that shuts down gracefully withdraws
its ad, one that dies silently ages out.

Expired ads are *reaped*, not just filtered: a sweep runs lazily on the
advertise/query paths whenever the soonest-known expiry has passed, so
the registry cannot grow without bound across glidein churn.  The sweep
is surfaced through the ``collector.expired_reaped`` metrics counter.

Queries of the dominant shape ``Attr == <literal>`` (the Negotiator's
``State == "Unclaimed"``) are answered from per-(adtype, attribute)
equality buckets instead of a full evaluate-every-ad scan, and all
queries iterate a maintained name-sorted list instead of re-sorting the
registry per call.  Candidates coming out of a bucket are still
evaluated against the full constraint, so the index can only narrow the
scan, never change a result.  Constraint parsing is cached (parsing is
pure), mirroring the GIIS query cache.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Optional

from ..classads import ClassAd, EvalContext, is_true, parse
from ..classads.ast import AttrRef, BinaryOp, Literal
from ..sim.hosts import Host
from ..sim.rpc import Service


def _normalize_eq_value(value: Any) -> Optional[tuple]:
    """Bucket key mirroring ClassAd ``==`` semantics.

    Strings compare case-insensitively (only against strings); numbers
    and bools compare numerically (``true == 1``); anything else can
    never satisfy an equality constraint against a string/number
    literal, so it has no bucket key.
    """
    if isinstance(value, str):
        return ("s", value.lower())
    if isinstance(value, bool):
        return ("n", float(value))
    if isinstance(value, (int, float)):
        return ("n", float(value))
    return None


def _eq_pattern(expr) -> Optional[tuple[str, tuple]]:
    """Recognize ``Attr == <literal>`` constraints (either operand order).

    Returns ``(attr_lower, normalized_value)`` or None.  ``TARGET.``
    scopes and ``CurrentTime`` (which falls back to the clock when the
    ad lacks it) are rejected -- those cannot be served from a bucket.
    """
    if not isinstance(expr, BinaryOp) or expr.op != "==":
        return None
    left, right = expr.left, expr.right
    if isinstance(left, Literal):
        left, right = right, left
    if not isinstance(left, AttrRef) or not isinstance(right, Literal):
        return None
    if left.scope == "target":
        return None
    attr = left.name.lower()
    if attr == "currenttime":
        return None
    norm = _normalize_eq_value(right.value)
    if norm is None:
        return None
    return (attr, norm)


class _EqIndex:
    """name sets for one (adtype, attribute): literal buckets + residual.

    ``buckets[norm]`` holds ads whose attribute is a Literal with that
    normalized value; ``residual`` holds ads whose attribute is a
    non-Literal expression (always re-evaluated).  Ads missing the
    attribute (or holding an un-normalizable literal) appear nowhere:
    ``Attr == <literal>`` is provably not-true for them.
    """

    __slots__ = ("buckets", "residual")

    def __init__(self) -> None:
        self.buckets: dict[tuple, set[str]] = {}
        self.residual: set[str] = set()

    def add(self, name: str, ad: ClassAd, attr: str) -> None:
        expr = ad.lookup(attr)
        if expr is None:
            return
        if isinstance(expr, Literal):
            norm = _normalize_eq_value(expr.value)
            if norm is not None:
                self.buckets.setdefault(norm, set()).add(name)
            return
        self.residual.add(name)

    def remove(self, name: str, ad: ClassAd, attr: str) -> None:
        expr = ad.lookup(attr)
        if expr is None:
            return
        if isinstance(expr, Literal):
            norm = _normalize_eq_value(expr.value)
            if norm is not None:
                members = self.buckets.get(norm)
                if members is not None:
                    members.discard(name)
                    if not members:
                        del self.buckets[norm]
            return
        self.residual.discard(name)

    def candidates(self, norm: tuple) -> list[str]:
        exact = self.buckets.get(norm, ())
        if self.residual:
            return sorted(set(exact) | self.residual)
        return sorted(exact)


class Collector(Service):
    service_name = "collector"

    def __init__(self, host: Host, authorizer=None,
                 default_ttl: float = 180.0):
        super().__init__(host, authorizer=authorizer)
        self.default_ttl = default_ttl
        # (adtype, name) -> (ad, expiry): the canonical registry.
        self._ads: dict[tuple[str, str], tuple[ClassAd, float]] = {}
        # adtype -> sorted list of live names (query results are
        # name-sorted within adtype; maintained incrementally so no
        # query re-sorts).
        self._names: dict[str, list[str]] = {}
        # (adtype, attr) -> _EqIndex, built lazily on first indexed
        # query for that attribute, maintained thereafter.
        self._eq_index: dict[tuple[str, str], _EqIndex] = {}
        # constraint text -> (expr, eq_pattern-or-None); parsing is
        # pure, like the GIIS query cache.
        self._parse_cache: dict[str, tuple[Any, Optional[tuple]]] = {}
        self.parse_cache_hits = 0
        # Soonest expiry across the registry: the lazy-sweep trigger.
        self._soonest_expiry = float("inf")
        self.expired_reaped = 0
        # index-vs-scan introspection for tests; kept out of metrics and
        # trace so the query strategy can change without moving digests
        self.indexed_queries = 0
        self.scanned_queries = 0

    # -- registry maintenance ------------------------------------------------
    def _insert(self, adtype: str, name: str, ad: ClassAd,
                expiry: float) -> None:
        key = (adtype, name)
        old = self._ads.get(key)
        if old is None:
            insort(self._names.setdefault(adtype, []), name)
        else:
            self._index_remove(adtype, name, old[0])
        self._ads[key] = (ad, expiry)
        self._index_add(adtype, name, ad)
        if expiry < self._soonest_expiry:
            self._soonest_expiry = expiry

    def _discard(self, adtype: str, name: str) -> bool:
        entry = self._ads.pop((adtype, name), None)
        if entry is None:
            return False
        names = self._names.get(adtype)
        if names is not None:
            idx = _index_of(names, name)
            if idx is not None:
                names.pop(idx)
        self._index_remove(adtype, name, entry[0])
        return True

    def _index_add(self, adtype: str, name: str, ad: ClassAd) -> None:
        for (kind, attr), index in self._eq_index.items():
            if kind == adtype:
                index.add(name, ad, attr)

    def _index_remove(self, adtype: str, name: str, ad: ClassAd) -> None:
        for (kind, attr), index in self._eq_index.items():
            if kind == adtype:
                index.remove(name, ad, attr)

    def _reap(self) -> None:
        """Drop every expired ad once the soonest expiry has passed.

        Reaping is observable (counters and memory), so it runs only
        from RPC handlers and local inspection: its timing is
        deterministic, and so are the digests that see it.
        """
        now = self.sim.now
        if self._soonest_expiry >= now:
            return
        expired = [(key, entry) for key, entry in self._ads.items()
                   if entry[1] < now]
        for (adtype, name), _ in expired:
            self._discard(adtype, name)
        self._soonest_expiry = min(
            (entry[1] for entry in self._ads.values()), default=float("inf"))
        if expired:
            self.expired_reaped += len(expired)
            self.sim.metrics.counter(
                "collector.expired_reaped").inc(len(expired))
            self._trace("reap", count=len(expired))

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(component=f"collector:{self.host.name}",
                           event=event, **details)

    # -- handlers -----------------------------------------------------------
    def handle_advertise(self, ctx, adtype: str, ad: ClassAd,
                         ttl: Optional[float] = None) -> bool:
        name = ad.get("Name")
        if not isinstance(name, str) or not name:
            raise ValueError("ad needs a string Name attribute")
        self._reap()
        self._insert(adtype, name, ad, self.sim.now +
                     (ttl or self.default_ttl))
        return True

    def handle_invalidate(self, ctx, adtype: str, name: str) -> bool:
        self._reap()
        return self._discard(adtype, name)

    def handle_query(self, ctx, adtype: str,
                     constraint: str = "true") -> list[ClassAd]:
        self._reap()
        cached = self._parse_cache.get(constraint)
        if cached is None:
            expr = parse(constraint)
            cached = (expr, _eq_pattern(expr))
            self._parse_cache[constraint] = cached
        else:
            self.parse_cache_hits += 1
        expr, pattern = cached
        if pattern is not None:
            self.indexed_queries += 1
            names = self._ensure_eq_index(adtype, pattern[0]) \
                .candidates(pattern[1])
        else:
            self.scanned_queries += 1
            names = self._names.get(adtype, ())
        now = self.sim.now
        by_type = self._ads
        out = []
        for name in names:
            entry = by_type.get((adtype, name))
            if entry is None or entry[1] < now:
                continue
            ad = entry[0]
            if is_true(expr.eval(EvalContext(my=ad, now=now))):
                out.append(ad)
        return out

    def _ensure_eq_index(self, adtype: str, attr: str) -> _EqIndex:
        index = self._eq_index.get((adtype, attr))
        if index is None:
            index = _EqIndex()
            self._eq_index[(adtype, attr)] = index
            for name in self._names.get(adtype, ()):
                entry = self._ads.get((adtype, name))
                if entry is not None:
                    index.add(name, entry[0], attr)
        return index

    # -- local inspection ---------------------------------------------------
    def live_ads(self, adtype: str) -> list[ClassAd]:
        self._reap()
        return [ad for (kind, _), (ad, expiry) in sorted(self._ads.items())
                if kind == adtype and expiry >= self.sim.now]

    def count(self, adtype: str) -> int:
        return len(self.live_ads(adtype))


def _index_of(names: list[str], name: str) -> Optional[int]:
    """Position of ``name`` in a sorted list, or None."""
    from bisect import bisect_left

    idx = bisect_left(names, name)
    if idx < len(names) and names[idx] == name:
        return idx
    return None
