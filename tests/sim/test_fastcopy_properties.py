"""Property-based equivalence of fast_deepcopy and copy.deepcopy.

:func:`repro.sim.fastcopy.fast_deepcopy` replaces ``copy.deepcopy`` on
every datagram and queue-record copy, so the contract is total semantic
equivalence for tree-shaped payloads: equal values, no shared mutable
structure, and identical behaviour through the fallback path (sets,
dataclasses, ``__deepcopy__`` objects).  ``copy.deepcopy`` is the
oracle; Hypothesis generates the payload trees.
"""

import copy
from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.sim.fastcopy import fast_deepcopy

# The payload alphabet the simulator actually ships: JSON-ish atoms
# under dict/list/tuple containers.
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.binary(max_size=12),
)

_trees = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)


@dataclass
class _Record:
    """Exercises the fallback: not a plain container, holds mutables."""

    name: str = "x"
    payload: list = field(default_factory=list)


class _SelfCopier:
    """Object with a custom ``__deepcopy__`` the fallback must honor."""

    def __init__(self, tag):
        self.tag = tag
        self.copies = 0

    def __deepcopy__(self, memo):
        clone = _SelfCopier(copy.deepcopy(self.tag, memo))
        clone.copies = self.copies + 1
        return clone


def _assert_no_shared_mutables(a, b):
    """Recursively verify `a` and `b` share no mutable container."""
    if isinstance(a, (list, tuple)):
        if isinstance(a, list):
            assert a is not b
        for x, y in zip(a, b):
            _assert_no_shared_mutables(x, y)
    elif isinstance(a, dict):
        assert a is not b
        for k in a:
            _assert_no_shared_mutables(a[k], b[k])
    elif isinstance(a, set):
        assert a is not b


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_matches_deepcopy_on_payload_trees(tree):
    fast = fast_deepcopy(tree)
    slow = copy.deepcopy(tree)
    assert fast == slow == tree
    _assert_no_shared_mutables(tree, fast)


@given(_trees)
@settings(max_examples=100, deadline=None)
def test_mutating_the_copy_never_touches_the_original(tree):
    original = copy.deepcopy(tree)
    clone = fast_deepcopy(tree)
    _clobber(clone)
    assert tree == original


def _clobber(obj):
    """Destroy every mutable container reachable from `obj`."""
    if isinstance(obj, list):
        obj.append("clobbered")
        for v in obj[:-1]:
            _clobber(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            _clobber(v)
        obj["clobbered"] = True
    elif isinstance(obj, tuple):
        for v in obj:
            _clobber(v)


@given(st.lists(_atoms, max_size=5), st.sets(st.integers(), max_size=5))
@settings(max_examples=100, deadline=None)
def test_fallback_for_sets_and_dataclasses(payload, numbers):
    """Non-container shapes route through copy.deepcopy, deeply."""
    rec = _Record(name="rec", payload=[payload, numbers])
    wrapped = {"outer": [rec], "set": numbers}
    clone = fast_deepcopy(wrapped)
    assert clone == wrapped
    assert clone["outer"][0] is not rec
    assert clone["outer"][0].payload is not rec.payload
    assert clone["set"] is not numbers
    clone["outer"][0].payload.append("x")
    assert len(rec.payload) == 2


@given(st.text(max_size=8))
@settings(max_examples=50, deadline=None)
def test_fallback_honors_custom_deepcopy(tag):
    obj = _SelfCopier(tag)
    clone = fast_deepcopy({"obj": obj})["obj"]
    assert clone is not obj
    assert clone.tag == tag
    assert clone.copies == 1   # went through __deepcopy__, not __dict__ copy


@given(_trees)
@settings(max_examples=50, deadline=None)
def test_tuple_subclasses_are_not_flattened(tree):
    """A namedtuple-ish subclass must keep its type (fallback path)."""

    class Point(tuple):
        pass

    p = Point((1, tree))
    clone = fast_deepcopy([p])
    assert type(clone[0]) is Point
    assert clone[0] == p


def test_fast_deepcopy_structural_and_fallback():
    payload = {"a": [1, 2, {"b": (3, "x")}], "c": None}
    copied = fast_deepcopy(payload)
    assert copied == payload
    assert copied is not payload
    assert copied["a"][2] is not payload["a"][2]

    class Weird:
        def __init__(self):
            self.v = [1]

    obj = {"w": Weird()}
    copied = fast_deepcopy(obj)
    assert copied["w"] is not obj["w"]
    assert copied["w"].v == [1]
