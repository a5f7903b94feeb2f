"""IntervalSet: unit tests + hypothesis properties against a set model."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.intervals import IntervalSet


class TestBasics:
    def test_empty(self):
        s = IntervalSet()
        assert len(s) == 0
        assert not s
        assert s.total == 0
        assert list(s) == []

    def test_single_add(self):
        s = IntervalSet()
        s.add(3, 9)
        assert list(s) == [(3, 9)]
        assert s.total == 6

    def test_empty_interval_ignored(self):
        s = IntervalSet()
        s.add(5, 5)
        s.add(7, 3)
        assert not s

    def test_disjoint_adds_sorted(self):
        s = IntervalSet()
        s.add(10, 20)
        s.add(0, 5)
        s.add(30, 40)
        assert list(s) == [(0, 5), (10, 20), (30, 40)]

    def test_adjacent_coalesce(self):
        s = IntervalSet()
        s.add(0, 5)
        s.add(5, 9)
        assert list(s) == [(0, 9)]

    def test_overlap_coalesce(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(5, 15)
        assert list(s) == [(0, 15)]

    def test_bridging_add(self):
        s = IntervalSet()
        s.add(0, 5)
        s.add(10, 15)
        s.add(4, 11)
        assert list(s) == [(0, 15)]

    def test_contains(self):
        s = IntervalSet()
        s.add(5, 10)
        assert not s.contains(4)
        assert s.contains(5)
        assert s.contains(9)
        assert not s.contains(10)

    def test_remove_middle_splits(self):
        s = IntervalSet()
        s.add(0, 10)
        s.remove(3, 6)
        assert list(s) == [(0, 3), (6, 10)]

    def test_remove_exact(self):
        s = IntervalSet()
        s.add(0, 10)
        s.remove(0, 10)
        assert not s

    def test_remove_spanning_multiple(self):
        s = IntervalSet()
        s.add(0, 5)
        s.add(10, 15)
        s.add(20, 25)
        s.remove(3, 22)
        assert list(s) == [(0, 3), (22, 25)]

    def test_remove_nonoverlapping_noop(self):
        s = IntervalSet()
        s.add(5, 10)
        s.remove(10, 20)
        s.remove(0, 5)
        assert list(s) == [(5, 10)]

    def test_overlap_query(self):
        s = IntervalSet()
        s.add(0, 5)
        s.add(10, 15)
        assert s.overlap(3, 12) == [(3, 5), (10, 12)]
        assert s.overlap_total(3, 12) == 4

    def test_overlap_empty_query(self):
        s = IntervalSet()
        s.add(0, 5)
        assert s.overlap(7, 7) == []
        assert s.overlap_total(5, 9) == 0

    def test_equality(self):
        a, b = IntervalSet(), IntervalSet()
        a.add(0, 5)
        b.add(0, 3)
        b.add(3, 5)
        assert a == b

    def test_clear(self):
        s = IntervalSet()
        s.add(0, 5)
        s.clear()
        assert not s


_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, 200),
        st.integers(0, 200),
    ),
    max_size=40,
)


def _apply(ops):
    """Apply ops to both an IntervalSet and a plain-set reference model."""
    s = IntervalSet()
    model: set = set()
    for op, a, b in ops:
        lo, hi = min(a, b), max(a, b)
        if op == "add":
            s.add(lo, hi)
            model |= set(range(lo, hi))
        else:
            s.remove(lo, hi)
            model -= set(range(lo, hi))
    return s, model


class TestProperties:
    @given(_ops)
    @settings(max_examples=200, deadline=None)
    def test_matches_set_model(self, ops):
        s, model = _apply(ops)
        covered = {p for a, b in s for p in range(a, b)}
        assert covered == model

    @given(_ops)
    @settings(max_examples=100, deadline=None)
    def test_invariants_sorted_disjoint_nonadjacent(self, ops):
        s, _ = _apply(ops)
        spans = list(s)
        for a, b in spans:
            assert a < b
        for (_, b1), (a2, _) in zip(spans, spans[1:]):
            assert b1 < a2  # disjoint AND non-adjacent (coalesced)

    @given(_ops, st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_overlap_total_matches_model(self, ops, a, b):
        lo, hi = min(a, b), max(a, b)
        s, model = _apply(ops)
        assert s.overlap_total(lo, hi) == len(model & set(range(lo, hi)))

    @given(_ops, st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_contains_matches_model(self, ops, point):
        s, model = _apply(ops)
        assert s.contains(point) == (point in model)

    @given(_ops)
    @settings(max_examples=100, deadline=None)
    def test_total_matches_model(self, ops):
        s, model = _apply(ops)
        assert s.total == len(model)
