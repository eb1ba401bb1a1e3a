"""RangeBitmap must behave exactly like a plain set of covered grains,
including ascending run order (load-bearing for seeded crash images)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.bitmap import CHUNK_BITS, RangeBitmap, iter_bit_runs


class TestBitRuns:
    def test_empty_mask(self):
        assert list(iter_bit_runs(0)) == []

    def test_single_bit(self):
        assert list(iter_bit_runs(1 << 5)) == [(5, 6)]

    def test_multiple_runs(self):
        mask = 0b1110010110
        assert list(iter_bit_runs(mask)) == [(1, 3), (4, 5), (7, 10)]

    def test_full_chunk(self):
        assert list(iter_bit_runs((1 << CHUNK_BITS) - 1)) == [(0, CHUNK_BITS)]


# Reference model: the set of covered grain indices, as plain ints.
# Grain 8 is the store buffer's word tracking; grain 1 is Libnvmmio's
# per-block byte ranges (one 4 KB block = one chunk at grain 1).
grains = st.sampled_from([1, 8])
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, 12_000),
        st.integers(1, 600),
    ),
    max_size=40,
)


def build(grain, operations):
    """Apply (op, start_grain, ngrains) to a bitmap and the point model."""
    bm = RangeBitmap(grain)
    points = set()
    for op, first, n in operations:
        start, end = first * grain, (first + n) * grain
        if op == "add":
            bm.add(start, end)
            points.update(range(first, first + n))
        else:
            bm.remove(start, end)
            points.difference_update(range(first, first + n))
    return bm, points


def model_runs(points, grain):
    runs = []
    for p in sorted(points):
        if runs and runs[-1][1] == p * grain:
            runs[-1][1] += grain
        else:
            runs.append([p * grain, (p + 1) * grain])
    return [tuple(r) for r in runs]


class TestEquivalenceWithPointSet:
    @given(grains, ops.map(lambda o: [("add", w, n) for _, w, n in o]))
    @settings(max_examples=80, deadline=None)
    def test_adds_produce_identical_runs(self, grain, operations):
        bm, points = build(grain, operations)
        runs = model_runs(points, grain)
        assert list(bm.runs()) == runs
        assert len(bm) == len(runs)
        assert bm.total() == len(points) * grain
        assert bool(bm) == bool(points)

    @given(grains, ops)
    @settings(max_examples=80, deadline=None)
    def test_mixed_adds_removes_match(self, grain, operations):
        bm, points = build(grain, operations)
        assert list(bm.runs()) == model_runs(points, grain)

    @given(grains, ops, st.integers(0, 12_600), st.integers(0, 12_600))
    @settings(max_examples=80, deadline=None)
    def test_iter_intersect_matches(self, grain, operations, a, b):
        lo, hi = min(a, b), max(a, b)
        bm, points = build(grain, operations)
        inside = {p for p in points if lo <= p < hi}
        assert list(bm.iter_intersect(lo * grain, hi * grain)) == model_runs(inside, grain)
        assert bm.overlaps(lo * grain, hi * grain) == bool(inside)
        # Libnvmmio's "range fully logged" test
        assert (bm.count(lo * grain, hi * grain) == hi - lo) == (len(inside) == hi - lo)

    @given(grains, ops, st.integers(0, 12_600))
    @settings(max_examples=60, deadline=None)
    def test_contains_matches(self, grain, operations, p):
        bm, points = build(grain, operations)
        assert bm.contains(p * grain) == (p in points)


class TestRunOrdering:
    def test_runs_ascend_across_chunk_borders(self):
        bm = RangeBitmap(8)
        chunk_bytes = CHUNK_BITS * 8
        # A run straddling a chunk border must come out as one range.
        bm.add(chunk_bytes - 64, chunk_bytes + 64)
        bm.add(8, 16)
        bm.add(3 * chunk_bytes, 3 * chunk_bytes + 8)
        assert list(bm.runs()) == [
            (8, 16),
            (chunk_bytes - 64, chunk_bytes + 64),
            (3 * chunk_bytes, 3 * chunk_bytes + 8),
        ]

    def test_pop_runs_clears(self):
        bm = RangeBitmap(64)
        bm.add(0, 128)
        assert bm.pop_runs() == [(0, 128)]
        assert not bm
        assert bm.pop_runs() == []

    def test_count_is_popcount(self):
        bm = RangeBitmap(64)
        bm.add(0, 256)
        bm.add(1024, 1088)
        assert bm.count(0, 2048) == 5
        assert bm.count(64, 192) == 2
