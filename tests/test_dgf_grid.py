"""Tests for the inner/boundary grid decomposition (Algorithm 3's core)."""

import datetime
import itertools
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dgf.grid import search_grid
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.hiveql.predicates import Interval
from repro.storage.schema import DataType


@pytest.fixture
def policy():
    return SplittingPolicy([
        DimensionPolicy(name="A", dtype=DataType.BIGINT, origin=1,
                        interval=3),
        DimensionPolicy(name="B", dtype=DataType.BIGINT, origin=11,
                        interval=2),
    ])


#: bounds matching the paper's Figure 5 data space (A in 1..13, B in 11..19)
PAPER_BOUNDS = {"a": (0, 3), "b": (0, 3)}


class TestPaperExample:
    def test_listing2_query_region(self, policy):
        """Listing 2 / Figure 7: A in [5, 12), B in [12, 16).  The inner
        region is {7 <= A < 10, 13 <= B < 15} = GFU '7_13'; everything else
        overlapping is boundary."""
        intervals = {"a": Interval(low=5, high=12),
                     "b": Interval(low=12, high=16)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert result.inner_keys == ["7_13"]
        assert set(result.boundary_keys) == {
            "4_11", "4_13", "4_15", "7_11", "7_15",
            "10_11", "10_13", "10_15"}

    def test_point_query_has_no_inner(self, policy):
        """Paper: 'In point query case, there is no inner GFU'."""
        intervals = {"a": Interval.point(8), "b": Interval.point(14)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert result.inner_keys == []
        assert result.boundary_keys == ["7_13"]

    def test_cell_aligned_query_is_all_inner(self, policy):
        intervals = {"a": Interval(low=4, high=10),
                     "b": Interval(low=13, high=15)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert sorted(result.inner_keys) == ["4_13", "7_13"]
        assert result.boundary_keys == []


class TestMissingDimensions:
    def test_unconstrained_dimension_spans_bounds(self, policy):
        intervals = {"a": Interval(low=4, high=10), "b": None}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        # a-cells 1..2 fully covered; b unconstrained -> covered everywhere
        assert len(result.inner_keys) == 2 * 4
        assert result.boundary_keys == []

    def test_bounds_clamp_the_search(self, policy):
        intervals = {"a": Interval(low=-100, high=100), "b": None}
        result = search_grid(policy, intervals, {"a": (1, 2), "b": (0, 0)})
        assert result.num_cells == 2


class TestEdgeCases:
    def test_empty_interval(self, policy):
        intervals = {"a": Interval(low=9, high=5), "b": None}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert result.empty
        assert result.all_keys == []

    def test_region_outside_bounds(self, policy):
        intervals = {"a": Interval(low=1000), "b": None}
        assert search_grid(policy, intervals, PAPER_BOUNDS).empty

    def test_force_all_boundary(self, policy):
        """Non-aggregation queries treat every query cell as boundary."""
        intervals = {"a": Interval(low=4, high=10),
                     "b": Interval(low=13, high=15)}
        result = search_grid(policy, intervals, PAPER_BOUNDS,
                             force_all_boundary=True)
        assert result.inner_keys == []
        assert sorted(result.boundary_keys) == ["4_13", "7_13"]

    def test_num_cells(self, policy):
        intervals = {"a": Interval(low=5, high=12),
                     "b": Interval(low=12, high=16)}
        assert search_grid(policy, intervals, PAPER_BOUNDS).num_cells == 9
        assert search_grid(policy, {"a": Interval(low=99, high=1),
                                    "b": None}, PAPER_BOUNDS).num_cells == 0

    def test_counts_and_box_need_no_keys(self, monkeypatch):
        """A million-cell region answers its counts and inner box from
        the per-dimension ranges alone: no GFUKey segment is formatted."""
        def no_labels(self, k):
            raise AssertionError("label() called while counting")
        monkeypatch.setattr(DimensionPolicy, "label", no_labels)
        policy = SplittingPolicy([
            DimensionPolicy(name="u", dtype=DataType.BIGINT, origin=0,
                            interval=2),
            DimensionPolicy(name="ts", dtype=DataType.DATE,
                            origin="2000-01-01", interval=1),
        ])
        intervals = {"u": Interval(low=1, high=2401),
                     "ts": Interval(low="2000-01-11", high="2002-10-07")}
        region = search_grid(policy, intervals,
                             {"u": (0, 5000), "ts": (0, 5000)})
        assert region.num_cells == 1201 * 1000 >= 10 ** 6
        assert region.inner_count == 1199 * 1000
        assert region.boundary_count == 2 * 1000
        assert region.inner_box == ((1, 10), (1199, 1009))
        assert region.is_inner((600, 500))
        assert not region.is_inner((0, 500))
        assert not region.empty


@settings(max_examples=80, deadline=None)
@given(a_lo=st.integers(0, 30), a_width=st.integers(0, 20),
       b_lo=st.integers(0, 30), b_width=st.integers(0, 20),
       value_a=st.integers(0, 40), value_b=st.integers(0, 40))
def test_property_decomposition_is_sound(a_lo, a_width, b_lo,
                                         b_width, value_a, value_b):
    policy = SplittingPolicy([
        DimensionPolicy(name="A", dtype=DataType.BIGINT, origin=1,
                        interval=3),
        DimensionPolicy(name="B", dtype=DataType.BIGINT, origin=11,
                        interval=2),
    ])
    """For any query box and any point: if the point matches the predicate
    its cell is inner or boundary; if its cell is inner, the point matches.
    This is exactly the invariant that makes answering the inner region
    from pre-computed headers correct."""
    intervals = {
        "a": Interval(low=a_lo, high=a_lo + a_width),
        "b": Interval(low=b_lo, high=b_lo + b_width),
    }
    bounds = {"a": (-5, 20), "b": (-10, 20)}
    result = search_grid(policy, intervals, bounds)
    key = policy.key_of_row((value_a, value_b))
    matches = (intervals["a"].contains(value_a)
               and intervals["b"].contains(value_b))
    in_bounds = all(
        lo <= dim.cell_of(v) <= hi
        for dim, v, (lo, hi) in zip(
            policy.dimensions, (value_a, value_b),
            (bounds["a"], bounds["b"])))
    if matches and in_bounds:
        assert key in result.inner_keys or key in result.boundary_keys
    if key in result.inner_keys:
        assert matches


# ------------------------------------------------ region == per-cell oracle
def _float_rank(x):
    """Order-preserving integer rank of a double (by its IEEE bits)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2 ** 63 - 1)) - 1


def _float_of_rank(rank):
    bits = rank if rank >= 0 else (-rank - 1) | 2 ** 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def held_values(dim):
    """``(first, last, value_of)``: the values the dimension can hold, as
    a contiguous run of integer ranks — integers on INT/BIGINT, ordinal
    days on DATE, IEEE bit ranks on DOUBLE."""
    if dim.dtype is DataType.DOUBLE:
        return _float_rank(-1e300), _float_rank(1e300), _float_of_rank
    if dim.dtype is DataType.DATE:
        return (1, datetime.date.max.toordinal(),
                lambda n: datetime.date.fromordinal(n).isoformat())
    return -2 ** 62, 2 ** 62, int


def first_rank(lo, hi, holds):
    """Least rank in ``[lo, hi]`` where the monotone ``holds`` is true,
    by bisection; ``hi + 1`` when there is none."""
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def cell_class(dim, interval, k):
    """``(overlaps, covered)`` of cell ``k`` by row placement alone: the
    values ``cell_of`` maps to ``k`` form one run, found by bisection.
    The cell overlaps when one of them satisfies ``interval`` and is
    covered when all of them do (both sides convex, so the run's ends
    and its first value past the low end decide)."""
    first, last, value = held_values(dim)
    start = first_rank(first, last, lambda n: dim.cell_of(value(n)) >= k)
    end = first_rank(first, last,
                     lambda n: dim.cell_of(value(n)) >= k + 1) - 1
    if start > end:
        return False, False
    if interval is None:
        return True, True
    low_side = replace(interval, high=None)
    probe = first_rank(start, end, lambda n: low_side.contains(value(n)))
    overlaps = probe <= end and interval.contains(value(probe))
    return overlaps, (interval.contains(value(start))
                      and interval.contains(value(end)))


def brute_force(policy, intervals, bounds, force_all_boundary):
    """The enumerating Algorithm 3: classify every cell of the bounds by
    which rows ``cell_of`` would place in it, and format its key."""
    per_dim = []
    for dim in policy.dimensions:
        name = dim.name.lower()
        cells = []
        for k in range(bounds[name][0], bounds[name][1] + 1):
            overlaps, covered = cell_class(dim, intervals.get(name), k)
            if overlaps:
                cells.append((k, covered and not force_all_boundary))
        if not cells:
            return [], []
        per_dim.append(cells)
    inner, boundary = [], []
    for combo in itertools.product(*per_dim):
        key = policy.key_of_cells([k for k, _covered in combo])
        (inner if all(covered for _k, covered in combo)
         else boundary).append(key)
    return inner, boundary


@st.composite
def dimension_cases(draw, name):
    """One dimension with its bounds and a predicate interval whose ends
    land on and off cell boundaries."""
    dtype = draw(st.sampled_from([DataType.DOUBLE, DataType.INT,
                                  DataType.BIGINT, DataType.DATE]))
    if dtype is DataType.DOUBLE:
        step = draw(st.sampled_from([0.1, 0.25, 0.5, 1.5, 3.0]))
        origin = draw(st.integers(-8, 8)) * 0.5
        fractions = [0.0, 0.0, 0.3, 0.5]
    else:
        step = draw(st.integers(1, 4))
        origin = draw(st.integers(-8, 8))
        fractions = [i / step for i in range(step)]

    def raw(coord):
        if dtype is DataType.DOUBLE:
            return coord
        if dtype is DataType.DATE:
            return (datetime.date(2012, 12, 1)
                    + datetime.timedelta(days=int(round(coord)))).isoformat()
        return int(round(coord))

    dim = DimensionPolicy(name=name, dtype=dtype, origin=raw(origin),
                          interval=step)
    k_min = draw(st.integers(-6, 6))
    bounds = (k_min, k_min + draw(st.integers(0, 7)))

    # ends from two cells outside the bounds to two cells inside them
    ends = sorted(
        origin + (draw(st.integers(bounds[0] - 2, bounds[1] + 2))
                  + draw(st.sampled_from(fractions))) * step
        for _ in range(2))
    shape = draw(st.sampled_from(["range"] * 6 + ["none", "empty", "point",
                                                  "low", "high"]))
    if shape == "none":
        interval = None
    elif shape == "point":
        interval = Interval.point(raw(ends[0]))
    else:
        if shape == "empty":
            ends.reverse()
        interval = Interval(
            low=raw(ends[0]) if shape != "high" else None,
            high=raw(ends[1]) if shape != "low" else None,
            low_inclusive=draw(st.booleans()),
            high_inclusive=draw(st.booleans()))
    return dim, bounds, interval


@settings(max_examples=300, deadline=None)
@given(cases=st.integers(1, 3).flatmap(
           lambda dims: st.tuples(*[dimension_cases(f"d{i}")
                                    for i in range(dims)])),
       force_all_boundary=st.booleans())
def test_property_region_matches_per_cell_oracle(cases, force_all_boundary):
    """Keys come out exactly as the enumerating search produced them —
    same cells, same classification, same order — and the O(dims) counts
    agree with the lists."""
    policy = SplittingPolicy([dim for dim, _b, _i in cases])
    bounds = {dim.name: b for dim, b, _i in cases}
    intervals = {dim.name: i for dim, _b, i in cases}
    region = search_grid(policy, intervals, bounds, force_all_boundary)
    inner, boundary = brute_force(policy, intervals, bounds,
                                  force_all_boundary)
    assert region.inner_keys == inner
    assert region.boundary_keys == boundary
    assert region.all_keys == inner + boundary
    assert (region.inner_count, region.boundary_count, region.num_cells) \
        == (len(inner), len(boundary), len(inner) + len(boundary))
    assert region.empty == (not inner and not boundary)
    for key in inner + boundary:
        assert region.is_inner(policy.cells_of_key(key)) == (key in inner)
    if inner:
        lo, hi = region.inner_box
        assert policy.key_of_cells(lo) == inner[0]
        assert policy.key_of_cells(hi) == inner[-1]


@pytest.mark.parametrize("cells", [(0, 0, 0), (-7, -3, -40), (5, 13, 400),
                                   (-1, 7, 0)])
def test_cells_of_key_inverts_key_of_cells(cells):
    """Negative cells (labels with a minus sign) and float labels parse
    back to the same cell vector."""
    policy = SplittingPolicy([
        DimensionPolicy(name="n", dtype=DataType.BIGINT, origin=1,
                        interval=3),
        DimensionPolicy(name="x", dtype=DataType.DOUBLE, origin=0.5,
                        interval=0.25),
        DimensionPolicy(name="ts", dtype=DataType.DATE,
                        origin="2012-12-01", interval=7),
    ])
    assert policy.cells_of_key(policy.key_of_cells(cells)) == cells
