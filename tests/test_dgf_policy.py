"""Tests for splitting policies and grid geometry."""

import datetime
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.errors import DGFError, SemanticError
from repro.hiveql.predicates import Interval
from repro.storage.schema import DataType, Schema


def numeric_dim(origin=0, interval=10, dtype=DataType.BIGINT, name="u"):
    return DimensionPolicy(name=name, dtype=dtype, origin=origin,
                           interval=interval)


def date_dim(origin="2012-12-01", interval=1, name="ts"):
    return DimensionPolicy(name=name, dtype=DataType.DATE, origin=origin,
                           interval=interval)


class TestDimensionPolicy:
    def test_cell_of_numeric(self):
        dim = numeric_dim(origin=1, interval=3)
        assert dim.cell_of(1) == 0
        assert dim.cell_of(3) == 0
        assert dim.cell_of(4) == 1
        assert dim.cell_of(0) == -1

    def test_standardize_matches_paper_example(self):
        """Figure 6: dimension A with origin 1, interval 3: value 7 -> 7,
        value 9 -> 7 (cell [7, 10))."""
        dim = numeric_dim(origin=1, interval=3, name="A")
        for value, start in ((7, 7), (9, 7), (8, 7), (12, 10)):
            assert dim.cell_start(dim.cell_of(value)) == start

    def test_cell_bounds(self):
        dim = numeric_dim(origin=0, interval=10)
        assert dim.cell_start(2) == 20
        assert dim.cell_start(3) == 30

    def test_float_dimension(self):
        dim = DimensionPolicy(name="d", dtype=DataType.DOUBLE, origin=0,
                              interval=0.01)
        assert dim.cell_of(0.07) == 7
        assert dim.cell_of(0.0799) == 7
        assert dim.cell_of(0.08) == 8

    def test_date_dimension(self):
        dim = date_dim(interval=2)
        assert dim.cell_of("2012-12-01") == 0
        assert dim.cell_of("2012-12-02") == 0
        assert dim.cell_of("2012-12-03") == 1
        assert dim.cell_start(1) == "2012-12-03"
        assert dim.cell_start(dim.cell_of("2012-12-04")) == "2012-12-03"

    def test_labels(self):
        assert numeric_dim(origin=1, interval=3).label(2) == "7"
        assert date_dim().label(3) == "2012-12-04"
        dim = DimensionPolicy(name="d", dtype=DataType.DOUBLE, origin=0,
                              interval=0.5)
        assert dim.label(1) == "0.5"
        assert dim.label(2) == "1"  # integral floats render as ints

    def test_parse_label_roundtrip(self):
        for dim in (numeric_dim(origin=1, interval=3), date_dim(),
                    DimensionPolicy(name="d", dtype=DataType.DOUBLE,
                                    origin=0, interval=0.25)):
            for k in (0, 1, 5):
                label = dim.label(k)
                assert dim.cell_of(label) == k

    def test_invalid_interval(self):
        with pytest.raises(DGFError):
            numeric_dim(interval=0)
        with pytest.raises(DGFError):
            numeric_dim(interval=-1)

    def test_discrete_needs_integer_interval(self):
        with pytest.raises(DGFError):
            DimensionPolicy(name="u", dtype=DataType.BIGINT, origin=0,
                            interval=2.5)

    def test_integer_dimension_needs_integer_origin(self):
        """A fractional origin would give two cells one GFUKey label."""
        for dtype in (DataType.INT, DataType.BIGINT):
            with pytest.raises(DGFError, match="'x'.*integer origin"):
                numeric_dim(origin=-0.5, dtype=dtype, name="x")
        with pytest.raises(DGFError, match="integer origin"):
            DimensionPolicy.from_spec("x", DataType.INT, "0.5_1")
        assert numeric_dim(origin=3.0, dtype=DataType.INT).cell_of(3) == 0
        assert numeric_dim(origin=-0.5, dtype=DataType.DOUBLE).cell_of(0) == 0

    def test_bad_date_origin(self):
        with pytest.raises(DGFError):
            date_dim(origin="12/01/2012")


EMPTY = ((0, -1), (0, -1))


class TestCoverage:
    """``cell_ranges`` returns ``(overlapped, covered)``: inclusive cell
    ranges clamped to the bounds, ``lo > hi`` meaning empty."""

    def test_continuous_coverage(self):
        dim = DimensionPolicy(name="d", dtype=DataType.DOUBLE, origin=0,
                              interval=10)
        # cells 0, 1 and 2 are [0, 30): a range aligned to the grid covers
        # its end cells, and its exclusive high end stops below cell 3.
        assert dim.cell_ranges(Interval(low=0, high=30), 0, 9) \
            == ((0, 2), (0, 2))
        assert dim.cell_ranges(Interval(low=15, high=30), 0, 9) \
            == ((1, 2), (2, 2))

    def test_discrete_equality_covers_unit_cell(self):
        """``regionid = 5`` with interval 1 covers the whole cell — the
        mechanism behind Figure 17's precompute win."""
        dim = numeric_dim(origin=0, interval=1, dtype=DataType.INT)
        assert dim.cell_ranges(Interval.point(5), 0, 9) == ((5, 5), (5, 5))

    def test_discrete_coverage_with_wide_cells(self):
        dim = numeric_dim(origin=0, interval=10, dtype=DataType.BIGINT)
        assert dim.cell_ranges(Interval(low=10, high=19,
                                        high_inclusive=True), 0, 9) \
            == ((1, 1), (1, 1))
        assert dim.cell_ranges(Interval(low=10, high=19), 0, 9) \
            == ((1, 1), (1, 0))
        # x > 9.5 holds every integer of [10, 20): a fractional end moves
        # inward to the nearest integer
        assert dim.cell_ranges(Interval(low=9.5, low_inclusive=False,
                                        high=20), 0, 9) == ((1, 1), (1, 1))

    def test_date_equality_covers_daily_cell(self):
        dim = date_dim(interval=1)
        k = dim.cell_of("2012-12-30")
        assert dim.cell_ranges(Interval.point("2012-12-30"), 0, 40) \
            == ((k, k), (k, k))

    def test_unconstrained_dimension_covers(self):
        assert numeric_dim().cell_ranges(None, 1, 4) == ((1, 4), (1, 4))

    def test_overlap(self):
        dim = numeric_dim(origin=0, interval=10)
        assert dim.cell_ranges(Interval(low=25, high=26), 0, 9)[0] \
            == (2, 2)
        assert dim.cell_ranges(Interval(low=30, high=40), 0, 9)[0] \
            == (3, 3)

    def test_cell_span_clamps_to_bounds(self):
        dim = numeric_dim(origin=0, interval=10)
        assert dim.cell_ranges(Interval(low=-100, high=1000), 0, 5)[0] \
            == (0, 5)
        assert dim.cell_ranges(Interval(low=25, high=47), 0, 5)[0] == (2, 4)
        assert dim.cell_ranges(None, 1, 4)[0] == (1, 4)

    def test_cell_span_exclusive_boundary_high(self):
        dim = numeric_dim(origin=0, interval=10)
        # high = 30 exclusive sits exactly on a boundary: cell 3 excluded
        assert dim.cell_ranges(Interval(low=0, high=30), 0, 9) \
            == ((0, 2), (0, 2))
        assert dim.cell_ranges(Interval(low=0, high=30, high_inclusive=True),
                               0, 9) == ((0, 3), (0, 2))

    def test_cell_span_empty(self):
        dim = numeric_dim(origin=0, interval=10)
        assert dim.cell_ranges(Interval(low=50, high=40), 0, 9) == EMPTY
        assert dim.cell_ranges(Interval(low=200), 0, 9) == EMPTY
        # no integer lies strictly between 4 and 5
        assert dim.cell_ranges(Interval(low=4, low_inclusive=False,
                                        high=5), 0, 9) == EMPTY

    def test_double_endpoint_follows_row_placement(self):
        """Cell -8 starts a hair above 0.001 (the computed start rounds
        up), so ``cell_of`` places 0.001 in cell -9.  The point predicate
        must read the cell its row was written to."""
        dim = DimensionPolicy(name="x", dtype=DataType.DOUBLE, origin=0.025,
                              interval=0.003)
        assert dim.cell_of(0.001) == -9
        assert dim.cell_start(-8) > 0.001
        assert dim.cell_ranges(Interval.point(0.001), -10, 0) \
            == ((-9, -9), (-9, -10))

    def test_double_open_interval_at_epsilon(self):
        """(0.0, 0.1) open on cells of 0.1: the largest double below 0.1
        is placed in cell 0, so only cell 0 overlaps; it is not covered,
        as 0.0 itself is excluded."""
        dim = DimensionPolicy(name="x", dtype=DataType.DOUBLE, origin=0,
                              interval=0.1)
        assert dim.cell_of(math.nextafter(0.1, 0)) == 0
        assert dim.cell_ranges(Interval(low=0.0, low_inclusive=False,
                                        high=0.1), -5, 5) == ((0, 0), (0, -1))

    def test_endpoint_beyond_double_range_of_offsets(self):
        """1e307 lies ~1e310 cells out: past any cell, not an error."""
        dim = DimensionPolicy(name="x", dtype=DataType.DOUBLE, origin=0,
                              interval=0.001)
        assert dim.cell_ranges(Interval(high=1e307), 0, 9) \
            == ((0, 9), (0, 9))
        assert dim.cell_ranges(Interval(low=1e307), 0, 9) == EMPTY
        assert dim.cell_ranges(Interval(low=-1e307, high=0.0045,
                                        high_inclusive=True), 0, 9) \
            == ((0, 4), (0, 3))

    def test_unconvertible_literal_names_column(self):
        for dim, raw in ((numeric_dim(dtype=DataType.INT, name="x"), "abc"),
                         (DimensionPolicy(name="y", dtype=DataType.DOUBLE,
                                          origin=0, interval=1), "zz"),
                         (date_dim(name="d"), 5),
                         (date_dim(name="d"), "2012-13-45"),
                         (date_dim(name="d"), "20121205"),
                         (numeric_dim(name="x"), 10 ** 400)):
            with pytest.raises(SemanticError, match=repr(raw)):
                dim.cell_ranges(Interval(low=raw), 0, 9)


class TestSplittingPolicy:
    @pytest.fixture
    def schema(self):
        return Schema.of(("A", DataType.BIGINT), ("B", DataType.INT),
                         ("ts", DataType.DATE))

    def test_from_properties_listing3(self, schema):
        policy = SplittingPolicy.from_properties(
            schema, ["A", "B"], {"A": "1_3", "B": "11_2"})
        assert policy.dimension("a").origin == 1
        assert policy.dimension("b").interval == 2

    def test_missing_spec(self, schema):
        with pytest.raises(DGFError):
            SplittingPolicy.from_properties(schema, ["A", "B"],
                                            {"A": "1_3"})

    def test_date_spec(self, schema):
        policy = SplittingPolicy.from_properties(
            schema, ["ts"], {"ts": "2012-12-01_7d"})
        assert policy.dimension("ts").interval == 7

    def test_date_spec_requires_unit(self, schema):
        with pytest.raises(DGFError):
            SplittingPolicy.from_properties(schema, ["ts"],
                                            {"ts": "2012-12-01_7"})

    def test_bad_spec_format(self, schema):
        with pytest.raises(DGFError):
            SplittingPolicy.from_properties(schema, ["A"], {"A": "nope"})

    def test_key_of_row_matches_paper(self, schema):
        """Figure 5's highlighted GFU: record (9, 14) with A='1_3',
        B='11_2' lives in GFU '7_13'."""
        policy = SplittingPolicy.from_properties(
            schema, ["A", "B"], {"A": "1_3", "B": "11_2"})
        assert policy.key_of_row((9, 14)) == "7_13"
        assert policy.key_of_row((8, 13)) == "7_13"
        assert policy.key_of_row((1, 14)) == "1_13"

    def test_duplicate_dimensions_rejected(self):
        dim = numeric_dim()
        with pytest.raises(DGFError):
            SplittingPolicy([dim, dim])

    def test_serialization_roundtrip(self, schema):
        policy = SplittingPolicy.from_properties(
            schema, ["A", "ts"], {"A": "0_5", "ts": "2012-12-01_2d"})
        again = SplittingPolicy.from_dict(policy.to_dict())
        assert again.names == policy.names
        assert again.key_of_row((7, "2012-12-04")) \
            == policy.key_of_row((7, "2012-12-04"))


@settings(max_examples=100, deadline=None)
@given(origin=st.integers(-100, 100), interval=st.integers(1, 50),
       value=st.integers(-1000, 1000))
def test_property_cell_contains_its_values(origin, interval, value):
    """Every value lands in the cell whose [start, next start) holds it."""
    dim = numeric_dim(origin=origin, interval=interval)
    k = dim.cell_of(value)
    assert dim.cell_start(k) <= value < dim.cell_start(k + 1)


@settings(max_examples=60, deadline=None)
@given(origin=st.floats(-10, 10, allow_nan=False),
       interval=st.floats(0.01, 5.0, allow_nan=False),
       value=st.floats(-100, 100, allow_nan=False))
def test_property_float_cells_consistent(origin, interval, value):
    dim = DimensionPolicy(name="d", dtype=DataType.DOUBLE, origin=origin,
                          interval=interval)
    k = dim.cell_of(value)
    # a loose check; test_property_rows_and_labels_place_exactly is exact
    assert dim.cell_start(k) <= value + 1e-6
    assert value - 1e-6 < dim.cell_start(k + 1)


@settings(max_examples=60, deadline=None)
@given(origin=st.integers(0, 9000), interval=st.integers(1, 40),
       value=st.integers(0, 18000))
def test_property_date_cells_consistent(origin, interval, value):
    """The same on DATE dimensions, whose ISO labels order as dates."""
    epoch = datetime.date(2000, 1, 1)

    def day(offset):
        return (epoch + datetime.timedelta(days=offset)).isoformat()
    dim = date_dim(origin=day(origin), interval=interval)
    k = dim.cell_of(day(value))
    assert dim.cell_start(k) <= day(value) < dim.cell_start(k + 1)


@st.composite
def dimension_and_value(draw):
    """One dimension of any indexed type, with a negative (and, on
    DOUBLE, fractional) origin, and a value far below or above it."""
    dtype = draw(st.sampled_from([DataType.INT, DataType.BIGINT,
                                  DataType.DATE, DataType.DOUBLE]))
    if dtype is DataType.DATE:
        epoch = datetime.date(2000, 1, 1)

        def day(offset):
            return (epoch + datetime.timedelta(days=offset)).isoformat()
        return (date_dim(origin=day(draw(st.integers(0, 9000))),
                         interval=draw(st.integers(1, 40))),
                day(draw(st.integers(0, 18000))))
    if dtype is DataType.DOUBLE:
        dim = numeric_dim(origin=draw(st.floats(-1e6, 1e6)),
                          interval=draw(st.floats(1e-3, 1e3)),
                          dtype=dtype)
        return dim, draw(st.floats(-1e7, 1e7))
    return (numeric_dim(origin=draw(st.integers(-10 ** 6, 10 ** 6)),
                        interval=draw(st.integers(1, 1000)), dtype=dtype),
            draw(st.integers(-10 ** 9, 10 ** 9)))


@settings(max_examples=300, deadline=None)
@example(case=(numeric_dim(origin=246035.5799588035, interval=0.001,
                           dtype=DataType.DOUBLE), 8357516.169016641))
@given(case=dimension_and_value())
def test_property_cells_of_key_inverts_key_of_row(case):
    """A row's GFU key parses back to the row's own cell: the key is only
    the storage format of the coordinates, never a lossy one.  The pinned
    example sits ~8e9 cells from the origin, where flooring the parsed
    label used to land one cell low."""
    dim, value = case
    policy = SplittingPolicy([dim])
    assert policy.cells_of_key(policy.key_of_row([value])) \
        == policy.cells_of_row([value])
