"""Tests for interval extraction — the contract index handlers rely on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hiveql import parse_expression
from repro.hiveql.predicates import Interval, extract_ranges


def ranges_of(text):
    return extract_ranges(parse_expression(text))


class TestInterval:
    def test_contains_half_open(self):
        interval = Interval(low=1, high=5)
        assert interval.contains(1)
        assert interval.contains(4)
        assert not interval.contains(5)

    def test_contains_inclusive_high(self):
        assert Interval(low=1, high=5, high_inclusive=True).contains(5)

    def test_exclusive_low(self):
        assert not Interval(low=1, low_inclusive=False).contains(1)

    def test_point(self):
        point = Interval.point(3)
        assert point.is_point
        assert point.contains(3)
        assert not point.contains(4)

    def test_unbounded(self):
        assert Interval().contains(-999)
        assert Interval().contains(10**12)

    def test_none_never_contained(self):
        assert not Interval(low=0).contains(None)

    def test_empty_detection(self):
        assert Interval(low=5, high=3).is_empty
        assert Interval(low=5, high=5).is_empty  # open at high
        assert not Interval.point(5).is_empty

    def test_intersect_narrows(self):
        merged = Interval(low=1).intersect(Interval(high=5))
        assert merged.low == 1 and merged.high == 5

    def test_intersect_conflicting(self):
        merged = Interval(low=10).intersect(Interval(high=5))
        assert merged.is_empty

    def test_intersect_inclusiveness(self):
        a = Interval(low=1, high=5, high_inclusive=True)
        b = Interval(low=1, high=5, high_inclusive=False)
        assert not a.intersect(b).high_inclusive

    def test_string_intervals_for_dates(self):
        interval = Interval(low="2012-12-01", high="2012-12-31")
        assert interval.contains("2012-12-15")
        assert not interval.contains("2013-01-01")


class TestExtraction:
    def test_single_comparison(self):
        extraction = ranges_of("userid >= 100")
        interval = extraction.interval_for("userid")
        assert interval.low == 100 and interval.low_inclusive
        assert extraction.exact

    def test_flipped_literal(self):
        interval = ranges_of("100 < userid").interval_for("userid")
        assert interval.low == 100 and not interval.low_inclusive

    def test_conjunction_intersects(self):
        interval = ranges_of("a > 1 AND a < 10 AND a < 7").interval_for("a")
        assert interval.low == 1 and interval.high == 7
        assert not interval.low_inclusive and not interval.high_inclusive

    def test_multi_column(self):
        extraction = ranges_of("a > 1 AND b = 5 AND c <= 'x'")
        assert extraction.interval_for("a").low == 1
        assert extraction.interval_for("b").is_point
        assert extraction.interval_for("c").high == "x"
        assert extraction.exact

    def test_between(self):
        interval = ranges_of("a BETWEEN 3 AND 9").interval_for("a")
        assert interval.contains(3) and interval.contains(9)
        assert not interval.contains(10)

    def test_qualifier_dropped(self):
        assert ranges_of("t1.userid > 5").interval_for("userid") is not None

    def test_residual_marks_inexact(self):
        extraction = ranges_of("a > 1 AND b IN (1, 2)")
        assert extraction.interval_for("a") is not None
        assert not extraction.exact
        assert len(extraction.residual) == 1

    def test_or_is_residual(self):
        extraction = ranges_of("a > 1 OR a < 0")
        assert extraction.intervals == {}
        assert not extraction.exact

    def test_column_to_column_is_residual(self):
        extraction = ranges_of("a > b")
        assert extraction.intervals == {}
        assert not extraction.exact

    def test_null_comparison_residual(self):
        assert not ranges_of("a = NULL").exact

    def test_none_where(self):
        extraction = extract_ranges(None)
        assert extraction.exact and extraction.intervals == {}

    def test_paper_listing_2_predicate(self):
        extraction = ranges_of("A>=5 AND A<12 AND B>=12 AND B<16")
        a = extraction.interval_for("a")
        b = extraction.interval_for("b")
        assert (a.low, a.high) == (5, 12)
        assert (b.low, b.high) == (12, 16)
        assert extraction.exact


@settings(max_examples=80, deadline=None)
@given(low=st.integers(-50, 50), high=st.integers(-50, 50),
       low_inc=st.booleans(), high_inc=st.booleans(),
       value=st.integers(-60, 60))
def test_property_extraction_matches_evaluation(low, high, low_inc,
                                                high_inc, value):
    """interval.contains(v) agrees with evaluating the predicate on v."""
    low_op = ">=" if low_inc else ">"
    high_op = "<=" if high_inc else "<"
    text = f"x {low_op} {low} AND x {high_op} {high}"
    extraction = ranges_of(text)
    interval = extraction.interval_for("x")
    expected = ((value >= low if low_inc else value > low)
                and (value <= high if high_inc else value < high))
    assert interval.contains(value) == expected
