"""Smoke tests of the experiment harness at a tiny scale.

Every experiment function must run end to end, produce the paper's
series, and pass its own built-in shape assertions; the report renderer
must produce valid markdown.  (The full-scale run is `python -m
repro.bench`; these tests keep the harness itself correct.)
"""

import pytest

from repro.bench import experiments as exps
from repro.bench.lab import (INTERVAL_CASES, MeterLab, MeterLabConfig,
                             TpchLab, TpchLabConfig)
from repro.hiveql.predicates import Interval

#: small but dense enough that per-GFU record counts (and hence the
#: paper's size relations checked inside table2) remain meaningful
TINY = MeterLabConfig(num_users=500, num_days=6, readings_per_day=4)
TINY_TPCH = TpchLabConfig(num_orders=2500)


@pytest.fixture(scope="module")
def lab():
    return MeterLab(TINY)


@pytest.fixture(scope="module")
def tpch():
    return TpchLab(TINY_TPCH)


class TestLabHelpers:
    def test_data_scale(self, lab):
        assert lab.data_scale == pytest.approx(11e9 / len(lab.rows))

    def test_predicate_point(self, lab):
        text = lab.predicate("point")
        assert "userid =" in text and "ts =" in text

    def test_predicate_selectivity_hits_target(self, lab):
        accurate = lab.accurate_records(0.05)
        assert accurate == pytest.approx(0.05 * len(lab.rows), rel=0.5)

    def test_intervals_match_predicate(self, lab):
        intervals = lab.intervals_for(0.05)
        assert isinstance(intervals["userid"], Interval)
        assert set(intervals) == {"userid", "regionid", "ts"}

    def test_query_sql_kinds(self, lab):
        assert "GROUP BY" in lab.query_sql("groupby", 0.05)
        assert "JOIN" in lab.query_sql("join", 0.05)
        with pytest.raises(ValueError):
            lab.query_sql("delete", 0.05)

    def test_interval_cases_ordered(self, lab):
        sizes = [lab.interval_size(c) for c in INTERVAL_CASES]
        assert sizes[0] > sizes[1] > sizes[2] >= 1

    def test_sessions_cached(self, lab):
        assert lab.dgf_session("large") is lab.dgf_session("large")
        assert lab.scan_session is lab.scan_session


class TestExperimentsRun:
    def test_fig3(self):
        result = exps.fig3_write_throughput(num_rows=8000)
        assert len(result.rows) == 3
        assert "MB/s" in result.headers

    def test_table2(self, lab):
        result = exps.table2_index_build(lab)
        assert len(result.rows) == 5  # compact x2 + dgf x3
        assert result.data["dgf-large"]["gfus"] > 0

    def test_aggregation(self, lab):
        result = exps.aggregation_queries(lab)
        # 3 selectivities x (scan + 3 dgf + compact + hadoopdb)
        assert len(result.rows) == 18
        assert result.data["5%/dgf-small"]["records_read"] >= 0

    def test_groupby(self, lab):
        result = exps.groupby_queries(lab)
        assert len(result.rows) == 18

    def test_join(self, lab):
        result = exps.join_queries(lab)
        assert len(result.rows) == 18

    def test_partial(self, lab):
        result = exps.partial_query(lab)
        assert len(result.rows) == 7  # 3 cases x 2 variants + compact

    def test_tpch(self, tpch):
        result = exps.tpch_q6(tpch)
        labels = [row[0] for row in result.rows]
        assert labels == ["DGFIndex", "Compact-2D", "Compact-3D",
                          "ScanTable", "ScanTable (RCFile)"]
        # Q6's DOUBLE ranges align with the grid, so their end cells are
        # answered from headers; a float guard that pushes values just
        # below a boundary up a cell reads 184 records here
        assert result.data["DGFIndex"]["records_read"] == 138

    def test_ablation_formats(self, lab):
        result = exps.ablation_formats(lab)
        assert result.data["5%"]["text"] == result.data["5%"]["rcfile"]

    def test_ablation_advisor(self, lab):
        result = exps.ablation_advisor(lab)
        assert result.data["policy"]

    def test_partition_explosion(self):
        result = exps.partition_explosion()
        assert result.data["projected_bytes"] == 1_000_000 * 150


class TestRendering:
    def test_markdown_tables(self, lab):
        result = exps.table2_index_build(lab)
        text = result.markdown()
        assert text.startswith("**table2")
        assert text.count("|") > 10
        assert result.notes in text

    def test_sel_label(self):
        assert exps._sel_label("point") == "point"
        assert exps._sel_label(0.05) == "5%"

    def test_check_close_raises_on_divergence(self):
        from repro.errors import BenchmarkError
        exps._check_close(1.0, 1.0 + 1e-9, "ok")
        exps._check_close(None, None, "ok")
        with pytest.raises(BenchmarkError):
            exps._check_close(1.0, 2.0, "diverges")
        with pytest.raises(BenchmarkError):
            exps._check_close(None, 1.0, "null vs value")
