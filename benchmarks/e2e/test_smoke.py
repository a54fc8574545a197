"""Smoke test of the benchmark itself (not in tier-1's ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs all four workloads at ``--scale smoke``, untraced and traced, and
checks the output contract, the oracle and the probe table's coverage.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


#: Most smoke runs are two blocks.  These go the way the driver does, by
#: ``--seconds``: a budget of timed-call time, or (``ingest-mixed``) the
#: frozen rounds-per-second rate; the traced run splits it over two passes.
BY_SECONDS = {("agg-warm", 0): "0.5", ("ingest-mixed", 0): "1.6",
              ("fine-grid", 1): "1.0"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """All eight smoke runs, once: ``{(workload, trace): (document,
    spans file)}``."""
    out_dir = tmp_path_factory.mktemp("spans")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = out_dir / f"spans-{workload}.json"
            seconds = BY_SECONDS.get((workload, trace))
            budget = ["--seconds", seconds] if seconds else ["--blocks", "2"]
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"),
                 "--workload", workload, "--seed", "7", "--scale", "smoke",
                 *budget, "--trace", str(trace), "--out", str(out)],
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            results[workload, trace] = (
                json.loads(done.stdout.strip().splitlines()[-1]), out)
    return results


def test_contract_names_the_four_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in CONTRACT["end_to_end"])
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_exactly_the_declared_metrics(runs, workload, trace):
    document, spans = runs[workload, trace]
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert document["failed"] == 0 and document["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(document["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = document["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] != ""
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in document["metrics"].values())
        return
    # Coverage of the probe table: the layers' self times (folded leaves
    # included) partition the wall time of the traced reads.
    trace_file = json.loads(spans.read_text())
    covered = sum(trace_file["read_self_ms"].values())
    assert covered == pytest.approx(trace_file["read_wall_ms"], rel=0.10)
    assert trace_file["spans"], "the traced run wrote no spans"


def test_every_layer_metric_is_measured_on_some_workload(runs):
    seen = set()
    missing = 0
    for workload in WORKLOADS:
        document, _spans = runs[workload, 1]
        missing += document["metrics"]["probes_missing"]["value"]
        seen |= {name for name, metric in document["metrics"].items()
                 if metric["value"]}
    if missing:
        # a rename inside the program costs per-layer numbers, not this test
        pytest.skip(f"{missing} probes no longer resolve")
    idle = {m["name"] for m in CONTRACT["per_layer"]} - seen
    # at smoke scale even fine-grid may fit the cache and evict nothing
    assert idle <= {"probes_missing", "cache.evictions_per_query"}


def test_oracle_catches_an_injected_wrong_answer():
    workload = WORKLOADS["agg-warm"](7, "smoke")
    workload.build()
    try:
        ops = workload.block(1)
        victim = next(op for op in ops if op.kind == "agg"
                      and op.expected[0][0] is not None)
        victim.expected = [(victim.expected[0][0] + 1 / 64,)]
        out = harness.PassResult()
        harness.run_block(workload, ops, 1, out)
    finally:
        workload.close()
    assert out.failed == 1 and out.attempted == len(ops)
    assert [s.ok for s in out.samples].count(False) == 1


def test_rows_match_is_exact_on_keys_and_close_on_floats():
    assert harness.rows_match([("b", 2.0), ("a", 1.0)],
                              [("a", 1.0), ("b", 2.0 + 1e-12)])
    assert not harness.rows_match([("a", 1.0)], [("a", 1.001)])
    assert not harness.rows_match([("a", 1.0)], [("b", 1.0)])
    assert not harness.rows_match([(None, 0)], [(0.0, 0)])
    assert not harness.rows_match([(1.0, 3)], [(1.0, 4)])
    assert not harness.rows_match([], [("a", 1.0)])


def test_unresolvable_probe_degrades_to_missing(monkeypatch):
    import probes
    monkeypatch.setitem(probes.PROBE_TABLE, "gone.module",
                        ("repro.no_such_module", "f", probes.SPAN))
    monkeypatch.setitem(probes.PROBE_TABLE, "gone.attribute",
                        ("repro.api", "Connection.no_such_method",
                         probes.SPAN))
    recorder = probes.Recorder()
    recorder.install()
    try:
        assert recorder.missing == ["gone.module", "gone.attribute"]
    finally:
        recorder.uninstall()
    import repro.api
    assert not hasattr(repro.api.bind_parameters, "__wrapped__")
