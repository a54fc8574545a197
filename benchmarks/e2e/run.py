#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one process = one workload.

    python3 benchmarks/e2e/run.py --workload agg-warm --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` sets the workload up (several times; ``setup_s`` is the
median), runs one untimed warm-up and one timed pass, and prints every
end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` sets up once and
runs an untraced and a traced pass over consecutive blocks to print every
per-layer metric; the spans go to ``--out``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (none of the three imports the program)
import layers  # noqa: E402
import probes  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: count metrics that must repeat exactly between two runs of one seed
EXACT_METRICS = (
    "sim_s_per_query", "kv.physical_gets_per_query",
    "kv.logical_gets_per_query", "dgf.cells_per_query",
    "hdfs.bytes_read_per_query", "mr.jobs_per_query",
    "mr.splits_per_query", "mr.records_read_per_query", "cache.hit_rate")


def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def set_up(cls, seed, scale, totals):
    """One set-up: data generation, load, index builds, warm-up.
    Returns ``(workload, seconds)``."""
    start = perf_counter()
    workload = cls(seed, scale)
    workload.build()
    warm = workload.warm_up()
    seconds = perf_counter() - start
    totals.append(warm)
    return workload, seconds


def untraced_run(cls, args, totals):
    times = []
    for remaining in reversed(range(SETUPS)):
        workload, seconds = set_up(cls, args.seed, args.scale, totals)
        times.append(seconds)
        if remaining:
            workload.close()
            del workload
            gc.collect()
    try:
        result = harness.run_pass(workload, 1, seconds=args.seconds,
                                  blocks=args.blocks)
    finally:
        workload.close()
    totals.append(result)
    return harness.end_to_end_metrics(result, statistics.median(times))


def traced_run(cls, args, totals):
    """Pass A untraced, pass B traced, each on its own fresh set-up and
    over the same blocks, so both see the same operations on the same
    state."""
    seconds = None if args.blocks else args.seconds / 2
    workload, _seconds = set_up(cls, args.seed, args.scale, totals)
    try:
        a = harness.run_pass(workload, 1, seconds=seconds,
                             blocks=args.blocks, facts=True)
    finally:
        workload.close()
    del workload
    gc.collect()
    recorder = probes.Recorder()
    workload, _seconds = set_up(cls, args.seed, args.scale, totals)
    try:
        recorder.install()
        try:
            b = harness.run_pass(workload, 1, blocks=a.blocks,
                                 recorder=recorder)
        finally:
            recorder.uninstall()
        ratios = workload.ratio_samples()
    finally:
        workload.close()
    totals += [a, b]
    metrics, summary = layers.layer_metrics(a, b, recorder, ratios)
    out = Path(args.out) if args.out else \
        HERE / "_out" / f"spans-{cls.name}-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        json.dump({
            "workload": cls.name, "seed": args.seed,
            "probes_missing": recorder.missing, **summary,
            "span_fields": ["id", "parent", "qid", "name", "start_ns",
                            "end_ns", "folded"],
            "op_kinds": [s.kind for s in b.samples],
            "spans": recorder.spans,
        }, handle)
    if recorder.missing:
        print("probes missing:", ", ".join(recorder.missing),
              file=sys.stderr)
    return metrics


def run_workload(args):
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("the benchmark builds nothing: it needs the "
                         "program's source under src/repro")
    from workloads import WORKLOADS
    contract = load_contract()
    cls = WORKLOADS[args.workload]
    totals = []
    section = "per_layer" if args.trace else "end_to_end"
    values = (traced_run if args.trace else untraced_run)(cls, args, totals)
    for result in totals:
        harness.report_failures(result)
    attempted = sum(result.attempted for result in totals)
    failed = sum(result.failed for result in totals)
    document = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in contract[section]},
    }
    print(json.dumps(document))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- selfcheck
def _child(workload, seed, blocks, trace, scale):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--blocks", str(blocks),
               "--trace", str(trace), "--scale", scale]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selfcheck: {' '.join(command)} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def selfcheck(args):
    """Two fresh processes per workload and mode, same seed and block
    count: end-to-end metrics must agree within their bounds, the exact
    count metrics must be identical."""
    from workloads import WORKLOADS
    contract = load_contract()
    names = [args.workload] if args.workload else list(WORKLOADS)
    problems = []
    for name in names:
        blocks = args.blocks or WORKLOADS[name].SELFCHECK_BLOCKS
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            first, second = (_child(name, args.seed, blocks, trace,
                                    args.scale) for _ in range(2))
            for metric in contract[section]:
                key = metric["name"]
                one, two = first[key]["value"], second[key]["value"]
                if key in EXACT_METRICS:
                    if one != two:
                        problems.append(
                            f"{name} {key}: {one!r} != {two!r}")
                elif "bound" in metric:
                    worse = (two - one if metric["better"] == "lower"
                             else one - two)
                    if abs(worse) > metric["bound"] * abs(one):
                        problems.append(
                            f"{name} {key}: {one:.6g} vs {two:.6g} "
                            f"exceeds {metric['bound']:.0%}")
                print(f"{name:13s} {key:34s} {one:14.6g} {two:14.6g}")
    for problem in problems:
        print("SELFCHECK FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="timed-call budget of the measured pass")
    parser.add_argument("--blocks", type=int,
                        help="run exactly this many blocks instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", help="where the traced run writes spans")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
