#!/usr/bin/env python3
"""Whole-run benchmark for Grid3Sim: catalog workloads timed end to end
and per layer from outside the program.

    python3 perfbench/run.py --workload sc2003-demo --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --all                 # every workload, one table
    python3 perfbench/run.py --self-test [--manifest]

Run from the repository root.  The harness (perfbench/harness.cpp) is
built from the simulator's sources into .bench_build on first use.  Each
pass runs in its own process; a run makes at least two passes, whose
digests must agree, and more while they fit within --seconds.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  --trace 0 reports the end-to-end metrics;
--trace 1 runs an untraced and a traced pass and reports the per-layer
metrics, the tracing overhead, and writes the spans to
.bench_build/trace-*.json.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "grid3_perfbench")

DEFAULT_SEED = 20031025
# The workloads BENCHMARK.json gates on, and grid30 and atlas-dc2, which
# run the same way but are not gated: their spread from run to run is
# wider than any bound allows (see README.md).
WORKLOADS = ("sc2003-demo", "calib-month")
ALL_WORKLOADS = ("grid30", "atlas-dc2", "sc2003-demo", "calib-month")
# finish() digests of the benchmark sizing at the default seed.
PINNED = {
    "grid30": "94cf2de4ef38b9e1",
    "atlas-dc2": "27d24c724e231758",
    "sc2003-demo": "de758ca6d1f958a5",
    "calib-month": "01f0ee795bce90fa",
}
# Workloads whose manifest sizing bench/CATALOG_MANIFEST.json pins, by
# catalog entry (checked by --self-test --manifest).
MANIFEST_ENTRIES = {
    "grid30": "grid30-2month",
    "sc2003-demo": "sc2003-demo",
    "atlas-dc2": "atlas-dc2",
    "calib-month": "calib-month",
}
MAX_PASSES = 12
PASS_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("readout_s", "s"),
    ("total_s", "s"),
    ("sim_days_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("hour_p50_ms", "ms"),
    ("hour_p98_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("jobs_failed_frac", "ratio"),
]

READOUT_QUERIES = ("fig2", "fig3", "fig4", "fig5", "fig6", "table1",
                   "utilization", "crosscheck", "broker_counter")

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.calendar_share", "ratio"),
    ("sim.pending_end", "count"),
    ("net.reallocs", "count"),
    ("net.links_solved", "count"),
    ("net.links_per_realloc", "ratio"),
    ("gridftp.bytes_moved", "B"),
    ("batch.per_vo_count_ns", "ns"),
    ("batch.busy_slots_end", "count"),
    ("batch.queued_end", "count"),
    ("gram.peak_load_max", "load"),
    ("gram.peak_arrivals_max", "count"),
    ("gram.managed_end", "count"),
    ("broker.matches", "count"),
    ("broker.holds", "count"),
    ("broker.rebinds", "count"),
    ("broker.stale_matches", "count"),
    ("broker.gang_matches", "count"),
    ("broker.matches_per_completed", "ratio"),
    ("placement.active_end", "count"),
    ("placement.leased_bytes_end", "B"),
    ("health.breaker_events", "count"),
    ("mds.lookup_us", "us"),
    ("monitoring.bus_published", "count"),
    ("monitoring.bus_keys", "count"),
    ("monitoring.bus_points", "count"),
    ("monitoring.monalisa_archived_keys", "count"),
    ("monitoring.acdc_records", "count"),
] + [("readout.%s_ms" % q, "ms") for q in READOUT_QUERIES] + [
    ("rls.lfns", "count"),
    ("rls.replicas", "count"),
    ("rls.indexed_lfns", "count"),
    ("rls.journal_pending_end", "count"),
    ("rls.lost_registrations", "count"),
    ("rls.refresh_all_ms", "ms"),
    ("rls.locate_us", "us"),
    ("workflow.launched", "count"),
    ("setup.assemble_s", "s"),
    ("setup.start_s", "s"),
    ("trace.overhead_s", "s"),
]

# Per-hour count deltas a traced pass records (see harness.cpp).
HOUR_COUNTS = ("events", "bus_published", "registrations", "broker_matches",
               "broker_holds")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, pct):
    """Nearest-rank percentile.  Returns (value, rank, beyond): `rank` is
    the 1-based position used in the sorted sample and `beyond` the number
    of samples above that position."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], rank, len(ordered) - rank


# ---------------------------------------------------------------------------
# Build and passes


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "grid3_perfbench"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                raise BenchError("build failed: %s (log: %s)"
                                 % (" ".join(cmd), build_log))


def run_pass(workload, seed, tag, sizing="bench", stepping="hourly",
             trace=False):
    out = os.path.join(BUILD, "pass-%s-%d-%s.json" % (workload, seed, tag))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--sizing", sizing, "--stepping", stepping,
           "--trace", "1" if trace else "0",
           "--out", out]
    trace_file = None
    if trace:
        trace_file = os.path.join(BUILD, "trace-%s-%d.json" % (workload, seed))
        cmd += ["--trace-file", trace_file]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("pass %s of %s timed out" % (tag, workload))
    if code != 0:
        raise BenchError("pass %s of %s exited with %d" % (tag, workload, code))
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    result["trace_file"] = trace_file
    return result


def check_pass(p, seed, reference):
    """Output check of one pass; returns a list of problems."""
    problems = []
    if p["jobs"] <= 0:
        problems.append("no jobs accounted")
    if p["completed"] + p["failed"] != p["jobs"]:
        problems.append("completed + failed != jobs")
    if p["fig6_completed"] != p["completed"]:
        problems.append("Figure 6 total %d != completed %d"
                        % (p["fig6_completed"], p["completed"]))
    pinned = PINNED.get(p["workload"]) if seed == DEFAULT_SEED else None
    if pinned is not None and p["digest"] != pinned:
        problems.append("digest %s != pinned %s" % (p["digest"], pinned))
    if reference is not None:
        for key in ("digest", "readout_digest"):
            if p[key] != reference[key]:
                problems.append("%s %s differs from first pass %s"
                                % (key, p[key], reference[key]))
    return problems


def measure(workload, seed, seconds, trace):
    """Run passes and check them; returns (passes, problems per pass).
    Untraced: at least two passes, and another only while one more of the
    median pass time so far still fits within `seconds`.
    Traced: one untraced pass, then one traced pass."""
    passes, problems, walls = [], [], []
    start = time.monotonic()
    while len(passes) < 2 or (
            not trace and len(passes) < MAX_PASSES and
            time.monotonic() - start + statistics.median(walls) <= seconds):
        traced = trace and len(passes) == 1
        t0 = time.monotonic()
        p = run_pass(workload, seed, str(len(passes)), trace=traced)
        walls.append(time.monotonic() - t0)
        problems.append(check_pass(p, seed, passes[0] if passes else None))
        passes.append(p)
    return passes, problems


# ---------------------------------------------------------------------------
# Metrics


def jobs_failed_frac(passes, problems):
    """Simulated jobs whose ACDC record failed, over all accounted jobs;
    every job of a pass that failed its output check counts as failed."""
    jobs = sum(p["jobs"] for p in passes)
    failed = sum(p["jobs"] if bad else p["failed"]
                 for p, bad in zip(passes, problems))
    return failed / jobs if jobs else 1.0


def end_to_end(passes, problems):
    """Every metric is a median over the passes of the run.  The hour
    percentiles are taken within each pass first, so one pass that meets
    a slow stretch of the host does not fill the tail of a pooled
    sample."""
    med = statistics.median
    p50 = [percentile(p["hour_ms"], 50) for p in passes]
    p98 = [percentile(p["hour_ms"], 98) for p in passes]
    values = {
        "setup_s": med(p["assemble_s"] + p["start_s"] for p in passes),
        "run_s": med(p["run_s"] for p in passes),
        "readout_s": med(p["readout_s"] for p in passes),
        "total_s": med(p["assemble_s"] + p["start_s"] + p["run_s"] +
                       p["finish_s"] + p["readout_s"] for p in passes),
        "sim_days_per_s": med(p["sim_days"] / p["run_s"] for p in passes),
        "jobs_per_s": med(p["jobs"] / p["run_s"] for p in passes),
        "hour_p50_ms": med(v for v, _, _ in p50),
        "hour_p98_ms": med(v for v, _, _ in p98),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "jobs_failed_frac": jobs_failed_frac(passes, problems),
    }
    notes = ("%d passes of %d hours; p98 of a pass at rank %d with %d beyond"
             % (len(passes), len(passes[0]["hour_ms"]), p98[0][1], p98[0][2]))
    return values, notes


def per_layer(passes):
    untraced, traced = passes[0], passes[1]
    values = dict(traced["layers"])
    values.update(traced["readout"])
    values["sim.events_per_s"] = untraced["layers"]["sim.events_per_s"]
    values["setup.assemble_s"] = traced["assemble_s"]
    values["setup.start_s"] = traced["start_s"]
    values["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise BenchError("traced pass lacks metrics: %s" % ", ".join(missing))
    return values


def slow_hours(trace_file, limit=5):
    """The hours beyond p98 in a traced pass, each with the two count
    deltas that rose most against the median hour."""
    with open(trace_file) as f:
        hours = json.load(f)["hours"]
    if not hours:
        return []
    cut = percentile([h["ms"] for h in hours], 98)[0]
    typical = {k: statistics.median(h[k] for h in hours) for k in HOUR_COUNTS}

    def rise(h, k):
        return h[k] / typical[k] if typical[k] else h[k]

    lines = []
    for h in sorted((h for h in hours if h["ms"] > cut),
                    key=lambda h: -h["ms"])[:limit]:
        top = sorted(HOUR_COUNTS, key=lambda k: -rise(h, k))[:2]
        lines.append("hour %d: %.1f ms (p98 %.1f ms): %s" % (
            h["hour"], h["ms"], cut,
            ", ".join("%s %d (median %g)" % (k, h[k], typical[k])
                      for k in top)))
    return lines


def run_workload(workload, seed, seconds, trace):
    passes, problems = measure(workload, seed, seconds, trace)
    for i, bad in enumerate(problems):
        for msg in bad:
            log("%s pass %d FAILED CHECK: %s" % (workload, i, msg))
    hours = sum(len(p["hour_ms"]) for p in passes)
    failed_hours = sum(len(p["hour_ms"])
                       for p, bad in zip(passes, problems) if bad)
    if trace:
        values = per_layer(passes)
        units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            print("%-12s %-36s %16.6g %s"
                  % (workload, name, values[name], units[name]))
        for line in slow_hours(passes[1]["trace_file"]):
            print("%-12s slow %s" % (workload, line))
        print("%-12s trace file %s"
              % (workload, os.path.relpath(passes[1]["trace_file"], ROOT)))
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
    else:
        values, notes = end_to_end(passes, problems)
        for name, unit in END_TO_END:
            print("%-12s %-18s %14.6g %s" % (workload, name, values[name], unit))
        print("%-12s %s" % (workload, notes))
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return {"correct": not any(problems), "attempted": hours,
            "failed": failed_hours, "metrics": metrics}


# ---------------------------------------------------------------------------
# Self-tests


def self_test(manifest):
    ok = True

    def expect(cond, what):
        nonlocal ok
        log("%s  %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    value, rank, beyond = percentile(list(range(1, 101)), 98)
    expect((value, rank, beyond) == (98, 98, 2),
           "percentile(1..100, 98) = value 98 at rank 98, 2 beyond")
    value, rank, beyond = percentile([float(i) for i in range(744)], 98)
    expect((rank, beyond) == (730, 14),
           "p98 of 744 samples uses rank 730 with 14 beyond")
    expect(percentile([5.0], 50) == (5.0, 1, 0), "percentile of one sample")

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        expect([m["name"] for m in spec["end_to_end"]]
               == [n for n, _ in END_TO_END]
               and [m["name"] for m in spec["per_layer"]]
               == [n for n, _ in PER_LAYER]
               and [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
               "BENCHMARK.json lists the workloads and metrics run.py reports")

    build()
    with open(os.path.join(ROOT, "bench", "CATALOG_MANIFEST.json")) as f:
        pinned = {e["scenario"]: e["digest"] for e in json.load(f)["entries"]
                  if e["stack"] == "modern"}
    hourly = run_pass("calib-month", DEFAULT_SEED, "hourly",
                      sizing="manifest")
    single = run_pass("calib-month", DEFAULT_SEED, "single",
                      sizing="manifest", stepping="single")
    expect(hourly["digest"] == single["digest"] == pinned["calib-month"],
           "calib-month: hourly stepping %s == single run() %s == manifest %s"
           % (hourly["digest"], single["digest"], pinned["calib-month"]))

    for w in ALL_WORKLOADS:
        p = run_pass(w, DEFAULT_SEED, "pin")
        expect(not check_pass(p, DEFAULT_SEED, None) and
               p["digest"] == PINNED[w],
               "%s: bench sizing digest %s == pinned %s"
               % (w, p["digest"], PINNED[w]))
    if manifest:
        for w in ALL_WORKLOADS:
            p = run_pass(w, DEFAULT_SEED, "manifest", sizing="manifest")
            entry = MANIFEST_ENTRIES[w]
            expect(p["digest"] == pinned[entry],
                   "%s: manifest sizing digest %s == CATALOG_MANIFEST %s"
                   % (w, p["digest"], pinned[entry]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload (atlas-dc2 too) and print "
                    "all their metrics")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--manifest", action="store_true",
                    help="with --self-test: also reproduce the catalog "
                    "manifest digests at their own sizing (~2 min)")
    args = ap.parse_args()
    try:
        if args.self_test:
            return 0 if self_test(args.manifest) else 1
        if not args.workload and not args.all:
            ap.error("--workload, --all or --self-test is required")
        build()
        results = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in (ALL_WORKLOADS if args.all else [args.workload])]
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    if args.all:
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {"%s.%s" % (w, n): m
                               for w, r in zip(ALL_WORKLOADS, results)
                               for n, m in r["metrics"].items()}}
    else:
        summary = results[0]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
