#!/usr/bin/env python3
"""Perf gate: holds perfbench's figures to the checked-in BENCH_perfbench.json.

Usage (from the root of a checkout):

    python3 bench/perf_gate.py           # measure, compare, exit 1 on any failure
    python3 bench/perf_gate.py --write   # measure and rewrite BENCH_perfbench.json

It builds nothing. It runs the binaries that `perfbench/run.py` builds under
.bench_build/perfbench/ and the bench_perf_core of the main build
(`cmake --build build --target bench_perf_core`). For every workload named in
BENCHMARK.json it runs yoda_perfbench 3 times and yoda_perfbench_traced once,
at seed 1007, and it runs bench_perf_core once. Each report section has its
own rule:

  sim     sim-time figures and counts (work per request, latencies, the
          outcome digest). They repeat exactly for a seed, so any change
          fails.
  allocs  allocation counts per request or packet, from the traced binary.
          They depend on the standard library, so they fail only above 1.25x.
  host    requests_per_s fails below 1/2; host_us_per_request and
          peak_rss_mb fail above 2x. Host speed drifts by tens of percent
          over minutes, so these catch only gross regressions. Each is the
          median of the 3 untraced runs.
  micro   bench_perf_core's five throughputs; each fails below 1/2.

A workload or key that is in the file but not measured, or measured but not
in the file, fails too. A check also writes what it measured, in the file's
layout, to .bench_build/BENCH_perfbench.measured.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(ROOT, "BENCH_perfbench.json")
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
SEED = 1007
UNTRACED_RUNS = 3
ALLOC_KEYS = ("sim.allocs_per_req", "l4lb.allocs_per_pkt", "core.allocs_per_pkt",
              "client.allocs_per_req", "backend.allocs_per_req")
HOST_KEYS = ("requests_per_s", "host_us_per_request", "peak_rss_mb")
LOWER_IS_BETTER = {"host_us_per_request", "peak_rss_mb"}
ALLOC_BOUND = 1.25
HOST_BOUND = 2.0


class GateError(Exception):
    pass


def exact(key, want, got):
    return want == got


def within_alloc_bound(key, want, got):
    return got <= ALLOC_BOUND * want


def within_host_bound(key, want, got):
    if key in LOWER_IS_BETTER:
        return got <= HOST_BOUND * want
    return got >= want / HOST_BOUND


WORKLOAD_RULES = {"sim": exact, "allocs": within_alloc_bound, "host": within_host_bound}


def compare_section(where, want, got, ok):
    failures = []
    for key in sorted(set(want) | set(got)):
        if key not in got:
            failures.append("%s %s: file %r, not measured" % (where, key, want[key]))
        elif key not in want:
            failures.append("%s %s: measured %r, not in the file" % (where, key, got[key]))
        elif not ok(key, want[key], got[key]):
            failures.append("%s %s: file %r, measured %r" % (where, key, want[key], got[key]))
    return failures


def compare(expected, measured):
    """Every way `measured` breaks the rules against `expected`, one line each."""
    failures = []
    if expected.get("seed") != measured.get("seed"):
        failures.append("seed: file %r, measured %r" % (expected.get("seed"),
                                                        measured.get("seed")))
    want_all, got_all = expected.get("workloads", {}), measured.get("workloads", {})
    for name in sorted(set(want_all) | set(got_all)):
        if name not in got_all:
            failures.append("%s: in the file, not measured" % name)
            continue
        if name not in want_all:
            failures.append("%s: measured, not in the file" % name)
            continue
        for section, ok in WORKLOAD_RULES.items():
            failures += compare_section("%s %s" % (name, section),
                                        want_all[name].get(section, {}),
                                        got_all[name].get(section, {}), ok)
    failures += compare_section("micro", expected.get("micro", {}), measured.get("micro", {}),
                                within_host_bound)
    return failures


def run_json(cmd):
    """Runs one binary; its last line of output, parsed as JSON."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise GateError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    binaries = os.path.join(BENCH_BUILD, "perfbench")
    report = {"seed": SEED, "workloads": {},
              "micro": run_json([os.path.join(ROOT, "build", "bench", "bench_perf_core")])}
    for name in workloads:
        args = ["--workload", name, "--seed", str(SEED)]
        plain = [run_json([os.path.join(binaries, "yoda_perfbench")] + args)
                 for _ in range(UNTRACED_RUNS)]
        traced = run_json([os.path.join(binaries, "yoda_perfbench_traced")] + args)
        for run in plain[1:] + [traced]:
            if run["sim"] != plain[0]["sim"]:
                raise GateError("%s: sim figures differ between runs of seed %d"
                                % (name, SEED))
        report["workloads"][name] = {
            "sim": plain[0]["sim"],
            "allocs": {k: traced["layers"][k] for k in ALLOC_KEYS},
            "host": {k: statistics.median(r["host"][k] for r in plain) for k in HOST_KEYS},
        }
        print("measured %s: %d requests, %.0f req/s" % (
            name, plain[0]["sim"]["requests_finished"],
            report["workloads"][name]["host"]["requests_per_s"]), flush=True)
    return report


def write(path, report):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite BENCH_perfbench.json with the measured figures")
    args = ap.parse_args()
    try:
        measured = measure()
        if args.write:
            write(BENCH_FILE, measured)
            print("wrote " + BENCH_FILE)
            return 0
        measured_path = os.path.join(BENCH_BUILD, "BENCH_perfbench.measured.json")
        write(measured_path, measured)
        with open(BENCH_FILE) as f:
            expected = json.load(f)
    except (GateError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perf gate: %s\n" % e)
        return 1
    failures = compare(expected, measured)
    for line in failures:
        print("FAIL " + line)
    if failures:
        print("perf gate: %d failure(s); measured report in %s" % (len(failures), measured_path))
        return 1
    print("perf gate: OK (%d workloads, seed %d)" % (len(measured["workloads"]), SEED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
