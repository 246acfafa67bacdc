#!/usr/bin/env python3
"""Benchmark of record for the Yoda L7 load-balancer simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's src/) into .bench_build/,
then runs the workload in child processes and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0  repeats the untraced run until S seconds are used, each repetition
           preceded by a child that times several setups, and reports the
           end-to-end metrics: the best repetition's throughput and CPU per
           request, the median peak RSS, the (exactly repeating) sim-time
           figures, and the lowest of the setup children's median setups.
           Best-of figures, because the host's speed drifts by tens of
           percent over minutes and the slowest repetitions measure that.
--trace 1  runs the workload once untraced and once traced (nodes wrapped,
           allocations counted, spans written to .bench_build/spans/), checks
           that both agree on every sim-time figure, and reports the per-layer
           metrics. failover_placed also reruns on one worker and checks that
           the sim-time figures do not depend on the worker count.

See perfbench/README.md for the workloads, the metrics and what each is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Setups timed by each setup child; one child runs before every repetition.
SETUP_REPS = 5
# A repetition during which the hypervisor stole more than this share of the
# host's CPU ticks measured the host, not the program: its host-time figures
# are left out (the least-disturbed repetition is kept when
# every one exceeds it). On a 4-vCPU VM, stolen ticks stall the barrier-
# synchronized multi-worker run and have little effect on one-worker runs.
STEAL_LIMIT = 0.03
MIN_LATENCY_SAMPLES_BEYOND_P999 = 10


def load_spec():
    """Workload names and metric units, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return [w["name"] for w in spec["workloads"]], units("end_to_end"), units("per_layer")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds perfbench/ with CMake; incremental after the first run."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to perfbench/: run from the root of a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    t0 = time.monotonic()
    with open(log_path, "w") as lf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as rf:
                    sys.stderr.write(rf.read()[-4000:])
                raise BenchError("build failed; see " + log_path)
    log("build: %.1f s (%s)" % (time.monotonic() - t0, log_path))
    return out


def read_steal():
    """Host CPU ticks (total, steal) from /proc/stat; (0, 0) where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        ticks = [int(x) for x in fields[1:]]
        return sum(ticks), (ticks[7] if len(ticks) > 7 else 0)
    except (OSError, ValueError):
        return 0, 0


def run_child(binary, args, timeout):
    cmd = [binary] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % " ".join(cmd))
    return json.loads(lines[-1])


def workload_args(workload, seed, workers=None):
    args = ["--workload", workload, "--seed", str(seed)]
    if workers is not None:
        args += ["--workers", str(workers)]
    return args


def one_run(binary, workload, seed, timeout, workers=None, extra=()):
    total0, steal0 = read_steal()
    t0 = time.monotonic()
    rep = run_child(binary, workload_args(workload, seed, workers) + list(extra), timeout)
    wall = time.monotonic() - t0
    total1, steal1 = read_steal()
    host = rep["host"]
    rep["noise"] = {
        "process_wall_s": wall,
        "run_wall_s": host["run_wall_s"],
        "run_cpu_s": host["run_cpu_s"],
        "steal_ticks": steal1 - steal0,
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
    }
    log("run %s seed=%d traced=%s workers=%d: wall %.3f s, cpu %.3f s, steal %d ticks "
        "(%.2f%% of host ticks), %d requests"
        % (workload, seed, rep["traced"], host["workers"], host["run_wall_s"],
           host["run_cpu_s"], rep["noise"]["steal_ticks"], 100 * rep["noise"]["steal_share"],
           rep["sim"]["requests_finished"]))
    return rep


def check_outputs(rep):
    """Output correctness of one run; returns a list of problems."""
    sim = rep["sim"]
    problems = []
    if sim["body_mismatches"] != 0:
        problems.append("%d responses with a wrong status or byte count"
                        % sim["body_mismatches"])
        for line in rep["mismatches"]:
            log("mismatch: " + line)
    if sim["requests_finished"] != sim["requests_attempted"]:
        problems.append("%d of %d requests never finished"
                        % (sim["requests_attempted"] - sim["requests_finished"],
                           sim["requests_attempted"]))
    if sim["latency_samples_beyond_p999"] < MIN_LATENCY_SAMPLES_BEYOND_P999:
        log("warning: only %d latency samples beyond p99.9"
            % sim["latency_samples_beyond_p999"])
    return problems


def diff_sim(a, b):
    keys = sorted(set(a) | set(b))
    return [k for k in keys if a.get(k) != b.get(k)]


def report_sim(sim):
    log("sim: %d attempted, %d ok, %d timeouts, %d resets, %d body mismatches; "
        "latency p50/p99/p99.9 = %.3f/%.3f/%.3f ms over %d samples (%d beyond p99.9)"
        % (sim["requests_attempted"], sim["requests_ok"], sim["client.timeouts"],
           sim["client.resets"], sim["body_mismatches"], sim["latency_p50_ms"],
           sim["latency_p99_ms"], sim["latency_p999_ms"], sim["latency_samples"],
           sim["latency_samples_beyond_p999"]))


def time_setups(binary, args):
    """Wall seconds of SETUP_REPS setups in one child; their median."""
    return statistics.median(run_child(binary, workload_args(args.workload, args.seed) +
                                       ["--setup-reps", str(SETUP_REPS)], 120)["setup_s"])


def end_to_end(out, args):
    binary = os.path.join(out, "yoda_perfbench")
    setups = []
    reps = []
    problems = []
    t0 = time.monotonic()
    budget = float(args.seconds)
    while True:
        setups.append(time_setups(binary, args))
        rep = one_run(binary, args.workload, args.seed, 150)
        problems += check_outputs(rep)
        if reps and diff_sim(reps[0]["sim"], rep["sim"]):
            problems.append("sim-time figures differ between repetitions of one seed: %s"
                            % ", ".join(diff_sim(reps[0]["sim"], rep["sim"])[:8]))
        reps.append(rep)
        elapsed = time.monotonic() - t0
        per_rep = elapsed / len(reps)
        if elapsed + per_rep > budget:
            break
    sim = reps[0]["sim"]
    report_sim(sim)
    clean = ([r for r in reps if r["noise"]["steal_share"] <= STEAL_LIMIT]
             or [min(reps, key=lambda r: r["noise"]["steal_share"])])
    log("host-time figures over %d of %d repetitions (steal share <= %g)"
        % (len(clean), len(reps), STEAL_LIMIT))
    host = lambda key: [r["host"][key] for r in clean]
    metrics = {
        "requests_per_s": max(host("requests_per_s")),
        "host_us_per_request": min(host("host_us_per_request")),
        "peak_rss_mb": statistics.median(host("peak_rss_mb")),
        "setup_s": min(setups),
        "latency_p50_ms": sim["latency_p50_ms"],
        "latency_p99_ms": sim["latency_p99_ms"],
        "latency_p999_ms": sim["latency_p999_ms"],
        "ok_ratio": sim["requests_ok"] / sim["requests_attempted"],
    }
    log("noise: " + json.dumps({"setup_s": setups, "reps": [r["noise"] for r in reps]}))
    log("failed_ratio: %.9g" % sim["failed_ratio"])
    return metrics, reps, problems


def per_layer(out, args):
    spans_dir = os.path.join(os.path.dirname(out), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, args.workload + ".bin")
    plain = one_run(os.path.join(out, "yoda_perfbench"), args.workload, args.seed, 150)
    traced = one_run(os.path.join(out, "yoda_perfbench_traced"), args.workload, args.seed, 150,
                     extra=("--spans", spans))
    runs = [plain, traced]
    problems = check_outputs(plain) + check_outputs(traced)
    differ = diff_sim(plain["sim"], traced["sim"])
    if differ:
        problems.append("traced run changed sim-time figures: " + ", ".join(differ[:8]))
    else:
        log("trace invariance: traced and untraced runs agree on %d sim figures"
            % len(plain["sim"]))
    if plain["host"]["workers"] > 1:
        single = one_run(os.path.join(out, "yoda_perfbench"), args.workload, args.seed, 150,
                         workers=1)
        runs.append(single)
        differ = diff_sim(plain["sim"], single["sim"])
        if differ:
            problems.append("sim-time figures depend on the worker count: "
                            + ", ".join(differ[:8]))
        else:
            log("worker-count invariance: %d and 1 worker(s) agree on %d sim figures"
                % (plain["host"]["workers"], len(plain["sim"])))
    report_sim(plain["sim"])
    metrics = {}
    for name in args.units:
        if name in traced["layers"]:
            metrics[name] = traced["layers"][name]
        elif name in plain["sim"]:
            metrics[name] = plain["sim"][name]
    metrics["trace.overhead_ratio"] = (traced["host"]["run_wall_s"]
                                       / plain["host"]["run_wall_s"])
    metrics["heap.live_to_rss_ratio"] = (traced["layers"]["heap.peak_live_mb"]
                                         / plain["host"]["peak_rss_mb"])
    log("heap vs RSS: traced peak live heap %.1f MB, untraced peak RSS %.1f MB (%.0f%%)"
        % (traced["layers"]["heap.peak_live_mb"], plain["host"]["peak_rss_mb"],
           100 * metrics["heap.live_to_rss_ratio"]))
    log("spans: %d written to %s" % (traced["layers"]["trace.spans"], spans))
    self_ms = {k.split(".", 1)[1]: v for k, v in traced["layers"].items()
               if k.startswith("self_ms.")}
    log("self time by layer (traced run, ms): " +
        ", ".join("%s %.1f" % kv for kv in sorted(self_ms.items(), key=lambda kv: -kv[1])))
    return metrics, runs, problems


def main():
    try:
        workloads, e2e_units, layer_units = load_spec()
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: cannot read BENCHMARK.json: %s\n" % e)
        return 1
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    args.units = layer_units if args.trace else e2e_units
    try:
        out = build()
        fn = per_layer if args.trace else end_to_end
        metrics, runs, problems = fn(out, args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    missing = [n for n in args.units if n not in metrics]
    if missing:
        problems.append("metrics missing: " + ", ".join(missing))
    for p in problems:
        log("INCORRECT: " + p)
    result = {
        "correct": not problems,
        "attempted": int(sum(r["sim"]["requests_attempted"] for r in runs)),
        "failed": int(sum(r["sim"]["requests_failed"] for r in runs)),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in args.units.items() if k in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
