// One benchmark run in one process; perfbench/run.py drives it.
//
//   yoda_perfbench --workload NAME --seed N [--workers W] [--spans FILE]
//   yoda_perfbench --workload NAME --seed N --setup-reps K
//
// The first form runs the workload once and prints one JSON object: "sim"
// (sim-time metrics and counts, exact for a seed), "host" (wall, CPU, RSS,
// setup) and, in the traced binary, "layers" (per-layer host time and
// allocations). The second form only builds the testbed K times and prints
// each setup's wall seconds. Exit code 2 on bad arguments, 1 on failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "perfbench/workloads.h"

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? "," : "") + Quote(k) + ":" + Number(v);
  }
  return out + "}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--workers W] [--spans FILE] "
               "[--setup-reps K]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  int setup_reps = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--workers") {
      opts.workers = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (arg == "--spans") {
      opts.spans_path = val;
    } else if (arg == "--setup-reps") {
      setup_reps = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') {
      return Usage(argv[0]);
    }
  }
  if (!perfbench::KnownWorkload(opts.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return Usage(argv[0]);
  }
#ifdef PERFBENCH_TRACED
  opts.traced = true;
#endif

  if (setup_reps > 0) {
    std::string out = "{\"setup_s\":[";
    const std::vector<double> times = perfbench::TimeSetups(opts, setup_reps);
    for (std::size_t i = 0; i < times.size(); ++i) {
      out += (i > 0 ? "," : "") + Number(times[i]);
    }
    std::printf("%s]}\n", out.c_str());
    return 0;
  }

  perfbench::RunReport report;
  std::string error;
  if (!perfbench::RunWorkload(opts, &report, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string mismatches = "[";
  for (const std::string& m : report.mismatches) {
    mismatches += (mismatches.size() > 1 ? "," : "") + Quote(m);
  }
  std::printf("{\"workload\":%s,\"traced\":%s,\"sim\":%s,\"host\":%s,\"layers\":%s,"
              "\"mismatches\":%s]}\n",
              Quote(opts.workload).c_str(), opts.traced ? "true" : "false",
              Object(report.sim).c_str(), Object(report.host).c_str(),
              Object(report.layers).c_str(), mismatches.c_str());
  return 0;
}
