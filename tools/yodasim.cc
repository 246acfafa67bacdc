// yodasim: run a Yoda scenario file in the simulator and print a report.
//
//   yodasim <scenario-file>
//   yodasim --example       # prints a starter scenario to stdout
//
// See src/workload/scenario.h for the DSL reference.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/workload/scenario.h"

namespace {

const char kExample[] = R"(# yodasim starter scenario
seed 7
instances 4
spares 1
backends 6
kv-servers 3
clients 4

vip 10.200.0.1
rule 10.200.0.1 name=r-all priority=1 url=* split=10.3.0.1,10.3.0.2,10.3.0.3,10.3.0.4

at 0ms load 10.200.0.1 rate 150 duration 12s
at 4s crash instance 0
at 8s add-instance

# Uncomment to run as 8 independent cells on 4 threads (results are
# identical for any thread count; see scenarios/sharded-failover.yoda):
# threads 4
)";

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--example") {
    std::fputs(kExample, stdout);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <scenario-file> | --example\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  std::string error;
  auto scenario = workload::ParseScenario(buf.str(), &error);
  if (!scenario) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }

  std::printf("running scenario %s (%d instances, %d backends, %zu VIPs, %zu events)\n",
              argv[1], scenario->testbed.yoda_instances, scenario->testbed.backends,
              scenario->vips.size(), scenario->events.size());
  workload::ScenarioReport report = workload::RunScenario(*scenario, &std::cout);

  std::printf("\n--- report ---\n");
  if (report.cells > 1) {
    std::printf("cells: %d (aggregated; %d thread(s))\n", report.cells,
                scenario->threads);
  }
  std::printf("requests: %llu ok, %llu failed\n",
              static_cast<unsigned long long>(report.requests_ok),
              static_cast<unsigned long long>(report.requests_failed));
  if (!report.latency_ms.empty()) {
    std::printf("latency:  P50 %.0f ms, P90 %.0f ms, P99 %.0f ms, max %.0f ms\n",
                report.latency_ms.Percentile(50), report.latency_ms.Percentile(90),
                report.latency_ms.Percentile(99), report.latency_ms.Max());
  }
  std::printf("takeovers: %llu | re-switches: %llu | failures detected: %d\n",
              static_cast<unsigned long long>(report.takeovers),
              static_cast<unsigned long long>(report.reswitches), report.failures_detected);
  std::printf("controller log:\n");
  for (const auto& ev : report.controller_events) {
    std::printf("  %8.0f ms  %s\n", sim::ToMillis(ev.when), ev.what.c_str());
  }
  return report.requests_failed == 0 ? 0 : 1;
}
