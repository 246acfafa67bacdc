// The benchmark's workloads: one testbed on a sim::ShardedSim (placed
// mode), open-loop Poisson load from its clients, and the figures one run
// reports. See perfbench/README.md for the table of workloads and why each
// exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int workers = 0;          // 0 = the workload's default; capped at shards and cores.
  bool traced = false;      // Wrap the nodes and account per layer.
  std::string spans_path;   // Traced runs: where the spans go ("" = nowhere).
};

// Flat name -> number maps, printed as one JSON object by main.cc.
struct RunReport {
  // Deterministic for a seed: sim-time metrics and counts. Must repeat
  // exactly across runs, worker counts and traced/untraced runs.
  std::map<std::string, double> sim;
  // Host measurements of this run (wall, CPU, RSS, setup).
  std::map<std::string, double> host;
  // Per-layer figures (traced runs only).
  std::map<std::string, double> layers;
  // Output mismatches, one line each (status/size vs the catalog).
  std::vector<std::string> mismatches;
};

bool KnownWorkload(const std::string& name);

// One full run: setup, load until drained, figures. Returns false (with
// `error`) on bad options.
bool RunWorkload(const RunOptions& options, RunReport* report, std::string* error);

// Builds the testbed up to the first request `reps` times and returns each
// setup's wall seconds.
std::vector<double> TimeSetups(const RunOptions& options, int reps);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
