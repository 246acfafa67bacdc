// Figure 11: memcached CPU utilization, default vs TCPStore persistence.
//
// Paper: issuing each operation to 2 replica servers doubles the average CPU
// utilization; a single server handles ~80K client req/s at 90% CPU, so one
// TCPStore server supports ~6.6 Yoda instances (12K req/s each).

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/random.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"

namespace {

struct CpuRun {
  double cpu_pct = 0;   // Mean server CPU utilization.
  std::string metrics;  // The run's registry as a text table.
};

CpuRun RunAndMeasureCpu(int replicas, double ops_per_server, int servers_n,
                        sim::Duration duration) {
  sim::ShardedSim engine({.shards = 1});
  sim::Simulator& simulator = engine.shard(0);
  std::vector<std::unique_ptr<kv::KvServer>> servers;
  for (int i = 0; i < servers_n; ++i) {
    servers.push_back(std::make_unique<kv::KvServer>(&simulator, "kv-" + std::to_string(i)));
  }
  std::vector<kv::KvServer*> ptrs;
  for (auto& s : servers) {
    ptrs.push_back(s.get());
  }
  kv::ReplicatingClientConfig cfg;
  cfg.replicas = replicas;
  kv::ReplicatingClient client(&simulator, ptrs, cfg);
  sim::Rng rng(99);

  const double total_rate = ops_per_server * servers_n;
  const double gap_s = 1.0 / total_rate;
  std::uint64_t issued = 0;
  std::function<void(sim::Time)> schedule = [&](sim::Time when) {
    if (when > duration) {
      return;
    }
    simulator.At(when, [&]() {
      client.Set("flow-" + std::to_string(issued++), std::string(64, 's'), [](bool) {});
      schedule(simulator.now() + sim::FromSeconds(rng.Exponential(gap_s)));
    });
  };
  schedule(0);
  simulator.Run();

  double total_util = 0;
  for (auto& s : servers) {
    total_util += s->CpuUtilization(duration);
  }
  return {100.0 * total_util / servers_n, simulator.registry().TextTable()};
}

}  // namespace

int main() {
  std::printf("=== Figure 11: TCPStore CPU utilization, default vs 2-replica persistence ===\n");
  std::printf("Paper: persistence doubles average CPU; ~80K ops/s/server at 90%% CPU.\n\n");

  const int kServers = 10;
  const sim::Duration kDuration = sim::Sec(3);

  std::printf("%-18s %-16s %-16s %-10s\n", "client ops/s/srv", "cpu%% default",
              "cpu%% 2-replica", "ratio");
  std::string metrics;  // The 2-replica run at the top rate.
  for (double rate : {4'000.0, 20'000.0, 40'000.0}) {
    const double one = RunAndMeasureCpu(1, rate, kServers, kDuration).cpu_pct;
    CpuRun two = RunAndMeasureCpu(2, rate, kServers, kDuration);
    std::printf("%-18.0f %-16.2f %-16.2f %-10.2f\n", rate, one, two.cpu_pct,
                two.cpu_pct / one);
    metrics = std::move(two.metrics);
  }

  // Saturation check: at what per-server rate does CPU hit ~90%?
  const double util_80k = RunAndMeasureCpu(1, 80'000.0, kServers, sim::Sec(1)).cpu_pct;
  std::printf("\n%-44s %-10s %-10s\n", "metric", "paper", "measured");
  std::printf("%-44s %-10s %-10.1f\n", "CPU at 80K ops/s/server, default (%)", "~90",
              util_80k);
  std::printf("%-44s %-10s %-10s\n", "persistence CPU ratio", "~2x", "see table");
  std::printf("%-44s %-10s %-10.1f\n", "Yoda instances per TCPStore server",
              "6.6", 80'000.0 / 12'000.0);
  std::printf("\n--- metrics registry snapshot (2-replica run at 40K ops/s/server) ---\n%s",
              metrics.c_str());
  return 0;
}
