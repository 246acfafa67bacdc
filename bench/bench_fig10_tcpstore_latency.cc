// Figure 10: TCPStore operation latency (get/set/delete) under load,
// default memcached (1 replica) vs Yoda's persistent TCPStore (2 replicas).
//
// Setup mirrors §7.1: 10 memcached servers; aggregate load of 40K / 200K /
// 400K ops/s (= 4K / 20K / 40K per server). Paper: at 40K req/s/server the
// default median is ~0.75 ms and persistence adds <24% (~0.18 ms), thanks to
// issuing replica ops in parallel.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/random.h"
#include "src/sim/sharded_sim.h"
#include "src/sim/simulator.h"

namespace {

struct RunResult {
  double get_ms = 0;
  double set_ms = 0;
  double del_ms = 0;
  std::string metrics;  // The run's registry as a text table.
};

RunResult RunLoad(int replicas, double ops_per_server, int servers_n, sim::Duration duration) {
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
  sim::Rng rng(1234);

  // Open-loop op stream: total rate = per-server rate * N. Each "request"
  // cycles set -> get -> delete on a fresh key, like a flow's lifetime.
  const double total_rate = ops_per_server * servers_n / (replicas == 2 ? 1.0 : 1.0);
  const double gap_s = 1.0 / total_rate;
  std::uint64_t issued = 0;
  std::function<void(sim::Time)> schedule = [&](sim::Time when) {
    if (when > duration) {
      return;
    }
    simulator.At(when, [&, when]() {
      const std::string key = "flow-" + std::to_string(issued++);
      switch (issued % 3) {
        case 0:
          client.Set(key, std::string(64, 's'), [](bool) {});
          break;
        case 1:
          client.Get(key, [](std::optional<std::string>) {});
          break;
        default:
          client.Delete(key, [](bool) {});
          break;
      }
      schedule(simulator.now() + sim::FromSeconds(rng.Exponential(gap_s)));
    });
  };
  schedule(0);
  simulator.Run();

  RunResult r;
  r.get_ms = client.stats().get_latency_us.Percentile(50) / 1000.0;
  r.set_ms = client.stats().set_latency_us.Percentile(50) / 1000.0;
  r.del_ms = client.stats().delete_latency_us.Percentile(50) / 1000.0;
  r.metrics = simulator.registry().TextTable();
  return r;
}

}  // namespace

int main() {
  std::printf("=== Figure 10: TCPStore latency, default (1 replica) vs YODA (2 replicas) ===\n");
  std::printf("Paper: median ~0.75 ms at 40K req/s/server; persistence overhead <24%%.\n\n");

  const int kServers = 10;
  const sim::Duration kDuration = sim::Sec(3);  // Paper used 60 s; scaled for 1-core sim.

  std::printf("%-18s %-10s %-10s %-10s %-10s %-10s %-10s\n", "ops/s/server",
              "get-1r", "get-2r", "set-1r", "set-2r", "del-1r", "del-2r");
  double set_1r_40k = 0;
  double set_2r_40k = 0;
  std::string metrics;  // The 2-replica run at the top rate.
  for (double rate : {4'000.0, 20'000.0, 40'000.0}) {
    RunResult one = RunLoad(1, rate, kServers, kDuration);
    RunResult two = RunLoad(2, rate, kServers, kDuration);
    metrics = two.metrics;
    std::printf("%-18.0f %-10.3f %-10.3f %-10.3f %-10.3f %-10.3f %-10.3f\n", rate, one.get_ms,
                two.get_ms, one.set_ms, two.set_ms, one.del_ms, two.del_ms);
    if (rate == 40'000.0) {
      set_1r_40k = one.set_ms;
      set_2r_40k = two.set_ms;
    }
  }
  std::printf("\n(median latency in ms; '1r' = default memcached, '2r' = TCPStore persistence)\n");
  std::printf("\n%-44s %-10s %-10s\n", "metric", "paper", "measured");
  std::printf("%-44s %-10s %-10.3f\n", "median set at 40K ops/s/server, default (ms)", "~0.75",
              set_1r_40k);
  std::printf("%-44s %-10s %-10.1f\n", "persistence overhead at 40K (%)", "<24",
              100.0 * (set_2r_40k - set_1r_40k) / set_1r_40k);
  std::printf("\n--- metrics registry snapshot (2-replica run at 40K ops/s/server) ---\n%s",
              metrics.c_str());
  return 0;
}
