// Figure 13: elastic scale-out under a load step.
//
// Paper: 6 Yoda instances at 5K req/s each (~40% CPU); at t=10 s the load
// doubles to 10K req/s each (~80% CPU); the controller adds 3 instances,
// bringing per-instance load to ~6.7K req/s and CPU to ~60%. No client flow
// breaks at any point, and latency stays flat (queues only build once CPU
// saturates).
//
// Rates are scaled 20x down for the single-core simulator; the CPU cost
// model is scaled up by the same factor so the utilization percentages land
// where the paper's do.

// With --x100 an additional section runs the same per-cell topology as a
// `threads N` scenario — workload::kScenarioCells independent cells at 100x
// the Fig 13 aggregate rate, taken by --threads N plain threads (default 1).
// Flow totals are thread-count-invariant; only wall-clock changes with N.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/workload/browser_client.h"
#include "src/workload/scenario.h"
#include "src/workload/testbed.h"

namespace {

workload::TestbedConfig Fig13CellConfig() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 6;
  cfg.spare_instances = 3;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 10'000;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = 9'800;
  cfg.catalog.max_size = 10'200;
  cfg.instance_template.cpu_costs.per_connection = sim::Usec(500);
  cfg.instance_template.cpu_costs.per_packet = sim::Usec(18);
  cfg.controller.auto_scale = true;
  cfg.controller.scale_out_cpu = 0.70;
  cfg.controller.scale_out_step = 3;
  cfg.controller.scale_out_ticks = 3;
  return cfg;
}

// 100x the steady-state Fig 13 aggregate (6 instances x 250 req/s), spread
// across the cells; 3 simulated seconds keeps the flow count (~450K) within
// a couple of minutes of wall-clock on one core.
void RunX100(int threads) {
  std::printf("\n=== x100 section: %d cells, %d worker thread(s) ===\n",
              workload::kScenarioCells, threads);
  const workload::TestbedConfig cell_cfg = Fig13CellConfig();
  std::string split;
  for (int i = 1; i <= cell_cfg.backends; ++i) {
    split += (i > 1 ? ",10.3.0." : "10.3.0.") + std::to_string(i);
  }
  const double cell_rate = 100.0 * 6 * 250 / workload::kScenarioCells;
  std::optional<workload::Scenario> sc = workload::ParseScenario(
      "threads " + std::to_string(std::max(1, threads)) +
      "\nvip 10.200.0.1\nrule 10.200.0.1 name=r-default priority=1 url=* split=" + split +
      "\nat 1ms load 10.200.0.1 rate " + std::to_string(cell_rate) + " duration 3s\n");
  sc->testbed = cell_cfg;
  const auto wall0 = std::chrono::steady_clock::now();
  const workload::ScenarioReport r = workload::RunScenario(*sc);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  std::printf("  x100: %llu ok, %llu failed across %d cells (%d threads) in %.1f s"
              " -> %.0f flows/s\n",
              static_cast<unsigned long long>(r.requests_ok),
              static_cast<unsigned long long>(r.requests_failed), r.cells, threads, wall,
              static_cast<double>(r.requests_ok + r.requests_failed) / wall);
}

}  // namespace

int main(int argc, char** argv) {
  bool x100 = false;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--x100") == 0) {
      x100 = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::printf("usage: %s [--x100] [--threads N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Figure 13: scale-out under a 2x load step ===\n");
  std::printf("Paper: CPU 40%% -> 80%% at the step -> 60%% after +3 instances; no broken flows.\n\n");

  workload::TestbedConfig cfg;
  cfg.yoda_instances = 6;
  cfg.spare_instances = 3;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  // Small objects; CPU model scaled so 250 req/s/instance ~= 40% CPU.
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 10'000;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = 9'800;
  cfg.catalog.max_size = 10'200;
  cfg.instance_template.cpu_costs.per_connection = sim::Usec(500);
  cfg.instance_template.cpu_costs.per_packet = sim::Usec(18);
  cfg.controller.auto_scale = true;
  cfg.controller.scale_out_cpu = 0.70;
  cfg.controller.scale_out_step = 3;
  cfg.controller.scale_out_ticks = 3;  // ~2 s of sustained overload, as in Fig 13.
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  sim::Rng rng(5);
  std::vector<std::string> urls;
  for (const auto& o : tb.catalog->objects()) {
    urls.push_back(o.url);
  }
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;

  // Open-loop load: 250 req/s per initial instance, doubling at t=10 s.
  double per_instance_rate = 250;
  auto total_rate = [&]() { return per_instance_rate * 6; };
  const sim::Duration kEnd = sim::Sec(30);
  std::function<void(sim::Time)> schedule = [&](sim::Time when) {
    if (when > kEnd) {
      return;
    }
    tb.SimFor(0)->At(when, [&]() {
      auto* client = tb.clients[static_cast<std::size_t>(
                                    rng.UniformInt(0, static_cast<std::int64_t>(
                                                          tb.clients.size()) - 1))].get();
      const std::string& url = urls[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(urls.size()) - 1))];
      client->FetchObject(tb.vip(), 80, url, {}, [&](const workload::FetchResult& r) {
        if (r.ok) {
          ++ok;
        } else {
          ++failed;
        }
      });
      schedule(tb.sim.now() + sim::FromSeconds(rng.Exponential(1.0 / total_rate())));
    });
  };
  schedule(sim::Msec(1));
  tb.SimFor(0)->At(sim::Sec(10), [&]() { per_instance_rate = 500; });

  // Per-second sampler: requests landed per active instance + CPU.
  std::printf("%-8s %-12s %-14s %-12s %-10s\n", "t (s)", "#instances", "req/s/instance",
              "avg CPU %", "failed");
  std::uint64_t last_flows = 0;
  std::function<void(int)> sample = [&](int second) {
    if (second > 30) {
      return;
    }
    tb.SimFor(0)->At(sim::Sec(second), [&, second]() {
      const auto active = tb.controller->ActiveInstances();
      std::uint64_t flows = 0;
      double cpu = 0;
      for (auto* inst : active) {
        flows += inst->stats().flows_started;
        cpu += inst->cpu().Utilization(tb.sim.now());
        inst->cpu().ResetWindow(tb.sim.now());
      }
      const double rate = static_cast<double>(flows - last_flows) /
                          static_cast<double>(active.size());
      last_flows = flows;
      if (second % 2 == 0) {
        std::printf("%-8d %-12zu %-14.0f %-12.1f %-10llu\n", second, active.size(), rate,
                    100.0 * cpu / static_cast<double>(active.size()),
                    static_cast<unsigned long long>(failed));
      }
      sample(second + 1);
    });
  };
  sample(1);

  tb.sim.Run();

  std::printf("\n%-44s %-12s %-12s\n", "metric", "paper", "measured");
  std::printf("%-44s %-12s %-12zu\n", "instances after scale-out", "9",
              tb.controller->ActiveInstances().size());
  std::printf("%-44s %-12s %llu/%llu\n", "broken flows during scaling", "0",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(ok + failed));
  tb.PrintMetricsSnapshot();

  if (x100) {
    RunX100(threads);
  }
  return 0;
}
