// Figure 14: safe user-policy updates (make-before-break server swap).
//
// Timeline (paper §7.4): 0-10 s equal split across Srv-1..3; at 10 s the
// operator adds Srv-4 (make); at 20 s removes Srv-1 (break); at 30 s sets
// weights Srv-2:Srv-3:Srv-4 = 1:1:2. Traffic shares must track each change,
// and no client flow may break — existing connections keep their backend.

#include <cstdio>
#include <functional>
#include <vector>

#include "src/workload/testbed.h"

namespace {

std::vector<rules::Rule> SplitOver(workload::Testbed& tb, std::vector<int> backends,
                                   std::vector<double> weights) {
  rules::Rule r;
  r.name = "r-split";
  r.priority = 1;
  r.match.url_glob = "*";
  r.action.type = rules::ActionType::kWeightedSplit;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    r.action.backends.push_back({tb.backend_ip(backends[i]), 80, weights[i]});
  }
  return {r};
}

}  // namespace

int main() {
  std::printf("=== Figure 14: make-before-break policy update ===\n");
  std::printf("Paper: equal 3-way -> +Srv4 (4-way) -> -Srv1 (3-way) -> weights 1:1:2;\n");
  std::printf("       every phase's traffic shares follow the policy; zero broken flows.\n\n");

  workload::TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.backends = 4;
  cfg.clients = 8;
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 12'000;
  cfg.catalog.sigma = 0.05;
  cfg.catalog.min_size = 10'000;
  cfg.catalog.max_size = 15'000;
  workload::Testbed tb(cfg);
  tb.controller->DefineVip(tb.vip(), 80, SplitOver(tb, {0, 1, 2}, {1, 1, 1}));
  tb.controller->Start();

  // Policy timeline.
  tb.SimFor(0)->At(sim::Sec(10), [&]() {
    tb.controller->UpdateVipRules(tb.vip(), SplitOver(tb, {0, 1, 2, 3}, {1, 1, 1, 1}));
  });
  tb.SimFor(0)->At(sim::Sec(20), [&]() {
    tb.controller->UpdateVipRules(tb.vip(), SplitOver(tb, {1, 2, 3}, {1, 1, 1}));
  });
  tb.SimFor(0)->At(sim::Sec(30), [&]() {
    tb.controller->UpdateVipRules(tb.vip(), SplitOver(tb, {1, 2, 3}, {1, 1, 2}));
  });

  // Load: open loop, 400 req/s.
  sim::Rng rng(3);
  std::vector<std::string> urls;
  for (const auto& o : tb.catalog->objects()) {
    urls.push_back(o.url);
  }
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  const sim::Duration kEnd = sim::Sec(40);
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
      schedule(tb.sim.now() + sim::FromSeconds(rng.Exponential(1.0 / 400.0)));
    });
  };
  schedule(sim::Msec(1));

  // Sample per-server request shares each second.
  std::printf("%-8s %-8s %-8s %-8s %-8s   %s\n", "t (s)", "Srv-1", "Srv-2", "Srv-3", "Srv-4",
              "(fraction of requests in the last second)");
  std::function<void(int)> sample = [&](int second) {
    if (second > 40) {
      return;
    }
    tb.SimFor(0)->At(sim::Sec(second), [&, second]() {
      std::uint64_t counts[4];
      std::uint64_t total = 0;
      for (int s = 0; s < 4; ++s) {
        counts[s] = tb.servers[static_cast<std::size_t>(s)]->DrainRequestCounter();
        total += counts[s];
      }
      if (second % 2 == 0 && total > 0) {
        std::printf("%-8d %-8.2f %-8.2f %-8.2f %-8.2f\n", second,
                    static_cast<double>(counts[0]) / total,
                    static_cast<double>(counts[1]) / total,
                    static_cast<double>(counts[2]) / total,
                    static_cast<double>(counts[3]) / total);
      }
      sample(second + 1);
    });
  };
  sample(1);

  tb.sim.Run();

  std::printf("\nexpected shares: 0-10 s: .33/.33/.33/0 | 10-20 s: .25 each |\n");
  std::printf("                 20-30 s: 0/.33/.33/.33 | 30-40 s: 0/.25/.25/.50\n");
  std::printf("\n%-40s %-10s %-10s\n", "metric", "paper", "measured");
  std::printf("%-40s %-10s %llu/%llu\n", "broken flows across 3 policy updates", "0",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(ok + failed));
  tb.PrintMetricsSnapshot();
  return 0;
}
