// Policy-update demo (§5.1/§7.4): the operator expresses Table 3 style
// policies — weighted split, primary/backup, sticky sessions — and updates
// them live while traffic flows. Existing connections keep their backends;
// only new connections follow the new policy.
//
// Build & run:  ./build/examples/policy_update_demo

#include <cstdio>
#include <functional>

#include "src/rules/policy.h"
#include "src/workload/testbed.h"

namespace {

void Banner(const char* msg) { std::printf("\n--- %s ---\n", msg); }

constexpr auto kWarm = fault::FaultPlane::RestartMode::kWarm;

}  // namespace

int main() {
  workload::TestbedConfig cfg;
  // One instance: sticky tables are per-instance (HAProxy semantics), so a
  // single-instance demo shows the binding cleanly.
  cfg.yoda_instances = 1;
  cfg.backends = 4;
  cfg.clients = 4;
  cfg.catalog.objects = 40;
  cfg.catalog.median_size = 8'000;
  cfg.catalog.min_size = 4'000;
  cfg.catalog.max_size = 16'000;
  workload::Testbed tb(cfg);

  Banner("policy 1: weighted split 1:1:2 over backends 0,1,2");
  rules::WeightedSplitPolicy split;
  split.name = "w";
  split.backends = {{tb.backend_ip(0), 80, 1.0}, {tb.backend_ip(1), 80, 1.0},
                    {tb.backend_ip(2), 80, 2.0}};
  tb.controller->DefineVip(tb.vip(), 80, rules::Compile(split));
  tb.controller->Start();

  auto burst = [&tb](int n) {
    sim::Rng rng(9);
    int done = 0;
    for (int i = 0; i < n; ++i) {
      const auto& obj = tb.catalog->objects()[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(tb.catalog->objects().size()) - 1))];
      tb.clients[static_cast<std::size_t>(i) % tb.clients.size()]->FetchObject(
          tb.vip(), 80, obj.url, {}, [&done](const workload::FetchResult& r) {
            if (r.ok) {
              ++done;
            }
          });
    }
    tb.sim.Run();
    return done;
  };
  auto shares = [&tb]() {
    std::uint64_t counts[4];
    std::uint64_t total = 0;
    for (int s = 0; s < 4; ++s) {
      counts[s] = tb.servers[static_cast<std::size_t>(s)]->DrainRequestCounter();
      total += counts[s];
    }
    for (int s = 0; s < 4; ++s) {
      std::printf("  Srv-%d: %5.1f%%", s + 1,
                  total ? 100.0 * static_cast<double>(counts[s]) / total : 0.0);
    }
    std::printf("\n");
  };

  std::printf("completed %d requests\n", burst(120));
  shares();

  Banner("policy 2: primary/backup — backend 3 primary, 0 backup");
  rules::PrimaryBackupPolicy pb;
  pb.name = "pb";
  pb.priority = 5;
  pb.primaries = {{tb.backend_ip(3), 80, 1.0}};
  pb.backups = {{tb.backend_ip(0), 80, 1.0}};
  tb.controller->UpdateVipRules(tb.vip(), rules::Compile(pb));
  std::printf("completed %d requests (all should hit Srv-4)\n", burst(40));
  shares();

  std::printf("killing the primary backend...\n");
  tb.faults->CrashNode(tb.backend_ip(3));
  tb.sim.RunUntil(tb.sim.now() + sim::Sec(2));  // Monitor marks it down.
  std::printf("completed %d requests (all should fail over to Srv-1)\n", burst(40));
  shares();

  Banner("policy 3: sticky sessions on cookie 'sid'");
  tb.faults->RestartNode(tb.backend_ip(3), kWarm);
  rules::StickySessionPolicy ss;
  ss.name = "ss";
  ss.cookie = "sid";
  ss.fallback = {{tb.backend_ip(0), 80, 1.0}, {tb.backend_ip(1), 80, 1.0},
                 {tb.backend_ip(2), 80, 1.0}};
  tb.controller->UpdateVipRules(tb.vip(), rules::Compile(ss));
  workload::FetchOptions alice;
  alice.cookie = "sid=alice";
  for (int round = 0; round < 4; ++round) {
    tb.clients[static_cast<std::size_t>(round) % tb.clients.size()]->FetchObject(
        tb.vip(), 80, tb.catalog->objects()[0].url, alice,
        [](const workload::FetchResult&) {});
    tb.sim.Run();
  }
  std::printf("4 requests with cookie sid=alice (one backend should own all 4):\n");
  shares();
  tb.PrintMetricsSnapshot();
  return 0;
}
