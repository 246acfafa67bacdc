// Failover demo: the paper's headline behaviour, narrated.
//
// Twenty clients download large objects through the Yoda service; halfway
// through we crash two of the four LB instances. Watch the controller detect
// the failure (600 ms monitor), the L4 fabric re-ECMP the flows, and the
// surviving instances adopt every flow from TCPStore. All downloads finish;
// none is reset; nobody retries.
//
// Build & run:  ./build/examples/failover_demo

#include <cstdio>
#include <vector>

#include "src/workload/testbed.h"

int main() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.backends = 6;
  cfg.kv_servers = 3;
  cfg.clients = 10;
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  // Pick beefy objects so transfers are in flight at the crash.
  std::vector<std::string> urls;
  for (const auto& o : tb.catalog->objects()) {
    if (o.size > 120'000 && urls.size() < 20) {
      urls.push_back(o.url);
    }
  }

  int ok = 0;
  int broken = 0;
  sim::Histogram latency_ms;
  for (std::size_t i = 0; i < urls.size(); ++i) {
    tb.clients[i % tb.clients.size()]->FetchObject(
        tb.vip(), 80, urls[i], {}, [&](const workload::FetchResult& r) {
          if (r.ok) {
            ++ok;
            latency_ms.Add(sim::ToMillis(r.latency));
          } else {
            ++broken;
          }
        });
  }

  tb.sim.RunUntil(sim::Msec(180));
  std::printf("t=%.0f ms: %zu transfers in flight across instances:", sim::ToMillis(tb.sim.now()),
              urls.size());
  for (auto& inst : tb.instances) {
    std::printf(" %zu", inst->active_flows());
  }
  std::printf("\n");

  std::printf("t=%.0f ms: CRASHING instances %s and %s\n", sim::ToMillis(tb.sim.now()),
              net::IpToString(tb.instance_ip(0)).c_str(),
              net::IpToString(tb.instance_ip(1)).c_str());
  tb.CrashInstance(0);
  tb.CrashInstance(1);

  tb.sim.Run();

  std::printf("\ncontroller log:\n");
  for (const auto& ev : tb.controller->events()) {
    std::printf("  %8.0f ms  %s\n", sim::ToMillis(ev.when), ev.what.c_str());
  }

  std::uint64_t client_takeovers = 0;
  std::uint64_t server_takeovers = 0;
  for (auto& inst : tb.instances) {
    client_takeovers += inst->stats().takeovers_client_side;
    server_takeovers += inst->stats().takeovers_server_side;
  }
  std::printf("\nresults: %d/%zu transfers completed, %d broken\n", ok, urls.size(), broken);
  std::printf("latency: P50 %.0f ms, max %.0f ms (failure adds retransmit+detection time "
              "only to affected flows)\n",
              latency_ms.Percentile(50), latency_ms.Max());
  std::printf("TCPStore takeovers: %llu client-side, %llu server-side\n",
              static_cast<unsigned long long>(client_takeovers),
              static_cast<unsigned long long>(server_takeovers));
  tb.PrintMetricsSnapshot();
  return broken == 0 ? 0 : 1;
}
