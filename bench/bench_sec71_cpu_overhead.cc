// §7.1 "CPU overhead": instance CPU utilization of the user-space Yoda
// driver vs the kernel-splicing HAProxy baseline on the same workload.
//
// Paper: Yoda saturates one VM at ~12K small req/s where HAProxy sits at
// 46% (i.e. user/kernel packet copies cost ~2x CPU); for 2 MB flows Yoda is
// at 80% for 90K pkts/s vs 34% for HAProxy. An in-kernel Yoda is projected
// to match HAProxy (the Memcached client was measured to be negligible).

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/workload/browser_client.h"
#include "src/workload/testbed.h"

namespace {

struct CpuRun {
  double cpu_pct = 0;
  std::uint64_t completed = 0;
  std::string metrics_table;  // Registry snapshot of the run's testbed.
};

CpuRun Run(bool use_yoda, double rate, std::size_t object_size, sim::Duration duration) {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 1;
  cfg.baseline_proxies = 1;
  cfg.backends = 6;
  cfg.clients = 6;
  cfg.catalog.objects = 40;
  cfg.catalog.median_size = object_size;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = object_size - 100;
  cfg.catalog.max_size = object_size + 100;
  // Scale the CPU model 20x (rates are 20x below the paper's testbed),
  // calibrated so 600 req/s saturates the user-space instance (= the paper's
  // 12K req/s on one VM) with HAProxy near 46% there.
  cfg.instance_template.cpu_costs.per_connection = sim::Usec(340);
  cfg.instance_template.cpu_costs.per_packet = sim::Usec(40);
  cfg.proxy_template.cpu_costs.per_connection = sim::Usec(230);
  cfg.proxy_template.cpu_costs.per_packet = sim::Usec(22);
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();
  tb.InstallProxyRules(tb.EqualSplitRules(0, cfg.backends));

  sim::Rng rng(17);
  std::vector<std::string> urls;
  for (const auto& o : tb.catalog->objects()) {
    urls.push_back(o.url);
  }
  std::uint64_t completed = 0;
  std::function<void(sim::Time)> schedule = [&](sim::Time when) {
    if (when > duration) {
      return;
    }
    tb.SimFor(0)->At(when, [&]() {
      auto* client = tb.clients[static_cast<std::size_t>(
                                    rng.UniformInt(0, static_cast<std::int64_t>(
                                                          tb.clients.size()) - 1))].get();
      const net::IpAddr target = use_yoda ? tb.vip() : tb.proxy_ip(0);
      const std::string& url = urls[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(urls.size()) - 1))];
      client->FetchObject(target, 80, url, {}, [&](const workload::FetchResult& r) {
        completed += r.ok ? 1 : 0;
      });
      schedule(tb.sim.now() + sim::FromSeconds(rng.Exponential(1.0 / rate)));
    });
  };
  tb.instances[0]->cpu().ResetWindow(0);
  tb.proxies[0]->cpu().ResetWindow(0);
  schedule(sim::Msec(1));
  tb.sim.Run();

  CpuRun out;
  out.completed = completed;
  out.cpu_pct = 100.0 * (use_yoda ? tb.instances[0]->cpu().Utilization(duration)
                                  : tb.proxies[0]->cpu().Utilization(duration));
  out.metrics_table = tb.metrics.TextTable();
  return out;
}

}  // namespace

int main() {
  std::printf("=== Section 7.1: LB instance CPU — user-space Yoda vs kernel HAProxy ===\n");
  std::printf("Paper: Yoda 100%% at 12K small req/s, HAProxy 46%% there (~2x CPU);\n");
  std::printf("       large flows: Yoda 80%% vs HAProxy 34%%. Rates scaled 20x down.\n\n");

  const sim::Duration kDuration = sim::Sec(6);
  std::printf("%-26s %-12s %-12s %-8s\n", "workload", "yoda cpu%", "haproxy cpu%", "ratio");
  struct Case {
    const char* name;
    double rate;
    std::size_t size;
  };
  std::string last_yoda_table;
  for (const Case& c : {Case{"small (10 KB), 300 r/s", 300, 10'000},
                        Case{"small (10 KB), 600 r/s", 600, 10'000},
                        Case{"large (300 KB), 40 r/s", 40, 300'000}}) {
    CpuRun yoda = Run(true, c.rate, c.size, kDuration);
    CpuRun haproxy = Run(false, c.rate, c.size, kDuration);
    last_yoda_table = std::move(yoda.metrics_table);
    std::printf("%-26s %-12.1f %-12.1f %-8.2f   (ok: %llu/%llu)\n", c.name, yoda.cpu_pct,
                haproxy.cpu_pct, yoda.cpu_pct / haproxy.cpu_pct,
                static_cast<unsigned long long>(yoda.completed),
                static_cast<unsigned long long>(haproxy.completed));
  }
  std::printf("\npaper ratio: ~2.2x on small requests (user/kernel copies); the Memcached\n");
  std::printf("client is negligible, so an in-kernel Yoda is projected at HAProxy's CPU.\n");
  std::printf("\n--- metrics registry snapshot (large-flow Yoda run) ---\n%s",
              last_yoda_table.c_str());
  return 0;
}
