// Figure 9: end-to-end latency breakdown for small (10 KB) objects.
//
// Paper (median, 50K req/s aggregate): baseline 133 ms; HAProxy 144 ms
// (connection 8 ms, LB 5.23 ms... minus baseline + rounding); Yoda 151 ms
// (connection 10.4 ms, storage 0.89 ms, LB 8.2 ms). Yoda's extra few ms come
// from the user-space packet driver; the *storage* cost of decoupling flow
// state is under 1 ms.
//
// We run the same workload three ways — clients direct to a backend, through
// the Yoda service (VIP), and through the HAProxy-style proxy — and
// decompose the medians the same way the paper does.

#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/workload/browser_client.h"
#include "src/workload/testbed.h"

namespace {

// Merges one named stage histogram across every instance label in the
// registry (resampled through the per-instance CDFs).
sim::Histogram MergedHistogram(const obs::Registry& reg, const std::string& name) {
  sim::Histogram merged;
  reg.ForEach([&](const obs::Registry::Row& row) {
    if (row.histogram == nullptr || *row.name != name) {
      return;
    }
    for (auto [value, frac] : row.histogram->Cdf(200)) {
      merged.Add(value);
    }
  });
  return merged;
}

std::uint64_t SummedCounter(const obs::Registry& reg, const std::string& name) {
  std::uint64_t total = 0;
  reg.ForEach([&](const obs::Registry::Row& row) {
    if (row.counter != nullptr && *row.name == name) {
      total += row.counter->value();
    }
  });
  return total;
}

workload::TestbedConfig SmallObjectConfig() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.baseline_proxies = 4;
  cfg.backends = 8;
  cfg.clients = 8;
  cfg.kv_servers = 3;
  // 10 KB objects only (the paper's stress case for connection machinery).
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 10'000;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = 9'800;
  cfg.catalog.max_size = 10'200;
  return cfg;
}

struct Run {
  double e2e_ms = 0;
  double connection_ms = 0;
  double storage_ms = 0;
  double rule_scan_ms = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t flows_recorded = 0;
  std::string metrics_table;  // Registry snapshot (Yoda run only).
};

enum class Mode { kBaseline, kYoda, kHaproxy };

Run RunMode(Mode mode, double rate, sim::Duration duration) {
  workload::Testbed tb(SmallObjectConfig());
  tb.DefineDefaultVipAndStart();
  tb.InstallProxyRules(tb.EqualSplitRules(0, tb.cfg.backends));

  sim::Rng rng(77);
  sim::Histogram e2e;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::vector<std::string> urls;
  for (const auto& o : tb.catalog->objects()) {
    urls.push_back(o.url);
  }

  // Open-loop request stream; each request picks its target by mode.
  std::function<void(sim::Time)> schedule = [&](sim::Time when) {
    if (when > duration) {
      return;
    }
    tb.SimFor(0)->At(when, [&]() {
      auto* client =
          tb.clients[static_cast<std::size_t>(rng.UniformInt(
                         0, static_cast<std::int64_t>(tb.clients.size()) - 1))].get();
      net::IpAddr target = 0;
      switch (mode) {
        case Mode::kBaseline:
          target = tb.backend_ip(static_cast<int>(rng.UniformInt(0, tb.cfg.backends - 1)));
          break;
        case Mode::kYoda:
          target = tb.vip();
          break;
        case Mode::kHaproxy:
          target = tb.proxy_ip(
              static_cast<int>(rng.UniformInt(0, tb.cfg.baseline_proxies - 1)));
          break;
      }
      const std::string& url = urls[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(urls.size()) - 1))];
      client->FetchObject(target, 80, url, {}, [&](const workload::FetchResult& r) {
        if (r.ok) {
          ++completed;
          e2e.Add(sim::ToMillis(r.latency));
        } else {
          ++failed;
        }
      });
      schedule(tb.sim.now() + sim::FromSeconds(rng.Exponential(1.0 / rate)));
    });
  };
  schedule(sim::Msec(1));
  tb.sim.Run();

  Run out;
  out.e2e_ms = e2e.Percentile(50);
  out.completed = completed;
  out.failed = failed;
  if (mode == Mode::kYoda) {
    // The decomposition comes from the pipeline's own stage histograms,
    // recorded at stage boundaries inside the instances (no bench-local
    // timers, no trace reconstruction): connection is the dispatcher's
    // selection -> request-forwarded window, storage is the blocking
    // ACK-point TCPStore waits timed by StoreSession, rule scan is the
    // header-complete -> server-SYN dispatch window.
    out.connection_ms = MergedHistogram(tb.metrics, "yoda.connection_phase_ms").Percentile(50);
    out.storage_ms = MergedHistogram(tb.metrics, "yoda.stage.store_ms").Percentile(50);
    out.rule_scan_ms = MergedHistogram(tb.metrics, "yoda.stage.dispatch_ms").Percentile(50);
    out.flows_recorded = SummedCounter(tb.metrics, "yoda.flows_completed");
    out.metrics_table = tb.metrics.TextTable();
  } else if (mode == Mode::kHaproxy) {
    sim::Histogram conn;
    for (auto& p : tb.proxies) {
      for (auto [v, f] : p->connection_phase_ms().Cdf(200)) {
        conn.Add(v);
      }
    }
    out.connection_ms = conn.Percentile(50);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Figure 9: latency breakdown, 10 KB objects ===\n");
  std::printf("Paper medians: baseline 133 ms | HAProxy 144 ms (conn 8) | "
              "Yoda 151 ms (conn 10.4, storage 0.89, LB 8.2)\n\n");

  // 50K req/s across 10 instances in the paper; scaled to this testbed.
  const double kRate = 300.0;
  const sim::Duration kDuration = sim::Sec(8);

  Run base = RunMode(Mode::kBaseline, kRate, kDuration);
  Run yoda = RunMode(Mode::kYoda, kRate, kDuration);
  Run haproxy = RunMode(Mode::kHaproxy, kRate, kDuration);

  const double yoda_lb = yoda.e2e_ms - base.e2e_ms - yoda.connection_ms - yoda.storage_ms;
  const double ha_lb = haproxy.e2e_ms - base.e2e_ms - haproxy.connection_ms;

  std::printf("%-26s %-10s %-10s %-10s\n", "component (median ms)", "baseline", "haproxy",
              "yoda");
  std::printf("%-26s %-10.1f %-10.1f %-10.1f\n", "end-to-end", base.e2e_ms, haproxy.e2e_ms,
              yoda.e2e_ms);
  std::printf("%-26s %-10s %-10.2f %-10.2f\n", "connection", "-", haproxy.connection_ms,
              yoda.connection_ms);
  std::printf("%-26s %-10s %-10s %-10.2f\n", "storage (TCPStore)", "-", "0", yoda.storage_ms);
  std::printf("%-26s %-10s %-10s %-10.2f\n", "rule scan (in connection)", "-", "-",
              yoda.rule_scan_ms);
  std::printf("%-26s %-10s %-10.2f %-10.2f\n", "LB processing (derived)", "-", ha_lb, yoda_lb);
  std::printf("\ncompleted: base=%llu yoda=%llu haproxy=%llu | failed: %llu/%llu/%llu\n",
              static_cast<unsigned long long>(base.completed),
              static_cast<unsigned long long>(yoda.completed),
              static_cast<unsigned long long>(haproxy.completed),
              static_cast<unsigned long long>(base.failed),
              static_cast<unsigned long long>(yoda.failed),
              static_cast<unsigned long long>(haproxy.failed));

  std::printf("\n(components from the pipeline stage histograms across %llu completed flows)\n",
              static_cast<unsigned long long>(yoda.flows_recorded));

  std::printf("\n%-44s %-10s %-10s\n", "headline metric", "paper", "measured");
  std::printf("%-44s %-10s %-10.2f\n", "storage overhead of decoupling (ms)", "0.89",
              yoda.storage_ms);
  std::printf("%-44s %-10s %-10.1f\n", "Yoda extra latency vs HAProxy (ms)", "~7",
              yoda.e2e_ms - haproxy.e2e_ms);

  std::printf("\n--- metrics registry snapshot (Yoda run) ---\n%s",
              yoda.metrics_table.c_str());
  return 0;
}
