// Store-mode comparison bench: the same Fig 13-shaped testbed under the same
// open-loop load, once per store mode, measuring what the stateless fast
// path buys:
//
//   sets_per_request_{stateful,stateless}  — synchronous TCPStore ops per
//       completed request (the paper's tax is 3: storage-a, storage-b,
//       remove; the stateless contract is EXACTLY 0);
//   e2e_flows_per_sec_{stateful,stateless} — wall-clock throughput;
//   journal_flushes_stateless              — write-behind batches that
//       replaced the demoted ACK-point writes.
//
// With --scale10 it adds the Fig 11-style headroom runs (10x request rate)
// and reports cpu_headroom_x10 = stateless/stateful wall-clock throughput at
// 10x — the CPU the store tax was costing.
//
// Results land in BENCH_store_modes.json. `--baseline FILE` turns the binary
// into a CI gate:
//   - sets_per_request_stateless must be exactly 0 (hard contract, baseline
//     or not);
//   - e2e_flows_per_sec_stateless must stay above 1/2 the checked-in
//     baseline value.
//
// Flags: --out FILE | --baseline FILE | --scale10

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/flow_state.h"
#include "src/workload/testbed.h"

namespace {

double WallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

workload::TestbedConfig Fig13Config() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 6;
  cfg.backends = 10;
  cfg.clients = 10;
  cfg.kv_servers = 4;
  cfg.catalog.objects = 60;
  cfg.catalog.median_size = 10'000;
  cfg.catalog.sigma = 0.02;
  cfg.catalog.min_size = 9'800;
  cfg.catalog.max_size = 10'200;
  return cfg;
}

struct ModeRun {
  double flows_per_sec = 0;
  double flows = 0;
  double sync_ops = 0;          // ACK-point writes + synchronous removes.
  double sets_per_request = 0;  // sync_ops / completed flows.
  double journal_appends = 0;
  double journal_flushes = 0;
};

// One open-loop run at `scale` x 1500 req/s with the VIP in `mode`.
ModeRun RunMode(yoda::StoreMode mode, int scale) {
  workload::Testbed tb(Fig13Config());
  tb.DefineDefaultVipAndStart();
  if (mode == yoda::StoreMode::kStateless) {
    tb.controller->SetStoreMode(tb.vip(), yoda::StoreMode::kStateless);
    tb.sim.RunUntil(tb.sim.now() + sim::Msec(300));  // Make-before-break rollout.
  }

  sim::Rng rng(5);
  std::vector<std::string> urls;
  for (const auto& o : tb.catalog->objects()) {
    urls.push_back(o.url);
  }
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  const double rate = 1500.0 * scale;
  const sim::Time end = tb.sim.now() + sim::Sec(5);
  std::function<void(sim::Time)> schedule = [&](sim::Time when) {
    if (when > end) {
      return;
    }
    tb.SimFor(0)->At(when, [&]() {
      auto* client =
          tb.clients[static_cast<std::size_t>(rng.UniformInt(
                         0, static_cast<std::int64_t>(tb.clients.size()) - 1))].get();
      const std::string& url = urls[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(urls.size()) - 1))];
      client->FetchObject(tb.vip(), 80, url, {}, [&](const workload::FetchResult& r) {
        if (r.ok) {
          ++ok;
        } else {
          ++failed;
        }
      });
      schedule(tb.sim.now() + sim::FromSeconds(rng.Exponential(1.0 / rate)));
    });
  };
  const auto t0 = std::chrono::steady_clock::now();
  schedule(tb.sim.now() + sim::Msec(1));
  tb.sim.Run();
  const double wall = WallSeconds(t0);

  ModeRun r;
  r.flows = static_cast<double>(ok + failed);
  r.flows_per_sec = r.flows / wall;
  for (const auto& inst : tb.instances) {
    const yoda::StoreSessionStats& st = inst->store_session().stats();
    r.sync_ops += static_cast<double>(st.ack_point_writes + st.sync_removes);
    r.journal_appends += static_cast<double>(st.journal_appends);
    r.journal_flushes += static_cast<double>(st.journal_flushes);
  }
  r.sets_per_request = r.flows > 0 ? r.sync_ops / r.flows : 0;
  std::printf(
      "  %s (x%d): %.0f flows (%llu ok) in %.3f s -> %.0f flows/s | "
      "%.0f sync store ops (%.2f sets/request), %.0f journal appends in %.0f flushes\n",
      yoda::StoreModeName(mode), scale, r.flows, static_cast<unsigned long long>(ok), wall,
      r.flows_per_sec, r.sync_ops, r.sets_per_request, r.journal_appends, r.journal_flushes);
  return r;
}

void WriteJson(const std::string& path, const std::map<std::string, double>& metrics) {
  std::ofstream out(path);
  out << "{\n";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    out << "  \"" << key << "\": " << buf;
  }
  out << "\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

std::map<std::string, double> ReadJson(const std::string& path) {
  std::map<std::string, double> m;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto q1 = line.find('"');
    if (q1 == std::string::npos) {
      continue;
    }
    const auto q2 = line.find('"', q1 + 1);
    const auto colon = line.find(':', q2);
    if (q2 == std::string::npos || colon == std::string::npos) {
      continue;
    }
    m[line.substr(q1 + 1, q2 - q1 - 1)] = std::atof(line.c_str() + colon + 1);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_store_modes.json";
  std::string baseline_path;
  bool scale10 = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scale10") == 0) {
      scale10 = true;
    } else {
      std::printf("usage: %s [--out FILE] [--baseline FILE] [--scale10]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== store_modes: stateful (3 sets/request) vs stateless fast path ===\n");
  std::map<std::string, double> metrics;
  const ModeRun stateful = RunMode(yoda::StoreMode::kStateful, 1);
  const ModeRun stateless = RunMode(yoda::StoreMode::kStateless, 1);
  metrics["e2e_flows_per_sec_stateful"] = stateful.flows_per_sec;
  metrics["e2e_flows_per_sec_stateless"] = stateless.flows_per_sec;
  metrics["sets_per_request_stateful"] = stateful.sets_per_request;
  metrics["sets_per_request_stateless"] = stateless.sets_per_request;
  metrics["journal_flushes_stateless"] = stateless.journal_flushes;
  metrics["sync_store_ops_stateless"] = stateless.sync_ops;

  if (scale10) {
    // Fig 11 angle: at 10x the store tax is the difference between keeping up
    // and falling behind; the ratio is the reclaimed CPU headroom.
    const ModeRun stateful10 = RunMode(yoda::StoreMode::kStateful, 10);
    const ModeRun stateless10 = RunMode(yoda::StoreMode::kStateless, 10);
    metrics["e2e_flows_per_sec_x10_stateful"] = stateful10.flows_per_sec;
    metrics["e2e_flows_per_sec_x10_stateless"] = stateless10.flows_per_sec;
    metrics["cpu_headroom_x10"] = stateful10.flows_per_sec > 0
                                      ? stateless10.flows_per_sec / stateful10.flows_per_sec
                                      : 0;
    std::printf("  cpu_headroom_x10: %.2fx\n", metrics["cpu_headroom_x10"]);
  }

  WriteJson(out_path, metrics);

  int failures = 0;
  // The tentpole contract gates unconditionally: the stateless fast path
  // issues ZERO synchronous store writes, not "few".
  if (stateless.sync_ops != 0) {
    std::printf("REGRESSION sets_per_request_stateless: %.0f sync store ops (want exactly 0)\n",
                stateless.sync_ops);
    ++failures;
  }
  if (stateful.sets_per_request < 2.5) {
    // Sanity: the stateful path still pays the paper's tax; ~3 modulo flows
    // cut off by end-of-run teardown batching.
    std::printf("REGRESSION sets_per_request_stateful: %.2f (want ~3)\n",
                stateful.sets_per_request);
    ++failures;
  }
  if (!baseline_path.empty()) {
    const auto base = ReadJson(baseline_path);
    auto it = base.find("e2e_flows_per_sec_stateless");
    if (it != base.end() && it->second > 0 &&
        stateless.flows_per_sec < it->second / 2.0) {
      std::printf("REGRESSION e2e_flows_per_sec_stateless: now %.1f vs baseline %.1f (<1/2)\n",
                  stateless.flows_per_sec, it->second);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("store-mode gate: OK (0 sync writes stateless, stateful tax intact)\n");
  }
  return failures == 0 ? 0 : 1;
}
