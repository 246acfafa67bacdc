// Hardening delta: quantifies the two failure-path mitigations this repo
// adds on top of the paper's design, each against its un-hardened baseline.
//
// (1) Monitor hysteresis on a lossy probe path. An instance whose packets
//     drop with p=0.20 (a gray, lossy NIC — not a dead host) is monitored
//     with fail-after-1-miss (paper default) vs fail-after-3-misses.
//     Hysteresis keeps the instance pooled almost all of the time; the
//     trigger-happy monitor flaps it in and out continuously.
//
// (2) Hedged reads against a degraded TCPStore replica. Keys whose primary
//     replica is dead (or merely slow) pay the full op timeout under
//     sequential reads; a hedge after a few ms of silence cuts the tail
//     to roughly the hedge delay. Fan-out reads bound the tail too but pay
//     double the request load on every read, degraded or not.

#include <cstdio>
#include <string>
#include <vector>

#include "src/fault/fault_plane.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/sim/sharded_sim.h"
#include "src/workload/testbed.h"

namespace {

// --- Section 1: hysteresis vs flapping on a lossy instance. ---

struct LossyResult {
  std::uint64_t failures = 0;
  std::uint64_t readmissions = 0;
  int pooled_samples = 0;
  int samples = 0;
};

LossyResult RunLossyInstance(int fail_after_misses) {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 4;
  cfg.backends = 4;
  cfg.controller.monitor_interval = sim::Msec(100);
  cfg.controller.fail_after_misses = fail_after_misses;
  cfg.controller.readmit_instances = true;
  cfg.controller.readmit_after_successes = 2;
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();

  // Instance 0's NIC goes gray: every packet (health probes included) is
  // dropped with p=0.20. The host is NOT dead — most requests still succeed.
  tb.faults->SetNodeLoss(tb.instance_ip(0), 0.20);

  LossyResult out;
  const net::IpAddr lossy = tb.instance_ip(0);
  for (int s = 0; s < 300; ++s) {
    tb.sim.RunUntil(tb.sim.now() + sim::Msec(100));
    ++out.samples;
    for (yoda::YodaInstance* inst : tb.controller->ActiveInstances()) {
      if (inst->ip() == lossy) {
        ++out.pooled_samples;
        break;
      }
    }
  }
  out.failures = tb.controller->detected_failures();
  out.readmissions = tb.controller->readmissions();
  return out;
}

// --- Section 2: degraded-mode TCPStore reads. ---

struct ReadResult {
  sim::Histogram latency_ms;
  kv::ClientOpStats stats;
};

// `degradation`: 0 = replica 0 dead, otherwise replica 0 answers late by
// this duration (still within the op timeout).
ReadResult RunDegradedReads(kv::ReadMode mode, sim::Duration degradation) {
  sim::ShardedSim engine({.shards = 1});
  sim::Simulator& simulator = engine.shard(0);
  std::vector<std::unique_ptr<kv::KvServer>> servers;
  std::vector<kv::KvServer*> raw;
  for (int i = 0; i < 5; ++i) {
    servers.push_back(std::make_unique<kv::KvServer>(&simulator, "kv-" + std::to_string(i)));
    raw.push_back(servers.back().get());
  }
  kv::ReplicatingClientConfig wcfg;
  wcfg.replicas = 2;
  kv::ReplicatingClient writer(&simulator, raw, wcfg);
  const int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    writer.Set("obj-" + std::to_string(i), "v", [](bool) {});
  }
  simulator.Run();

  if (degradation == 0) {
    servers[0]->Fail();  // Dead: never answers (contents are gone with it).
  } else {
    servers[0]->set_response_delay(degradation);  // Slow: answers, but late.
  }

  kv::ReplicatingClientConfig rcfg;
  rcfg.replicas = 2;
  rcfg.op_timeout = sim::Msec(30);
  rcfg.read_mode = mode;
  rcfg.hedge_delay = sim::Msec(3);
  kv::ReplicatingClient reader(&simulator, raw, rcfg);

  ReadResult out;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    // Staggered issue so each Get's latency is measured in isolation.
    simulator.After(sim::Msec(i), [&, key]() {
      const sim::Time start = simulator.now();
      reader.Get(key, [&, start](std::optional<std::string> v) {
        if (v) {
          out.latency_ms.Add(sim::ToMillis(simulator.now() - start));
        }
      });
    });
  }
  simulator.Run();
  out.stats = reader.stats();
  return out;
}

const char* ModeName(kv::ReadMode mode) {
  switch (mode) {
    case kv::ReadMode::kSingle:
      return "single (timeout-only)";
    case kv::ReadMode::kHedged:
      return "hedged (3 ms)";
    case kv::ReadMode::kFanout:
      return "fanout";
  }
  return "?";
}

void PrintReadRow(kv::ReadMode mode, ReadResult& r) {
  std::printf("%-22s %8.2f %8.2f %8.2f | hedged %4llu  wins %4llu  replica-timeouts %4llu\n",
              ModeName(mode), r.latency_ms.Percentile(50), r.latency_ms.Percentile(99),
              r.latency_ms.Max(), static_cast<unsigned long long>(r.stats.hedged_gets),
              static_cast<unsigned long long>(r.stats.hedge_wins),
              static_cast<unsigned long long>(r.stats.replica_timeouts));
}

}  // namespace

int main() {
  std::printf("=== Hardening delta 1: monitor hysteresis on a 20%%-lossy instance ===\n");
  std::printf("30 s of 100 ms monitor ticks; instance 0's packets drop with p=0.20.\n\n");
  std::printf("%-24s %10s %12s %16s\n", "monitor", "failures", "readmissions",
              "pooled (of 300)");
  for (int misses : {1, 3}) {
    LossyResult r = RunLossyInstance(misses);
    std::printf("fail after %d miss%-7s %10llu %12llu %11d/%d\n", misses,
                misses == 1 ? "" : "es", static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.readmissions), r.pooled_samples, r.samples);
  }
  std::printf("\n(expected: 1-miss flaps the instance a dozen times; 3-miss hysteresis\n"
              " requires three consecutive 20%% losses per removal, ~0.8%% per tick, and the\n"
              " flap-suppression penalty stretches each readmission streak.)\n");

  std::printf("\n=== Hardening delta 2: degraded-mode TCPStore reads (400 keys, 2 replicas) ===\n");
  std::printf("\n--- replica kv-0 DEAD (never answers; op timeout 30 ms) ---\n");
  std::printf("%-22s %8s %8s %8s\n", "read mode", "p50 ms", "p99 ms", "max ms");
  for (kv::ReadMode mode :
       {kv::ReadMode::kSingle, kv::ReadMode::kHedged, kv::ReadMode::kFanout}) {
    ReadResult r = RunDegradedReads(mode, 0);
    PrintReadRow(mode, r);
  }
  std::printf("\n--- replica kv-0 SLOW (answers after 20 ms; op timeout 30 ms) ---\n");
  std::printf("%-22s %8s %8s %8s\n", "read mode", "p50 ms", "p99 ms", "max ms");
  for (kv::ReadMode mode :
       {kv::ReadMode::kSingle, kv::ReadMode::kHedged, kv::ReadMode::kFanout}) {
    ReadResult r = RunDegradedReads(mode, sim::Msec(20));
    PrintReadRow(mode, r);
  }
  std::printf("\n(expected: single-read tails sit at the timeout/slowness; hedging cuts the\n"
              " tail to ~hedge-delay + RTT while only hedging the degraded keys; fanout\n"
              " matches the hedged tail but doubles read load on every key.)\n");
  return 0;
}
