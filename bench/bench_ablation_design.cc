// Ablation studies of Yoda's design choices (beyond the paper's figures):
//
//  A. Monitor interval vs recovery time — the 600 ms failure-detection
//     period (§6) directly bounds how long affected flows stall.
//  B. TCPStore replication factor — the paper stores every flow on K=2
//     memcached servers; K=1 loses flows when a memcached server dies
//     together with (or before) the LB instance; K=2 survives.
//  C. SNAT return-path pinning — without the L4 SNAT pin, every server->VIP
//     packet can land on a non-owner instance and trigger TCPStore lookups;
//     with it, lookups happen only at failures.
//  D. Deterministic SYN-ACK ISN — modeled: storing the SYN-ACK state instead
//     would add one storage write on the SYN path (latency + TCPStore load).

#include <cstdio>
#include <functional>

#include "src/workload/testbed.h"

namespace {

const workload::WebObject* BigObject(const workload::Testbed& tb, std::size_t min_size) {
  for (const auto& o : tb.catalog->objects()) {
    if (o.size > min_size) {
      return &o;
    }
  }
  return nullptr;
}

int FindOwner(const workload::Testbed& tb) {
  for (std::size_t i = 0; i < tb.instances.size(); ++i) {
    if (tb.instances[i]->active_flows() > 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// --- A: monitor interval sweep -------------------------------------------

void MonitorIntervalSweep() {
  std::printf("--- A. failure-detection interval vs recovery cost ---\n");
  std::printf("%-18s %-16s %-16s %-10s\n", "interval (ms)", "no-fail (ms)", "with-fail (ms)",
              "added");
  for (sim::Duration interval :
       {sim::Msec(200), sim::Msec(600), sim::Msec(1200), sim::Msec(2400)}) {
    double base_ms = 0;
    double fail_ms = 0;
    for (int with_failure = 0; with_failure <= 1; ++with_failure) {
      workload::TestbedConfig cfg;
      cfg.yoda_instances = 4;
      cfg.controller.monitor_interval = interval;
      workload::Testbed tb(cfg);
      tb.DefineDefaultVipAndStart();
      const workload::WebObject* obj = BigObject(tb, 150'000);
      bool ok = false;
      sim::Duration latency = 0;
      tb.clients[0]->FetchObject(tb.vip(), 80, obj->url, {},
                                 [&](const workload::FetchResult& r) {
                                   ok = r.ok;
                                   latency = r.latency;
                                 });
      if (with_failure != 0) {
        tb.sim.RunUntil(sim::Msec(180));
        const int owner = FindOwner(tb);
        if (owner >= 0) {
          tb.CrashInstance(owner);
        }
      }
      tb.sim.Run();
      if (!ok) {
        std::printf("%-18lld BROKEN FLOW\n",
                    static_cast<long long>(sim::ToMillis(interval)));
        continue;
      }
      (with_failure != 0 ? fail_ms : base_ms) = sim::ToMillis(latency);
    }
    std::printf("%-18.0f %-16.0f %-16.0f +%.0f ms\n", sim::ToMillis(interval), base_ms,
                fail_ms, fail_ms - base_ms);
  }
  std::printf("(recovery = retransmission backoff + detection; the paper's 600 ms monitor\n"
              " keeps it within one extra RTO cycle)\n\n");
}

// --- B: TCPStore replication factor --------------------------------------

void ReplicationFactorStudy() {
  std::printf("--- B. TCPStore replication vs double failure ---\n");
  std::printf("%-12s %-34s\n", "replicas", "flow outcome (kv + LB die mid-flow)");
  for (int replicas : {1, 2, 3}) {
    workload::TestbedConfig cfg;
    cfg.yoda_instances = 4;
    cfg.kv_servers = 4;
    cfg.kv_replicas = replicas;
    workload::Testbed tb(cfg);
    tb.DefineDefaultVipAndStart();
    const workload::WebObject* obj = BigObject(tb, 150'000);
    bool done = false;
    bool ok = false;
    tb.clients[0]->FetchObject(tb.vip(), 80, obj->url, {},
                               [&](const workload::FetchResult& r) {
                                 done = true;
                                 ok = r.ok;
                               });
    tb.sim.RunUntil(sim::Msec(180));
    // Kill the kv server holding the flow's first replica, then the LB.
    const std::string ckey = yoda::ClientFlowKey(
        tb.vip(), 80, tb.client_ip(0),
        0);  // Key unknown without the port; kill by scanning instead.
    // Find the replica(s) holding any flow state and kill the first.
    for (auto& kv : tb.kv_servers) {
      if (kv->item_count() > 0) {
        kv->Fail();
        break;
      }
    }
    const int owner = FindOwner(tb);
    if (owner >= 0) {
      tb.CrashInstance(owner);
    }
    tb.sim.Run();
    std::printf("%-12d %-34s\n", replicas,
                !done ? "no result (hung)" : (ok ? "survived" : "BROKEN (state lost)"));
  }
  std::printf("(K=1 has no copy left once the holding memcached dies; K>=2 recovers —\n"
              " exactly why TCPStore replicates client-side)\n\n");
}

// --- C: SNAT pinning ------------------------------------------------------

void SnatPinningStudy() {
  std::printf("--- C. SNAT return-path pinning ---\n");
  std::printf("%-10s %-22s %-22s\n", "pinning", "TCPStore lookups", "server-side takeovers");
  for (int enabled = 1; enabled >= 0; --enabled) {
    workload::TestbedConfig cfg;
    cfg.yoda_instances = 4;
    workload::Testbed tb(cfg);
    tb.fabric.set_snat_enabled(enabled != 0);
    tb.DefineDefaultVipAndStart();
    int ok = 0;
    int done = 0;
    for (int i = 0; i < 20; ++i) {
      tb.clients[static_cast<std::size_t>(i) % tb.clients.size()]->FetchObject(
          tb.vip(), 80, tb.catalog->objects()[static_cast<std::size_t>(i)].url, {},
          [&](const workload::FetchResult& r) {
            ++done;
            ok += r.ok ? 1 : 0;
          });
    }
    tb.sim.Run();
    std::uint64_t takeovers = 0;
    for (auto& inst : tb.instances) {
      takeovers += inst->stats().takeovers_server_side;
    }
    std::printf("%-10s %-22llu %-22llu (%d/%d ok)\n", enabled != 0 ? "on" : "off",
                static_cast<unsigned long long>(
                    tb.metrics.GetCounter("tcpstore.lookups").value()),
                static_cast<unsigned long long>(takeovers), ok, done);
    if (enabled == 0) {
      tb.PrintMetricsSnapshot("metrics registry snapshot (SNAT-off run)");
    }
  }
  std::printf("(without the pin the server's SYN-ACK sprays to instances that cannot yet\n"
              " find the flow — the reverse key only exists after storage-b, which the\n"
              " initiating instance can't reach without the SYN-ACK. Most connections\n"
              " fail: pinning is essential to the design, not an optimization)\n\n");
}

// --- D: deterministic ISN (modeled) ---------------------------------------

void DeterministicIsnModel() {
  std::printf("--- D. deterministic SYN-ACK ISN (modeled) ---\n");
  // With the hash-derived ISN, the SYN path performs 1 blocking write
  // (storage-a). Storing a random ISN would add a second blocking write
  // before the SYN-ACK and a third key on takeover.
  const double set_ms = 0.42;  // Measured median (Fig 10 bench).
  std::printf("%-34s %-16s %-16s\n", "metric", "deterministic", "stored ISN");
  std::printf("%-34s %-16.2f %-16.2f\n", "SYN-path blocking writes", 1.0, 2.0);
  std::printf("%-34s %-16.2f %-16.2f\n", "SYN-ACK delay from storage (ms)", set_ms,
              2 * set_ms);
  std::printf("%-34s %-16.0f %-16.0f\n", "TCPStore ops per request", 3.0, 4.0);
  std::printf("%-34s %-16.1f %-16.1f\n", "Yoda instances per kv server",
              80'000.0 / (3 * 12'000.0) * 3, 80'000.0 / (4 * 12'000.0) * 3);
  std::printf("(hashing the client tuple removes a third of the TCPStore load and half the\n"
              " pre-SYN-ACK storage latency)\n");
}

}  // namespace

int main() {
  std::printf("=== Ablations of Yoda design choices ===\n\n");
  MonitorIntervalSweep();
  ReplicationFactorStudy();
  SnatPinningStudy();
  DeterministicIsnModel();
  return 0;
}
