// Quickstart: stand up the whole Yoda service and push one HTTP request
// through it, printing every packet so the two-phase data path (connection
// phase, then L3 tunneling with sequence translation) is visible.
//
//   clients --(VIP)--> L4 muxes --> Yoda instances <--> TCPStore
//                                        |
//                                   backend pool
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "src/workload/testbed.h"

namespace {

// Puts a net::TapNode in front of every address that receives packets: the
// VIP, the instances, the backends and the clients.
std::vector<std::unique_ptr<net::TapNode>> TapEveryNode(
    workload::Testbed& tb, const std::function<void(const net::Packet&)>& see) {
  std::vector<std::unique_ptr<net::TapNode>> taps;
  auto tap = [&](net::IpAddr ip, net::Node* node, net::Region region) {
    taps.push_back(std::make_unique<net::TapNode>(node, see));
    tb.network.Attach(ip, taps.back().get(), region);
  };
  tap(tb.vip(), &tb.fabric, net::Region::kDatacenter);
  for (auto& inst : tb.instances) {
    tap(inst->ip(), inst.get(), net::Region::kDatacenter);
  }
  for (auto& srv : tb.servers) {
    tap(srv->ip(), srv.get(), net::Region::kDatacenter);
  }
  for (auto& c : tb.clients) {
    tap(c->ip(), c.get(), net::Region::kInternet);
  }
  return taps;
}

}  // namespace

int main() {
  workload::TestbedConfig cfg;
  cfg.yoda_instances = 2;
  cfg.backends = 3;
  cfg.kv_servers = 2;
  cfg.clients = 1;
  cfg.catalog.objects = 20;
  cfg.catalog.median_size = 4'000;
  cfg.catalog.min_size = 2'000;
  cfg.catalog.max_size = 8'000;
  workload::Testbed tb(cfg);

  // One VIP, equal split across the three backends, monitor running.
  tb.DefineDefaultVipAndStart();

  std::printf("topology: VIP %s -> %d Yoda instances -> %d backends; %d TCPStore servers\n\n",
              net::IpToString(tb.vip()).c_str(), cfg.yoda_instances, cfg.backends,
              cfg.kv_servers);

  // Print the packet flow as each packet arrives (skip bare ACKs to keep it
  // readable).
  const auto taps = TapEveryNode(tb, [&tb](const net::Packet& p) {
    if (p.flags == net::kAck && p.payload.empty()) {
      return;
    }
    std::printf("%9.2f ms  %s%s\n", sim::ToMillis(tb.sim.now()), p.ToString().c_str(),
                p.encap_dst != 0 ? "  [via L4 mux]" : "");
  });

  const workload::WebObject& obj = tb.catalog->objects()[0];
  std::printf("client fetches http://mysite.com%s (%zu bytes)\n\n", obj.url.c_str(), obj.size);

  tb.clients[0]->FetchObject(tb.vip(), 80, obj.url, {}, [&](const workload::FetchResult& r) {
    std::printf("\nresult: ok=%d status=%d bytes=%zu latency=%.1f ms\n", r.ok, r.status,
                r.bytes, sim::ToMillis(r.latency));
  });
  tb.sim.Run();

  // Show where the flow state lived while the flow was active (every
  // instance's TCPStore client counts into the registry's tcpstore.*).
  std::printf("\nTCPStore activity: %llu connection writes, %llu tunneling writes, "
              "%llu lookups\n",
              static_cast<unsigned long long>(
                  tb.metrics.GetCounter("tcpstore.connection_writes").value()),
              static_cast<unsigned long long>(
                  tb.metrics.GetCounter("tcpstore.tunneling_writes").value()),
              static_cast<unsigned long long>(tb.metrics.GetCounter("tcpstore.lookups").value()));
  for (auto& inst : tb.instances) {
    std::printf("instance %s: %llu flows, %llu packets tunneled\n",
                net::IpToString(inst->ip()).c_str(),
                static_cast<unsigned long long>(inst->stats().flows_started),
                static_cast<unsigned long long>(inst->stats().packets_tunneled));
  }
  tb.PrintMetricsSnapshot();
  return 0;
}
