// SSL termination demo (§5.2): an HTTPS service behind the Yoda VIP.
//
// The Yoda instances hold the certificate, answer the (deterministic)
// handshake, decrypt the request to pick a backend, hand the session to the
// backend with a sealed ticket, and then tunnel ciphertext at L3. The demo
// kills the terminating instance right after it sends the certificate —
// the survivor replays the identical flight and the download still works.
//
// Build & run:  ./build/examples/ssl_termination

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
  constexpr std::uint64_t kServiceKey = 0x7ea1;
  const char kCert[] = "-----BEGIN CERT shop.example.com-----";

  workload::TestbedConfig cfg;
  cfg.yoda_instances = 3;
  cfg.backends = 4;
  cfg.server_template.tls_service_key = kServiceKey;
  workload::Testbed tb(cfg);
  tb.DefineDefaultVipAndStart();
  for (auto& inst : tb.instances) {
    inst->InstallVipTls(tb.vip(), kCert, kServiceKey);
  }

  // Show that nothing readable crosses the wire after the handshake.
  long encrypted_payloads = 0;
  long plaintext_sightings = 0;
  const auto taps = TapEveryNode(tb, [&](const net::Packet& p) {
    if (p.payload.empty() || p.encap_dst != 0) {
      return;
    }
    if (p.payload.find("HTTP/1.") != std::string::npos) {
      ++plaintext_sightings;
    } else {
      ++encrypted_payloads;
    }
  });

  const workload::WebObject* obj = nullptr;
  for (const auto& o : tb.catalog->objects()) {
    if (o.size > 100'000) {
      obj = &o;
      break;
    }
  }
  workload::FetchOptions opts;
  opts.use_tls = true;
  workload::FetchResult result;
  bool done = false;
  std::printf("HTTPS GET https://shop.example.com%s (%zu bytes) via VIP %s\n\n", obj->url.c_str(),
              obj->size, net::IpToString(tb.vip()).c_str());
  tb.clients[0]->FetchObject(tb.vip(), 80, obj->url, opts,
                             [&](const workload::FetchResult& r) {
                               result = r;
                               done = true;
                             });

  // Kill the terminating instance just after the certificate goes out.
  tb.sim.RunUntil(sim::Msec(101));
  for (std::size_t i = 0; i < tb.instances.size(); ++i) {
    if (tb.instances[i]->active_flows() > 0) {
      std::printf("t=%.0f ms: certificate in flight — CRASHING instance %s\n",
                  sim::ToMillis(tb.sim.now()),
                  net::IpToString(tb.instances[i]->ip()).c_str());
      tb.CrashInstance(static_cast<int>(i));
      break;
    }
  }
  tb.sim.Run();

  std::printf("\nresult: ok=%d bytes=%zu latency=%.0f ms retries=%d\n", result.ok, result.bytes,
              sim::ToMillis(result.latency), result.retries_used);
  std::printf("certificate presented: %s\n", result.tls_certificate.c_str());
  std::printf("wire audit: %ld encrypted data packets, %ld plaintext HTTP sightings\n",
              encrypted_payloads, plaintext_sightings);
  tb.PrintMetricsSnapshot();
  return result.ok && plaintext_sightings == 0 ? 0 : 1;
}
