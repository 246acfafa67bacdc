// HAProxy-style baseline L7 proxy (paper §2.2-2.3).
//
// The architecture Yoda is compared against: each proxy instance terminates
// the client TCP connection at its *own* IP (traffic is split across proxy
// instances DNS-style), reads the HTTP request, selects a backend with the
// same rule engine, opens a second connection from its own IP, and splices
// bytes between the two sockets. All flow state is ordinary in-memory TCP
// state — when the instance dies, both connections die with it, the client
// hangs until its HTTP timeout, and nothing can take the flow over. That is
// the single-point-of-failure behaviour of Table 1 / Fig 12.

#ifndef SRC_BASELINE_PROXY_INSTANCE_H_
#define SRC_BASELINE_PROXY_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/cpu_model.h"
#include "src/http/parser.h"
#include "src/net/network.h"
#include "src/net/tcp_endpoint.h"
#include "src/rules/rule_table.h"
#include "src/sim/random.h"

namespace baseline {

struct ProxyConfig {
  net::IpAddr ip = 0;
  net::Port port = 80;
  yoda::CpuCosts cpu_costs = yoda::HaproxyKernelCosts();
  double cores = 1.0;
  sim::Duration rule_scan_base_delay = sim::Usec(300);
  sim::Duration rule_scan_per_rule_delay = sim::Nsec(900);
  net::TcpConfig tcp;
};

struct ProxyStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_proxied = 0;
  std::uint64_t backend_connects = 0;
  std::uint64_t no_backend_resets = 0;
  std::uint64_t spliced_bytes = 0;
};

class ProxyInstance : public net::Node {
 public:
  ProxyInstance(sim::Simulator* simulator, net::Network* network, std::uint64_t seed,
                ProxyConfig config);
  ~ProxyInstance() override;

  net::IpAddr ip() const { return cfg_.ip; }

  void InstallRules(std::vector<rules::Rule> proxy_rules);
  void SetBackendHealth(net::IpAddr backend, bool healthy);

  // Crash: every in-flight connection's state is destroyed (no FIN/RST goes
  // out — the host is gone). The caller also marks the node down.
  void Fail();
  void Recover();
  bool failed() const { return failed_; }

  void HandlePacket(const net::Packet& packet) override;
  // Cold restart (Network::RestartNode): the process comes back empty.
  void OnColdRestart() override { Fail(); Recover(); }

  yoda::CpuModel& cpu() { return cpu_; }
  const ProxyStats& stats() const { return stats_; }
  std::size_t active_connections() const { return conns_.size(); }

  // Accept -> backend-connected duration (Fig 9's "Connection" component).
  sim::Histogram& connection_phase_ms() { return connection_phase_ms_; }

 private:
  struct Splice {
    sim::Time accepted = 0;
    std::unique_ptr<net::TcpEndpoint> client_ep;
    std::unique_ptr<net::TcpEndpoint> server_ep;
    http::RequestParser parser;
    bool server_connected = false;
    std::string to_server;  // Bytes awaiting the backend connection.
    bool client_closed = false;
    bool server_closed = false;
  };

  void AcceptClient(const net::Packet& syn);
  void OnClientData(std::uint64_t id, const net::Payload& bytes);
  void ConnectBackend(std::uint64_t id, const rules::Backend& backend);
  void MaybeGarbageCollect(std::uint64_t id);

  sim::Simulator* sim_;
  net::Network* net_;
  sim::Rng rng_;
  ProxyConfig cfg_;
  yoda::CpuModel cpu_;
  bool failed_ = false;

  rules::RuleTable table_;
  rules::StickyTable sticky_;
  std::unordered_map<net::IpAddr, bool> backend_health_;
  std::unordered_map<net::IpAddr, int> backend_load_;

  std::uint64_t next_id_ = 1;
  net::Port next_ephemeral_ = 20000;
  std::unordered_map<std::uint64_t, std::unique_ptr<Splice>> conns_;
  // Tuple of incoming packets -> connection id, for both sides.
  std::unordered_map<net::FiveTuple, std::uint64_t, net::FiveTupleHash> demux_;

  ProxyStats stats_;
  sim::Histogram connection_phase_ms_;
};

}  // namespace baseline

#endif  // SRC_BASELINE_PROXY_INSTANCE_H_
