// Backend HTTP server (the paper's Apache-on-a-VM backends).
//
// A full TCP endpoint per connection plus an HTTP request loop: parse a
// request, look the object up in the catalog, reply after a configurable
// processing delay, honour keep-alive. It never knows whether it is talking
// to a client, a proxy, or the VIP — with Yoda in front, the peer address is
// always the VIP.

#ifndef SRC_WORKLOAD_HTTP_SERVER_NODE_H_
#define SRC_WORKLOAD_HTTP_SERVER_NODE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/http/parser.h"
#include "src/net/network.h"
#include "src/net/tcp_endpoint.h"
#include "src/sim/random.h"
#include "src/tls/tls.h"
#include "src/workload/object_catalog.h"

namespace workload {

struct HttpServerConfig {
  net::IpAddr ip = 0;
  net::Port port = 80;
  sim::Duration processing_delay = sim::Msec(1);
  net::TcpConfig tcp;
  // Non-zero: accept TLS sessions handed over by the LB via session tickets
  // sealed under this fleet-wide service key (§5.2 SSL termination).
  std::uint64_t tls_service_key = 0;
};

struct HttpServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t not_found = 0;
  std::uint64_t bytes_sent = 0;
};

class HttpServerNode : public net::Node {
 public:
  HttpServerNode(sim::Simulator* simulator, net::Network* network, const ObjectCatalog* catalog,
                 std::uint64_t seed, HttpServerConfig config);
  ~HttpServerNode() override;

  net::IpAddr ip() const { return cfg_.ip; }

  void Fail();
  void Recover();
  bool failed() const { return failed_; }
  // Cold restart (Network::RestartNode): connections are gone, server is up.
  void OnColdRestart() override;

  // Per-server tuning (e.g. a deliberately slow replica in mirroring tests).
  void set_processing_delay(sim::Duration d) { cfg_.processing_delay = d; }

  void HandlePacket(const net::Packet& packet) override;

  const HttpServerStats& stats() const { return stats_; }
  // Requests served since the last drain (Fig 14 measures per-server share).
  std::uint64_t DrainRequestCounter();

 private:
  struct Conn {
    std::unique_ptr<net::TcpEndpoint> ep;
    http::RequestParser parser;
    // TLS session (joined via ticket). Unset on plaintext connections.
    bool tls = false;
    bool tls_ready = false;
    std::uint64_t tls_key = 0;
    tls::RecordReader tls_reader;
    std::uint64_t tls_in_offset = 0;
    std::uint64_t tls_out_offset = 0;
  };

  void Accept(const net::Packet& syn);
  void Serve(net::FiveTuple peer, const http::Request& req);

  sim::Simulator* sim_;
  net::Network* net_;
  const ObjectCatalog* catalog_;
  sim::Rng rng_;
  HttpServerConfig cfg_;
  bool failed_ = false;

  std::unordered_map<net::FiveTuple, std::unique_ptr<Conn>, net::FiveTupleHash> conns_;
  HttpServerStats stats_;
  std::uint64_t window_requests_ = 0;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_HTTP_SERVER_NODE_H_
