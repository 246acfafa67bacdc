// Browser-emulating client (paper §7 setup: "a Python client that emulates
// web-browser [behaviour] or the Apache benchmark tool").
//
// Provides:
//  - FetchObject: one object over one connection, with a browser-style HTTP
//    timeout and optional retry (the HAProxy-retry / noretry modes of
//    Fig 12);
//  - FetchPage: HTML plus embedded objects fetched sequentially, reporting
//    page-load time (Table 1);
//  - FetchSequence: several requests over one keep-alive HTTP/1.1
//    connection (exercises Yoda's re-switching, §5.2).
// Fixed-rate request streams over a testbed's clients are OpenLoop's job
// (src/workload/open_loop.h).

#ifndef SRC_WORKLOAD_BROWSER_CLIENT_H_
#define SRC_WORKLOAD_BROWSER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/http/parser.h"
#include "src/net/network.h"
#include "src/net/tcp_endpoint.h"
#include "src/sim/random.h"

namespace workload {

struct FetchOptions {
  std::string host = "mysite.com";
  std::string version = "HTTP/1.0";
  std::string cookie;  // Optional Cookie header value.
  sim::Duration http_timeout = sim::Sec(30);
  int retries = 0;   // Browser retries after timeout/reset.
  bool use_tls = false;  // HTTPS: handshake + encrypted request/response.
  // FetchSequence only: send every request immediately (HTTP/1.1
  // pipelining) instead of waiting for each response.
  bool pipeline = false;
};

struct FetchResult {
  bool ok = false;
  bool timed_out = false;
  bool reset = false;
  int retries_used = 0;
  sim::Duration latency = 0;
  std::size_t bytes = 0;
  int status = 0;
  std::string tls_certificate;  // Certificate presented (TLS fetches).
};

class BrowserClient : public net::Node {
 public:
  using FetchCallback = std::function<void(const FetchResult&)>;

  BrowserClient(sim::Simulator* simulator, net::Network* network, net::IpAddr ip,
                std::uint64_t seed);
  ~BrowserClient() override;

  net::IpAddr ip() const { return ip_; }

  void FetchObject(net::IpAddr target, net::Port port, const std::string& url,
                   const FetchOptions& options, FetchCallback done);

  // HTML first, then each embedded object, sequentially; the result reports
  // total page-load latency and aggregates failures.
  void FetchPage(net::IpAddr target, net::Port port, const std::string& html_url,
                 const std::vector<std::string>& embedded, const FetchOptions& options,
                 FetchCallback done);

  // All URLs over ONE keep-alive connection; `done` fires once per URL (in
  // order) and the last result carries the cumulative latency.
  void FetchSequence(net::IpAddr target, net::Port port, const std::vector<std::string>& urls,
                     const FetchOptions& options, std::function<void(std::vector<FetchResult>)> done);

  void HandlePacket(const net::Packet& packet) override;

  net::TcpConfig& tcp_config() { return tcp_; }

 private:
  struct Fetch;
  struct PageFetch;

  // Both take the fetch by value: callers are often callbacks OWNED by the
  // fetch's current TcpEndpoint, and StartAttempt replaces that endpoint —
  // destroying the calling lambda and the shared_ptr it captured. The by-value
  // copy keeps the fetch alive through its own re-arming.
  void StartAttempt(std::shared_ptr<Fetch> fetch);
  void FinishFetch(std::shared_ptr<Fetch> fetch, FetchResult result);
  // Advances a FetchPage chain by one object. Callbacks hold the PageFetch
  // state; the state holds no callbacks, so no ownership cycle forms.
  void PageStep(const std::shared_ptr<PageFetch>& page, const FetchResult& result);
  net::Port NextPort();

  sim::Simulator* sim_;
  net::Network* net_;
  net::IpAddr ip_;
  sim::Rng rng_;
  net::TcpConfig tcp_;
  net::Port next_port_ = 10'000;
  std::unordered_map<net::FiveTuple, std::shared_ptr<Fetch>, net::FiveTupleHash> demux_;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_BROWSER_CLIENT_H_
