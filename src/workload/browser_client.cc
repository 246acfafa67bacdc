#include "src/workload/browser_client.h"

#include <utility>

#include "src/kv/hash_ring.h"
#include "src/sim/placement.h"
#include "src/tls/tls.h"

namespace workload {
namespace {

// Frees everything `obj` holds on the heap. `obj = T()` does not: libstdc++'s
// move-assignment from a short (SSO) string copies into the target and keeps
// the target's heap buffer. Swapping hands the buffers to a temporary.
template <typename T>
void Release(T& obj) {
  T fresh;
  std::swap(obj, fresh);
}

}  // namespace

// One logical fetch, possibly spanning several connection attempts and (for
// FetchSequence) several requests on one connection.
struct BrowserClient::Fetch {
  BrowserClient* owner = nullptr;
  net::IpAddr target = 0;
  net::Port port = 80;
  std::vector<std::string> urls;  // One entry for FetchObject.
  std::size_t url_index = 0;
  FetchOptions opts;
  FetchCallback done;
  std::function<void(std::vector<FetchResult>)> sequence_done;
  std::vector<FetchResult> sequence_results;

  sim::Time started = 0;
  int attempts = 0;
  bool finished = false;

  std::unique_ptr<net::TcpEndpoint> ep;
  net::FiveTuple tuple;
  http::ResponseParser parser;
  sim::TimerHandle timeout_timer;

  // TLS state (per attempt).
  tls::RecordReader tls_reader;
  std::uint64_t tls_client_random = 0;
  std::uint64_t tls_session_key = 0;
  bool tls_ready = false;
  std::uint64_t tls_out_offset = 0;
  std::uint64_t tls_in_offset = 0;
  std::string tls_certificate;
};

// Sequential page load (HTML, then each embedded object). Kept as plain
// state advanced by PageStep so the continuation never owns itself.
struct BrowserClient::PageFetch {
  net::IpAddr target = 0;
  net::Port port = 80;
  std::vector<std::string> remaining;
  FetchResult aggregate;
  sim::Time started = 0;
  FetchCallback done;
  FetchOptions options;
};

BrowserClient::BrowserClient(sim::Simulator* simulator, net::Network* network, net::IpAddr ip,
                             std::uint64_t seed)
    : sim_(simulator), net_(network), ip_(ip), rng_(seed) {
  // Spread ephemeral port ranges across clients, as real OSes randomize
  // them. This matters to Yoda: the server-side flow identity is
  // (backend, VIP, client port) — the client's port is reused as the
  // VIP-side source port (Fig 4) — so two clients sharing a port number and
  // a backend would collide.
  next_port_ = static_cast<net::Port>(10'000 + (kv::Mix64(ip) % 55) * 1'000);
  net_->Attach(ip_, this, net::Region::kInternet);
}

BrowserClient::~BrowserClient() {
  // Fetches still in flight hold their endpoint, and the endpoint's
  // callbacks hold the fetch; drop the endpoints so the cycle unwinds when
  // demux_ releases its refs.
  for (auto& [tuple, fetch] : demux_) {
    fetch->ep.reset();
  }
}

net::Port BrowserClient::NextPort() {
  net::Port p = next_port_++;
  if (next_port_ < 10'000) {
    next_port_ = 10'000;
  }
  return p;
}

void BrowserClient::HandlePacket(const net::Packet& p) {
  sim::AssertOnOwnerShard(*sim_);
  auto it = demux_.find(p.tuple());
  if (it == demux_.end()) {
    return;
  }
  std::shared_ptr<Fetch> fetch = it->second;
  if (fetch->ep != nullptr) {
    fetch->ep->HandlePacket(p);
  }
}

void BrowserClient::FetchObject(net::IpAddr target, net::Port port, const std::string& url,
                                const FetchOptions& options, FetchCallback done) {
  sim::AssertOnOwnerShard(*sim_);
  auto fetch = std::make_shared<Fetch>();
  fetch->owner = this;
  fetch->target = target;
  fetch->port = port;
  fetch->urls = {url};
  fetch->opts = options;
  fetch->done = std::move(done);
  fetch->started = sim_->now();
  StartAttempt(fetch);
}

void BrowserClient::FetchSequence(net::IpAddr target, net::Port port,
                                  const std::vector<std::string>& urls,
                                  const FetchOptions& options,
                                  std::function<void(std::vector<FetchResult>)> done) {
  auto fetch = std::make_shared<Fetch>();
  fetch->owner = this;
  fetch->target = target;
  fetch->port = port;
  fetch->urls = urls;
  fetch->opts = options;
  fetch->opts.version = "HTTP/1.1";
  fetch->sequence_done = std::move(done);
  fetch->started = sim_->now();
  StartAttempt(fetch);
}

void BrowserClient::StartAttempt(std::shared_ptr<Fetch> fetch) {
  ++fetch->attempts;
  fetch->parser = http::ResponseParser();

  const net::Port sport = NextPort();
  fetch->tuple = net::FiveTuple{fetch->target, ip_, fetch->port, sport};
  demux_[fetch->tuple] = fetch;

  fetch->ep = std::make_unique<net::TcpEndpoint>(
      sim_, [this](net::Packet p) { net_->Send(std::move(p)); }, tcp_);

  auto send_request = [this, fetch]() {
    std::string wire;
    const std::size_t first = fetch->url_index;
    const std::size_t last = fetch->opts.pipeline ? fetch->urls.size() - 1 : fetch->url_index;
    for (std::size_t i = first; i <= last; ++i) {
      http::Request req = http::MakeGet(fetch->urls[i], fetch->opts.host, fetch->opts.version);
      if (!fetch->opts.cookie.empty()) {
        req.SetHeader("cookie", fetch->opts.cookie);
      }
      if (fetch->opts.version == "HTTP/1.1" && i + 1 == fetch->urls.size()) {
        req.SetHeader("connection", "close");
      }
      wire += req.Serialize();
    }
    if (fetch->opts.use_tls) {
      std::string sealed = tls::Crypt(fetch->tls_session_key, fetch->tls_out_offset, wire);
      fetch->tls_out_offset += wire.size();
      wire = tls::EncodeRecord({tls::RecordType::kApplicationData, std::move(sealed)});
    }
    fetch->ep->Send(std::move(wire));
  };

  if (fetch->opts.use_tls) {
    // HTTPS: open with a ClientHello; the request follows the handshake.
    fetch->tls_reader = tls::RecordReader();
    fetch->tls_ready = false;
    fetch->tls_out_offset = 0;
    fetch->tls_in_offset = 0;
    fetch->tls_client_random = rng_.engine()();
    fetch->ep->set_on_connected([fetch]() {
      tls::ClientHello hello{fetch->tls_client_random};
      fetch->ep->Send(tls::EncodeRecord({tls::RecordType::kClientHello, hello.Serialize()}));
    });
  } else {
    fetch->ep->set_on_connected(send_request);
  }

  fetch->ep->set_on_data([this, fetch, send_request](const net::Payload& raw) {
    if (fetch->finished) {
      return;
    }
    // The parser keeps the body as these slices of the received segments. A
    // TLS record's plaintext is new bytes, fed as one buffer.
    net::Payload bytes = raw;
    std::string plaintext;
    if (fetch->opts.use_tls) {
      fetch->tls_reader.Feed(raw);
      while (auto record = fetch->tls_reader.Next()) {
        if (record->type == tls::RecordType::kServerCertificate && !fetch->tls_ready) {
          auto cert = tls::ServerCertificate::Parse(record->payload);
          if (!cert) {
            continue;
          }
          fetch->tls_certificate = cert->certificate;
          fetch->tls_session_key =
              tls::DeriveSessionKey(fetch->tls_client_random, cert->server_random);
          fetch->tls_ready = true;
          fetch->ep->Send(tls::EncodeRecord({tls::RecordType::kClientFinished, ""}));
          send_request();
        } else if (record->type == tls::RecordType::kApplicationData && fetch->tls_ready) {
          plaintext += tls::Crypt(fetch->tls_session_key,
                                  tls::kServerDirectionOffset + fetch->tls_in_offset,
                                  record->payload);
          fetch->tls_in_offset += record->payload.size();
        }
      }
      if (plaintext.empty()) {
        return;
      }
      bytes = std::move(plaintext);
    }
    if (fetch->parser.Feed(std::move(bytes)) != http::ParseStatus::kComplete) {
      return;
    }
    // Pipelined responses can complete several at once; drain them in order.
    while (fetch->parser.status() == http::ParseStatus::kComplete && !fetch->finished) {
      http::Response resp = fetch->parser.TakeResponse();
      FetchResult r;
      r.ok = resp.status >= 200 && resp.status < 400;
      r.status = resp.status;
      r.bytes = resp.body.size();
      r.latency = sim_->now() - fetch->started;
      r.retries_used = fetch->attempts - 1;
      r.tls_certificate = fetch->tls_certificate;
      if (fetch->sequence_done) {
        fetch->sequence_results.push_back(r);
        ++fetch->url_index;
        if (fetch->url_index < fetch->urls.size()) {
          if (!fetch->opts.pipeline) {
            send_request();
            return;
          }
          continue;  // Pipelined: the next response is already inbound.
        }
        fetch->ep->Close();
        FinishFetch(fetch, r);
        return;
      }
      fetch->ep->Close();
      FinishFetch(fetch, r);
      return;
    }
  });

  fetch->ep->set_on_reset([this, fetch]() {
    if (fetch->finished) {
      return;
    }
    if (fetch->attempts <= fetch->opts.retries) {
      demux_.erase(fetch->tuple);
      StartAttempt(fetch);  // Browser retries on connection reset.
      return;
    }
    FetchResult r;
    r.reset = true;
    r.latency = sim_->now() - fetch->started;
    r.retries_used = fetch->attempts - 1;
    FinishFetch(fetch, r);
  });
  fetch->ep->set_on_failed([this, fetch]() {
    if (fetch->finished) {
      return;
    }
    FetchResult r;
    r.timed_out = true;
    r.latency = sim_->now() - fetch->started;
    r.retries_used = fetch->attempts - 1;
    FinishFetch(fetch, r);
  });

  // Browser HTTP timeout for this attempt.
  fetch->timeout_timer.Cancel();
  fetch->timeout_timer = sim_->After(fetch->opts.http_timeout, [this, fetch]() {
    if (fetch->finished) {
      return;
    }
    fetch->ep->Abort();
    if (fetch->attempts <= fetch->opts.retries) {
      demux_.erase(fetch->tuple);
      StartAttempt(fetch);  // Browser re-issues the request after timeout.
      return;
    }
    FetchResult r;
    r.timed_out = true;
    r.latency = sim_->now() - fetch->started;
    r.retries_used = fetch->attempts - 1;
    FinishFetch(fetch, r);
  });

  // The demux tuple is keyed on *incoming* packets (src=server, sport=server
  // port, dport=our local port); connect from the local port accordingly.
  fetch->ep->Connect(ip_, fetch->tuple.dport, fetch->target, fetch->port,
                     static_cast<std::uint32_t>(rng_.UniformInt(1, 1u << 30)));
}

void BrowserClient::FinishFetch(std::shared_ptr<Fetch> fetch, FetchResult result) {
  if (fetch->finished) {
    return;
  }
  fetch->finished = true;
  fetch->timeout_timer.Cancel();
  // Keep the endpoint alive until teardown completes; reclaim the tuple soon.
  // Destroying the endpoint first drops its callbacks' refs to the fetch —
  // the callbacks capture the fetch, and the fetch owns the endpoint, so an
  // intact endpoint would keep the whole cycle alive forever. The `finished`
  // guard protects a new fetch that reused the tuple in the meantime.
  sim_->After(sim::Sec(3), [this, tuple = fetch->tuple]() {
    auto it = demux_.find(tuple);
    if (it != demux_.end() && it->second->finished) {
      it->second->ep.reset();
      demux_.erase(it);
    }
  });
  // Shed the heavy per-fetch state now rather than at the 3 s reclaim: a
  // fetch that ends mid-response leaves its bytes in the parser, and
  // thousands of finished fetches sit in that window at high load, while
  // teardown only needs the endpoint and the tuple. The endpoint callbacks
  // are all gated on `finished`, so none of this is reachable again.
  std::function<void(std::vector<FetchResult>)> sequence_done =
      std::move(fetch->sequence_done);
  std::vector<FetchResult> sequence_results = std::move(fetch->sequence_results);
  FetchCallback done = std::move(fetch->done);
  const std::size_t url_count = fetch->urls.size();
  Release(fetch->parser);
  Release(fetch->tls_reader);
  Release(fetch->urls);
  Release(fetch->tls_certificate);
  if (sequence_done) {
    if (!result.ok && sequence_results.size() < url_count) {
      sequence_results.push_back(result);
    }
    sequence_done(std::move(sequence_results));
    return;
  }
  if (done) {
    done(result);
  }
}

void BrowserClient::FetchPage(net::IpAddr target, net::Port port, const std::string& html_url,
                              const std::vector<std::string>& embedded,
                              const FetchOptions& options, FetchCallback done) {
  auto page = std::make_shared<PageFetch>();
  page->target = target;
  page->port = port;
  page->remaining = embedded;
  page->started = sim_->now();
  page->done = std::move(done);
  page->options = options;
  FetchObject(target, port, html_url, options,
              [this, page](const FetchResult& r) { PageStep(page, r); });
}

void BrowserClient::PageStep(const std::shared_ptr<PageFetch>& page, const FetchResult& result) {
  page->aggregate.ok = page->aggregate.ok || result.ok;
  page->aggregate.bytes += result.bytes;
  page->aggregate.timed_out = page->aggregate.timed_out || result.timed_out;
  page->aggregate.reset = page->aggregate.reset || result.reset;
  page->aggregate.retries_used += result.retries_used;
  if ((!result.ok) || page->remaining.empty()) {
    page->aggregate.ok = result.ok && !page->aggregate.timed_out && !page->aggregate.reset;
    page->aggregate.latency = sim_->now() - page->started;
    page->done(page->aggregate);
    return;
  }
  const std::string next = page->remaining.front();
  page->remaining.erase(page->remaining.begin());
  FetchObject(page->target, page->port, next, page->options,
              [this, page](const FetchResult& r) { PageStep(page, r); });
}

}  // namespace workload
