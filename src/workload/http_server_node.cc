#include "src/workload/http_server_node.h"

#include <string>
#include <utility>

#include "src/sim/placement.h"

namespace workload {

HttpServerNode::HttpServerNode(sim::Simulator* simulator, net::Network* network,
                               const ObjectCatalog* catalog, std::uint64_t seed,
                               HttpServerConfig config)
    : sim_(simulator), net_(network), catalog_(catalog), rng_(seed), cfg_(config) {
  net_->Attach(cfg_.ip, this);
}

HttpServerNode::~HttpServerNode() = default;

void HttpServerNode::Fail() {
  sim::AssertOnOwnerShard(*sim_);
  failed_ = true;
  conns_.clear();
}

void HttpServerNode::Recover() {
  sim::AssertOnOwnerShard(*sim_);
  failed_ = false;
}

void HttpServerNode::OnColdRestart() {
  Fail();
  Recover();
}

std::uint64_t HttpServerNode::DrainRequestCounter() {
  const std::uint64_t n = window_requests_;
  window_requests_ = 0;
  return n;
}

void HttpServerNode::HandlePacket(const net::Packet& p) {
  sim::AssertOnOwnerShard(*sim_);
  if (failed_ || p.dport != cfg_.port) {
    return;
  }
  const net::FiveTuple peer = p.tuple();
  auto it = conns_.find(peer);
  if (it != conns_.end() && p.syn() && !p.ack_flag()) {
    // A new SYN on a tuple whose previous connection is done (TIME_WAIT or
    // closed): port reuse — accept the new connection.
    const net::TcpState st = it->second->ep->state();
    if (st == net::TcpState::kTimeWait || st == net::TcpState::kClosed ||
        st == net::TcpState::kReset) {
      conns_.erase(it);
      it = conns_.end();
    }
  }
  if (it == conns_.end()) {
    if (p.syn() && !p.ack_flag()) {
      Accept(p);
    } else if (!p.rst()) {
      net_->Send(net::MakeRst(p));  // Unknown connection: kernel answers RST.
    }
    return;
  }
  it->second->ep->HandlePacket(p);
  // Reclaim fully closed connections.
  const net::TcpState st = it->second->ep->state();
  if (st == net::TcpState::kClosed || st == net::TcpState::kReset) {
    conns_.erase(it);
  }
}

void HttpServerNode::Accept(const net::Packet& syn) {
  const net::FiveTuple peer = syn.tuple();
  auto conn = std::make_unique<Conn>();
  auto* c = conn.get();
  conns_[peer] = std::move(conn);
  ++stats_.connections;

  c->ep = std::make_unique<net::TcpEndpoint>(
      sim_, [this](net::Packet p) { net_->Send(std::move(p)); }, cfg_.tcp);
  // Reap the connection once it reaches kClosed. The packet-driven paths
  // (passive close, reset) are reclaimed at the HandlePacket tail, but a
  // server-side active close parks in TIME_WAIT and reaches kClosed from the
  // endpoint's internal timer — no packet ever arrives, so without this hook
  // the Conn (endpoint + parsers + TLS state) leaks for the rest of the run.
  // The erase is deferred one event because on_closed can fire from inside
  // ep->HandlePacket or ep->Close, where destroying the endpoint mid-call
  // would be use-after-free.
  c->ep->set_on_closed([this, peer]() {
    sim_->At(sim_->now(), [this, peer]() {
      auto it = conns_.find(peer);
      if (it == conns_.end()) {
        return;
      }
      const net::TcpState st = it->second->ep->state();
      if (st == net::TcpState::kClosed || st == net::TcpState::kReset) {
        conns_.erase(it);
      }
    });
  });
  c->ep->set_on_data([this, peer](std::string_view bytes) {
    auto it = conns_.find(peer);
    if (it == conns_.end()) {
      return;
    }
    Conn& conn_ref = *it->second;
    std::string_view http_bytes = bytes;
    std::string decrypted;
    if (cfg_.tls_service_key != 0) {
      // TLS-terminated sessions arrive as [session ticket][appdata...]; the
      // very first record tells us whether this connection is TLS at all.
      conn_ref.tls_reader.Feed(bytes);
      decrypted.clear();
      while (auto record = conn_ref.tls_reader.Next()) {
        if (record->type == tls::RecordType::kSessionTicket && !conn_ref.tls_ready) {
          auto key = tls::OpenTicket(record->payload, cfg_.tls_service_key);
          if (!key) {
            conn_ref.ep->Abort();  // Forged or corrupted ticket.
            return;
          }
          conn_ref.tls = true;
          conn_ref.tls_ready = true;
          conn_ref.tls_key = *key;
        } else if (record->type == tls::RecordType::kApplicationData &&
                   conn_ref.tls_ready) {
          decrypted += tls::Crypt(conn_ref.tls_key, conn_ref.tls_in_offset, record->payload);
          conn_ref.tls_in_offset += record->payload.size();
        }
      }
      if (!conn_ref.tls && conn_ref.tls_in_offset == 0 && decrypted.empty() &&
          !conn_ref.tls_ready) {
        // No complete record yet and not a known TLS session: if the bytes
        // do not look like a record, fall through as plaintext.
        if (!bytes.empty() && static_cast<std::uint8_t>(bytes[0]) >= 1 &&
            static_cast<std::uint8_t>(bytes[0]) <= 5) {
          return;  // Wait for the full record.
        }
      }
      if (conn_ref.tls_ready) {
        http_bytes = decrypted;
      }
    }
    conn_ref.parser.Feed(http_bytes);
    // Pipelined connections can complete several requests per segment;
    // serve them in arrival order (responses are scheduled FIFO).
    while (conn_ref.parser.status() == http::ParseStatus::kComplete) {
      const http::Request req = conn_ref.parser.TakeRequest();
      Serve(peer, req);
      auto again = conns_.find(peer);
      if (again == conns_.end()) {
        break;
      }
    }
  });
  c->ep->AcceptFrom(syn, static_cast<std::uint32_t>(rng_.UniformInt(1, 1u << 30)));
}

void HttpServerNode::Serve(net::FiveTuple peer, const http::Request& req) {
  ++stats_.requests;
  ++window_requests_;
  sim_->After(cfg_.processing_delay, [this, peer, url = req.url, version = req.version,
                                      keep_alive = req.KeepAlive()]() {
    auto it = conns_.find(peer);
    if (it == conns_.end() || failed_) {
      return;
    }
    net::TcpEndpoint* ep = it->second->ep.get();
    http::Response resp;
    ObjectCatalog::Body body;
    const WebObject* obj = catalog_ == nullptr ? nullptr : catalog_->Find(url);
    if (obj != nullptr) {
      // The head frames the whole object; its bytes follow as the tag and
      // the shared filler, never assembled into one string.
      body = catalog_->BodyOf(*obj);
      resp = http::MakeOk("", version);
      resp.SetHeader("content-length", std::to_string(obj->size));
      resp.SetHeader("content-type", obj->content_type);
    } else if (catalog_ == nullptr) {
      // No catalog: echo service used by unit tests.
      resp = http::MakeOk("echo:" + url, version);
    } else {
      ++stats_.not_found;
      resp = http::MakeNotFound(version);
    }
    resp.SetHeader("connection", keep_alive ? "keep-alive" : "close");
    std::string wire = resp.Serialize();
    wire += body.tag;
    Conn& conn_ref = *it->second;
    if (conn_ref.tls_ready) {
      // Encrypt the response into an application-data record. Sealing
      // rewrites every byte, so it works on one contiguous copy.
      wire += body.filler.view();
      body.filler = net::Payload();
      std::string sealed = tls::Crypt(
          conn_ref.tls_key, tls::kServerDirectionOffset + conn_ref.tls_out_offset, wire);
      conn_ref.tls_out_offset += wire.size();
      wire = tls::EncodeRecord({tls::RecordType::kApplicationData, std::move(sealed)});
    }
    stats_.bytes_sent += wire.size() + body.filler.size();
    ep->Send({std::move(wire), std::move(body.filler)});
    if (!keep_alive) {
      ep->Close();
    }
  });
}

}  // namespace workload
