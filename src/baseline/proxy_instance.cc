#include "src/baseline/proxy_instance.h"

#include <utility>

namespace baseline {

ProxyInstance::ProxyInstance(sim::Simulator* simulator, net::Network* network,
                             std::uint64_t seed, ProxyConfig config)
    : sim_(simulator),
      net_(network),
      rng_(seed),
      cfg_(config),
      cpu_(config.cpu_costs, config.cores) {
  net_->Attach(cfg_.ip, this);
}

ProxyInstance::~ProxyInstance() = default;

void ProxyInstance::InstallRules(std::vector<rules::Rule> proxy_rules) {
  table_.ReplaceAll(std::move(proxy_rules));
}

void ProxyInstance::SetBackendHealth(net::IpAddr backend, bool healthy) {
  backend_health_[backend] = healthy;
}

void ProxyInstance::Fail() {
  failed_ = true;
  // The whole process dies: no FIN or RST is emitted for any connection.
  conns_.clear();
  demux_.clear();
}

void ProxyInstance::Recover() { failed_ = false; }

void ProxyInstance::HandlePacket(const net::Packet& p) {
  if (failed_) {
    return;
  }
  auto it = demux_.find(p.tuple());
  if (it != demux_.end() && p.syn() && !p.ack_flag() && p.dport == cfg_.port) {
    // Port reuse: a fresh SYN on a tuple whose old splice already finished.
    auto conn = conns_.find(it->second);
    const net::TcpEndpoint* old_ep =
        conn == conns_.end() ? nullptr : conn->second->client_ep.get();
    if (old_ep == nullptr || old_ep->state() == net::TcpState::kTimeWait ||
        old_ep->state() == net::TcpState::kClosed ||
        old_ep->state() == net::TcpState::kReset) {
      demux_.erase(it);
      it = demux_.end();
    }
  }
  if (it != demux_.end()) {
    auto conn = conns_.find(it->second);
    if (conn == conns_.end()) {
      demux_.erase(it);
      return;
    }
    Splice& s = *conn->second;
    // Client-side packets target our listening port.
    if (p.dport == cfg_.port && s.client_ep != nullptr) {
      s.client_ep->HandlePacket(p);
    } else if (s.server_ep != nullptr) {
      s.server_ep->HandlePacket(p);
    }
    MaybeGarbageCollect(it->second);
    return;
  }
  if (p.syn() && !p.ack_flag() && p.dport == cfg_.port) {
    AcceptClient(p);
    return;
  }
  // Unknown flow (e.g. packets from before a crash, after recovery): a real
  // kernel answers RST.
  if (!p.rst()) {
    net_->Send(net::MakeRst(p));
  }
}

void ProxyInstance::AcceptClient(const net::Packet& syn) {
  const std::uint64_t id = next_id_++;
  auto splice = std::make_unique<Splice>();
  splice->accepted = sim_->now();
  auto* s = splice.get();
  conns_[id] = std::move(splice);
  demux_[syn.tuple()] = id;
  ++stats_.connections_accepted;
  cpu_.ChargeConnection();

  s->client_ep = std::make_unique<net::TcpEndpoint>(
      sim_, [this](net::Packet p) { net_->Send(std::move(p)); }, cfg_.tcp);
  s->client_ep->set_on_data([this, id](const net::Payload& bytes) { OnClientData(id, bytes); });
  s->client_ep->set_on_closed([this, id]() {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      return;
    }
    it->second->client_closed = true;
    // Run the close through the same delayed pipeline as spliced data, so
    // chunks already in flight inside the proxy are not dropped.
    sim_->After(cfg_.cpu_costs.forward_delay, [this, id]() {
      auto cit = conns_.find(id);
      if (cit != conns_.end() && cit->second->server_ep != nullptr && !failed_) {
        cit->second->server_ep->Close();
      }
      MaybeGarbageCollect(id);
    });
  });
  s->client_ep->set_on_reset([this, id]() { MaybeGarbageCollect(id); });
  s->client_ep->AcceptFrom(syn, static_cast<std::uint32_t>(rng_.UniformInt(1, 1u << 30)));
}

void ProxyInstance::OnClientData(std::uint64_t id, const net::Payload& bytes) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Splice& s = *it->second;
  cpu_.ChargePacket();
  stats_.spliced_bytes += bytes.size();
  if (s.server_connected) {
    // Tunnel onward after the proxy's processing delay; the received slice
    // is sent on as it is.
    sim_->After(cfg_.cpu_costs.forward_delay, [this, id, data = bytes]() {
      auto cit = conns_.find(id);
      if (cit != conns_.end() && cit->second->server_ep != nullptr && !failed_) {
        cit->second->server_ep->Send(data);
      }
    });
    return;
  }
  s.to_server.append(bytes);
  s.parser.Feed(bytes);
  if (s.parser.HaveHeaders() && s.server_ep == nullptr) {
    rules::SelectionContext ctx;
    ctx.rng = &rng_;
    ctx.sticky = &sticky_;
    ctx.is_healthy = [this](const rules::Backend& b) {
      auto hit = backend_health_.find(b.ip);
      return hit == backend_health_.end() || hit->second;
    };
    ctx.load_of = [this](const rules::Backend& b) {
      auto lit = backend_load_.find(b.ip);
      return lit == backend_load_.end() ? 0 : lit->second;
    };
    s.accepted = sim_->now();  // Fig 9 "Connection" measurement starts here.
    auto sel = table_.Select(s.parser.request(), ctx);
    if (!sel) {
      ++stats_.no_backend_resets;
      s.client_ep->Abort();
      MaybeGarbageCollect(id);
      return;
    }
    cpu_.ChargeRuleScan(sel->rules_scanned);
    const sim::Duration delay = cfg_.rule_scan_base_delay +
                                cfg_.rule_scan_per_rule_delay * sel->rules_scanned +
                                cfg_.cpu_costs.connection_delay;
    const rules::Backend backend = sel->backend;
    sim_->After(delay, [this, id, backend]() {
      if (!failed_ && conns_.contains(id)) {
        ConnectBackend(id, backend);
      }
    });
  }
}

void ProxyInstance::ConnectBackend(std::uint64_t id, const rules::Backend& backend) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Splice& s = *it->second;
  ++stats_.backend_connects;
  backend_load_[backend.ip] += 1;
  cpu_.ChargeConnection();

  s.server_ep = std::make_unique<net::TcpEndpoint>(
      sim_, [this](net::Packet p) { net_->Send(std::move(p)); }, cfg_.tcp);
  const net::Port sport = next_ephemeral_++;
  if (next_ephemeral_ == 0) {
    next_ephemeral_ = 20000;
  }
  demux_[net::FiveTuple{backend.ip, cfg_.ip, backend.port, sport}] = id;

  s.server_ep->set_on_connected([this, id]() {
    auto cit = conns_.find(id);
    if (cit == conns_.end()) {
      return;
    }
    Splice& sp = *cit->second;
    sp.server_connected = true;
    connection_phase_ms_.Add(sim::ToMillis(sim_->now() - sp.accepted));
    ++stats_.requests_proxied;
    if (!sp.to_server.empty()) {
      sp.server_ep->Send(std::move(sp.to_server));
      sp.to_server.clear();
    }
  });
  s.server_ep->set_on_data([this, id](const net::Payload& bytes) {
    auto cit = conns_.find(id);
    if (cit == conns_.end()) {
      return;
    }
    cpu_.ChargePacket();
    stats_.spliced_bytes += bytes.size();
    sim_->After(cfg_.cpu_costs.forward_delay, [this, id, data = bytes]() {
      auto c2 = conns_.find(id);
      if (c2 != conns_.end() && c2->second->client_ep != nullptr && !failed_) {
        c2->second->client_ep->Send(data);
      }
    });
  });
  s.server_ep->set_on_closed([this, id]() {
    auto cit = conns_.find(id);
    if (cit == conns_.end()) {
      return;
    }
    cit->second->server_closed = true;
    // Backend finished: half-close toward the client, behind any spliced
    // data still inside the proxy's forwarding pipeline.
    sim_->After(cfg_.cpu_costs.forward_delay, [this, id]() {
      auto c2 = conns_.find(id);
      if (c2 != conns_.end() && c2->second->client_ep != nullptr && !failed_) {
        c2->second->client_ep->Close();
      }
      MaybeGarbageCollect(id);
    });
  });
  s.server_ep->set_on_reset([this, id]() { MaybeGarbageCollect(id); });
  s.server_ep->set_on_failed([this, id]() {
    auto cit = conns_.find(id);
    if (cit != conns_.end() && cit->second->client_ep != nullptr) {
      cit->second->client_ep->Abort();
    }
    MaybeGarbageCollect(id);
  });

  s.server_ep->Connect(cfg_.ip, sport, backend.ip, backend.port,
                       static_cast<std::uint32_t>(rng_.UniformInt(1, 1u << 30)));
}

void ProxyInstance::MaybeGarbageCollect(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  Splice& s = *it->second;
  const bool client_dead =
      s.client_ep == nullptr || s.client_ep->state() == net::TcpState::kClosed ||
      s.client_ep->state() == net::TcpState::kReset ||
      s.client_ep->state() == net::TcpState::kTimeWait;
  const bool server_dead =
      s.server_ep == nullptr || s.server_ep->state() == net::TcpState::kClosed ||
      s.server_ep->state() == net::TcpState::kReset ||
      s.server_ep->state() == net::TcpState::kTimeWait;
  if (!client_dead || !server_dead) {
    return;
  }
  // Give TIME_WAIT endpoints a grace period before reclaiming the tuples.
  sim_->After(sim::Sec(2), [this, id]() {
    auto cit = conns_.find(id);
    if (cit == conns_.end()) {
      return;
    }
    for (auto dit = demux_.begin(); dit != demux_.end();) {
      if (dit->second == id) {
        dit = demux_.erase(dit);
      } else {
        ++dit;
      }
    }
    conns_.erase(cit);
  });
}

}  // namespace baseline
