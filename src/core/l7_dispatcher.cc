#include "src/core/l7_dispatcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/handshake_engine.h"
#include "src/core/splice_engine.h"
#include "src/tls/tls.h"

namespace yoda {
namespace {

// True when this flow's client stream should be inspected for HTTP/1.1
// re-switching (keep-alive connections can carry requests for different
// backends, §5.2).
bool WantsInspection(const http::Request& req) { return req.KeepAlive(); }

}  // namespace

sim::Duration L7Dispatcher::RuleScanDelay(int rules_scanned) const {
  return ctx_->cfg->rule_scan_base_delay + ctx_->cfg->rule_scan_per_rule_delay * rules_scanned;
}

void L7Dispatcher::OnClientData(const FlowKey& key, LocalFlow& flow, VipState& vip,
                                const net::Packet& p) {
  if (flow.phase() == FlowPhase::kSynReceived) {
    flow.stalled.push_back(p);  // storage-a still in flight.
    return;
  }
  if (p.fin()) {
    // Client aborted before the server connection existed.
    ctx_->CleanupFlow(key, /*remove_from_store=*/true);
    return;
  }
  if (!p.payload.empty()) {
    // Reassemble the header bytes in order; duplicates are ignored. Note: we
    // deliberately do NOT ACK (paper: the header fits the initial window, so
    // the client keeps retransmitting it until the *server's* ACK is
    // tunneled back — which is what makes connection-phase takeover work).
    if (net::SeqGt(p.seq + static_cast<std::uint32_t>(p.payload.size()), flow.assembled_end)) {
      flow.pending_segments[p.seq] = p.payload;
    }
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = flow.pending_segments.begin(); it != flow.pending_segments.end();) {
        const std::uint32_t seg_seq = it->first;
        const auto len = static_cast<std::uint32_t>(it->second.size());
        if (net::SeqLeq(seg_seq, flow.assembled_end) &&
            net::SeqGt(seg_seq + len, flow.assembled_end)) {
          const std::uint32_t skip = flow.assembled_end - seg_seq;
          flow.assembled.append(it->second.view().substr(skip));
          flow.assembled_end += len - skip;
          it = flow.pending_segments.erase(it);
          progressed = true;
        } else if (net::SeqLeq(seg_seq + len, flow.assembled_end)) {
          it = flow.pending_segments.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (flow.tls_active) {
      ctx_->handshake->TlsConnectionPhase(key, flow, vip);
    } else {
      flow.parser = http::RequestParser();
      flow.parser.Feed(flow.assembled);
    }
  }
  if (flow.parser.HaveHeaders() && flow.fsm.awaiting_header()) {
    TrySelectAndConnect(key, flow, vip);
  }
}

std::optional<rules::Selection> L7Dispatcher::SelectBackend(VipState& vip,
                                                            const http::Request& req) {
  rules::SelectionContext sctx;
  sctx.rng = ctx_->rng;
  sctx.sticky = &vip.sticky;
  sctx.is_healthy = [this](const rules::Backend& b) {
    auto it = ctx_->backend_health->find(b.ip);
    return it == ctx_->backend_health->end() || it->second;
  };
  sctx.load_of = [this](const rules::Backend& b) {
    auto it = ctx_->backend_load->find(b.ip);
    return it == ctx_->backend_load->end() ? 0 : it->second;
  };
  auto sel = vip.table.Select(req, sctx);
  if (sel) {
    ctx_->ctr->selections->Inc();
    ctx_->ctr->rules_scanned_total->Add(static_cast<std::uint64_t>(sel->rules_scanned));
    ctx_->cpu->ChargeRuleScan(sel->rules_scanned);
  }
  return sel;
}

void L7Dispatcher::BindStickyIfNeeded(VipState& vip, const http::Request& req,
                                      const rules::Backend& b) {
  for (const rules::Rule& r : vip.table.rules()) {
    if (r.action.type != rules::ActionType::kStickyTable) {
      continue;
    }
    if (!r.match.Matches(req)) {
      continue;
    }
    auto cookies = req.Cookies();
    auto it = cookies.find(r.action.sticky_cookie);
    if (it != cookies.end() && !vip.sticky.Find(it->second)) {
      vip.sticky.Bind(it->second, b);
    }
  }
}

void L7Dispatcher::TrySelectAndConnect(const FlowKey& key, LocalFlow& flow, VipState& vip) {
  flow.started = ctx_->sim->now();  // Fig 9 "Connection" measurement starts here.
  auto sel = SelectBackend(vip, flow.parser.request());
  if (!sel) {
    ctx_->ctr->no_backend_resets->Inc();
    net::Packet rst;
    rst.src = key.vip;
    rst.sport = key.vip_port;
    rst.dst = key.client_ip;
    rst.dport = key.client_port;
    rst.seq = flow.st.lb_isn + 1;
    rst.ack = flow.assembled_end;
    rst.flags = net::kRst | net::kAck;
    ctx_->Emit(std::move(rst));
    ctx_->Trace(key, obs::EventType::kFlowReset,
                static_cast<std::uint64_t>(obs::FlowResetReason::kNoBackend));
    ctx_->CleanupFlow(key, /*remove_from_store=*/true);
    return;
  }
  flow.fsm.Transition(FlowPhase::kSelecting);  // Guarded by awaiting_header().
  ctx_->Trace(key, obs::EventType::kBackendSelected,
              static_cast<std::uint64_t>(sel->rules_scanned));
  ctx_->Trace(key, obs::EventType::kBackendPinned, sel->backend.ip);
  BindStickyIfNeeded(vip, flow.parser.request(), sel->backend);
  flow.st.backend_ip = sel->backend.ip;
  flow.st.backend_port = sel->backend.port;
  (*ctx_->backend_load)[sel->backend.ip] += 1;
  for (const rules::Backend& m : sel->mirrors) {
    flow.mirror_legs.push_back(LocalFlow::MirrorLeg{m.ip, m.port, false, 0});
  }

  // The rule scan and header handling add the Fig 6 / Fig 9 latency.
  const sim::Duration delay =
      ctx_->cfg->cpu_costs.connection_delay + RuleScanDelay(sel->rules_scanned);
  ctx_->sim->After(delay, [this, key]() {
    LocalFlow* f = ctx_->flows->Find(key);
    if (f == nullptr || !ctx_->alive()) {
      return;
    }
    ctx_->handshake->SendServerSyn(key, *f);
  });
}

void L7Dispatcher::ForwardRequestToServer(const FlowKey& key, LocalFlow& flow) {
  ctx_->Trace(key, obs::EventType::kRequestForwarded);
  if (flow.started != 0) {
    ctx_->stage->connection_phase_ms->Add(sim::ToMillis(ctx_->sim->now() - flow.started));
    flow.started = 0;  // Count the initial leg once (not re-switches).
  }
  // Handshake-completing ACK, carrying the buffered client bytes (the HTTP
  // request), sequence-aligned with the client's own numbers. For TLS flows
  // the server-side stream is [session ticket][encrypted appdata verbatim].
  std::string tls_data;
  if (flow.tls_active) {
    VipState* vip = ctx_->FindVip(key.vip);
    if (vip != nullptr && vip->tls) {
      tls_data = tls::EncodeRecord({tls::RecordType::kSessionTicket,
                                    tls::SealTicket(flow.tls_session_key,
                                                    vip->tls->service_key)});
      tls_data += flow.assembled.substr(flow.tls_handshake_len);
    }
  }
  // Note (TLS): a client retransmission that spans the handshake/appdata
  // boundary would, under the c2s delta, overlap the ticket's sequence range
  // at the server with stale bytes. This only matters if the ticket packet
  // itself was lost; a production implementation would retransmit its own
  // injected bytes. The simulator's LB->server hop is loss-free by default.
  const std::string& data = flow.tls_active ? tls_data : flow.assembled;
  std::uint32_t seq = flow.st.client_isn + 1;
  std::size_t off = 0;
  bool first = true;
  do {
    const std::size_t len = std::min<std::size_t>(ctx_->cfg->mss, data.size() - off);
    net::Packet pkt;
    pkt.src = key.vip;
    pkt.sport = key.client_port;
    pkt.dst = flow.st.backend_ip;
    pkt.dport = flow.st.backend_port;
    pkt.seq = seq;
    pkt.ack = flow.st.server_isn + 1;
    pkt.flags = net::kAck;
    pkt.payload = data.substr(off, len);
    if (off + len >= data.size()) {
      pkt.flags |= net::kPsh;
    }
    if (first) {
      ctx_->Emit(std::move(pkt));  // The ACK itself is control traffic.
      first = false;
    } else {
      ctx_->EmitForwarded(std::move(pkt));
    }
    seq += static_cast<std::uint32_t>(len);
    off += len;
  } while (off < data.size());

  // Initialise (or re-arm after a re-switch) HTTP/1.1 inspection state.
  // TLS flows tunnel ciphertext, so re-switch inspection is unavailable.
  if (!flow.tls_active &&
      (flow.inspect_enabled ||
       (flow.parser.HaveHeaders() && WantsInspection(flow.parser.request())))) {
    flow.inspect_enabled = true;
    flow.inspect_next_seq = flow.st.client_isn + 1 +
                            static_cast<std::uint32_t>(flow.assembled.size());
    flow.request_start_seq = flow.inspect_next_seq;
    flow.pending_request.clear();
    flow.inspect_parser = http::RequestParser();
    flow.outstanding_requests = 1;
  } else {
    flow.inspect_next_seq = 0;  // Inspection disabled for this flow.
  }
}

void L7Dispatcher::InspectClientStream(const FlowKey& key, LocalFlow& flow, VipState& vip,
                                       const net::Packet& p) {
  // In-order inspection: the current request's bytes are buffered from
  // request_start_seq and only forwarded once the request is complete and
  // routed — that is what makes switching the backend per request possible.
  const auto len = static_cast<std::uint32_t>(p.payload.size());
  if (net::SeqLt(p.seq, flow.inspect_next_seq) &&
      net::SeqLeq(p.seq + len, flow.inspect_next_seq)) {
    // Entirely old. Bytes belonging to the current server leg (at or above
    // its rebased ISN) are retransmissions the server should re-ack; tunnel
    // them. Bytes from a pre-re-switch leg were acked by the old server and
    // are dropped.
    if (net::SeqGeq(p.seq, flow.st.client_isn + 1) &&
        net::SeqLt(p.seq, flow.request_start_seq)) {
      net::Packet out = p;
      out.src = key.vip;
      out.sport = key.client_port;
      out.dst = flow.st.backend_ip;
      out.dport = flow.st.backend_port;
      out.seq = p.seq + flow.st.seq_delta_c2s;
      out.ack = p.ack - flow.st.seq_delta_s2c;
      out.encap_dst = 0;
      ctx_->EmitForwarded(std::move(out));
    }
    return;
  }
  if (net::SeqGt(p.seq, flow.inspect_next_seq)) {
    flow.pending_segments[p.seq] = p.payload;  // Future data; hold.
    return;
  }
  const std::string fresh = ConsumeInOrder(flow, p);
  flow.pending_request += fresh;

  flow.inspect_parser.Feed(fresh);
  if (flow.inspect_parser.status() == http::ParseStatus::kComplete) {
    http::Request req = flow.inspect_parser.TakeRequest();
    auto sel = SelectBackend(vip, req);
    if (sel) {
      BindStickyIfNeeded(vip, req, sel->backend);
    }
    if (sel &&
        !(sel->backend.ip == flow.st.backend_ip &&
          sel->backend.port == flow.st.backend_port) &&
        flow.outstanding_requests == 0) {
      // Different backend and no response in flight: switch (§5.2). The
      // buffered request is replayed to the new server on establishment.
      ReSwitch(key, flow, vip, sel->backend);
      if (p.fin()) {
        flow.fin_from_client = true;  // FIN is relayed after the new leg.
      }
      return;
    }
    // Same backend (or response outstanding): forward on the current leg.
    ForwardPendingRequests(key, flow, vip, p.ack);
  }
  if (p.fin()) {
    flow.fin_from_client = true;
    ctx_->Trace(key, obs::EventType::kFin, 0);
    net::Packet fin;
    fin.src = key.vip;
    fin.sport = key.client_port;
    fin.dst = flow.st.backend_ip;
    fin.dport = flow.st.backend_port;
    fin.seq = flow.inspect_next_seq + flow.st.seq_delta_c2s;
    fin.ack = p.ack - flow.st.seq_delta_s2c;
    fin.flags = net::kFin | net::kAck;
    ctx_->EmitForwarded(std::move(fin));
    ctx_->splice->MaybeScheduleCleanup(key, flow);
  }
}

std::string L7Dispatcher::ConsumeInOrder(LocalFlow& flow, const net::Packet& p) {
  // This segment (trimming any old prefix) plus any now-contiguous buffered
  // segments.
  std::string fresh(p.payload.view().substr(flow.inspect_next_seq - p.seq));
  flow.inspect_next_seq += static_cast<std::uint32_t>(fresh.size());
  for (auto it = flow.pending_segments.begin(); it != flow.pending_segments.end();) {
    const std::uint32_t s = it->first;
    const auto l = static_cast<std::uint32_t>(it->second.size());
    if (net::SeqLeq(s, flow.inspect_next_seq) && net::SeqGt(s + l, flow.inspect_next_seq)) {
      fresh += it->second.view().substr(flow.inspect_next_seq - s);
      flow.inspect_next_seq = s + l;
      it = flow.pending_segments.erase(it);
    } else if (net::SeqLeq(s + l, flow.inspect_next_seq)) {
      it = flow.pending_segments.erase(it);
    } else {
      ++it;
    }
  }
  return fresh;
}

void L7Dispatcher::ForwardPendingRequests(const FlowKey& key, LocalFlow& flow, VipState& vip,
                                          std::uint32_t client_ack) {
  // The buffered request, sequence-aligned, in MSS-sized segments.
  std::uint32_t seq = flow.request_start_seq;
  std::size_t off = 0;
  while (off < flow.pending_request.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(ctx_->cfg->mss, flow.pending_request.size() - off);
    net::Packet out;
    out.src = key.vip;
    out.sport = key.client_port;
    out.dst = flow.st.backend_ip;
    out.dport = flow.st.backend_port;
    out.seq = seq + flow.st.seq_delta_c2s;
    out.ack = client_ack - flow.st.seq_delta_s2c;
    out.flags = net::kAck | net::kPsh;
    out.payload = flow.pending_request.substr(off, chunk);
    ctx_->EmitForwarded(std::move(out));
    seq += static_cast<std::uint32_t>(chunk);
    off += chunk;
  }
  flow.outstanding_requests += 1;
  // Pipelined clients may have packed several requests into this batch;
  // they all go to the same backend (re-switch requires outstanding == 0).
  while (flow.inspect_parser.status() == http::ParseStatus::kComplete) {
    http::Request extra = flow.inspect_parser.TakeRequest();
    auto extra_sel = SelectBackend(vip, extra);
    if (extra_sel) {
      BindStickyIfNeeded(vip, extra, extra_sel->backend);
    }
    flow.outstanding_requests += 1;
    flow.st.pipeline_request_ends.push_back(flow.inspect_next_seq - flow.st.client_isn - 1);
  }
  flow.pending_request.clear();
  flow.request_start_seq = flow.inspect_next_seq;
  // Record the request boundary for pipelined-response ordering and update
  // TCPStore so a takeover instance knows the order (§5.2). The write is
  // non-gating, so it goes through the coalescing write-behind path.
  flow.st.pipeline_request_ends.push_back(flow.inspect_next_seq - flow.st.client_isn - 1);
  ctx_->store->Refresh(flow.st);
}

void L7Dispatcher::ReSwitch(const FlowKey& key, LocalFlow& flow, VipState& vip,
                            const rules::Backend& new_backend) {
  ctx_->ctr->reswitches->Inc();
  ctx_->Trace(key, obs::EventType::kReSwitch, new_backend.ip);
  // Close the old server connection and drop its return pin.
  const net::FiveTuple old_side{flow.st.backend_ip, key.vip, flow.st.backend_port,
                                key.client_port};
  net::Packet rst;
  rst.src = key.vip;
  rst.sport = key.client_port;
  rst.dst = flow.st.backend_ip;
  rst.dport = flow.st.backend_port;
  rst.seq = flow.request_start_seq + flow.st.seq_delta_c2s;
  rst.flags = net::kRst;
  ctx_->Emit(std::move(rst));
  ctx_->fabric->UnregisterSnat(old_side);
  ctx_->flows->UnbindServer(old_side);
  const FlowState old_state = flow.st;
  ctx_->store->Remove(old_state);

  (*ctx_->backend_load)[flow.st.backend_ip] -= 1;
  (*ctx_->backend_load)[new_backend.ip] += 1;

  // Re-enter the connection phase against the new backend, reusing the
  // normal plumbing: the buffered request becomes `assembled`, and the SYN's
  // ISN is rebased to (request start - 1) so the client->server sequence
  // delta stays zero on the new leg. The server->client delta is derived
  // from client_facing_nxt when the new SYN-ACK arrives. SendServerSyn moves
  // the FSM across the kEstablished -> kServerSynSent re-switch edge.
  flow.st.backend_ip = new_backend.ip;
  flow.st.backend_port = new_backend.port;
  flow.st.client_isn = flow.request_start_seq - 1;
  flow.st.stage = FlowStage::kConnection;
  flow.server_syn_attempts = 0;
  flow.assembled = std::move(flow.pending_request);
  flow.pending_request.clear();
  flow.assembled_end = flow.inspect_next_seq;
  flow.st.pipeline_request_ends.clear();
  ctx_->Trace(key, obs::EventType::kBackendPinned, new_backend.ip);
  // The old signed token's claims (old backend, old delta) are dead; re-mint
  // from the rebased connection-phase state so the client echoes a current
  // one while the new leg connects.
  ctx_->RefreshCookie(key, flow);
  ctx_->handshake->SendServerSyn(key, flow);
  (void)vip;
}

}  // namespace yoda
