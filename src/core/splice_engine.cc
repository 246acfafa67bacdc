#include "src/core/splice_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/l7_dispatcher.h"

namespace yoda {

void SpliceEngine::TunnelFromClient(const FlowKey& key, LocalFlow& flow, VipState& vip,
                                    const net::Packet& p) {
  if (flow.inspect_next_seq != 0 && !p.payload.empty()) {
    ctx_->dispatcher->InspectClientStream(key, flow, vip, p);
    // InspectClientStream forwards (possibly re-targeted) bytes itself.
    return;
  }
  net::Packet out = p;
  out.src = key.vip;
  out.sport = key.client_port;
  out.dst = flow.st.backend_ip;
  out.dport = flow.st.backend_port;
  out.seq = p.seq + flow.st.seq_delta_c2s;
  out.ack = p.ack - flow.st.seq_delta_s2c;
  out.encap_dst = 0;
  out.cookie = 0;  // The client's echoed token is not for the backend.
  if (p.fin()) {
    flow.fin_from_client = true;
    ctx_->Trace(key, obs::EventType::kFin, 0);
  }
  ctx_->EmitForwarded(std::move(out));
  MaybeScheduleCleanup(key, flow);
}

void SpliceEngine::TunnelFromServer(const FlowKey& key, LocalFlow& flow, const net::Packet& p) {
  if (!flow.mirror_legs.empty() && !flow.mirror_decided && !p.payload.empty()) {
    // The original primary answered first: it wins the mirror race.
    flow.mirror_decided = true;
    KillLosingLegs(key, flow, flow.st.backend_ip);
  }
  net::Packet out = p;
  out.src = key.vip;
  out.sport = key.vip_port;
  out.dst = key.client_ip;
  out.dport = key.client_port;
  out.seq = p.seq + flow.st.seq_delta_s2c;
  out.ack = p.ack - flow.st.seq_delta_c2s;
  out.encap_dst = 0;
  // Re-stamp the flow's signed token on the tunneled segment: the client's
  // TCP echoes the newest one back, keeping the recoverable claims (backend,
  // splice delta) current on the wire. 0 (stateful) erases any stray echo.
  out.cookie = flow.cookie;
  // Track the splice point for potential HTTP/1.1 re-switches.
  const std::uint32_t emitted_end =
      out.seq + static_cast<std::uint32_t>(p.payload.size()) + (p.fin() ? 1 : 0);
  if (net::SeqGt(emitted_end, flow.client_facing_nxt)) {
    flow.client_facing_nxt = emitted_end;
  }
  if (p.fin()) {
    flow.fin_from_server = true;
    ctx_->Trace(key, obs::EventType::kFin, 1);
  }
  if (!p.payload.empty() && flow.outstanding_requests > 0) {
    // Track response completion for re-switch gating (cheap heuristic: a
    // PSH-terminated server burst ends one response).
    if (p.has(net::kPsh)) {
      flow.outstanding_requests -= 1;
      if (!flow.st.pipeline_request_ends.empty()) {
        flow.st.pipeline_request_ends.erase(flow.st.pipeline_request_ends.begin());
      }
    }
  }
  ctx_->EmitForwarded(std::move(out));
  MaybeScheduleCleanup(key, flow);
}

void SpliceEngine::LaunchMirrorLegs(const FlowKey& key, LocalFlow& flow) {
  for (LocalFlow::MirrorLeg& leg : flow.mirror_legs) {
    net::Packet syn;
    syn.src = key.vip;
    syn.sport = key.client_port;
    syn.dst = leg.ip;
    syn.dport = leg.port;
    syn.seq = flow.st.client_isn;
    syn.flags = net::kSyn;
    const net::FiveTuple leg_side{leg.ip, key.vip, leg.port, key.client_port};
    ctx_->fabric->RegisterSnat(leg_side, ctx_->self_ip);
    ctx_->flows->BindServer(leg_side, key);
    ctx_->Emit(std::move(syn));
    ctx_->cpu->ChargeConnection();
  }
}

bool SpliceEngine::HandleMirrorPacket(const FlowKey& key, LocalFlow& flow,
                                      const net::Packet& p) {
  LocalFlow::MirrorLeg* leg = nullptr;
  for (LocalFlow::MirrorLeg& l : flow.mirror_legs) {
    if (l.ip == p.src && l.port == p.sport) {
      leg = &l;
    }
  }
  if (leg == nullptr) {
    return false;
  }
  if (flow.mirror_decided) {
    // A winner already serves the client; silence this leg.
    if (!p.rst()) {
      ctx_->Emit(net::MakeRst(p));
    }
    return true;
  }
  if (p.syn() && p.ack_flag()) {
    // Complete this leg's handshake and replay the buffered request, exactly
    // like the primary's ForwardRequestToServer but with no storage write.
    leg->established = true;
    leg->server_isn = p.seq;
    const std::string& data = flow.assembled;
    std::uint32_t seq = flow.st.client_isn + 1;
    std::size_t off = 0;
    do {
      const std::size_t len = std::min<std::size_t>(ctx_->cfg->mss, data.size() - off);
      net::Packet pkt;
      pkt.src = key.vip;
      pkt.sport = key.client_port;
      pkt.dst = leg->ip;
      pkt.dport = leg->port;
      pkt.seq = seq;
      pkt.ack = leg->server_isn + 1;
      pkt.flags = net::kAck;
      pkt.payload = data.substr(off, len);
      if (off + len >= data.size()) {
        pkt.flags |= net::kPsh;
      }
      ctx_->Emit(std::move(pkt));
      seq += static_cast<std::uint32_t>(len);
      off += len;
    } while (off < data.size());
    return true;
  }
  if (!p.payload.empty()) {
    // First response data: this leg wins the race (the paper tunnels the
    // first response and marks later ones for dropping).
    PromoteMirrorWinner(key, flow, *leg, p);
    return true;
  }
  return true;  // Bare ACKs from a still-racing leg.
}

void SpliceEngine::PromoteMirrorWinner(const FlowKey& key, LocalFlow& flow,
                                       LocalFlow::MirrorLeg& leg,
                                       const net::Packet& first_data) {
  flow.mirror_decided = true;
  ctx_->Trace(key, obs::EventType::kMirrorPromote, leg.ip);
  // The old primary loses: reset it and drop its pins before retargeting.
  {
    net::Packet rst;
    rst.src = key.vip;
    rst.sport = key.client_port;
    rst.dst = flow.st.backend_ip;
    rst.dport = flow.st.backend_port;
    rst.seq = flow.st.client_isn + 1 + static_cast<std::uint32_t>(flow.assembled.size());
    rst.flags = net::kRst;
    ctx_->Emit(std::move(rst));
    const net::FiveTuple old_side{flow.st.backend_ip, key.vip, flow.st.backend_port,
                                  key.client_port};
    ctx_->fabric->UnregisterSnat(old_side);
    ctx_->flows->UnbindServer(old_side);
  }
  // Retarget the flow at the winning mirror.
  flow.st.backend_ip = leg.ip;
  flow.st.backend_port = leg.port;
  flow.st.server_isn = leg.server_isn;
  flow.st.seq_delta_s2c = flow.client_facing_nxt - (leg.server_isn + 1);
  const net::FiveTuple winner_side{leg.ip, key.vip, leg.port, key.client_port};
  ctx_->flows->BindServer(winner_side, key);
  ctx_->Trace(key, obs::EventType::kBackendPinned, leg.ip);
  // The old token's claims are now wrong; re-mint (the new delta usually
  // stays codable — mirror legs reuse the client ISN, so seq_delta_c2s is 0).
  ctx_->RefreshCookie(key, flow);
  // Non-gating state update: the retarget rides the write-behind path.
  ctx_->store->Refresh(flow.st, flow.store_mode);
  KillLosingLegs(key, flow, leg.ip);
  TunnelFromServer(key, flow, first_data);
}

void SpliceEngine::KillLosingLegs(const FlowKey& key, LocalFlow& flow, net::IpAddr winner_ip) {
  const std::uint32_t next_seq =
      flow.st.client_isn + 1 + static_cast<std::uint32_t>(flow.assembled.size());
  auto kill = [this, &key, next_seq](net::IpAddr ip, net::Port port) {
    net::Packet rst;
    rst.src = key.vip;
    rst.sport = key.client_port;
    rst.dst = ip;
    rst.dport = port;
    rst.seq = next_seq;
    rst.flags = net::kRst;
    ctx_->Emit(std::move(rst));
    const net::FiveTuple side{ip, key.vip, port, key.client_port};
    ctx_->fabric->UnregisterSnat(side);
    ctx_->flows->UnbindServer(side);
  };
  for (LocalFlow::MirrorLeg& leg : flow.mirror_legs) {
    if (leg.ip != winner_ip) {
      kill(leg.ip, leg.port);
    }
  }
}

void SpliceEngine::MaybeScheduleCleanup(const FlowKey& key, LocalFlow& flow) {
  if (!flow.fin_from_client || !flow.fin_from_server ||
      flow.phase() != FlowPhase::kEstablished) {
    return;
  }
  flow.fsm.Transition(FlowPhase::kDraining);
  ctx_->sim->After(ctx_->cfg->flow_cleanup_delay, [this, key]() {
    if (ctx_->alive() && ctx_->flows->Find(key) != nullptr) {
      ctx_->CleanupFlow(key, /*remove_from_store=*/true);
    }
  });
}

}  // namespace yoda
