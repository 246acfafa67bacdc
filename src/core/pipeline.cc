#include "src/core/pipeline.h"

#include <algorithm>
#include <utility>

namespace yoda {

void PipelineContext::Trace(const FlowKey& key, obs::EventType type, std::uint64_t detail) {
  sim->recorder().Record(obs::FlowId{key.vip, key.vip_port, key.client_ip, key.client_port},
                         sim->now(), type, self_ip, detail);
}

void PipelineContext::Emit(net::Packet p) { net->Send(std::move(p)); }

std::uint64_t PipelineContext::RefreshCookie(const FlowKey& key, LocalFlow& flow) {
  if (flow.store_mode != StoreMode::kStateless) {
    return 0;
  }
  const VipState* vip = FindVip(key.vip);
  const std::uint8_t epoch =
      vip != nullptr ? static_cast<std::uint8_t>(vip->store_epoch & 0xff) : 0;
  flow.cookie = MintFlowCookie(flow.st, epoch, cfg->cookie_secret);
  return flow.cookie;
}

void PipelineContext::EmitForwarded(net::Packet p) {
  cpu->ChargePacket();
  ctr->packets_tunneled->Inc();
  sim->After(cfg->cpu_costs.forward_delay, [this, p = std::move(p)]() mutable {
    if (alive()) {
      net->Send(std::move(p));
    }
  });
}

bool PipelineContext::Advance(const FlowKey& key, LocalFlow& flow, FlowPhase to) {
  if (flow.fsm.TryTransition(to)) {
    return true;
  }
  ctr->bad_transition_resets->Inc();
  ResetFlowToClient(key, obs::FlowResetReason::kBadTransition);
  return false;
}

void PipelineContext::ResetFlowToClient(const FlowKey& key, obs::FlowResetReason reason) {
  // An explicit RST beats a silent drop: the client learns immediately
  // instead of retransmitting into a void until its own timers expire.
  LocalFlow* f = flows->Find(key);
  net::Packet rst;
  rst.src = key.vip;
  rst.sport = key.vip_port;
  rst.dst = key.client_ip;
  rst.dport = key.client_port;
  rst.flags = net::kRst | net::kAck;
  if (f != nullptr && !f->stalled.empty()) {
    const net::Packet& last = f->stalled.back();
    rst.seq = last.ack;
    rst.ack = last.seq + last.SeqSpace();
  } else if (f != nullptr) {
    rst.seq = f->client_facing_nxt != 0 ? f->client_facing_nxt : f->st.lb_isn + 1;
    rst.ack = f->assembled_end;
  }
  Emit(std::move(rst));
  Trace(key, obs::EventType::kFlowReset, static_cast<std::uint64_t>(reason));
  CleanupFlow(key, /*remove_from_store=*/true);
}

void PipelineContext::CleanupFlow(const FlowKey& key, bool remove_from_store) {
  LocalFlow* flow = flows->Find(key);
  if (flow == nullptr) {
    return;
  }
  flow->server_syn_timer.Cancel();
  for (const LocalFlow::MirrorLeg& leg : flow->mirror_legs) {
    const net::FiveTuple leg_side{leg.ip, key.vip, leg.port, key.client_port};
    fabric->UnregisterSnat(leg_side);
    flows->UnbindServer(leg_side);
  }
  if (flow->st.stage == FlowStage::kTunneling || flow->fsm.selection_committed()) {
    const net::FiveTuple server_side{flow->st.backend_ip, key.vip, flow->st.backend_port,
                                     key.client_port};
    fabric->UnregisterSnat(server_side);
    flows->UnbindServer(server_side);
    auto it = backend_load->find(flow->st.backend_ip);
    if (it != backend_load->end() && flow->established()) {
      it->second = std::max(0, it->second - 1);
    }
  }
  if (remove_from_store && flow->fsm.syn_state_stored()) {
    store->Remove(flow->st, RemovalMode(*flow));
  }
  flow->fsm.Transition(FlowPhase::kClosed);
  Trace(key, obs::EventType::kCleanup);
  flows->Erase(key);
}

}  // namespace yoda
