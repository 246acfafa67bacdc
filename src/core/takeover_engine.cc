#include "src/core/takeover_engine.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/core/l7_dispatcher.h"
#include "src/core/splice_engine.h"

namespace yoda {

void TakeoverEngine::TakeoverClientSide(const FlowKey& key, const net::Packet& p) {
  if (!p.ack_flag() && p.payload.empty() && !p.fin()) {
    return;  // Nothing recoverable.
  }
  auto flow = std::make_unique<LocalFlow>(FlowPhase::kTakeoverLookup);
  flow->last_packet = ctx_->sim->now();
  flow->takeover_start = ctx_->sim->now();
  flow->stalled.push_back(p);
  ctx_->flows->Insert(key, std::move(flow));
  // Fallback ladder: (1) reconstruct from the packet's signed cookie —
  // zero store round-trips; (2) the write-behind journal in TCPStore, with
  // the existing bounded re-fetch riding out the flush interval; (3) final
  // miss resets the flow explicitly.
  if (TryCookieAdopt(key, p)) {
    return;
  }
  ClientTakeoverLookup(key, /*attempt=*/0);
}

bool TakeoverEngine::TryCookieAdopt(const FlowKey& key, const net::Packet& p) {
  VipState* vip = ctx_->FindVip(key.vip);
  if (vip == nullptr || vip->store_mode != StoreMode::kStateless || p.cookie == 0) {
    return false;
  }
  CookieClaims claims;
  const CookieVerdict verdict =
      DecodeCookie(p.cookie, key.vip, key.vip_port, key.client_ip, key.client_port,
                   ctx_->cfg->cookie_secret,
                   static_cast<std::uint8_t>(vip->store_epoch & 0xff), &claims);
  if (verdict != CookieVerdict::kOk) {
    ctx_->ctr->cookie_rejects->Inc();
    ctx_->Trace(key, obs::EventType::kCookieReject,
                static_cast<std::uint64_t>(verdict));
    return false;  // Forged or minted under an older install: journal decides.
  }
  const std::optional<FlowState> st = FlowStateFromCookie(
      claims, key.vip, key.vip_port, key.client_ip, key.client_port, vip->backends,
      /*backend_port=*/80);
  if (!st) {
    return false;  // Journal-pinned token or claimed backend left the pool.
  }
  ctx_->ctr->takeovers_cookie->Inc();
  ctx_->ctr->takeovers_client_side->Inc();
  ctx_->Trace(key, obs::EventType::kCookieAdopt, st->backend_ip);
  ctx_->Trace(key, obs::EventType::kTakeoverClient);
  LocalFlow* f = ctx_->flows->Find(key);
  if (f != nullptr) {
    f->store_mode = StoreMode::kStateless;
    f->cookie = p.cookie;  // The claims still hold; keep echoing them.
  }
  AdoptFlow(key, *st);
  return true;
}

void TakeoverEngine::ClientTakeoverLookup(const FlowKey& key, int attempt) {
  ctx_->store->LookupByClient(
      key.vip, key.vip_port, key.client_ip, key.client_port,
      [this, key, attempt](std::optional<FlowState> st) {
        if (!ctx_->alive()) {
          return;
        }
        LocalFlow* f = ctx_->flows->Find(key);
        if (f == nullptr) {
          return;
        }
        if (!st) {
          // A miss may just mean a lagging or restarting replica: re-fetch
          // with doubling backoff before giving up on the flow.
          if (attempt < ctx_->cfg->takeover_retry_limit) {
            ctx_->ctr->takeover_retries->Inc();
            ctx_->Trace(key, obs::EventType::kTakeoverRetry,
                        static_cast<std::uint64_t>(attempt + 1));
            sim::Duration backoff = ctx_->cfg->takeover_retry_backoff;
            for (int i = 0; i < attempt; ++i) {
              backoff *= 2;
            }
            ctx_->sim->After(backoff, [this, key, attempt]() {
              if (!ctx_->alive()) {
                return;
              }
              LocalFlow* f2 = ctx_->flows->Find(key);
              if (f2 == nullptr || !f2->lookup_pending()) {
                return;
              }
              ClientTakeoverLookup(key, attempt + 1);
            });
            return;
          }
          ctx_->ctr->takeover_misses->Inc();
          ctx_->ResetFlowToClient(key, obs::FlowResetReason::kTakeoverMiss);
          return;
        }
        ctx_->ctr->takeovers_client_side->Inc();
        ctx_->Trace(key, obs::EventType::kTakeoverClient);
        AdoptFlow(key, *st);
      });
}

void TakeoverEngine::TakeoverServerSide(const net::Packet& p, VipState& vip) {
  // Server-side identity: (backend=src, bport=sport, vip=dst, cport=dport);
  // the client key arrives with the flow state.
  ServerTakeoverLookup(p, /*attempt=*/0);
  (void)vip;
}

void TakeoverEngine::ServerTakeoverLookup(const net::Packet& p, int attempt) {
  ctx_->store->LookupByServer(
      p.src, p.sport, p.dst, p.dport, [this, p, attempt](std::optional<FlowState> st) {
        if (!ctx_->alive()) {
          return;
        }
        if (!st || st->stage != FlowStage::kTunneling) {
          // RSTs for unknown flows are not worth recovering (and answering
          // them with more RSTs would only make noise).
          if (!p.rst() && attempt < ctx_->cfg->takeover_retry_limit) {
            ctx_->ctr->takeover_retries->Inc();
            sim::Duration backoff = ctx_->cfg->takeover_retry_backoff;
            for (int i = 0; i < attempt; ++i) {
              backoff *= 2;
            }
            ctx_->sim->After(backoff, [this, p, attempt]() {
              if (!ctx_->alive()) {
                return;
              }
              // A client-side adoption (cookie or journal) may have bound
              // the reverse tuple while we backed off — deliver locally
              // instead of re-querying the store.
              const FlowKey* bound = ctx_->flows->FindServer(p.tuple());
              if (bound != nullptr) {
                const FlowKey key = *bound;
                LocalFlow* f = ctx_->flows->Find(key);
                if (f != nullptr && f->established()) {
                  ctx_->splice->TunnelFromServer(key, *f, p);
                  return;
                }
              }
              ServerTakeoverLookup(p, attempt + 1);
            });
            return;
          }
          ctx_->ctr->takeover_misses->Inc();
          if (!p.rst()) {
            // Final miss: reset the orphaned server leg so the backend does
            // not hold the connection open forever.
            net::Packet rst;
            rst.src = p.dst;
            rst.sport = p.dport;
            rst.dst = p.src;
            rst.dport = p.sport;
            rst.seq = p.ack;
            rst.flags = net::kRst;
            ctx_->Emit(std::move(rst));
          }
          return;
        }
        ctx_->ctr->takeovers_server_side->Inc();
        const FlowKey key{st->vip, st->vip_port, st->client_ip, st->client_port};
        ctx_->Trace(key, obs::EventType::kTakeoverServer);
        if (ctx_->flows->Find(key) == nullptr) {
          AdoptFlow(key, *st);
        }
        LocalFlow* f = ctx_->flows->Find(key);
        if (f != nullptr && f->established()) {
          ctx_->splice->TunnelFromServer(key, *f, p);
        }
      });
}

void TakeoverEngine::AdoptFlow(const FlowKey& key, const FlowState& st) {
  LocalFlow* flow = ctx_->flows->Find(key);
  if (flow == nullptr) {
    flow = &ctx_->flows->Insert(key, std::make_unique<LocalFlow>(FlowPhase::kTakeoverLookup));
  }
  std::vector<net::Packet> stalled = std::move(flow->stalled);
  flow->stalled.clear();
  flow->last_packet = ctx_->sim->now();
  flow->adopted = true;  // Teardown uses the synchronous remove path.
  flow->st = st;
  flow->client_facing_nxt = st.lb_isn + 1;
  (*ctx_->backend_load)[st.backend_ip] += st.stage == FlowStage::kTunneling ? 1 : 0;
  if (st.backend_ip != 0) {
    // The pin travelled with the flow state; re-assert it in the trace so
    // pin-stability checks see the adopter agreeing with the original.
    ctx_->Trace(key, obs::EventType::kBackendPinned, st.backend_ip);
  }

  if (st.stage == FlowStage::kTunneling) {
    flow->fsm.Transition(FlowPhase::kEstablished);  // Takeover-entry edge.
    flow->inspect_next_seq = 0;  // Inspection state was lost; pass through.
    const net::FiveTuple server_side{st.backend_ip, st.vip, st.backend_port, st.client_port};
    ctx_->flows->BindServer(server_side, key);
    // Re-pin the return path to this instance.
    ctx_->fabric->RegisterSnat(server_side, ctx_->self_ip);
  } else {
    // Connection phase: the client's un-ACKed header will be retransmitted
    // in full; rebuild the assembly state from the stored ISN (Fig 5a). For
    // TLS VIPs the deterministic handshake replays from the hello.
    flow->assembled_end = st.client_isn + 1;
    VipState* vip_state = ctx_->FindVip(key.vip);
    flow->tls_active = vip_state != nullptr && vip_state->tls.has_value();
    flow->fsm.Transition(flow->tls_active ? FlowPhase::kTlsHandshake
                                          : FlowPhase::kSynAckSent);
  }
  if (flow->takeover_start != 0) {
    ctx_->stage->takeover_ms->Add(sim::ToMillis(ctx_->sim->now() - flow->takeover_start));
    flow->takeover_start = 0;
  }
  ctx_->cpu->ChargeConnection();

  VipState* vip = ctx_->FindVip(key.vip);
  for (const net::Packet& p : stalled) {
    LocalFlow* f = ctx_->flows->Find(key);
    if (f == nullptr || vip == nullptr) {
      break;
    }
    if (f->established()) {
      ctx_->splice->TunnelFromClient(key, *f, *vip, p);
    } else {
      ctx_->dispatcher->OnClientData(key, *f, *vip, p);
    }
  }
}

}  // namespace yoda
