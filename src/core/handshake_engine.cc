#include "src/core/handshake_engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/l7_dispatcher.h"
#include "src/core/splice_engine.h"
#include "src/tls/tls.h"

namespace yoda {

void HandshakeEngine::OnClientSyn(const net::Packet& syn, VipState& vip) {
  const FlowKey key{syn.dst, syn.dport, syn.src, syn.sport};
  LocalFlow* flow = ctx_->flows->Find(key);
  if (flow != nullptr && !flow->lookup_pending() && flow->st.client_isn != syn.seq) {
    // Same client ip:port with a different ISN: the client's ephemeral
    // port wrapped around and this is a brand-new connection. The old
    // flow is defunct; drop its state and start fresh.
    ctx_->CleanupFlow(key, /*remove_from_store=*/true);
    flow = nullptr;
  }
  if (flow == nullptr) {
    StartNewFlow(syn, vip);
  } else if (flow->fsm.syn_state_stored()) {
    SendSynAck(key, *flow);  // Retransmitted SYN: deterministic answer.
  }
}

void HandshakeEngine::StartNewFlow(const net::Packet& syn, VipState& vip) {
  const FlowKey key{syn.dst, syn.dport, syn.src, syn.sport};
  auto fresh = std::make_unique<LocalFlow>(FlowPhase::kSynReceived);
  fresh->last_packet = ctx_->sim->now();
  fresh->syn_time = ctx_->sim->now();
  fresh->tls_active = vip.tls.has_value();
  fresh->st.stage = FlowStage::kConnection;
  fresh->st.client_ip = syn.src;
  fresh->st.client_port = syn.sport;
  fresh->st.vip = syn.dst;
  fresh->st.vip_port = syn.dport;
  fresh->st.client_isn = syn.seq;
  fresh->st.lb_isn = DeterministicLbIsn(syn.dst, syn.dport, syn.src, syn.sport);
  fresh->client_facing_nxt = fresh->st.lb_isn + 1;
  fresh->assembled_end = syn.seq + 1;
  fresh->store_mode = vip.store_mode;  // Latched for the flow's lifetime.
  LocalFlow& flow = ctx_->flows->Insert(key, std::move(fresh));
  ctx_->RefreshCookie(key, flow);
  ctx_->ctr->flows_started->Inc();
  if (ctx_->count_new_connection) {
    ctx_->count_new_connection(key.vip);
  }
  ctx_->Trace(key, obs::EventType::kClientSyn);
  ctx_->cpu->ChargeConnection();

  // storage-a: persist the SYN capture *before* answering (Fig 3). In
  // stateless mode the cookie carries the capture instead — the write
  // demotes to a journal entry and the completion fires inline, so the
  // SYN-ACK goes out with zero synchronous store writes.
  ctx_->store->WriteSynState(flow.st, flow.store_mode, [this, key](bool ok) {
    if (!ctx_->alive()) {
      return;
    }
    LocalFlow* f = ctx_->flows->Find(key);
    if (f == nullptr || !ok) {
      return;
    }
    f->fsm.Transition(f->tls_active ? FlowPhase::kTlsHandshake : FlowPhase::kSynAckSent);
    if (f->syn_time != 0) {
      ctx_->stage->handshake_ms->Add(sim::ToMillis(ctx_->sim->now() - f->syn_time));
    }
    SendSynAck(key, *f);
    // Process any client data that raced ahead of the storage ack.
    std::vector<net::Packet> stalled = std::move(f->stalled);
    f->stalled.clear();
    VipState* vip_state = ctx_->FindVip(key.vip);
    for (const net::Packet& sp : stalled) {
      LocalFlow* ff = ctx_->flows->Find(key);
      if (ff == nullptr || vip_state == nullptr) {
        break;
      }
      ctx_->dispatcher->OnClientData(key, *ff, *vip_state, sp);
    }
  });
}

void HandshakeEngine::SendSynAck(const FlowKey& key, const LocalFlow& flow) {
  net::Packet p;
  p.src = key.vip;
  p.sport = key.vip_port;
  p.dst = key.client_ip;
  p.dport = key.client_port;
  p.seq = flow.st.lb_isn;
  p.ack = flow.st.client_isn + 1;
  p.flags = net::kSyn | net::kAck;
  p.cookie = flow.cookie;  // Signed SYN-cookie token (0 in stateful mode).
  ctx_->Trace(key, obs::EventType::kSynAckSent);
  ctx_->Emit(std::move(p));
}

void HandshakeEngine::TlsConnectionPhase(const FlowKey& key, LocalFlow& flow, VipState& vip) {
  if (!vip.tls) {
    return;
  }
  // Feed only the new in-order bytes to the record reader.
  if (flow.assembled.size() > flow.tls_consumed) {
    flow.tls_reader.Feed(std::string_view(flow.assembled).substr(flow.tls_consumed));
    flow.tls_consumed = flow.assembled.size();
  }
  while (auto record = flow.tls_reader.Next()) {
    const auto record_len = static_cast<std::uint32_t>(5 + record->payload.size());
    switch (record->type) {
      case tls::RecordType::kClientHello: {
        auto hello = tls::ClientHello::Parse(record->payload);
        if (!hello) {
          break;
        }
        if (!flow.tls_ready) {
          flow.tls_client_random = hello->client_random;
          flow.tls_handshake_len += record_len;
        }
        // Answer (or re-answer: a retransmitted hello means the client never
        // saw the flight) with the deterministic certificate flight.
        SendCertificateFlight(key, flow, vip);
        break;
      }
      case tls::RecordType::kClientFinished: {
        if (!flow.tls_ready) {
          const std::uint64_t server_random =
              tls::DeriveServerRandom(vip.tls->certificate, flow.tls_client_random);
          flow.tls_session_key = tls::DeriveSessionKey(flow.tls_client_random, server_random);
          flow.tls_ready = true;
          flow.tls_handshake_len += record_len;
        }
        break;
      }
      case tls::RecordType::kApplicationData: {
        if (!flow.tls_ready) {
          break;  // Out-of-order junk; the handshake replay will fix it.
        }
        const std::string plaintext =
            tls::Crypt(flow.tls_session_key, flow.tls_cipher_offset, record->payload);
        flow.tls_cipher_offset += record->payload.size();
        flow.tls_plaintext += plaintext;
        flow.parser.Feed(plaintext);
        break;
      }
      default:
        break;
    }
  }
}

void HandshakeEngine::SendCertificateFlight(const FlowKey& key, LocalFlow& flow,
                                            const VipState& vip) {
  tls::ServerCertificate cert;
  cert.certificate = vip.tls->certificate;
  cert.server_random = tls::DeriveServerRandom(vip.tls->certificate, flow.tls_client_random);
  const std::string flight =
      tls::EncodeRecord({tls::RecordType::kServerCertificate, cert.Serialize()});
  flow.cert_flight_len = static_cast<std::uint32_t>(flight.size());
  flow.client_facing_nxt = flow.st.lb_isn + 1 + flow.cert_flight_len;
  ctx_->cpu->ChargeConnection();
  // Deterministic bytes at deterministic sequence numbers: a resend (by this
  // or any other instance) is byte-identical, and the client's TCP discards
  // duplicates. The hello is intentionally NOT ACKed — the client keeps it
  // retransmittable until the backend's ACKs (translated) cover it.
  std::uint32_t seq = flow.st.lb_isn + 1;
  std::size_t off = 0;
  while (off < flight.size()) {
    const std::size_t chunk = std::min<std::size_t>(ctx_->cfg->mss, flight.size() - off);
    net::Packet pkt;
    pkt.src = key.vip;
    pkt.sport = key.vip_port;
    pkt.dst = key.client_ip;
    pkt.dport = key.client_port;
    pkt.seq = seq;
    pkt.ack = flow.st.client_isn + 1;
    pkt.flags = net::kAck;
    pkt.cookie = flow.cookie;
    pkt.payload = flight.substr(off, chunk);
    if (off + chunk >= flight.size()) {
      pkt.flags |= net::kPsh;
    }
    ctx_->Emit(std::move(pkt));
    seq += static_cast<std::uint32_t>(chunk);
    off += chunk;
  }
}

void HandshakeEngine::SendServerSyn(const FlowKey& key, LocalFlow& flow) {
  // First SYN of a leg moves the FSM (from kSelecting, or from kEstablished
  // on an HTTP/1.1 re-switch); timer-driven retries stay in kServerSynSent.
  if (flow.phase() != FlowPhase::kServerSynSent) {
    flow.fsm.Transition(FlowPhase::kServerSynSent);
  }
  // VIP-sourced SYN reusing the client's ISN (front-and-back indirection +
  // zero client->server sequence delta).
  net::Packet syn;
  syn.src = key.vip;
  syn.sport = key.client_port;
  syn.dst = flow.st.backend_ip;
  syn.dport = flow.st.backend_port;
  syn.seq = flow.st.client_isn;
  syn.flags = net::kSyn;
  // Return-path pin so the server's replies come back to this instance.
  const net::FiveTuple server_side{flow.st.backend_ip, key.vip, flow.st.backend_port,
                                   key.client_port};
  ctx_->fabric->RegisterSnat(server_side, ctx_->self_ip);
  ctx_->flows->BindServer(server_side, key);
  ctx_->Emit(std::move(syn));
  ++flow.server_syn_attempts;
  if (flow.server_syn_attempts == 1) {
    flow.server_syn_time = ctx_->sim->now();
    if (flow.started != 0) {
      ctx_->stage->dispatch_ms->Add(sim::ToMillis(ctx_->sim->now() - flow.started));
    }
  }
  ctx_->Trace(key, obs::EventType::kServerSyn,
              static_cast<std::uint64_t>(flow.server_syn_attempts));
  if (flow.server_syn_attempts <= ctx_->cfg->server_syn_retries) {
    flow.server_syn_timer = ctx_->sim->After(ctx_->cfg->server_syn_timeout, [this, key]() {
      LocalFlow* f = ctx_->flows->Find(key);
      if (f != nullptr && f->phase() == FlowPhase::kServerSynSent && ctx_->alive()) {
        SendServerSyn(key, *f);
      }
    });
  }
}

void HandshakeEngine::OnServerSynAck(const FlowKey& key, LocalFlow& flow,
                                     const net::Packet& p) {
  flow.server_syn_timer.Cancel();
  if (flow.phase() == FlowPhase::kServerSynSent) {
    flow.fsm.Transition(FlowPhase::kStorageBWait);
  } else if (flow.phase() != FlowPhase::kStorageBWait) {
    // A SYN-ACK in any other phase is not a legal edge (e.g. a stale leg
    // answering after a re-switch un-pinned it): reset explicitly.
    if (!ctx_->Advance(key, flow, FlowPhase::kStorageBWait)) {
      return;
    }
  }
  // A duplicate SYN-ACK while the storage-b write is in flight re-runs the
  // derivation below (idempotent); the establishment callback fires once.
  flow.st.server_isn = p.seq;
  // The server's byte at server_isn+1 must appear to the client at
  // client_facing_nxt (== lb_isn+1 for the first leg; the current splice
  // point after an HTTP/1.1 re-switch).
  if (flow.client_facing_nxt == 0) {
    flow.client_facing_nxt = flow.st.lb_isn + 1;
  }
  flow.st.seq_delta_s2c = flow.client_facing_nxt - (p.seq + 1);  // mod 2^32.
  flow.st.seq_delta_c2s = 0;  // Client's (possibly rebased) ISN is reused.
  if (flow.tls_active) {
    // The server-side stream replaces Hello+Finished with the session
    // ticket; client appdata bytes shift by the difference.
    VipState* vip = ctx_->FindVip(key.vip);
    if (vip != nullptr && vip->tls) {
      const std::string ticket = tls::EncodeRecord(
          {tls::RecordType::kSessionTicket,
           tls::SealTicket(flow.tls_session_key, vip->tls->service_key)});
      flow.st.seq_delta_c2s =
          static_cast<std::uint32_t>(ticket.size()) - flow.tls_handshake_len;
    }
  }
  flow.st.stage = FlowStage::kTunneling;
  ctx_->cpu->ChargeConnection();
  // Stateless mode: the tunneling claims (backend, splice delta) are now
  // final for this leg — mint the v2 cookie the client will echo.
  ctx_->RefreshCookie(key, flow);

  // storage-b: persist full state *before* ACKing the server (Fig 3), so a
  // crash after the ACK can always be recovered by another instance. In
  // stateless mode the cookie is that recovery path; the journal entry is a
  // write-behind fallback and the completion fires inline.
  ctx_->store->WriteEstablishedState(flow.st, flow.store_mode, [this, key](bool ok) {
    if (!ctx_->alive()) {
      return;
    }
    LocalFlow* f = ctx_->flows->Find(key);
    if (f == nullptr || !ok || f->established()) {
      return;
    }
    f->fsm.Transition(FlowPhase::kEstablished);
    if (f->server_syn_time != 0) {
      ctx_->stage->server_connect_ms->Add(sim::ToMillis(ctx_->sim->now() - f->server_syn_time));
      f->server_syn_time = 0;
    }
    ctx_->Trace(key, obs::EventType::kEstablished);
    const net::FiveTuple server_side{f->st.backend_ip, key.vip, f->st.backend_port,
                                     key.client_port};
    ctx_->flows->BindServer(server_side, key);
    ctx_->dispatcher->ForwardRequestToServer(key, *f);
    if (!f->mirror_legs.empty()) {
      ctx_->splice->LaunchMirrorLegs(key, *f);
    }
    ctx_->ctr->flows_completed->Inc();
  });
}

}  // namespace yoda
