#include "src/net/tcp_endpoint.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace net {

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynRcvd:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
    case TcpState::kReset:
      return "RESET";
  }
  return "?";
}

TcpEndpoint::TcpEndpoint(sim::Simulator* simulator, PacketSink sink, TcpConfig config)
    : sim_(simulator), sink_(std::move(sink)), cfg_(config) {}

TcpEndpoint::~TcpEndpoint() {
  CancelRto();
  time_wait_timer_.Cancel();
}

void TcpEndpoint::Emit(Packet p) {
  ++stats_.segments_sent;
  stats_.bytes_sent += p.payload.size();
  if (p.cookie == 0) {
    p.cookie = echo_cookie_;  // Timestamp-option echo of the peer's token.
  }
  sink_(std::move(p));
}

void TcpEndpoint::Connect(IpAddr self, Port sport, IpAddr peer, Port dport, std::uint32_t isn) {
  assert(state_ == TcpState::kClosed);
  self_ = self;
  sport_ = sport;
  peer_ = peer;
  dport_ = dport;
  snd_isn_ = isn;
  snd_una_ = isn;
  snd_nxt_ = isn + 1;  // SYN consumes one sequence number.
  state_ = TcpState::kSynSent;
  cwnd_ = cfg_.initial_cwnd_segments;
  retries_ = 0;
  Emit(MakeSyn(self_, sport_, peer_, dport_, snd_isn_));
  ArmRto(cfg_.syn_rto);
}

void TcpEndpoint::AcceptFrom(const Packet& syn, std::uint32_t isn) {
  assert(state_ == TcpState::kClosed);
  assert(syn.syn() && !syn.ack_flag());
  self_ = syn.dst;
  sport_ = syn.dport;
  peer_ = syn.src;
  dport_ = syn.sport;
  rcv_isn_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  snd_isn_ = isn;
  snd_una_ = isn;
  snd_nxt_ = isn + 1;
  state_ = TcpState::kSynRcvd;
  cwnd_ = cfg_.initial_cwnd_segments;
  retries_ = 0;
  Emit(MakeSynAck(syn, snd_isn_));
  ArmRto(cfg_.syn_rto);
}

void TcpEndpoint::Send(std::initializer_list<Payload> pieces) {
  if (state_ == TcpState::kClosed || state_ == TcpState::kReset || close_requested_) {
    return;
  }
  // Every piece is queued before anything is sent, so the segment boundaries
  // do not depend on how the message was split into pieces.
  for (const Payload& piece : pieces) {
    if (!piece.empty()) {
      sendq_bytes_ += static_cast<std::uint32_t>(piece.size());
      sendq_.push_back(piece);
    }
  }
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    TrySendData();
  }
}

void TcpEndpoint::Close() {
  if (close_requested_ || state_ == TcpState::kClosed || state_ == TcpState::kReset) {
    return;
  }
  close_requested_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait ||
      state_ == TcpState::kSynRcvd) {
    MaybeSendFin();
  }
}

void TcpEndpoint::Abort() {
  CancelRto();
  if (state_ != TcpState::kClosed && state_ != TcpState::kReset) {
    Packet rst;
    rst.src = self_;
    rst.dst = peer_;
    rst.sport = sport_;
    rst.dport = dport_;
    rst.seq = snd_nxt_;
    rst.ack = rcv_nxt_;
    rst.flags = kRst | kAck;
    Emit(std::move(rst));
  }
  state_ = TcpState::kReset;
  ReleaseClosedBuffers();
}

std::uint32_t TcpEndpoint::InFlight() const { return snd_nxt_ - snd_una_; }

void TcpEndpoint::ArmRto(sim::Duration rto) {
  CancelRto();
  current_rto_ = std::min(rto, cfg_.max_rto);
  rto_timer_ = sim_->After(current_rto_, [this]() { HandleRto(); });
}

void TcpEndpoint::CancelRto() { rto_timer_.Cancel(); }

void TcpEndpoint::HandleRto() {
  ++stats_.timeouts;
  ++retries_;
  const bool handshake = state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd;
  const int max_retries = handshake ? cfg_.max_syn_retries : cfg_.max_data_retries;
  if (retries_ > max_retries) {
    FailConnection();
    return;
  }
  ++stats_.retransmits;
  if (state_ == TcpState::kSynSent) {
    Emit(MakeSyn(self_, sport_, peer_, dport_, snd_isn_));
    ArmRto(cfg_.syn_rto * (1 << std::min(retries_, 5)));
    return;
  }
  if (state_ == TcpState::kSynRcvd) {
    Packet synack;
    synack.src = self_;
    synack.dst = peer_;
    synack.sport = sport_;
    synack.dport = dport_;
    synack.seq = snd_isn_;
    synack.ack = rcv_nxt_;
    synack.flags = kSyn | kAck;
    Emit(std::move(synack));
    ArmRto(cfg_.syn_rto * (1 << std::min(retries_, 5)));
    return;
  }
  // Data/FIN timeout: multiplicative decrease, retransmit from snd_una_.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1;
  dup_acks_ = 0;
  if (fin_sent_ && snd_una_ == fin_seq_ && sendq_.empty()) {
    // Only the FIN is outstanding.
    Packet fin;
    fin.src = self_;
    fin.dst = peer_;
    fin.sport = sport_;
    fin.dport = dport_;
    fin.seq = fin_seq_;
    fin.ack = rcv_nxt_;
    fin.flags = kFin | kAck;
    Emit(std::move(fin));
  } else if (!sendq_.empty()) {
    SendSegment(0, std::min(cfg_.mss, sendq_bytes_), /*retransmit=*/true);
  }
  ArmRto(current_rto_ * 2);
}

void TcpEndpoint::SendSegment(std::uint32_t seq_off, std::uint32_t len, bool retransmit) {
  Packet p;
  p.src = self_;
  p.dst = peer_;
  p.sport = sport_;
  p.dport = dport_;
  p.seq = snd_una_ + seq_off;
  p.ack = rcv_nxt_;
  p.flags = kAck;
  p.payload = SendqSlice(seq_off, len);
  if (seq_off + len >= sendq_bytes_) {
    p.flags |= kPsh;
  }
  if (retransmit) {
    // stats_.retransmits bumped by callers that know the cause.
  }
  Emit(std::move(p));
}

Payload TcpEndpoint::SendqSlice(std::uint32_t off, std::uint32_t len) const {
  auto chunk = sendq_.begin();
  while (off >= chunk->size()) {
    off -= static_cast<std::uint32_t>(chunk->size());
    ++chunk;
  }
  if (off + len <= chunk->size()) {
    return chunk->substr(off, len);  // Shares the chunk's buffer.
  }
  // The segment straddles two pieces: join its parts into one buffer.
  std::string joined;
  joined.reserve(len);
  for (; joined.size() < len; ++chunk, off = 0) {
    joined.append(chunk->view().substr(off, len - joined.size()));
  }
  return Payload(std::move(joined));
}

void TcpEndpoint::DropAcked(std::uint32_t n) {
  sendq_bytes_ -= n;
  auto chunk = sendq_.begin();
  for (; chunk != sendq_.end() && n >= chunk->size(); ++chunk) {
    n -= static_cast<std::uint32_t>(chunk->size());
  }
  if (n > 0) {
    *chunk = chunk->substr(n);
  }
  sendq_.erase(sendq_.begin(), chunk);
}

void TcpEndpoint::TrySendData() {
  const std::uint64_t window_bytes =
      static_cast<std::uint64_t>(cwnd_) * cfg_.mss;
  while (true) {
    const std::uint32_t in_flight = InFlight();
    const std::uint32_t next_off = in_flight;
    if (next_off >= sendq_bytes_) {
      break;
    }
    if (static_cast<std::uint64_t>(in_flight) + cfg_.mss > window_bytes && in_flight > 0) {
      break;
    }
    const std::uint32_t len = std::min(cfg_.mss, sendq_bytes_ - next_off);
    SendSegment(next_off, len, /*retransmit=*/false);
    snd_nxt_ += len;
    if (!rto_timer_.pending()) {
      retries_ = 0;
      ArmRto(cfg_.initial_rto);
    }
  }
  MaybeSendFin();
}

void TcpEndpoint::MaybeSendFin() {
  if (!close_requested_ || fin_sent_) {
    return;
  }
  // FIN goes out only after all data is in flight (it still may retransmit).
  if (InFlight() < sendq_bytes_) {
    return;
  }
  fin_sent_ = true;
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  Packet fin;
  fin.src = self_;
  fin.dst = peer_;
  fin.sport = sport_;
  fin.dport = dport_;
  fin.seq = fin_seq_;
  fin.ack = rcv_nxt_;
  fin.flags = kFin | kAck;
  Emit(std::move(fin));
  if (!rto_timer_.pending()) {
    retries_ = 0;
    ArmRto(cfg_.initial_rto);
  }
  if (state_ == TcpState::kEstablished || state_ == TcpState::kSynRcvd) {
    state_ = TcpState::kFinWait1;
  } else if (state_ == TcpState::kCloseWait) {
    state_ = TcpState::kLastAck;
  }
}

void TcpEndpoint::SendAck() {
  Emit(MakeAck(self_, sport_, peer_, dport_, snd_nxt_, rcv_nxt_));
}

void TcpEndpoint::BecomeEstablished() {
  state_ = TcpState::kEstablished;
  retries_ = 0;
  CancelRto();
  if (on_connected_) {
    on_connected_();
  }
  TrySendData();
}

void TcpEndpoint::FailConnection() {
  CancelRto();
  state_ = TcpState::kReset;
  ReleaseClosedBuffers();
  if (on_failed_) {
    on_failed_();
  }
}

void TcpEndpoint::ReleaseClosedBuffers() {
  // A terminal endpoint (TIME_WAIT, closed, reset) never transmits or
  // reassembles again, but owners keep it around — server connections linger
  // through TIME_WAIT and browser fetches through the tuple-reuse window. At
  // high load those windows hold tens of thousands of endpoints. A fully
  // acked send queue already holds no bytes; this drops what a reset or a
  // failed transfer left unacked, the stashed out-of-order segments and the
  // queue's own slots.
  std::vector<Payload>().swap(sendq_);
  sendq_bytes_ = 0;
  ooo_.clear();
}

void TcpEndpoint::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  CancelRto();
  ReleaseClosedBuffers();
  // The handle matters: a TIME_WAIT endpoint can be destroyed before the
  // timer fires (port reuse replaces the connection), and an unowned timer
  // would then run against a freed endpoint.
  time_wait_timer_ = sim_->After(cfg_.time_wait, [this]() {
    if (state_ == TcpState::kTimeWait) {
      state_ = TcpState::kClosed;
      if (on_closed_) {
        on_closed_();
      }
    }
  });
}

void TcpEndpoint::ProcessAck(const Packet& p) {
  if (!p.ack_flag()) {
    return;
  }
  const std::uint32_t ack = p.ack;
  if (SeqGt(ack, snd_nxt_)) {
    return;  // Acks data we never sent; ignore.
  }
  if (SeqGt(ack, snd_una_)) {
    // The FIN consumes one sequence number not present in sendq_.
    DropAcked(std::min(ack - snd_una_, sendq_bytes_));
    snd_una_ = ack;
    dup_acks_ = 0;
    retries_ = 0;
    // cwnd growth: slow start below ssthresh, else ~1 segment per RTT.
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1;
    } else {
      cwnd_ += 1.0 / std::max(cwnd_, 1.0);
    }
    if (InFlight() == 0) {
      CancelRto();
    } else {
      ArmRto(cfg_.initial_rto);
    }
    // FIN fully acknowledged?
    if (fin_sent_ && SeqGeq(snd_una_, fin_seq_ + 1)) {
      if (state_ == TcpState::kFinWait1) {
        state_ = fin_received_ ? TcpState::kTimeWait : TcpState::kFinWait2;
        if (state_ == TcpState::kTimeWait) {
          EnterTimeWait();
        }
      } else if (state_ == TcpState::kLastAck) {
        CancelRto();
        state_ = TcpState::kClosed;
        ReleaseClosedBuffers();
        if (on_closed_) {
          on_closed_();
        }
        return;
      } else if (state_ == TcpState::kClosing) {
        EnterTimeWait();
      }
    }
    TrySendData();
  } else if (ack == snd_una_ && InFlight() > 0 && p.payload.empty() && !p.syn() && !p.fin()) {
    ++dup_acks_;
    if (dup_acks_ == 3 && !sendq_.empty()) {
      ++stats_.fast_retransmits;
      ++stats_.retransmits;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_;
      SendSegment(0, std::min(cfg_.mss, sendq_bytes_), /*retransmit=*/true);
    }
  }
}

void TcpEndpoint::ProcessPayload(const Packet& p) {
  if (p.payload.empty()) {
    return;
  }
  const std::uint32_t seg_seq = p.seq;
  const auto seg_len = static_cast<std::uint32_t>(p.payload.size());
  if (SeqLeq(seg_seq + seg_len, rcv_nxt_)) {
    SendAck();  // Entirely old; re-ack so the peer makes progress.
    return;
  }
  if (SeqGt(seg_seq, rcv_nxt_)) {
    ooo_[seg_seq] = p.payload;  // Future segment; stash and dup-ack.
    SendAck();
    return;
  }
  // Overlapping or exactly in order: trim the old prefix. What is delivered
  // is a slice of the segment, so the receiver can keep it without a copy.
  const Payload fresh = p.payload.substr(rcv_nxt_ - seg_seq);
  rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
  stats_.bytes_delivered += fresh.size();
  if (on_data_) {
    on_data_(fresh);
  }
  // Drain any now-contiguous out-of-order segments.
  auto it = ooo_.begin();
  while (it != ooo_.end()) {
    const std::uint32_t s = it->first;
    const auto len = static_cast<std::uint32_t>(it->second.size());
    if (SeqGt(s, rcv_nxt_)) {
      break;
    }
    if (SeqGt(s + len, rcv_nxt_)) {
      const Payload tail = it->second.substr(rcv_nxt_ - s);
      rcv_nxt_ += static_cast<std::uint32_t>(tail.size());
      stats_.bytes_delivered += tail.size();
      if (on_data_) {
        on_data_(tail);
      }
    }
    it = ooo_.erase(it);
  }
  SendAck();
}

void TcpEndpoint::ProcessFin(const Packet& p) {
  if (!p.fin()) {
    return;
  }
  const std::uint32_t fin_seq = p.seq + static_cast<std::uint32_t>(p.payload.size());
  if (fin_seq != rcv_nxt_) {
    SendAck();  // FIN not yet in order (missing data before it).
    return;
  }
  if (fin_received_) {
    SendAck();
    return;
  }
  fin_received_ = true;
  rcv_nxt_ += 1;
  SendAck();
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      if (on_closed_) {
        on_closed_();
      }
      if (close_requested_) {
        MaybeSendFin();
      }
      break;
    case TcpState::kFinWait1:
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      EnterTimeWait();
      if (on_closed_) {
        on_closed_();
      }
      break;
    default:
      break;
  }
}

void TcpEndpoint::HandlePacket(const Packet& p) {
  ++stats_.segments_received;
  if (p.cookie != 0) {
    echo_cookie_ = p.cookie;  // Remember the peer's latest flow token.
  }
  if (p.rst()) {
    CancelRto();
    state_ = TcpState::kReset;
    ReleaseClosedBuffers();
    if (on_reset_) {
      on_reset_();
    }
    return;
  }

  switch (state_) {
    case TcpState::kClosed:
    case TcpState::kReset:
      return;

    case TcpState::kSynSent: {
      if (p.syn() && p.ack_flag() && p.ack == snd_isn_ + 1) {
        rcv_isn_ = p.seq;
        rcv_nxt_ = p.seq + 1;
        snd_una_ = p.ack;
        SendAck();
        BecomeEstablished();
      }
      return;
    }

    case TcpState::kSynRcvd: {
      if (p.syn() && !p.ack_flag()) {
        // Retransmitted SYN: re-send SYN-ACK.
        Packet synack;
        synack.src = self_;
        synack.dst = peer_;
        synack.sport = sport_;
        synack.dport = dport_;
        synack.seq = snd_isn_;
        synack.ack = rcv_nxt_;
        synack.flags = kSyn | kAck;
        Emit(std::move(synack));
        return;
      }
      if (p.ack_flag() && p.ack == snd_isn_ + 1) {
        snd_una_ = p.ack;
        BecomeEstablished();
        // The handshake-completing ACK may carry data (and even a FIN).
        ProcessPayload(p);
        ProcessFin(p);
      }
      return;
    }

    default:
      break;
  }

  // Established and closing states.
  if (p.syn() && p.ack_flag()) {
    // Duplicate SYN-ACK after we are established: re-ack.
    SendAck();
    return;
  }
  ProcessAck(p);
  if (state_ == TcpState::kClosed || state_ == TcpState::kReset) {
    return;
  }
  ProcessPayload(p);
  ProcessFin(p);
}

}  // namespace net
