// A compact but real TCP endpoint for simulated clients and backend servers.
//
// Implements: three-way handshake (active and passive open), MSS
// segmentation, cumulative ACKs, out-of-order reassembly, retransmission
// timeout with exponential backoff, fast retransmit on three duplicate ACKs,
// slow-start/congestion-avoidance cwnd, FIN teardown and RST handling.
//
// Yoda instances deliberately do NOT use this class on the data path — the
// paper's point is that the L7 LB only speaks enough TCP to capture the
// header, then tunnels raw segments. This endpoint is what the *clients and
// servers* run, so that the LB's sequence-number surgery is exercised against
// a full TCP implementation (retransmissions included).

#ifndef SRC_NET_TCP_ENDPOINT_H_
#define SRC_NET_TCP_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace net {

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
  kReset,
};

const char* TcpStateName(TcpState s);

struct TcpConfig {
  std::uint32_t mss = 1400;
  // Initial data RTO; the paper's Fig 12(b) timeline shows the backend
  // retransmitting at 300 ms then 600 ms, i.e. a 300 ms base with 2x backoff.
  sim::Duration initial_rto = sim::Msec(300);
  sim::Duration max_rto = sim::Sec(60);
  // SYN retransmission interval (Ubuntu default observed in the paper: 3 s).
  sim::Duration syn_rto = sim::Sec(3);
  int max_syn_retries = 6;
  int max_data_retries = 10;
  std::uint32_t initial_cwnd_segments = 10;
  sim::Duration time_wait = sim::Sec(1);
};

struct TcpEndpointStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
};

class TcpEndpoint {
 public:
  using PacketSink = std::function<void(Packet)>;
  // Receives the in-order bytes of each segment as a slice of the segment's
  // own buffer; a callback taking std::string_view converts from it.
  using DataFn = std::function<void(const Payload&)>;
  using EventFn = std::function<void()>;

  TcpEndpoint(sim::Simulator* simulator, PacketSink sink, TcpConfig config = {});
  ~TcpEndpoint();
  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  // Active open toward peer:dport from self:sport with initial seq `isn`.
  void Connect(IpAddr self, Port sport, IpAddr peer, Port dport, std::uint32_t isn);

  // Passive open: adopt an incoming SYN (server side) and reply SYN-ACK with
  // initial seq `isn`.
  void AcceptFrom(const Packet& syn, std::uint32_t isn);

  // Queues application bytes for transmission (valid once connected or while
  // connecting; bytes flow when ESTABLISHED). One call queues a whole message
  // as its pieces, `Send({head, body})`, and the message is cut into the
  // segments one string of the same bytes would give. Segments are slices of
  // the pieces, so no byte is copied; a std::string converts to a piece, so
  // pass it with std::move.
  void Send(std::initializer_list<Payload> pieces);
  void Send(Payload data) { Send({std::move(data)}); }

  // Graceful close: FIN after queued data drains.
  void Close();

  // Hard abort: emits RST (if the connection ever got off the ground).
  void Abort();

  // Feeds a packet addressed to this endpoint.
  void HandlePacket(const Packet& packet);

  // --- callbacks (all optional) ---
  void set_on_connected(EventFn fn) { on_connected_ = std::move(fn); }
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  void set_on_closed(EventFn fn) { on_closed_ = std::move(fn); }
  void set_on_reset(EventFn fn) { on_reset_ = std::move(fn); }
  // Fired when retransmission gives up (peer unreachable).
  void set_on_failed(EventFn fn) { on_failed_ = std::move(fn); }

  TcpState state() const { return state_; }
  bool established() const { return state_ == TcpState::kEstablished; }
  const TcpEndpointStats& stats() const { return stats_; }
  FiveTuple tuple() const { return FiveTuple{self_, peer_, sport_, dport_}; }
  std::uint32_t snd_isn() const { return snd_isn_; }
  std::uint32_t rcv_isn() const { return rcv_isn_; }
  std::uint32_t bytes_unacked() const { return sendq_bytes_; }
  std::uint64_t echoed_cookie() const { return echo_cookie_; }

 private:
  void Emit(Packet p);
  void SendAck();
  void TrySendData();
  void SendSegment(std::uint32_t seq_off, std::uint32_t len, bool retransmit);
  Payload SendqSlice(std::uint32_t off, std::uint32_t len) const;
  void DropAcked(std::uint32_t n);
  void MaybeSendFin();
  void ArmRto(sim::Duration rto);
  void CancelRto();
  void ReleaseClosedBuffers();
  void HandleRto();
  void ProcessAck(const Packet& p);
  void ProcessPayload(const Packet& p);
  void ProcessFin(const Packet& p);
  void EnterTimeWait();
  void BecomeEstablished();
  void FailConnection();
  std::uint32_t InFlight() const;

  sim::Simulator* sim_;
  PacketSink sink_;
  TcpConfig cfg_;
  TcpState state_ = TcpState::kClosed;

  IpAddr self_ = 0;
  IpAddr peer_ = 0;
  Port sport_ = 0;
  Port dport_ = 0;

  // Send side. sendq_ holds the bytes from snd_una_ onward, one non-empty
  // chunk per piece passed to Send (sendq_bytes_ in all); the first
  // (snd_nxt_ - snd_una_) of them are in flight. Segments are slices of the
  // chunks and ACKs drop or slice them, so no byte is copied unless a
  // segment straddles two chunks.
  std::uint32_t snd_isn_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::vector<Payload> sendq_;
  std::uint32_t sendq_bytes_ = 0;
  bool close_requested_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Receive side.
  std::uint32_t rcv_isn_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  // Out-of-order segments by seq; Payload values share the sender's buffer
  // instead of deep-copying stashed bytes.
  std::map<std::uint32_t, Payload> ooo_;
  bool fin_received_ = false;

  // Congestion control (segment-granularity cwnd).
  double cwnd_ = 10;
  double ssthresh_ = 64;
  int dup_acks_ = 0;

  // Last non-zero flow token received from the peer; echoed on every
  // outgoing segment (models the TCP timestamp-option echo that carries the
  // stateless LB's SYN-cookie claims back through the client).
  std::uint64_t echo_cookie_ = 0;

  // Retransmission.
  sim::TimerHandle rto_timer_;
  sim::TimerHandle time_wait_timer_;
  sim::Duration current_rto_ = 0;
  int retries_ = 0;

  TcpEndpointStats stats_;

  EventFn on_connected_;
  DataFn on_data_;
  EventFn on_closed_;
  EventFn on_reset_;
  EventFn on_failed_;
};

}  // namespace net

#endif  // SRC_NET_TCP_ENDPOINT_H_
