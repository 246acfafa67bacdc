// L7Dispatcher: the request-routing stage (paper §4.1, §5.2).
//
// Consumes the client byte stream once the handshake stage has stored the
// SYN state: reassembles the header, runs the rule scan, binds sticky
// cookies, selects (and charges) the backend, forwards the buffered request
// after establishment, and — for keep-alive HTTP/1.1 connections — inspects
// subsequent requests to re-switch backends mid-connection.

#ifndef SRC_CORE_L7_DISPATCHER_H_
#define SRC_CORE_L7_DISPATCHER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/core/pipeline.h"
#include "src/http/parser.h"
#include "src/rules/rule_table.h"

namespace yoda {

class L7Dispatcher {
 public:
  explicit L7Dispatcher(PipelineContext* ctx) : ctx_(ctx) {}

  // Connection-phase client bytes: reassemble, parse, and fire the backend
  // selection once the header is complete.
  void OnClientData(const FlowKey& key, LocalFlow& flow, VipState& vip, const net::Packet& p);

  // Header complete: rule scan + selection, then the delayed server SYN.
  void TrySelectAndConnect(const FlowKey& key, LocalFlow& flow, VipState& vip);

  // Established: emit the handshake-completing ACK carrying the buffered
  // request (sequence-aligned), and arm HTTP/1.1 inspection.
  void ForwardRequestToServer(const FlowKey& key, LocalFlow& flow);

  // Tunneled client bytes on an inspected connection: buffer per request,
  // re-route each complete request, possibly re-switching the backend.
  void InspectClientStream(const FlowKey& key, LocalFlow& flow, VipState& vip,
                           const net::Packet& p);

  // Tear down the current server leg and re-enter the connection phase
  // against `new_backend`, splicing its stream at client_facing_nxt (§5.2).
  void ReSwitch(const FlowKey& key, LocalFlow& flow, VipState& vip,
                const rules::Backend& new_backend);

  std::optional<rules::Selection> SelectBackend(VipState& vip, const http::Request& req);
  void BindStickyIfNeeded(VipState& vip, const http::Request& req, const rules::Backend& b);
  sim::Duration RuleScanDelay(int rules_scanned) const;

 private:
  // InspectClientStream's halves. ConsumeInOrder advances the in-order
  // stream over `p` and every buffered segment now contiguous with it, and
  // returns the new bytes; ForwardPendingRequests sends the complete
  // buffered request(s) on the current server leg.
  std::string ConsumeInOrder(LocalFlow& flow, const net::Packet& p);
  void ForwardPendingRequests(const FlowKey& key, LocalFlow& flow, VipState& vip,
                              std::uint32_t client_ack);

  PipelineContext* ctx_;
};

}  // namespace yoda

#endif  // SRC_CORE_L7_DISPATCHER_H_
