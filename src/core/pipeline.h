// The staged L7 data-plane pipeline (paper §4–§5), decomposed from the old
// YodaInstance god class.
//
// Stages are separate engines, each owning one slice of the paper's design:
//
//   HandshakeEngine  SYN capture + deterministic SYN-ACK, the TLS
//                    certificate flight, the server-side handshake and the
//                    two ACK-point storage writes (Fig 3).
//   L7Dispatcher     client header assembly, rule scan, sticky binding,
//                    backend selection, request forwarding and HTTP/1.1
//                    re-switching (§5.2).
//   SpliceEngine     sequence-translation tunneling in both directions
//                    (Fig 4) and request-mirroring legs (§5.2).
//   TakeoverEngine   client-/server-side TCPStore lookups, mid-stream
//                    adoption and the explicit-reset miss path (Fig 5).
//
// Engines never reach into YodaInstance: everything they share travels in
// the PipelineContext below — the flow table, the store session, the fabric,
// config, counters, stage histograms, and the other engines (a stage hands a
// flow to the next stage through the context). YodaInstance shrinks to
// wiring + packet demux on top of this.

#ifndef SRC_CORE_PIPELINE_H_
#define SRC_CORE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/core/cpu_model.h"
#include "src/core/flow_table.h"
#include "src/core/instance_config.h"
#include "src/core/local_flow.h"
#include "src/core/store_session.h"
#include "src/l4lb/fabric.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace yoda {

class HandshakeEngine;
class L7Dispatcher;
class SpliceEngine;
class TakeoverEngine;

// Registry-backed counters (resolved once at wiring; hot paths bump
// pointers, never build label strings).
struct PipelineCounters {
  obs::Counter* flows_started = nullptr;
  obs::Counter* flows_completed = nullptr;
  obs::Counter* takeovers_client_side = nullptr;
  obs::Counter* takeovers_server_side = nullptr;
  obs::Counter* takeovers_cookie = nullptr;  // Adoptions served by the cookie alone.
  obs::Counter* cookie_rejects = nullptr;    // Forged/stale tokens bounced.
  obs::Counter* takeover_misses = nullptr;
  obs::Counter* takeover_retries = nullptr;
  obs::Counter* packets_tunneled = nullptr;
  obs::Counter* reswitches = nullptr;
  obs::Counter* rules_scanned_total = nullptr;
  obs::Counter* selections = nullptr;
  obs::Counter* no_backend_resets = nullptr;
  obs::Counter* dropped_unknown_vip = nullptr;
  obs::Counter* bad_transition_resets = nullptr;
};

// One histogram per pipeline stage, recorded at stage boundaries (the
// source for bench_fig09's latency breakdown).
struct PipelineStageMetrics {
  sim::Histogram* handshake_ms = nullptr;       // SYN -> SYN-ACK emitted.
  sim::Histogram* dispatch_ms = nullptr;        // Header done -> server SYN.
  sim::Histogram* server_connect_ms = nullptr;  // Server SYN -> established.
  sim::Histogram* store_ms = nullptr;           // Per-flow blocking waits (a+b).
  sim::Histogram* takeover_ms = nullptr;        // Orphan packet -> adopted.
  sim::Histogram* connection_phase_ms = nullptr;  // Selection -> forwarded (Fig 9).
};

// The narrow view of one instance the stage engines operate through.
struct PipelineContext {
  sim::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  l4lb::L4Fabric* fabric = nullptr;
  StoreSession* store = nullptr;
  sim::Rng* rng = nullptr;
  CpuModel* cpu = nullptr;
  const YodaInstanceConfig* cfg = nullptr;
  net::IpAddr self_ip = 0;
  const bool* failed = nullptr;  // Instance liveness (crash drops callbacks).

  FlowTable* flows = nullptr;
  std::unordered_map<net::IpAddr, VipState>* vips = nullptr;
  std::unordered_map<net::IpAddr, bool>* backend_health = nullptr;
  std::unordered_map<net::IpAddr, int>* backend_load = nullptr;

  PipelineCounters* ctr = nullptr;
  PipelineStageMetrics* stage = nullptr;

  // Stage engines (wired once; stages hand flows to each other through
  // these instead of reaching back into the instance).
  HandshakeEngine* handshake = nullptr;
  L7Dispatcher* dispatcher = nullptr;
  SpliceEngine* splice = nullptr;
  TakeoverEngine* takeover = nullptr;

  // Meters a brand-new connection on `vip` (controller traffic window plus
  // the per-VIP registry counter); wired by the instance, which owns both.
  std::function<void(net::IpAddr)> count_new_connection;

  bool alive() const { return failed == nullptr || !*failed; }
  VipState* FindVip(net::IpAddr vip) {
    auto it = vips->find(vip);
    return it == vips->end() ? nullptr : &it->second;
  }

  // Appends an event for `key` to the simulator's flight recorder.
  void Trace(const FlowKey& key, obs::EventType type, std::uint64_t detail = 0);

  // Re-mints the flow's signed cookie from its current FlowState (stateless
  // flows only; returns 0 and clears nothing in stateful mode). Call after
  // any mutation of the recoverable claims (backend, splice deltas).
  std::uint64_t RefreshCookie(const FlowKey& key, LocalFlow& flow);

  // The store mode teardown must use for `flow` (adopted stateless flows
  // delete synchronously; see LocalFlow::adopted).
  StoreMode RemovalMode(const LocalFlow& flow) const {
    return flow.store_mode == StoreMode::kStateless && !flow.adopted
               ? StoreMode::kStateless
               : StoreMode::kStateful;
  }

  void Emit(net::Packet p);           // Raw send (control packets).
  void EmitForwarded(net::Packet p);  // Adds forward delay + CPU charge.

  // FSM advance for packet-driven edges: true when the transition is legal;
  // an illegal edge resets the flow (kFlowReset/kBadTransition) and returns
  // false — the caller must stop touching the (now deleted) flow.
  [[nodiscard]] bool Advance(const FlowKey& key, LocalFlow& flow, FlowPhase to);

  // Explicit RST toward the client; removes all local flow state.
  void ResetFlowToClient(const FlowKey& key, obs::FlowResetReason reason);

  // Drops every trace of the flow: timers, mirror pins, SNAT registrations,
  // backend-load accounting and (optionally) the TCPStore keys.
  void CleanupFlow(const FlowKey& key, bool remove_from_store);
};

}  // namespace yoda

#endif  // SRC_CORE_PIPELINE_H_
