// YodaInstance: wiring + packet demux on top of the staged L7 pipeline
// (paper §4, §6).
//
// The data plane itself lives in the stage engines (src/core/pipeline.h):
// HandshakeEngine (SYN capture, deterministic SYN-ACK, TLS flight, server
// handshake + the two ACK-point storage writes), L7Dispatcher (header
// assembly, rule scan, sticky binding, selection, HTTP/1.1 re-switch),
// SpliceEngine (sequence-translation tunneling, mirror legs) and
// TakeoverEngine (TCPStore lookups + mid-stream adoption). Flow state lives
// in the sharded FlowTable; storage traffic goes through StoreSession, which
// owns the "write exactly at the ACK points" contract.
//
// What remains here: the controller API (VIP install/remove, health, fail/
// recover), per-VIP traffic metering, the idle-flow GC loop, and HandlePacket
// demux that classifies each packet (client side / server side / unknown)
// and hands it to the right stage.

#ifndef SRC_CORE_YODA_INSTANCE_H_
#define SRC_CORE_YODA_INSTANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cpu_model.h"
#include "src/core/flow_table.h"
#include "src/core/handshake_engine.h"
#include "src/core/instance_config.h"
#include "src/core/l7_dispatcher.h"
#include "src/core/pipeline.h"
#include "src/core/splice_engine.h"
#include "src/core/store_session.h"
#include "src/core/takeover_engine.h"
#include "src/core/tcp_store.h"
#include "src/l4lb/fabric.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/rules/rule_table.h"
#include "src/sim/random.h"

namespace yoda {

struct YodaInstanceStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t takeovers_client_side = 0;
  std::uint64_t takeovers_server_side = 0;
  std::uint64_t takeovers_cookie = 0;  // Adoptions served by the signed cookie.
  std::uint64_t cookie_rejects = 0;    // Forged or stale-epoch tokens bounced.
  std::uint64_t takeover_misses = 0;   // Final misses (after retries).
  std::uint64_t takeover_retries = 0;  // Re-issued takeover lookups.
  std::uint64_t packets_tunneled = 0;
  std::uint64_t reswitches = 0;
  std::uint64_t rules_scanned_total = 0;
  std::uint64_t selections = 0;
  std::uint64_t no_backend_resets = 0;
  std::uint64_t dropped_unknown_vip = 0;
  std::uint64_t bad_transition_resets = 0;  // Illegal FSM edges (reset path).
  std::uint64_t fenced_writes = 0;  // Control writes rejected: stale lease token.
};

// Per-VIP traffic accounting the controller polls (paper §6: "each YODA
// instance keeps track of the traffic for individual VIPs").
struct VipTraffic {
  std::uint64_t new_connections = 0;
  std::uint64_t bytes = 0;
};

class YodaInstance : public net::Node {
 public:
  YodaInstance(sim::Simulator* simulator, net::Network* network, l4lb::L4Fabric* fabric,
               TcpStore* store, std::uint64_t seed, YodaInstanceConfig config);
  ~YodaInstance() override;

  net::IpAddr ip() const { return cfg_.ip; }
  // The simulator this instance runs on; its shard is the instance's
  // placement.
  sim::Simulator* simulator() const { return sim_; }

  // --- controller API ---
  // Every mutating call may carry the leader lease's fencing token (0 =
  // unfenced escape hatch). The instance keeps the highest token it has ever
  // seen and rejects calls carrying an older one (returns false, records
  // kFencedWrite with where=this ip, detail=(offered token << 32) |
  // watermark) — a deposed leader's straggling plan steps cannot mutate
  // VIP state here any more than they can at the muxes.
  //
  // Installs (or replaces) this VIP's rules on this instance. Existing
  // connections keep their previously selected backend (§5.2).
  bool InstallVip(net::IpAddr vip, net::Port vip_port, std::vector<rules::Rule> vip_rules,
                  std::uint64_t token = 0);
  // Enables SSL termination for the VIP (§5.2): the instance answers the
  // handshake with `certificate`, decrypts requests to select the backend,
  // and hands the session to the backend via a ticket sealed under
  // `service_key`. The handshake is deterministic, so a takeover instance
  // resends the identical certificate flight.
  void InstallVipTls(net::IpAddr vip, std::string certificate, std::uint64_t service_key);
  // Withdraws the VIP and drains it: every in-flight flow is explicitly
  // reset toward the client (kFlowReset/kVipRemoved), sticky bindings die
  // with the VIP state, and the traffic window + counter cache are dropped.
  bool RemoveVip(net::IpAddr vip, std::uint64_t token = 0);
  bool ServesVip(net::IpAddr vip) const { return vips_.contains(vip); }
  int RuleCount(net::IpAddr vip) const;
  // Backend health as observed by the controller's monitor.
  bool SetBackendHealth(net::IpAddr backend, bool healthy, std::uint64_t token = 0);
  // Switches the VIP's per-flow store contract: the paper's synchronous
  // ACK-point writes (kStateful) or the cookie-derived fast path with a
  // write-behind takeover journal (kStateless). `epoch` becomes the VIP's
  // cookie epoch — tokens minted under earlier installs are rejected as
  // stale and fall back to the journal. Existing flows keep the mode they
  // latched at creation (make-before-break); false when this instance does
  // not serve the VIP.
  bool SetStoreMode(net::IpAddr vip, StoreMode mode, std::uint64_t epoch,
                    std::uint64_t token = 0);
  StoreMode VipStoreMode(net::IpAddr vip) const {
    auto it = vips_.find(vip);
    return it == vips_.end() ? StoreMode::kStateful : it->second.store_mode;
  }

  // Crash: all local flow state vanishes. (The caller also marks the node
  // down in the Network so in-flight packets blackhole.)
  void Fail();
  void Recover();
  bool failed() const { return failed_; }

  // net::Node.
  void HandlePacket(const net::Packet& packet) override;
  // Cold restart (Network::RestartNode): the rebooted VM comes back with no
  // flow state — exactly a Fail() followed by Recover().
  void OnColdRestart() override;

  CpuModel& cpu() { return cpu_; }
  // Snapshot assembled from the registry counters (labelled with this
  // instance's ip), so the legacy struct view and the exported metrics can
  // never disagree.
  YodaInstanceStats stats() const;
  std::size_t active_flows() const { return flow_table_.size(); }

  // Backend-connection duration (server selection -> request forwarded to
  // the backend), Fig 9's "Connection" component. Lives in the registry as
  // "yoda.connection_phase_ms".
  sim::Histogram& connection_phase_ms() { return *stage_.connection_phase_ms; }

  // The flow-state store (sharded) and the storage write layer, exposed for
  // tests and tooling.
  const FlowTable& flow_table() const { return flow_table_; }
  const StoreSession& store_session() const { return store_session_; }
  // Mutable view for tests that force a journal flush boundary.
  StoreSession& mutable_store_session() { return store_session_; }

  // Reads and clears the per-VIP traffic window.
  std::map<net::IpAddr, VipTraffic> DrainTrafficCounters();

 private:
  struct VipCounters {
    obs::Counter* new_connections = nullptr;
    obs::Counter* bytes = nullptr;
  };

  VipState* FindVip(net::IpAddr vip);

  // Fencing-token watermark check; counts + traces rejections. Mirrors
  // Mux::StaleToken (token 0 bypasses; older-than-watermark rejects).
  bool StaleControlToken(std::uint64_t token);

  // Packet demux: classify and hand off to the stage engines.
  void HandleClientSide(const net::Packet& p, VipState& vip);
  void HandleServerSide(const net::Packet& p, VipState& vip);

  void IdleScan();
  // Schedules the next idle scan; each firing re-arms itself. The closure
  // captures only `this` so it cannot form an ownership cycle.
  void ArmIdleScan();

  void MeterVip(net::IpAddr vip, const net::Packet& p);
  VipCounters& VipCountersFor(net::IpAddr vip);

  sim::Simulator* sim_;
  net::Network* net_;
  l4lb::L4Fabric* fabric_;
  sim::Rng rng_;
  YodaInstanceConfig cfg_;
  CpuModel cpu_;
  bool failed_ = false;
  std::uint64_t control_token_ = 0;  // Highest lease fencing token seen.

  std::unordered_map<net::IpAddr, VipState> vips_;
  FlowTable flow_table_;
  std::unordered_map<net::IpAddr, bool> backend_health_;
  std::unordered_map<net::IpAddr, VipTraffic> traffic_;
  std::unordered_map<net::IpAddr, int> backend_load_;  // Active flows per backend.

  obs::Counter* fenced_writes_ctr_ = nullptr;
  // Gauges whose providers capture `this`; frozen to plain values in the
  // dtor so a registry that outlives the instance never calls a dangling
  // closure.
  std::vector<obs::Gauge*> provider_gauges_;
  PipelineCounters ctr_;
  PipelineStageMetrics stage_;
  std::unordered_map<net::IpAddr, VipCounters> vip_counters_;

  StoreSession store_session_;

  // The pipeline: shared context + the four stage engines (declared after
  // pipe_ so their ctors may take its address; its fields are wired in the
  // instance ctor body before any packet can arrive).
  PipelineContext pipe_;
  HandshakeEngine handshake_;
  L7Dispatcher dispatcher_;
  SpliceEngine splice_;
  TakeoverEngine takeover_;
};

}  // namespace yoda

#endif  // SRC_CORE_YODA_INSTANCE_H_
