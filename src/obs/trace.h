// Per-flow flight recorder (the "events half" of the observability layer).
//
// Every state transition a flow goes through — the Fig 3 connection phase,
// the two TCPStore writes, takeover adoption, HTTP/1.1 re-switches, mirror
// promotion, teardown — is appended as a typed, timestamped TraceEvent to a
// bounded per-flow ring buffer. Post-hoc analysis (src/obs/analyzer.h)
// reconstructs the paper's latency decompositions and takeover timelines
// directly from these events instead of from bench-local timers: every
// latency claim is reconstructible from the recording.
//
// Bounds: at most `max_flows` flows are tracked (later flows are counted,
// not recorded) and each flow keeps the last `events_per_flow` events (older
// ones are overwritten and counted). Controller/fabric-scope happenings that
// are not tied to one flow (instance down, pool update, rule swap) land in a
// separate bounded system-event log, so flow timelines can be correlated
// with the control plane.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace obs {

enum class EventType : std::uint8_t {
  // --- flow scope (connection phase, Fig 3) ---
  kClientSyn = 0,        // Client SYN accepted; flow created. where=instance.
  kStorageAWriteStart,   // storage-a write issued to TCPStore.
  kStorageAWriteDone,    // storage-a acked. detail=1 if ok.
  kSynAckSent,           // Deterministic SYN-ACK emitted.
  kBackendSelected,      // Rules matched, backend picked. detail=rules scanned.
  kServerSyn,            // VIP-sourced SYN to the backend. detail=attempt #.
  kStorageBWriteStart,   // storage-b (full state) write issued.
  kStorageBWriteDone,    // storage-b acked. detail=1 if ok.
  kEstablished,          // Tunneling active; server ACKed.
  kRequestForwarded,     // Buffered client request replayed to the backend.
  // --- flow scope (tunneling / recovery, Fig 4-5) ---
  kStoreLookupStart,     // TCPStore lookup issued (takeover path).
  kStoreLookupDone,      // Lookup answered. detail=1 on hit.
  kTakeoverClient,       // Flow adopted from client-side traffic. where=adopter.
  kTakeoverServer,       // Flow adopted from server-side traffic. where=adopter.
  kReSwitch,             // HTTP/1.1 backend switch. detail=new backend ip.
  kMirrorPromote,        // Mirror leg won the race. detail=winner ip.
  kMuxForward,           // L4 mux routed the client SYN. where=mux id,
                         // detail=target instance ip.
  kFin,                  // FIN tunneled. detail: 0=from client, 1=from server.
  kCleanup,              // Local state dropped (and TCPStore keys removed).
  // --- system scope (controller / fabric) ---
  kInstanceDown,         // Monitor removed a failed instance. where=instance.
  kBackendDown,          // Backend marked unhealthy. where=backend.
  kBackendUp,            // Backend marked healthy again. where=backend.
  kPoolUpdate,           // VIP pool reprogrammed on the muxes. where=vip,
                         // detail=pool size (low 32) | plan epoch (high 32;
                         // 0 for legacy unversioned writes).
  kRuleUpdate,           // VIP rules swapped. where=vip, detail=rule count.
  kSpareActivated,       // Elastic scale-out activated a spare. where=instance.
  // --- flow scope (failure-path hardening) ---
  kBackendPinned,        // Flow's backend binding set. detail=backend ip. A
                         // pin may only change after kReSwitch/kMirrorPromote.
  kFlowReset,            // Flow explicitly reset toward the client/backend.
                         // detail=reason (see FlowResetReason).
  kTakeoverRetry,        // Takeover lookup missed; bounded re-fetch scheduled.
                         // detail=attempt #.
  // --- system scope (monitor hysteresis / fault plane) ---
  kInstanceSuspected,    // Probe missed; instance still in pools. detail=miss #.
  kInstanceReadmitted,   // Suspended instance probed healthy and re-pooled.
  kFaultInjected,        // Fault plane applied a fault. where=target,
                         // detail=fault kind.
  kFaultCleared,         // Fault plane removed a fault. where=target,
                         // detail=fault kind.
  // --- system scope (reconciliation control plane) ---
  kConfigChange,         // ControlState changelog entry. where=vip/instance,
                         // detail=epoch (low 32) | change kind (high 32).
  kReconcilePlan,        // UpdatePlan execution began. where=epoch (low 32),
                         // detail=step count.
  kReconcileStep,        // One plan step executed. where=vip,
                         // detail=instance ip (low 32) | step kind (high 32).
  kReconcileDone,        // Plan fully executed. where=epoch (low 32),
                         // detail=steps executed.
  kPoolMemberAdd,        // (vip, instance) added to mux pools. where=vip,
                         // detail=instance ip (low 32) | plan epoch (high 32).
                         // Recorded once converged on the LAST mux
                         // (conservative for blackout checks).
  kPoolMemberRemove,     // (vip, instance) leaving mux pools. where=vip,
                         // detail=instance ip (low 32) | plan epoch (high 32).
                         // Recorded when the FIRST mux drops it (again
                         // conservative).
  kVipRemoved,           // VIP withdrawn from the fabric. where=vip.
  // --- system scope (controller HA: lease, fencing, resume) ---
  kLeaseAcquired,        // Controller won the leader lease. where=controller
                         // ip, detail=fencing token.
  kLeaseRenewed,         // Leader extended its lease. where=controller ip,
                         // detail=fencing token.
  kLeaseLost,            // Leader lost/abandoned the lease (renewal CAS
                         // failed, crash, or resignation). where=controller
                         // ip, detail=fencing token it held.
  kFencedWrite,          // A mux or instance rejected a control write whose
                         // fencing token was older than its watermark.
                         // where=vip (mux side) or instance ip.
                         // detail=(offered token << 32) | watermark.
  kReconcileStalled,     // A plan step exhausted its retry budget (target
                         // unresponsive); the round is marked failed.
                         // where=vip, detail=(step kind << 32) | instance ip.
  kReconcileAbort,       // A deposed/crashed controller's actuator abandoned
                         // an in-flight plan (fencing token no longer valid).
                         // where=epoch (low 32), detail=steps not executed.
  kPlanResumed,          // A newly elected leader re-drove a journaled
                         // in-flight plan. where=epoch (low 32),
                         // detail=(steps already applied << 32) | plan id.
  // --- flow scope (stateless fast path: signed SYN-cookie ISNs) ---
  kCookieAdopt,          // Flow reconstructed from the packet's signed
                         // cookie, no store lookup. detail=backend ip.
  kCookieReject,         // Cookie failed HMAC/epoch verification; takeover
                         // fell back to the journal. detail=1 bad HMAC,
                         // 2 stale epoch.
  // --- system scope (store-mode policy) ---
  kStoreModeSet,         // Per-VIP store mode installed. where=vip,
                         // detail=(mode << 32) | install epoch (low 32).
};

// detail payload of kFlowReset.
enum class FlowResetReason : std::uint64_t {
  kNoBackend = 1,        // No healthy backend for the request.
  kTakeoverMiss = 2,     // TCPStore had no state after bounded re-fetches.
  kClientAbort = 3,      // Client sent RST.
  kVipRemoved = 4,       // VIP withdrawn; in-flight flows drained with RSTs.
  kBadTransition = 5,    // Packet drove an illegal FSM edge; flow reset.
};

// Short stable name ("ClientSyn", "TakeoverClient", ...) for dumps.
const char* EventTypeName(EventType type);

// Client-side flow identity — stable across takeovers and re-switches.
struct FlowId {
  std::uint32_t vip = 0;
  std::uint16_t vip_port = 0;
  std::uint32_t client_ip = 0;
  std::uint16_t client_port = 0;

  bool operator==(const FlowId&) const = default;
};

struct FlowIdHash {
  std::size_t operator()(const FlowId& id) const {
    std::uint64_t x = (static_cast<std::uint64_t>(id.vip) << 32) ^ id.client_ip;
    x ^= (static_cast<std::uint64_t>(id.vip_port) << 48) ^
         (static_cast<std::uint64_t>(id.client_port) << 16);
    // Mix (splitmix64 finalizer).
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

struct TraceEvent {
  sim::Time at = 0;
  EventType type = EventType::kClientSyn;
  std::uint32_t where = 0;   // Instance/backend/vip address (mux id for kMuxForward).
  std::uint64_t detail = 0;  // Event-specific payload; see EventType comments.
};

struct FlightRecorderConfig {
  std::size_t max_flows = 65'536;
  std::size_t events_per_flow = 64;
  std::size_t max_system_events = 8'192;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const FlowId& flow, sim::Time at, EventType type, std::uint32_t where,
              std::uint64_t detail = 0);
  void RecordSystem(sim::Time at, EventType type, std::uint32_t where,
                    std::uint64_t detail = 0);

  // The flow's retained events, oldest first (ring order reconstructed).
  std::vector<TraceEvent> Events(const FlowId& flow) const;
  bool Has(const FlowId& flow) const { return flows_.contains(flow); }

  const std::vector<TraceEvent>& system_events() const { return system_; }

  // Visits every recorded flow in first-seen order.
  void ForEachFlow(
      const std::function<void(const FlowId&, const std::vector<TraceEvent>&)>& fn) const;

  std::size_t flow_count() const { return flows_.size(); }
  // Flows that arrived after max_flows and were not recorded.
  std::uint64_t dropped_flows() const { return dropped_flows_; }
  // Events lost to per-flow ring wrap-around across all flows.
  std::uint64_t overwritten_events() const { return overwritten_events_; }
  std::uint64_t dropped_system_events() const { return dropped_system_; }

  // One JSON object per flow:
  //   {"flow":{...},"events":[{"t_us":...,"type":"...","where":"...","detail":N},...]}
  // followed by one {"system":[...]} line when system events exist.
  void ExportJsonLines(std::ostream& os) const;

  void Clear();

 private:
  struct Ring {
    std::vector<TraceEvent> buf;    // Grows to events_per_flow, then wraps.
    std::uint64_t total = 0;        // Events ever recorded for this flow.
  };

  FlightRecorderConfig cfg_;
  std::unordered_map<FlowId, Ring, FlowIdHash> flows_;
  std::vector<FlowId> order_;  // First-seen order for deterministic dumps.
  std::vector<TraceEvent> system_;
  std::uint64_t dropped_flows_ = 0;
  std::uint64_t overwritten_events_ = 0;
  std::uint64_t dropped_system_ = 0;
};

}  // namespace obs

#endif  // SRC_OBS_TRACE_H_
