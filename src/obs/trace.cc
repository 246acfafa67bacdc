#include "src/obs/trace.h"

#include <algorithm>
#include <ostream>

#include "src/obs/registry.h"

namespace obs {
namespace {

// A ring's first allocation, which fits a typical flow's whole timeline
// (14-16 events).
constexpr std::size_t kFirstRingEvents = 16;

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kClientSyn:
      return "ClientSyn";
    case EventType::kStorageAWriteStart:
      return "StorageAWriteStart";
    case EventType::kStorageAWriteDone:
      return "StorageAWriteDone";
    case EventType::kSynAckSent:
      return "SynAckSent";
    case EventType::kBackendSelected:
      return "BackendSelected";
    case EventType::kServerSyn:
      return "ServerSyn";
    case EventType::kStorageBWriteStart:
      return "StorageBWriteStart";
    case EventType::kStorageBWriteDone:
      return "StorageBWriteDone";
    case EventType::kEstablished:
      return "Established";
    case EventType::kRequestForwarded:
      return "RequestForwarded";
    case EventType::kStoreLookupStart:
      return "StoreLookupStart";
    case EventType::kStoreLookupDone:
      return "StoreLookupDone";
    case EventType::kTakeoverClient:
      return "TakeoverClient";
    case EventType::kTakeoverServer:
      return "TakeoverServer";
    case EventType::kReSwitch:
      return "ReSwitch";
    case EventType::kMirrorPromote:
      return "MirrorPromote";
    case EventType::kMuxForward:
      return "MuxForward";
    case EventType::kFin:
      return "Fin";
    case EventType::kCleanup:
      return "Cleanup";
    case EventType::kInstanceDown:
      return "InstanceDown";
    case EventType::kBackendDown:
      return "BackendDown";
    case EventType::kBackendUp:
      return "BackendUp";
    case EventType::kPoolUpdate:
      return "PoolUpdate";
    case EventType::kRuleUpdate:
      return "RuleUpdate";
    case EventType::kSpareActivated:
      return "SpareActivated";
    case EventType::kBackendPinned:
      return "BackendPinned";
    case EventType::kFlowReset:
      return "FlowReset";
    case EventType::kTakeoverRetry:
      return "TakeoverRetry";
    case EventType::kInstanceSuspected:
      return "InstanceSuspected";
    case EventType::kInstanceReadmitted:
      return "InstanceReadmitted";
    case EventType::kFaultInjected:
      return "FaultInjected";
    case EventType::kFaultCleared:
      return "FaultCleared";
    case EventType::kConfigChange:
      return "ConfigChange";
    case EventType::kReconcilePlan:
      return "ReconcilePlan";
    case EventType::kReconcileStep:
      return "ReconcileStep";
    case EventType::kReconcileDone:
      return "ReconcileDone";
    case EventType::kPoolMemberAdd:
      return "PoolMemberAdd";
    case EventType::kPoolMemberRemove:
      return "PoolMemberRemove";
    case EventType::kVipRemoved:
      return "VipRemoved";
    case EventType::kLeaseAcquired:
      return "LeaseAcquired";
    case EventType::kLeaseRenewed:
      return "LeaseRenewed";
    case EventType::kLeaseLost:
      return "LeaseLost";
    case EventType::kFencedWrite:
      return "FencedWrite";
    case EventType::kReconcileStalled:
      return "ReconcileStalled";
    case EventType::kReconcileAbort:
      return "ReconcileAbort";
    case EventType::kPlanResumed:
      return "PlanResumed";
    case EventType::kCookieAdopt:
      return "CookieAdopt";
    case EventType::kCookieReject:
      return "CookieReject";
    case EventType::kStoreModeSet:
      return "StoreModeSet";
  }
  return "Unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config) : cfg_(config) {
  if (cfg_.events_per_flow == 0) {
    cfg_.events_per_flow = 1;
  }
}

void FlightRecorder::Record(const FlowId& flow, sim::Time at, EventType type,
                            std::uint32_t where, std::uint64_t detail) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    if (flows_.size() >= cfg_.max_flows) {
      ++dropped_flows_;
      return;
    }
    it = flows_.emplace(flow, Ring{}).first;
    // Most flows record far fewer than events_per_flow events; the ring
    // grows past this on demand.
    it->second.buf.reserve(std::min(cfg_.events_per_flow, kFirstRingEvents));
    order_.push_back(flow);
  }
  Ring& ring = it->second;
  const TraceEvent ev{at, type, where, detail};
  if (ring.buf.size() < cfg_.events_per_flow) {
    ring.buf.push_back(ev);
  } else {
    ring.buf[ring.total % cfg_.events_per_flow] = ev;
    ++overwritten_events_;
  }
  ++ring.total;
}

void FlightRecorder::RecordSystem(sim::Time at, EventType type, std::uint32_t where,
                                  std::uint64_t detail) {
  if (system_.size() >= cfg_.max_system_events) {
    ++dropped_system_;
    return;
  }
  system_.push_back(TraceEvent{at, type, where, detail});
}

std::vector<TraceEvent> FlightRecorder::Events(const FlowId& flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    return {};
  }
  const Ring& ring = it->second;
  if (ring.total <= cfg_.events_per_flow) {
    return ring.buf;
  }
  // Wrapped: oldest element sits at total % capacity.
  std::vector<TraceEvent> out;
  out.reserve(ring.buf.size());
  const std::size_t head = ring.total % cfg_.events_per_flow;
  for (std::size_t i = 0; i < ring.buf.size(); ++i) {
    out.push_back(ring.buf[(head + i) % cfg_.events_per_flow]);
  }
  return out;
}

void FlightRecorder::ForEachFlow(
    const std::function<void(const FlowId&, const std::vector<TraceEvent>&)>& fn) const {
  for (const FlowId& id : order_) {
    fn(id, Events(id));
  }
}

void FlightRecorder::ExportJsonLines(std::ostream& os) const {
  ForEachFlow([&os](const FlowId& id, const std::vector<TraceEvent>& events) {
    os << "{\"flow\":{\"vip\":\"" << FormatIp(id.vip) << "\",\"vip_port\":" << id.vip_port
       << ",\"client\":\"" << FormatIp(id.client_ip) << "\",\"client_port\":" << id.client_port
       << "},\"events\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      if (i > 0) {
        os << ',';
      }
      os << "{\"t_us\":" << sim::FormatDouble(sim::ToMicros(ev.at), 3) << ",\"type\":\""
         << EventTypeName(ev.type) << "\",\"where\":\"" << FormatIp(ev.where)
         << "\",\"detail\":" << ev.detail << '}';
    }
    os << "]}\n";
  });
  if (!system_.empty()) {
    os << "{\"system\":[";
    for (std::size_t i = 0; i < system_.size(); ++i) {
      const TraceEvent& ev = system_[i];
      if (i > 0) {
        os << ',';
      }
      os << "{\"t_us\":" << sim::FormatDouble(sim::ToMicros(ev.at), 3) << ",\"type\":\""
         << EventTypeName(ev.type) << "\",\"where\":\"" << FormatIp(ev.where)
         << "\",\"detail\":" << ev.detail << '}';
    }
    os << "]}\n";
  }
}

void FlightRecorder::Clear() {
  flows_.clear();
  order_.clear();
  system_.clear();
  dropped_flows_ = 0;
  overwritten_events_ = 0;
  dropped_system_ = 0;
}

}  // namespace obs
