#include "src/fault/fault_plane.h"

#include <cassert>
#include <utility>

namespace fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkLoss:
      return "LinkLoss";
    case FaultKind::kLinkDelay:
      return "LinkDelay";
    case FaultKind::kNodeLoss:
      return "NodeLoss";
    case FaultKind::kNodeDelay:
      return "NodeDelay";
    case FaultKind::kPartition:
      return "Partition";
    case FaultKind::kGray:
      return "Gray";
    case FaultKind::kCrash:
      return "Crash";
    case FaultKind::kRestartWarm:
      return "RestartWarm";
    case FaultKind::kRestartCold:
      return "RestartCold";
    case FaultKind::kKvSlow:
      return "KvSlow";
  }
  return "Unknown";
}

FaultPlane::FaultPlane(sim::Simulator* simulator, net::Network* network, std::uint64_t seed)
    : sim_(simulator), rng_(seed) {
  network->set_fault_observer(this);
}

std::uint64_t FaultPlane::LinkKey(net::IpAddr a, net::IpAddr b) {
  if (a > b) {
    std::swap(a, b);
  }
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void FaultPlane::Note(net::IpAddr where, FaultKind kind, bool injected) {
  sim_->recorder().RecordSystem(
      sim_->now(),
      injected ? obs::EventType::kFaultInjected : obs::EventType::kFaultCleared, where,
      static_cast<std::uint64_t>(kind));
}

void FaultPlane::SetLinkLoss(net::IpAddr a, net::IpAddr b, double p) {
  LinkFault& f = links_[LinkKey(a, b)];
  f.loss = p;
  if (f.loss == 0 && f.delay == 0) {
    links_.erase(LinkKey(a, b));
  }
  Note(a, FaultKind::kLinkLoss, p > 0);
}

void FaultPlane::SetLinkDelay(net::IpAddr a, net::IpAddr b, sim::Duration d) {
  LinkFault& f = links_[LinkKey(a, b)];
  f.delay = d;
  if (f.loss == 0 && f.delay == 0) {
    links_.erase(LinkKey(a, b));
  }
  Note(a, FaultKind::kLinkDelay, d > 0);
}

void FaultPlane::SetNodeLoss(net::IpAddr node, double p) {
  NodeFault& f = node_faults_[node];
  f.loss = p;
  if (f.loss == 0 && f.delay == 0) {
    node_faults_.erase(node);
  }
  Note(node, FaultKind::kNodeLoss, p > 0);
}

void FaultPlane::SetNodeDelay(net::IpAddr node, sim::Duration d) {
  NodeFault& f = node_faults_[node];
  f.delay = d;
  if (f.loss == 0 && f.delay == 0) {
    node_faults_.erase(node);
  }
  Note(node, FaultKind::kNodeDelay, d > 0);
}

void FaultPlane::Partition(net::IpAddr a, net::IpAddr b) {
  partitions_.insert(LinkKey(a, b));
  Note(a, FaultKind::kPartition, true);
}

void FaultPlane::Heal(net::IpAddr a, net::IpAddr b) {
  partitions_.erase(LinkKey(a, b));
  Note(a, FaultKind::kPartition, false);
}

void FaultPlane::SetGray(const std::string& id, PacketPredicate pred, double p,
                         net::IpAddr where) {
  grays_[id] = GrayRule{std::move(pred), p, where};
  Note(where, FaultKind::kGray, true);
}

void FaultPlane::ClearGray(const std::string& id) {
  net::IpAddr where = 0;
  if (auto it = grays_.find(id); it != grays_.end()) {
    where = it->second.where;
    grays_.erase(it);
  }
  Note(where, FaultKind::kGray, false);
}

void FaultPlane::CrashNode(net::IpAddr ip) {
  assert(crash_handler_ && "CrashNode on a plane with no crash handler");
  crash_handler_(ip);
  Note(ip, FaultKind::kCrash, true);
}

void FaultPlane::RestartNode(net::IpAddr ip, RestartMode mode) {
  assert(restart_handler_ && "RestartNode on a plane with no restart handler");
  restart_handler_(ip, mode);
  Note(ip, mode == RestartMode::kCold ? FaultKind::kRestartCold : FaultKind::kRestartWarm,
       true);
}

void FaultPlane::SlowKv(net::IpAddr ip, sim::Duration response_delay) {
  assert(kv_slow_handler_ && "SlowKv on a plane with no kv-slow handler");
  kv_slow_handler_(ip, response_delay);
  Note(ip, FaultKind::kKvSlow, response_delay > 0);
}

net::FaultVerdict FaultPlane::Verdict(const net::Packet& packet, net::IpAddr route_dst) {
  net::FaultVerdict v;
  const std::uint64_t link = LinkKey(packet.src, route_dst);
  // 1. Partitions: a total cut needs no randomness.
  if (partitions_.contains(link)) {
    ++stats_.dropped;
    v.drop = true;
    return v;
  }
  // 2. Link faults.
  if (auto it = links_.find(link); it != links_.end()) {
    if (it->second.loss > 0 && rng_.Bernoulli(it->second.loss)) {
      ++stats_.dropped;
      v.drop = true;
      return v;
    }
    v.extra_delay += it->second.delay;
  }
  // 3. Node faults: source first, then destination (skipped when equal), so
  // the draw order is fixed regardless of map iteration details.
  if (auto it = node_faults_.find(packet.src); it != node_faults_.end()) {
    if (it->second.loss > 0 && rng_.Bernoulli(it->second.loss)) {
      ++stats_.dropped;
      v.drop = true;
      return v;
    }
    v.extra_delay += it->second.delay;
  }
  if (route_dst != packet.src) {
    if (auto it = node_faults_.find(route_dst); it != node_faults_.end()) {
      if (it->second.loss > 0 && rng_.Bernoulli(it->second.loss)) {
        ++stats_.dropped;
        v.drop = true;
        return v;
      }
      v.extra_delay += it->second.delay;
    }
  }
  // 4. Gray rules, in id order.
  for (const auto& [id, rule] : grays_) {
    if (rule.pred && rule.pred(packet) && (rule.p >= 1.0 || rng_.Bernoulli(rule.p))) {
      ++stats_.dropped;
      v.drop = true;
      return v;
    }
  }
  if (v.extra_delay > 0) {
    ++stats_.delayed;
  }
  return v;
}

}  // namespace fault
