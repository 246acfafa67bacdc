#include "src/core/control_state.h"

#include <algorithm>

namespace yoda {

const char* ChangeKindName(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kVipDefined:
      return "VipDefined";
    case ChangeKind::kVipRemoved:
      return "VipRemoved";
    case ChangeKind::kRulesUpdated:
      return "RulesUpdated";
    case ChangeKind::kAssignmentSet:
      return "AssignmentSet";
    case ChangeKind::kAssignmentCleared:
      return "AssignmentCleared";
    case ChangeKind::kInstanceScrubbed:
      return "InstanceScrubbed";
    case ChangeKind::kInstanceFailed:
      return "InstanceFailed";
    case ChangeKind::kInstanceAdmitted:
      return "InstanceAdmitted";
    case ChangeKind::kRestored:
      return "Restored";
    case ChangeKind::kLeaderElected:
      return "LeaderElected";
    case ChangeKind::kStoreModeSet:
      return "StoreModeSet";
  }
  return "Unknown";
}

void ControlState::LogRecord(ChangeKind kind, net::IpAddr subject, std::uint64_t detail) {
  changelog_.push_back({epoch_, sim_->now(), kind, subject, detail});
  // detail packs (change kind << 32) | epoch so a trace alone suffices to
  // rebuild the changelog (tools/ctl_dump).
  sim_->recorder().RecordSystem(sim_->now(), obs::EventType::kConfigChange, subject,
                                (static_cast<std::uint64_t>(kind) << 32) |
                                    (epoch_ & 0xffffffffULL));
}

std::uint64_t ControlState::Bump(ChangeKind kind, net::IpAddr subject, std::uint64_t detail) {
  ++epoch_;
  LogRecord(kind, subject, detail);
  return epoch_;
}

void ControlState::EmitDurable(ChangeKind kind, net::IpAddr subject, std::uint64_t detail,
                               net::Port port, const std::vector<rules::Rule>* rules,
                               const std::map<net::IpAddr, std::vector<net::IpAddr>>* pools) {
  if (!sink_) {
    return;
  }
  DurableChange change;
  change.epoch = epoch_;
  change.at = sim_->now();
  change.kind = kind;
  change.subject = subject;
  change.detail = detail;
  change.port = port;
  if (rules != nullptr) {
    change.rules = *rules;
  }
  if (pools != nullptr) {
    change.pools = *pools;
  }
  sink_(change);
}

std::uint64_t ControlState::DefineVip(net::IpAddr vip, net::Port port,
                                      std::vector<rules::Rule> rules) {
  const std::uint64_t detail = rules.size();
  vips_[vip] = VipDesired{port, std::move(rules)};
  Bump(ChangeKind::kVipDefined, vip, detail);
  EmitDurable(ChangeKind::kVipDefined, vip, detail, port, &vips_[vip].rules);
  return epoch_;
}

std::uint64_t ControlState::RemoveVip(net::IpAddr vip) {
  vips_.erase(vip);
  assignment_.erase(vip);
  Bump(ChangeKind::kVipRemoved, vip, 0);
  EmitDurable(ChangeKind::kVipRemoved, vip, 0);
  return epoch_;
}

std::uint64_t ControlState::UpdateRules(net::IpAddr vip, std::vector<rules::Rule> rules) {
  auto it = vips_.find(vip);
  if (it == vips_.end()) {
    return epoch_;
  }
  const std::uint64_t detail = rules.size();
  it->second.rules = std::move(rules);
  Bump(ChangeKind::kRulesUpdated, vip, detail);
  EmitDurable(ChangeKind::kRulesUpdated, vip, detail, it->second.port, &it->second.rules);
  return epoch_;
}

std::uint64_t ControlState::SetAssignments(
    const std::map<net::IpAddr, std::vector<net::IpAddr>>& pools) {
  ++epoch_;
  for (const auto& [vip, pool] : pools) {
    assignment_[vip] = pool;
    LogRecord(ChangeKind::kAssignmentSet, vip, pool.size());
  }
  // One durable entry for the whole round (one mutation = one epoch); the
  // subject slot is meaningless for a multi-VIP change.
  EmitDurable(ChangeKind::kAssignmentSet, 0, pools.size(), 0, nullptr, &pools);
  return epoch_;
}

std::vector<net::IpAddr> ControlState::ScrubInstance(net::IpAddr instance) {
  std::vector<net::IpAddr> affected;
  for (auto& [vip, pool] : assignment_) {
    auto it = std::find(pool.begin(), pool.end(), instance);
    if (it != pool.end()) {
      pool.erase(it);
      affected.push_back(vip);
    }
  }
  if (!affected.empty()) {
    ++epoch_;
    LogRecord(ChangeKind::kInstanceScrubbed, instance, affected.size());
    EmitDurable(ChangeKind::kInstanceScrubbed, instance, affected.size());
  }
  return affected;
}

std::uint64_t ControlState::NoteInstance(ChangeKind kind, net::IpAddr instance) {
  Bump(kind, instance, 0);
  EmitDurable(kind, instance, 0);
  return epoch_;
}

std::uint64_t ControlState::SetStoreMode(net::IpAddr vip, StoreMode mode) {
  auto it = vips_.find(vip);
  if (it == vips_.end()) {
    return epoch_;
  }
  it->second.store_mode = mode;
  Bump(ChangeKind::kStoreModeSet, vip, static_cast<std::uint64_t>(mode));
  it->second.store_mode_epoch = epoch_;  // The install epoch = cookie epoch.
  EmitDurable(ChangeKind::kStoreModeSet, vip, static_cast<std::uint64_t>(mode));
  return epoch_;
}

void ControlState::LoadSnapshot(std::uint64_t epoch, std::map<net::IpAddr, VipDesired> vips,
                                std::map<net::IpAddr, std::vector<net::IpAddr>> assignment) {
  epoch_ = epoch;
  vips_ = std::move(vips);
  assignment_ = std::move(assignment);
}

void ControlState::ApplyDurable(const DurableChange& change) {
  // Reproduce the live mutation's state effects and changelog records at the
  // ORIGINAL epoch/timestamp, with no recorder or sink side effects: replayed
  // history must not be re-journaled or re-traced.
  epoch_ = change.epoch;
  switch (change.kind) {
    case ChangeKind::kVipDefined:
      vips_[change.subject] = VipDesired{change.port, change.rules};
      break;
    case ChangeKind::kVipRemoved:
      vips_.erase(change.subject);
      assignment_.erase(change.subject);
      break;
    case ChangeKind::kRulesUpdated:
      if (auto it = vips_.find(change.subject); it != vips_.end()) {
        it->second.rules = change.rules;
      }
      break;
    case ChangeKind::kAssignmentSet:
      for (const auto& [vip, pool] : change.pools) {
        assignment_[vip] = pool;
        changelog_.push_back({change.epoch, change.at, change.kind, vip, pool.size()});
      }
      return;  // Per-VIP records already appended (mirrors the live path).
    case ChangeKind::kAssignmentCleared:
      assignment_.erase(change.subject);
      break;
    case ChangeKind::kInstanceScrubbed:
      for (auto& [vip, pool] : assignment_) {
        pool.erase(std::remove(pool.begin(), pool.end(), change.subject), pool.end());
      }
      break;
    case ChangeKind::kStoreModeSet:
      if (auto it = vips_.find(change.subject); it != vips_.end()) {
        it->second.store_mode = static_cast<StoreMode>(change.detail);
        it->second.store_mode_epoch = change.epoch;
      }
      break;
    case ChangeKind::kInstanceFailed:
    case ChangeKind::kInstanceAdmitted:
    case ChangeKind::kRestored:
    case ChangeKind::kLeaderElected:
      break;  // Membership/lifecycle markers: epoch + changelog only.
  }
  changelog_.push_back({change.epoch, change.at, change.kind, change.subject, change.detail});
}

const ControlState::VipDesired* ControlState::Desired(net::IpAddr vip) const {
  auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

const std::vector<net::IpAddr>* ControlState::DesiredPool(net::IpAddr vip) const {
  auto it = assignment_.find(vip);
  return it == assignment_.end() ? nullptr : &it->second;
}

bool ControlState::PoolContains(net::IpAddr vip, net::IpAddr instance) const {
  auto it = assignment_.find(vip);
  if (it == assignment_.end()) {
    return true;  // All-to-all: desired everywhere.
  }
  return std::find(it->second.begin(), it->second.end(), instance) != it->second.end();
}

}  // namespace yoda
