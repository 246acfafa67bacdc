#include "src/core/health_monitor.h"

#include <algorithm>

namespace yoda {

bool HealthMonitor::ProbeInstance(const YodaInstance* instance) const {
  // Network-only: ProbePath consults the shard-replicated down flags, never
  // instance->failed() — the instance may live on another shard, whose
  // fields must not be read from the controller's.
  return net_->ProbePath(/*src=*/0, instance->ip());
}

bool HealthMonitor::IsBackendUp(net::IpAddr backend) const {
  auto it = backend_up_.find(backend);
  return it == backend_up_.end() || it->second;
}

std::vector<net::IpAddr> HealthMonitor::ActiveIps() const {
  std::vector<net::IpAddr> ips;
  ips.reserve(active_.size());
  for (const YodaInstance* i : active_) {
    ips.push_back(i->ip());
  }
  return ips;
}

void HealthMonitor::OnDeclaredDead(YodaInstance* instance) {
  ++detected_failures_;
  active_.erase(std::remove(active_.begin(), active_.end(), instance), active_.end());
  if (!cfg_.readmit_instances) {
    return;  // Paper semantics: removed forever.
  }
  HealthState& hs = health_[instance->ip()];
  hs.miss_streak = 0;
  hs.success_streak = 0;
  // Flap suppression: a repeat offender must prove itself for longer.
  if (hs.required_successes > 0) {
    ++hs.flaps;
  }
  int required = cfg_.readmit_after_successes;
  for (int f = 0; f < hs.flaps && required < cfg_.readmit_penalty_cap; ++f) {
    required *= 2;
  }
  hs.required_successes = std::min(required, cfg_.readmit_penalty_cap);
  suspended_.push_back(instance);
}

std::vector<HealthTransition> HealthMonitor::Tick() {
  std::vector<HealthTransition> out;

  // Active instances: misses accumulate toward declaration.
  std::vector<YodaInstance*> failed;
  for (YodaInstance* i : active_) {
    HealthState& hs = health_[i->ip()];
    if (ProbeInstance(i)) {
      hs.miss_streak = 0;
      continue;
    }
    ++hs.miss_streak;
    if (hs.miss_streak >= cfg_.fail_after_misses) {
      failed.push_back(i);
    } else {
      out.push_back({HealthTransition::Kind::kInstanceSuspected, i, i->ip(), hs.miss_streak});
    }
  }
  for (YodaInstance* i : failed) {
    OnDeclaredDead(i);
    out.push_back({HealthTransition::Kind::kInstanceFailed, i, i->ip(), 0});
  }

  // Suspended instances: healthy probes accumulate toward readmission.
  if (cfg_.readmit_instances) {
    for (auto it = suspended_.begin(); it != suspended_.end();) {
      YodaInstance* i = *it;
      HealthState& hs = health_[i->ip()];
      if (!ProbeInstance(i)) {
        hs.success_streak = 0;
        ++it;
        continue;
      }
      ++hs.success_streak;
      if (hs.success_streak < hs.required_successes) {
        ++it;
        continue;
      }
      it = suspended_.erase(it);
      const int required = hs.required_successes;
      hs.miss_streak = 0;
      hs.success_streak = 0;
      active_.push_back(i);
      ++readmissions_;
      out.push_back({HealthTransition::Kind::kInstanceReadmitted, i, i->ip(), required});
    }
  }

  // Backend servers: edge-triggered health flips.
  for (net::IpAddr b : backends_) {
    const bool up = !net_->IsDown(b);
    if (backend_up_[b] != up) {
      backend_up_[b] = up;
      out.push_back({up ? HealthTransition::Kind::kBackendUp
                        : HealthTransition::Kind::kBackendDown,
                     nullptr, b, 0});
    }
  }
  return out;
}

}  // namespace yoda
