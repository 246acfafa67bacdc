#include "src/core/leader_lease.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace yoda {
namespace {

constexpr const char* kLeaseKey = "ctl/lease";

}  // namespace

std::string EncodeLease(const LeaseRecord& lease) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "holder=%u token=%" PRIu64 " expires=%" PRId64,
                lease.holder, lease.token, static_cast<std::int64_t>(lease.expires));
  return buf;
}

std::optional<LeaseRecord> ParseLease(const std::string& value) {
  LeaseRecord lease;
  std::uint32_t holder = 0;
  std::uint64_t token = 0;
  std::int64_t expires = 0;
  if (std::sscanf(value.c_str(), "holder=%u token=%" SCNu64 " expires=%" SCNd64, &holder,
                  &token, &expires) != 3) {
    return std::nullopt;
  }
  lease.holder = holder;
  lease.token = token;
  lease.expires = static_cast<sim::Time>(expires);
  return lease;
}

LeaderLease::LeaderLease(sim::Simulator* simulator, kv::ReplicatingClient* client,
                         LeaderLeaseConfig config,
                         std::function<void(std::uint64_t)> on_acquired,
                         std::function<void()> on_lost)
    : sim_(simulator),
      kv_(client),
      cfg_(config),
      on_acquired_(std::move(on_acquired)),
      on_lost_(std::move(on_lost)) {}

void LeaderLease::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ++gen_;
  // First acquisition attempt is staggered per replica too, so simultaneously
  // booted standbys do not all CAS in the same instant and all lose.
  ArmNext(gen_, static_cast<sim::Duration>(cfg_.self % 5) * sim::Msec(1));
}

void LeaderLease::Stop() {
  running_ = false;
  ++gen_;  // Orphans every parked timer and in-flight KV callback.
  is_leader_ = false;
  token_ = 0;
  held_raw_.clear();
}

void LeaderLease::ArmNext(std::uint64_t gen, sim::Duration delay) {
  sim_->After(
      delay, [this, gen]() { Tick(gen); }, /*daemon=*/true);
}

void LeaderLease::Tick(std::uint64_t gen) {
  if (!running_ || gen != gen_) {
    return;
  }
  if (is_leader_) {
    Renew(gen);
    return;
  }
  kv_->Get(kLeaseKey, [this, gen](std::optional<std::string> raw) {
    if (!running_ || gen != gen_) {
      return;
    }
    TryAcquire(gen, std::move(raw));
  });
}

void LeaderLease::TryAcquire(std::uint64_t gen, std::optional<std::string> current_raw) {
  const std::optional<LeaseRecord> current =
      current_raw ? ParseLease(*current_raw) : std::nullopt;
  if (current && current->expires > sim_->now()) {
    // Somebody holds a live lease; poll again after it could have expired.
    const sim::Duration until = current->expires - sim_->now();
    const sim::Duration jitter = static_cast<sim::Duration>(cfg_.self % 5) * sim::Msec(3);
    ArmNext(gen, std::max(cfg_.acquire_interval, until) + jitter);
    return;
  }
  LeaseRecord next;
  next.holder = cfg_.self;
  next.token = (current ? current->token : 0) + 1;
  next.expires = sim_->now() + cfg_.ttl;
  std::string value = EncodeLease(next);
  kv_->Cas(kLeaseKey, std::move(current_raw), value,
           [this, gen, next, value](bool won) {
             if (!running_ || gen != gen_) {
               return;
             }
             if (!won) {
               const sim::Duration jitter =
                   static_cast<sim::Duration>(cfg_.self % 5) * sim::Msec(3);
               ArmNext(gen, cfg_.acquire_interval + jitter);
               return;
             }
             is_leader_ = true;
             token_ = next.token;
             held_raw_ = value;
             Note(obs::EventType::kLeaseAcquired, token_);
             if (on_acquired_) {
               on_acquired_(token_);
             }
             ArmNext(gen, cfg_.renew_interval);
           });
}

void LeaderLease::Renew(std::uint64_t gen) {
  LeaseRecord next;
  next.holder = cfg_.self;
  next.token = token_;  // Renewal never changes the fencing token.
  next.expires = sim_->now() + cfg_.ttl;
  std::string value = EncodeLease(next);
  kv_->Cas(kLeaseKey, held_raw_, value, [this, gen, value](bool renewed) {
    if (!running_ || gen != gen_) {
      return;
    }
    if (!renewed) {
      // Deposed, or cut off from a replica majority: either way we may no
      // longer act. Step down now and go back to contending.
      StepDown();
      ArmNext(gen, cfg_.acquire_interval);
      return;
    }
    held_raw_ = value;
    Note(obs::EventType::kLeaseRenewed, token_);
    ArmNext(gen, cfg_.renew_interval);
  });
}

void LeaderLease::StepDown() {
  const std::uint64_t lost = token_;
  is_leader_ = false;
  token_ = 0;
  held_raw_.clear();
  Note(obs::EventType::kLeaseLost, lost);
  if (on_lost_) {
    on_lost_();
  }
}

void LeaderLease::Note(obs::EventType type, std::uint64_t detail) {
  sim_->recorder().RecordSystem(sim_->now(), type, cfg_.self, detail);
}

}  // namespace yoda
