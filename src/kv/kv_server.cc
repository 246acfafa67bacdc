#include "src/kv/kv_server.h"

#include <utility>

#include "src/sim/placement.h"

namespace kv {

KvServer::KvServer(sim::Simulator* simulator, std::string id, KvServerConfig config)
    : sim_(simulator), id_(std::move(id)), cfg_(config) {}

sim::Time KvServer::ScheduleOp() {
  const sim::Time now = sim_->now();
  const sim::Time start = busy_until_ > now ? busy_until_ : now;
  const sim::Time done = start + cfg_.op_service_time;
  busy_until_ = done;
  cpu_.AddBusy(cfg_.op_service_time);
  return done;
}

void KvServer::Respond(std::function<void()> deliver) {
  if (response_delay_ > 0) {
    // Gray failure: the op already executed (store mutated, CPU charged);
    // only the answer limps back late.
    sim_->After(response_delay_, std::move(deliver));
  } else {
    deliver();
  }
}

sim::Duration KvServer::QueueDelayNow() const {
  const sim::Time now = sim_->now();
  return busy_until_ > now ? busy_until_ - now : 0;
}

void KvServer::Touch(const std::string& key) {
  auto it = items_.find(key);
  if (it == items_.end()) {
    return;
  }
  lru_.erase(it->second.lru_pos);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
}

void KvServer::EvictIfNeeded() {
  while (items_.size() > cfg_.max_items && !lru_.empty()) {
    items_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void KvServer::Get(const std::string& key, GetCallback cb) {
  sim::AssertOnOwnerShard(*sim_);
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.gets;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, cb = std::move(cb)]() {
    if (failed_) {
      return;  // Crashed while the op was queued: response is lost.
    }
    auto it = items_.find(key);
    if (it == items_.end()) {
      ++stats_.misses;
      Respond([cb = std::move(cb)]() { cb(std::nullopt); });
    } else {
      ++stats_.hits;
      Touch(key);
      Respond([cb = std::move(cb), value = it->second.value]() { cb(value); });
    }
  });
}

void KvServer::Set(const std::string& key, std::string value, AckCallback cb) {
  sim::AssertOnOwnerShard(*sim_);
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.sets;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, value = std::move(value), cb = std::move(cb)]() mutable {
    if (failed_) {
      return;
    }
    auto it = items_.find(key);
    if (it == items_.end()) {
      lru_.push_front(key);
      items_[key] = Item{std::move(value), lru_.begin()};
      EvictIfNeeded();
    } else {
      it->second.value = std::move(value);
      Touch(key);
    }
    Respond([cb = std::move(cb)]() { cb(true); });
  });
}

void KvServer::Cas(const std::string& key, std::optional<std::string> expected,
                   std::string value, AckCallback cb) {
  sim::AssertOnOwnerShard(*sim_);
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.cas_ops;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, expected = std::move(expected), value = std::move(value),
                  cb = std::move(cb)]() mutable {
    if (failed_) {
      return;
    }
    auto it = items_.find(key);
    const bool match = it == items_.end() ? !expected.has_value()
                                          : (expected.has_value() && it->second.value == *expected);
    if (!match) {
      ++stats_.cas_conflicts;
      Respond([cb = std::move(cb)]() { cb(false); });
      return;
    }
    if (it == items_.end()) {
      lru_.push_front(key);
      items_[key] = Item{std::move(value), lru_.begin()};
      EvictIfNeeded();
    } else {
      it->second.value = std::move(value);
      Touch(key);
    }
    Respond([cb = std::move(cb)]() { cb(true); });
  });
}

void KvServer::Delete(const std::string& key, AckCallback cb) {
  sim::AssertOnOwnerShard(*sim_);
  if (failed_) {
    ++stats_.dropped_while_down;
    return;
  }
  ++stats_.deletes;
  const sim::Time done = ScheduleOp();
  sim_->At(done, [this, key, cb = std::move(cb)]() {
    if (failed_) {
      return;
    }
    auto it = items_.find(key);
    if (it != items_.end()) {
      lru_.erase(it->second.lru_pos);
      items_.erase(it);
      Respond([cb = std::move(cb)]() { cb(true); });
    } else {
      Respond([cb = std::move(cb)]() { cb(false); });
    }
  });
}

void KvServer::Fail() {
  sim::AssertOnOwnerShard(*sim_);
  failed_ = true;
  items_.clear();
  lru_.clear();
  busy_until_ = sim_->now();
}

void KvServer::Recover() {
  sim::AssertOnOwnerShard(*sim_);
  failed_ = false;
}

}  // namespace kv
