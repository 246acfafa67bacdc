#include "src/core/store_session.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace yoda {

StoreSession::StoreSession(TcpStore* store, sim::Simulator* sim,
                           sim::Histogram& store_wait_ms, sim::Histogram& journal_flush_depth)
    : store_(store),
      sim_(sim),
      store_wait_ms_(&store_wait_ms),
      journal_depth_hist_(&journal_flush_depth) {}

StoreSession::Ack StoreSession::TimedAck(Ack done) {
  ++stats_.ack_point_writes;
  const sim::Time start = sim_->now();
  return [this, start, done = std::move(done)](bool ok) {
    store_wait_ms_->Add(sim::ToMillis(sim_->now() - start));
    done(ok);
  };
}

void StoreSession::WriteSynState(const FlowState& state, StoreMode mode, Ack done) {
  if (mode == StoreMode::kStateless) {
    Journal(state, /*remove=*/false);
    done(true);  // The cookie gates progress; the store never does.
    return;
  }
  store_->StoreConnectionState(state, TimedAck(std::move(done)));
}

void StoreSession::WriteEstablishedState(const FlowState& state, StoreMode mode, Ack done) {
  if (mode == StoreMode::kStateless) {
    Journal(state, /*remove=*/false);
    done(true);
    return;
  }
  store_->StoreTunnelingState(state, TimedAck(std::move(done)));
}

void StoreSession::Refresh(const FlowState& state, StoreMode mode) {
  ++stats_.refreshes;
  if (mode == StoreMode::kStateless) {
    Journal(state, /*remove=*/false);
    return;
  }
  const std::string key =
      ClientFlowKey(state.vip, state.vip_port, state.client_ip, state.client_port);
  auto it = refreshes_.find(key);
  if (it != refreshes_.end()) {
    // A write for this flow is already on the wire: remember only the
    // newest state and send it when the in-flight op completes.
    it->second.queued = state;
    ++stats_.refreshes_coalesced;
    return;
  }
  refreshes_.emplace(key, PendingRefresh{});
  IssueRefresh(key, state);
}

void StoreSession::IssueRefresh(const std::string& key, const FlowState& state) {
  store_->StoreTunnelingState(state, [this, key](bool /*ok*/) {
    auto it = refreshes_.find(key);
    if (it == refreshes_.end()) {
      return;  // Removed mid-flight (teardown).
    }
    if (it->second.queued.has_value()) {
      const FlowState next = *std::exchange(it->second.queued, std::nullopt);
      IssueRefresh(key, next);
      return;
    }
    refreshes_.erase(it);
  });
}

void StoreSession::Remove(const FlowState& state, StoreMode mode) {
  ++stats_.removes;
  const std::string key =
      ClientFlowKey(state.vip, state.vip_port, state.client_ip, state.client_port);
  // A queued (not yet issued) refresh must never land after the delete.
  refreshes_.erase(key);
  if (mode == StoreMode::kStateless) {
    if (!flushed_.contains(key)) {
      // The flow's state never left this instance: nothing to delete.
      journal_.erase(key);
      return;
    }
    Journal(state, /*remove=*/true);
    return;
  }
  ++stats_.sync_removes;
  store_->Remove(state, [](bool) {});
}

void StoreSession::Journal(const FlowState& state, bool remove) {
  const std::string key =
      ClientFlowKey(state.vip, state.vip_port, state.client_ip, state.client_port);
  ++stats_.journal_appends;
  auto it = journal_.find(key);
  if (it != journal_.end()) {
    ++stats_.journal_coalesced;
    it->second.state = state;
    it->second.remove = remove;
  } else {
    journal_.emplace(key, JournalEntry{state, remove});
  }
  ArmJournalTimer();
}

void StoreSession::ArmJournalTimer() {
  if (journal_timer_armed_) {
    return;
  }
  journal_timer_armed_ = true;
  journal_timer_ = sim_->After(journal_flush_interval_, [this]() {
    journal_timer_armed_ = false;
    if (!alive()) {
      return;  // A crashed instance's journal dies with it.
    }
    FlushJournalNow();
  });
}

void StoreSession::FlushJournalNow() {
  if (journal_.empty() || !alive()) {
    return;
  }
  // Drain in sorted key order so the flush's store traffic is independent of
  // hash-map iteration order (trace-digest determinism across runs).
  std::vector<std::string> keys;
  keys.reserve(journal_.size());
  for (const auto& [key, entry] : journal_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  ++stats_.journal_flushes;
  journal_depth_hist_->Add(static_cast<double>(keys.size()));
  for (const std::string& key : keys) {
    auto it = journal_.find(key);
    JournalEntry entry = std::move(it->second);
    journal_.erase(it);
    ++stats_.journal_entries_flushed;
    if (entry.remove) {
      flushed_.erase(key);
      store_->Remove(entry.state, [](bool) {});
      continue;
    }
    flushed_.insert(key);
    if (entry.state.stage == FlowStage::kTunneling) {
      store_->StoreTunnelingState(entry.state, [](bool) {});
    } else {
      store_->StoreConnectionState(entry.state, [](bool) {});
    }
  }
}

void StoreSession::LookupByClient(net::IpAddr vip, net::Port vip_port, net::IpAddr client_ip,
                                  net::Port client_port, Lookup done) {
  store_->LookupByClient(vip, vip_port, client_ip, client_port, std::move(done));
}

void StoreSession::LookupByServer(net::IpAddr backend_ip, net::Port backend_port,
                                  net::IpAddr vip, net::Port client_port, Lookup done) {
  store_->LookupByServer(backend_ip, backend_port, vip, client_port, std::move(done));
}

}  // namespace yoda
