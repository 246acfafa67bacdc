// StoreSession: the one place that owns the paper's "write exactly at the
// ACK points" contract (Fig 3) in front of TcpStore/ReplicatingClient.
//
// The session runs each write in one of two per-flow modes (the flow latches
// its VIP's StoreMode at creation):
//
//   StoreMode::kStateful — the paper's contract. ACK-point writes (storage-a
//   before the SYN-ACK may be sent, storage-b before the server's SYN-ACK
//   may be ACKed) gate protocol progress: the caller supplies a completion
//   and must not emit the corresponding ACK until it fires. StoreSession
//   times the blocking wait into the per-stage store histogram. Non-gating
//   refreshes (HTTP/1.1 re-switch order, mirror-winner retarget) are
//   write-behind and coalesced per flow.
//
//   StoreMode::kStateless — the stateless fast path. The same calls demote
//   to entries in a write-behind takeover journal: the completion fires
//   inline (zero synchronous store writes; the signed cookie carries the
//   recoverable state), dirty flow states coalesce in a map keyed by the
//   client flow key, and a periodic timer flushes the batch to TCPStore
//   solely so TakeoverEngine has a fallback for flows the cookie cannot
//   describe. A teardown whose flow never reached the store is dropped
//   locally; one that was flushed becomes a journaled tombstone.
//
// Teardown removes drop any queued refresh for the flow first, so a stale
// refresh cannot resurrect a deleted key from this instance.

#ifndef SRC_CORE_STORE_SESSION_H_
#define SRC_CORE_STORE_SESSION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/core/flow_state.h"
#include "src/core/tcp_store.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace yoda {

struct StoreSessionStats {
  std::uint64_t ack_point_writes = 0;   // Synchronous storage-a + storage-b.
  std::uint64_t refreshes = 0;          // Write-behind updates requested.
  std::uint64_t refreshes_coalesced = 0;  // Collapsed into an in-flight write.
  std::uint64_t removes = 0;            // Teardown requests (either mode).
  std::uint64_t sync_removes = 0;       // Removes issued straight to the store.
  // Stateless mode: write-behind takeover journal.
  std::uint64_t journal_appends = 0;    // Upserts/tombstones queued.
  std::uint64_t journal_coalesced = 0;  // Queued entries overwritten in place.
  std::uint64_t journal_flushes = 0;    // Batched flush rounds issued.
  std::uint64_t journal_entries_flushed = 0;  // Entries written across rounds.
};

class StoreSession {
 public:
  using Ack = TcpStore::Ack;
  using Lookup = TcpStore::Lookup;

  // `store_wait_ms` receives the blocking duration of every ACK-point
  // write, `journal_flush_depth` the batch size of every journal flush.
  StoreSession(TcpStore* store, sim::Simulator* sim, sim::Histogram& store_wait_ms,
               sim::Histogram& journal_flush_depth);
  StoreSession(const StoreSession&) = delete;
  StoreSession& operator=(const StoreSession&) = delete;

  // Owner liveness: a crashed instance's pending flush must not fire.
  void set_liveness(const bool* failed) { failed_ = failed; }
  // How long dirty journal entries may coalesce before a batched flush.
  void set_journal_flush_interval(sim::Duration d) { journal_flush_interval_ = d; }

  // storage-a: in kStateful, must complete before the SYN-ACK is emitted; in
  // kStateless it journals the state and completes inline.
  void WriteSynState(const FlowState& state, StoreMode mode, Ack done);
  void WriteSynState(const FlowState& state, Ack done) {
    WriteSynState(state, StoreMode::kStateful, std::move(done));
  }
  // storage-b: in kStateful, must complete before the server SYN-ACK is
  // ACKed; in kStateless it journals and completes inline.
  void WriteEstablishedState(const FlowState& state, StoreMode mode, Ack done);
  void WriteEstablishedState(const FlowState& state, Ack done) {
    WriteEstablishedState(state, StoreMode::kStateful, std::move(done));
  }

  // Write-behind refresh of an already-established flow's state; coalesced
  // (kStateful) or journaled (kStateless).
  void Refresh(const FlowState& state, StoreMode mode = StoreMode::kStateful);

  // Teardown (fire-and-forget); cancels any queued refresh for the flow. In
  // kStateless a never-flushed flow is dropped without touching the store; a
  // flushed one leaves a journaled tombstone.
  void Remove(const FlowState& state, StoreMode mode = StoreMode::kStateful);

  void LookupByClient(net::IpAddr vip, net::Port vip_port, net::IpAddr client_ip,
                      net::Port client_port, Lookup done);
  void LookupByServer(net::IpAddr backend_ip, net::Port backend_port, net::IpAddr vip,
                      net::Port client_port, Lookup done);

  // Flushes every dirty journal entry now (tests / orderly shutdown).
  void FlushJournalNow();

  // Owner crashed: unflushed journal entries die with the instance (the
  // cookie, or a previously flushed store entry, is what survives).
  void DropJournal() {
    journal_.clear();
    flushed_.clear();
    journal_timer_.Cancel();
    journal_timer_armed_ = false;
  }

  const StoreSessionStats& stats() const { return stats_; }
  std::size_t pending_refreshes() const { return refreshes_.size(); }
  std::size_t journal_depth() const { return journal_.size(); }
  TcpStore* store() { return store_; }

 private:
  struct PendingRefresh {
    std::optional<FlowState> queued;  // Latest state waiting for the wire.
  };
  struct JournalEntry {
    FlowState state;      // Latest dirty state (also keys the tombstone).
    bool remove = false;  // Tombstone: delete instead of write.
  };

  Ack TimedAck(Ack done);
  void IssueRefresh(const std::string& key, const FlowState& state);
  void Journal(const FlowState& state, bool remove);
  void ArmJournalTimer();
  bool alive() const { return failed_ == nullptr || !*failed_; }

  TcpStore* store_;
  sim::Simulator* sim_;
  sim::Histogram* store_wait_ms_;
  sim::Histogram* journal_depth_hist_;
  const bool* failed_ = nullptr;
  sim::Duration journal_flush_interval_ = sim::Msec(5);
  StoreSessionStats stats_;
  // Client key -> in-flight refresh bookkeeping.
  std::unordered_map<std::string, PendingRefresh> refreshes_;
  // Client key -> dirty state awaiting the next batched flush.
  std::unordered_map<std::string, JournalEntry> journal_;
  // Client keys this session has ever written to the store from the journal
  // (their teardown needs a tombstone; never-flushed flows do not).
  std::unordered_set<std::string> flushed_;
  sim::TimerHandle journal_timer_;
  bool journal_timer_armed_ = false;
};

}  // namespace yoda

#endif  // SRC_CORE_STORE_SESSION_H_
