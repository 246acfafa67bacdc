// ControlJournal: durable controller state in the replicated KV ring.
//
// The control plane's own store is the same TCPStore fabric the data plane
// uses for flow state (paper §6) — the controller is just another client of
// the replicated memcached ring. The journal persists three things:
//
//   ctl/snapshot          periodic full ControlState snapshot (epoch, desired
//                         VIPs with their rule sets, assignment).
//   ctl/log/<epoch>       changelog tail: one DurableChange per epoch (every
//                         ControlState mutation bumps the epoch exactly once,
//                         so the epoch doubles as the log sequence number).
//   ctl/plan_seq          monotone plan-id counter.
//   ctl/plans_open        space-separated ids of plans whose break phase has
//                         not completed (the crash-resume work list).
//   ctl/plan/<id>         the serialized ExecPlan.
//   ctl/applied/<id>/<k>  one marker per ledgered step already applied — the
//                         resumed plan re-runs only the remainder, so no step
//                         ever applies twice across a leader failover.
//
// Restore walks snapshot -> log tail (sequential Gets until the first miss:
// a lost log write truncates the tail but can never leave a gap-spanning,
// inconsistent prefix) -> plan_seq -> open plans -> applied markers, all
// asynchronously through the replicating client, and hands the caller a
// RestoredControlPlane to adopt.
//
// Writes are fire-and-forget (the KV servers are FIFO, so order holds); a
// write lost to a crashed replica costs at most the tail of history, which
// the new leader's takeover resync plan re-derives from desired state.

#ifndef SRC_CORE_CONTROL_JOURNAL_H_
#define SRC_CORE_CONTROL_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/control_state.h"
#include "src/core/fleet_actuator.h"
#include "src/kv/replicating_client.h"
#include "src/obs/registry.h"

namespace yoda {

// One open plan as recovered from the store.
struct RestoredPlan {
  ExecPlan plan;
  // StepKey()s of the steps the dead leader already applied.
  std::set<std::string> applied;
};

// Everything a standby needs to adopt the crashed leader's control plane.
struct RestoredControlPlane {
  bool found = false;  // False: empty store (fresh cluster) — start cold.
  std::uint64_t epoch = 0;
  std::map<net::IpAddr, ControlState::VipDesired> vips;
  std::map<net::IpAddr, std::vector<net::IpAddr>> assignment;
  std::vector<DurableChange> tail;  // Changes after the snapshot, in order.
  std::uint64_t plan_seq = 0;
  std::vector<RestoredPlan> open_plans;  // In plan-id order.
};

struct ControlJournalStats {
  std::uint64_t changes_logged = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t plans_journaled = 0;
  std::uint64_t applied_markers = 0;
  std::uint64_t restores = 0;
};

struct ControlJournalConfig {
  // Snapshot cadence: a full snapshot every N journaled changes bounds the
  // log tail a restore must replay.
  int snapshot_every = 8;
};

class ControlJournal {
 public:
  ControlJournal(sim::Simulator* simulator, kv::ReplicatingClient* client,
                 ControlJournalConfig config = {});

  // --- write path (live leader) ---
  // Journal one mutation; also rolls the snapshot every snapshot_every calls.
  void OnChange(const ControlState& state, const DurableChange& change);
  // Allocates the next plan id and persists the counter.
  std::uint64_t NextPlanId();
  void PutPlan(const ExecPlan& plan);
  void PutApplied(const ExecPlan& plan, const ExecStep& step);
  void PutDone(const ExecPlan& plan);

  // --- restore path (new leader) ---
  void Restore(std::function<void(RestoredControlPlane)> done);
  // Adopts the recovered id space so this journal's PutPlan/PutDone continue
  // the dead leader's sequence (ids never repeat, open-list stays coherent).
  void AdoptRestored(const RestoredControlPlane& restored);

  const ControlJournalStats& stats() const { return stats_; }

  // --- serializers (exposed for tests and ctl_dump) ---
  static std::string StepKey(const ExecStep& step);
  static std::string EncodeRule(const rules::Rule& rule);
  static std::optional<rules::Rule> DecodeRule(const std::string& line);
  static std::string EncodeChange(const DurableChange& change);
  static std::optional<DurableChange> DecodeChange(const std::string& text);
  static std::string EncodeSnapshot(const ControlState& state);
  static bool DecodeSnapshot(const std::string& text, RestoredControlPlane* out);
  static std::string EncodePlan(const ExecPlan& plan);
  static std::optional<ExecPlan> DecodePlan(const std::string& text);

 private:
  struct RestoreCtx;

  void RestoreLogEntry(std::shared_ptr<RestoreCtx> ctx, std::uint64_t epoch);
  void RestorePlanSeq(std::shared_ptr<RestoreCtx> ctx);
  void RestoreOpenList(std::shared_ptr<RestoreCtx> ctx);
  void RestorePlan(std::shared_ptr<RestoreCtx> ctx, std::size_t idx);
  void RestoreMarkers(std::shared_ptr<RestoreCtx> ctx, std::size_t idx,
                      std::size_t step_idx);
  void FinishRestore(std::shared_ptr<RestoreCtx> ctx);

  void WriteOpenList();

  sim::Simulator* sim_;
  kv::ReplicatingClient* kv_;
  ControlJournalConfig cfg_;
  int changes_since_snapshot_ = 0;
  std::uint64_t plan_seq_ = 0;
  std::set<std::uint64_t> open_;  // In-memory authoritative open-plan set.
  ControlJournalStats stats_;
  obs::Counter* changes_ctr_;
  obs::Counter* snapshots_ctr_;
};

}  // namespace yoda

#endif  // SRC_CORE_CONTROL_JOURNAL_H_
