// ControlState: the epoch-stamped desired configuration of the control plane.
//
// The reconciliation architecture (paper §4.5 + §5.2, mirroring the
// control/data split of Concury and the desired-state model argued by the
// stateful-LB literature) separates WHAT the fleet should look like from HOW
// it gets there:
//
//   ControlState   — desired VIPs, rules, VIP->instance assignment (this
//                    file). Every mutation bumps a monotone epoch and appends
//                    a changelog record; the flight recorder mirrors each
//                    record as a kConfigChange system event so a trace can
//                    replay the configuration history.
//   HealthMonitor  — actual-state observer (probes, hysteresis).
//   AssignmentEngine — computes desired-state changes as explicit UpdatePlans.
//   FleetActuator  — the only code that pushes desired state at instances and
//                    the L4 fabric, as idempotent epoch-tagged steps.
//
// An absent assignment entry means "all-to-all": the VIP is desired on every
// active instance (bootstrap mode, before any assignment round).

#ifndef SRC_CORE_CONTROL_STATE_H_
#define SRC_CORE_CONTROL_STATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/flow_state.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/rules/rule.h"
#include "src/sim/simulator.h"

namespace yoda {

enum class ChangeKind : std::uint8_t {
  kVipDefined,         // subject=vip, detail=rule count.
  kVipRemoved,         // subject=vip.
  kRulesUpdated,       // subject=vip, detail=rule count.
  kAssignmentSet,      // subject=vip, detail=desired pool size.
  kAssignmentCleared,  // subject=vip (back to all-to-all).
  kInstanceScrubbed,   // subject=instance, detail=# assignments it left.
  kInstanceFailed,     // subject=instance (fleet membership, not assignment).
  kInstanceAdmitted,   // subject=instance (added, activated or readmitted).
  kRestored,           // subject=controller ip; state rebuilt from the journal.
  kLeaderElected,      // subject=controller ip; this replica now leads.
  kStoreModeSet,       // subject=vip, detail=StoreMode (stateless fast path).
};

const char* ChangeKindName(ChangeKind kind);

struct ChangeRecord {
  std::uint64_t epoch = 0;
  sim::Time at = 0;
  ChangeKind kind = ChangeKind::kVipDefined;
  net::IpAddr subject = 0;
  std::uint64_t detail = 0;
};

// One mutation with its FULL payload — exactly what must survive a
// controller crash. Unlike ChangeRecord (a changelog line), replaying a
// DurableChange against a ControlState reproduces the mutation bit-for-bit:
// kVipDefined/kRulesUpdated carry the rule set, kAssignmentSet carries the
// whole round's pools (one mutation = one epoch = one journal entry, even
// when the round touched many VIPs). The ControlJournal serializes these
// into the replicated KV ring as the changelog tail.
struct DurableChange {
  std::uint64_t epoch = 0;
  sim::Time at = 0;
  ChangeKind kind = ChangeKind::kVipDefined;
  net::IpAddr subject = 0;
  std::uint64_t detail = 0;
  net::Port port = 0;                                      // kVipDefined.
  std::vector<rules::Rule> rules;                          // kVipDefined/kRulesUpdated.
  std::map<net::IpAddr, std::vector<net::IpAddr>> pools;   // kAssignmentSet.
};

class ControlState {
 public:
  // Every changelog record is mirrored into the simulator's flight recorder.
  explicit ControlState(sim::Simulator* simulator) : sim_(simulator) {}

  struct VipDesired {
    net::Port port = 80;
    std::vector<rules::Rule> rules;
    // Per-flow store contract: the paper's synchronous ACK-point writes or
    // the cookie-derived stateless fast path. `store_mode_epoch` is the
    // epoch of the install that set the mode — it becomes the VIP's cookie
    // epoch on the instances, so tokens minted under an older policy are
    // rejected as stale after a flip.
    StoreMode store_mode = StoreMode::kStateful;
    std::uint64_t store_mode_epoch = 0;
  };

  // --- mutations (each bumps the epoch once and logs the change) ---
  std::uint64_t DefineVip(net::IpAddr vip, net::Port port, std::vector<rules::Rule> rules);
  std::uint64_t RemoveVip(net::IpAddr vip);
  std::uint64_t UpdateRules(net::IpAddr vip, std::vector<rules::Rule> rules);
  // Replaces the desired assignment of every VIP in `pools` (one epoch for
  // the whole round, one changelog record per VIP).
  std::uint64_t SetAssignments(const std::map<net::IpAddr, std::vector<net::IpAddr>>& pools);
  // Failure path: removes `instance` from every desired pool. Returns the
  // VIPs whose pools shrank. Bumps the epoch only if anything changed.
  std::vector<net::IpAddr> ScrubInstance(net::IpAddr instance);
  // Fleet membership change (failure / admission / readmission). Bumps the
  // epoch so plans reacting to the SAME instance flapping twice carry
  // distinct epochs and are not swallowed by the actuator's replay ledger.
  std::uint64_t NoteInstance(ChangeKind kind, net::IpAddr instance);
  // Flips the VIP's per-flow store contract; the new epoch becomes the
  // cookie install epoch (VipDesired::store_mode_epoch). No-op epoch-wise
  // when the VIP is undefined.
  std::uint64_t SetStoreMode(net::IpAddr vip, StoreMode mode);

  // --- durability (controller HA) ---
  // Sink invoked once per MUTATION (not per changelog record) with the full
  // payload, after the state and changelog were updated. The journal hooks
  // in here; unset (default) keeps the single-controller path byte-identical.
  using ChangeSink = std::function<void(const DurableChange&)>;
  void SetChangeSink(ChangeSink sink) { sink_ = std::move(sink); }

  // Restore path. LoadSnapshot replaces the whole state (epoch, desired VIPs,
  // assignment) without changelog records, recorder mirroring or sink calls;
  // ApplyDurable replays one journaled mutation, reproducing exactly the
  // changelog records the live mutation wrote (original epoch and timestamp)
  // but again without recorder/sink side effects — a restored controller
  // must not re-journal or re-trace history that already happened.
  void LoadSnapshot(std::uint64_t epoch, std::map<net::IpAddr, VipDesired> vips,
                    std::map<net::IpAddr, std::vector<net::IpAddr>> assignment);
  void ApplyDurable(const DurableChange& change);

  // Snapshot accessors (journal serialization).
  const std::map<net::IpAddr, std::vector<net::IpAddr>>& assignment() const {
    return assignment_;
  }

  // --- queries ---
  std::uint64_t epoch() const { return epoch_; }
  bool HasVip(net::IpAddr vip) const { return vips_.contains(vip); }
  const std::map<net::IpAddr, VipDesired>& vips() const { return vips_; }
  const VipDesired* Desired(net::IpAddr vip) const;
  // Desired pool, or nullptr when the VIP is in all-to-all mode.
  const std::vector<net::IpAddr>* DesiredPool(net::IpAddr vip) const;
  // True when `instance` is desired to serve `vip` (all-to-all counts as
  // "desired everywhere"). Used by the actuator's stale-scrub guard.
  bool PoolContains(net::IpAddr vip, net::IpAddr instance) const;
  const std::vector<ChangeRecord>& changelog() const { return changelog_; }

 private:
  std::uint64_t Bump(ChangeKind kind, net::IpAddr subject, std::uint64_t detail);
  void LogRecord(ChangeKind kind, net::IpAddr subject, std::uint64_t detail);
  // Builds the DurableChange for the mutation just applied and feeds the
  // sink (no-op without one).
  void EmitDurable(ChangeKind kind, net::IpAddr subject, std::uint64_t detail,
                   net::Port port = 0, const std::vector<rules::Rule>* rules = nullptr,
                   const std::map<net::IpAddr, std::vector<net::IpAddr>>* pools = nullptr);

  sim::Simulator* sim_;
  ChangeSink sink_;
  std::uint64_t epoch_ = 0;
  std::map<net::IpAddr, VipDesired> vips_;
  std::map<net::IpAddr, std::vector<net::IpAddr>> assignment_;
  std::vector<ChangeRecord> changelog_;
};

}  // namespace yoda

#endif  // SRC_CORE_CONTROL_STATE_H_
