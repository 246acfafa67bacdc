// FleetActuator: the ONLY code in the control plane that touches Yoda
// instances and the L4 fabric. Every live reconfiguration — VIP lifecycle,
// rule swaps, assignment rollouts, failure eviction, repair, scale-out — is
// expressed as an epoch-stamped ExecPlan and pushed through Execute(), which
// applies the steps in make-before-break order:
//
//   make phase:   kInstallRules / kAddPoolMember / kProgramPool / kAttachVip
//   barrier:      kAwaitConvergence — the break phase is deferred until the
//                 staggered (non-atomic, §4.5) mux updates have landed on the
//                 last mux
//   break phase:  kRemovePoolMember / kScrubRules / kDetachVip / kEvictInstance
//
// Steps are idempotent under retry: a (epoch, step) pair that already ran is
// skipped (no double pool-add, no double counter bump), mux writes are
// epoch-gated (a newer rollout can overtake an in-flight one; the stale tail
// is dropped by the muxes), and kScrubRules consults the CURRENT desired
// state so a stale scrub cannot strip rules a later epoch re-installed.
//
// Every plan and step lands in the flight recorder (kReconcilePlan /
// kReconcileStep / kReconcileDone, plus kPoolMemberAdd recorded at the
// moment the LAST mux converges and kPoolMemberRemove at the FIRST mux drop
// — the conservative bounds the blackout invariant checks), and mirrors into
// "controller.reconcile.*" counters.

#ifndef SRC_CORE_FLEET_ACTUATOR_H_
#define SRC_CORE_FLEET_ACTUATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/assign/update_planner.h"
#include "src/core/control_state.h"
#include "src/core/yoda_instance.h"
#include "src/l4lb/fabric.h"
#include "src/net/network.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace yoda {

enum class ExecStepKind : std::uint8_t {
  kAttachVip,         // Route the VIP through the fabric.
  kInstallRules,      // Push the VIP's desired rules onto `instance`.
  kAddPoolMember,     // Add (vip, instance) to the mux pools (staggered).
  kProgramPool,       // Overwrite the VIP's pool with `pool` on every mux.
  kSetBackendHealth,  // Propagate backend health to `instance`.
  kAwaitConvergence,  // Barrier: defer later steps until muxes converge.
  kRemovePoolMember,  // Remove (vip, instance) from the mux pools.
  kScrubRules,        // Drop the VIP's rules from `instance` (guarded).
  kDetachVip,         // Unroute the VIP.
  kEvictInstance,     // Failure path: drop `instance` from every pool + SNAT.
  kSetStoreMode,      // Flip the VIP's store contract on `instance`;
                      // `healthy` reused as the stateless flag.
};

const char* ExecStepKindName(ExecStepKind kind);

struct ExecStep {
  ExecStepKind kind = ExecStepKind::kInstallRules;
  net::IpAddr vip = 0;
  net::IpAddr instance = 0;            // Instance (or backend for health).
  bool healthy = true;                 // kSetBackendHealth payload.
  std::vector<net::IpAddr> pool;       // kProgramPool payload.
};

struct ExecPlan {
  std::uint64_t epoch = 0;
  std::string reason;
  // Staggered plans spread pool writes across muxes `mux_stagger` apart
  // (the §4.5 non-atomic update); unstaggered plans apply atomically
  // (bootstrap, failure eviction — where waiting would serve a dead ip).
  bool staggered = false;
  std::vector<ExecStep> steps;
  // Controller HA: the leader lease's fencing token stamped on every data-
  // plane write this plan makes (0 = unfenced, single-controller mode), and
  // a monotone id distinguishing plans that share an epoch (e.g. the
  // auto-scale round's catch-up plans + pool sync) in the durable journal.
  std::uint64_t fencing_token = 0;
  std::uint64_t plan_id = 0;
};

// The actuator's append-only execution journal (tests inspect it to verify
// make-before-break ordering; ctl_dump prints it as the reconcile timeline).
struct ExecutedStep {
  std::uint64_t epoch = 0;
  sim::Time at = 0;
  ExecStep step;
  // Skipped: this (epoch, step) already ran, the stale-scrub guard declined,
  // or the step's target (VIP / instance) no longer exists.
  bool replayed = false;
};

struct FleetActuatorConfig {
  sim::Duration mux_stagger = sim::Msec(50);
  // --- bounded per-step retry (0 = off: a step applies exactly once) ---
  // A step whose target instance is registered but currently failed() is
  // retried with exponential backoff (step_retry_backoff, doubling) up to
  // max_step_retries times before it is declared stalled: the step is
  // skipped, "controller.reconcile.step_stalled" bumps, kReconcileStalled is
  // recorded, the ROUND is marked failed — but the plan's remaining steps
  // still run (a permanently dead target must not wedge the rollout; the
  // health monitor's evict plan supersedes it).
  int max_step_retries = 0;
  sim::Duration step_retry_backoff = sim::Msec(25);
  // --- controller HA hooks (all optional) ---
  // Consulted before every RunSteps resumption of a fenced plan; returning
  // false aborts the remainder (kReconcileAbort). Wired by the controller to
  // "token is still MY live lease token", which kills a crashed/deposed
  // leader's parked barrier closures — the sim never cancels scheduled
  // events, so the closure fires and must disarm itself.
  std::function<bool(std::uint64_t token)> token_valid;
  // Fires once per ledger insertion (the step kinds the replay ledger
  // tracks), i.e. exactly the set a resumed leader must not re-apply; the
  // controller journals these as durable applied-markers.
  std::function<void(const ExecPlan&, const ExecStep&)> on_step_applied;
  // Fires when the plan's last step ran (ok = no step stalled). Not fired
  // for aborted plans: a deposed leader must not journal completion of a
  // plan the new leader now owns.
  std::function<void(const ExecPlan&, bool ok)> on_plan_done;
};

class FleetActuator {
 public:
  // Instance-state writes (InstallVip / SetBackendHealth / RemoveVip /
  // SetStoreMode) run on the shard of the instance's simulator: from another
  // shard they are fire-and-forget and land at the next barrier, while the
  // ledger, journal and counters stay on the actuator's shard at dispatch
  // time. The retry probe reads `network`'s shard-replicated down flag for
  // the instance's ip, since instance->failed() is not safe across shards.
  FleetActuator(sim::Simulator* simulator, net::Network* network, l4lb::L4Fabric* fabric,
                const ControlState* state, FleetActuatorConfig config);

  // Instances the actuator may address (active, suspended and spare).
  void RegisterInstance(YodaInstance* instance);
  YodaInstance* RegisteredInstance(net::IpAddr ip) const;

  // Executes `plan`: make phase now, break phase after mux convergence (for
  // staggered plans with a barrier). Idempotent per (epoch, step).
  void Execute(const ExecPlan& plan);

  // Seeds the replay ledger without side effects: a controller restored from
  // the durable journal marks the crashed leader's already-applied steps so
  // resuming the plan re-runs only the remainder (zero double applications).
  void MarkApplied(std::uint64_t epoch, const ExecStep& step);

  const std::vector<ExecutedStep>& journal() const { return journal_; }
  // Plans whose break phase has not landed yet.
  int plans_in_flight() const { return plans_in_flight_; }

 private:
  enum class ApplyResult : std::uint8_t { kDone, kRetry };

  // `attempt` is the retry attempt for step `first` (0 on the first try and
  // for every later step); `failed` carries "some step stalled" to the end.
  void RunSteps(const ExecPlan& plan, std::size_t first, int attempt, bool failed);
  ApplyResult Apply(const ExecPlan& plan, const ExecStep& step);
  // The two halves of Apply's write; each returns false when the step no
  // longer applies (its VIP or instance is gone, or a stale scrub).
  bool ApplyToInstance(const ExecPlan& plan, const ExecStep& step);
  bool ApplyToFabric(const ExecPlan& plan, const ExecStep& step);
  void Record(obs::EventType type, std::uint32_t where, std::uint64_t detail);

  sim::Simulator* sim_;
  net::Network* net_;
  l4lb::L4Fabric* fabric_;
  const ControlState* state_;
  FleetActuatorConfig cfg_;
  std::map<net::IpAddr, YodaInstance*> instances_;
  std::vector<ExecutedStep> journal_;
  // Idempotency ledger: (epoch, kind, vip, instance) steps already applied.
  std::set<std::tuple<std::uint64_t, std::uint8_t, net::IpAddr, net::IpAddr>> applied_;
  int plans_in_flight_ = 0;

  obs::Counter* plans_ctr_ = nullptr;
  obs::Counter* steps_ctr_ = nullptr;
  obs::Counter* replayed_ctr_ = nullptr;
  obs::Counter* rule_updates_ctr_ = nullptr;
  obs::Counter* pool_updates_ctr_ = nullptr;
  obs::Counter* converge_waits_ctr_ = nullptr;
  obs::Counter* step_retries_ctr_ = nullptr;
  obs::Counter* step_stalled_ctr_ = nullptr;
  obs::Counter* rounds_failed_ctr_ = nullptr;
  obs::Counter* aborted_ctr_ = nullptr;
};

// --- plan builders (pure functions of desired state + fleet view) ---
// The Controller is wiring: it mutates ControlState, calls one builder, and
// hands the plan to the actuator.

ExecPlan BuildDefineVipPlan(const ControlState& state, std::uint64_t epoch, net::IpAddr vip,
                            const std::vector<net::IpAddr>& active_ips);
ExecPlan BuildRemoveVipPlan(std::uint64_t epoch, net::IpAddr vip,
                            const std::vector<net::IpAddr>& active_ips);
ExecPlan BuildRuleUpdatePlan(const ControlState& state, std::uint64_t epoch, net::IpAddr vip,
                             const std::vector<net::IpAddr>& active_ips);
// Rules + backend health for a late-added or readmitted instance, plus
// (readmit) re-pooling it wherever it is desired.
ExecPlan BuildCatchUpPlan(const ControlState& state, std::uint64_t epoch,
                          net::IpAddr instance,
                          const std::vector<std::pair<net::IpAddr, bool>>& backend_health,
                          bool repool, const std::vector<net::IpAddr>& active_ips);
// Reprogram every VIP's pool to desired (all-to-all = active_ips).
ExecPlan BuildPoolSyncPlan(const ControlState& state, std::uint64_t epoch,
                           const std::vector<net::IpAddr>& active_ips, bool staggered,
                           const std::string& reason);
// Failure path: evict a dead instance everywhere, then resync pools.
ExecPlan BuildEvictPlan(const ControlState& state, std::uint64_t epoch, net::IpAddr dead,
                        const std::vector<net::IpAddr>& active_ips);
ExecPlan BuildBackendHealthPlan(std::uint64_t epoch, net::IpAddr backend, bool healthy,
                                const std::vector<net::IpAddr>& active_ips);
// New-leader resync: reassert the restored desired state fleet-wide under
// the new lease token — rules first on every desired member, then the pool
// per VIP (make-before-break), plus the VIP attachments. Heals whatever the
// crashed leader's unjournaled trailing writes left behind; idempotent
// against state the fleet already holds.
ExecPlan BuildLeaderTakeoverPlan(const ControlState& state, std::uint64_t epoch,
                                 const std::vector<net::IpAddr>& active_ips);
// Maps an AssignmentEngine round's make-before-break PlanSteps (index space)
// onto instance ips. `vip_order` / `instance_order` are the round's spaces.
ExecPlan BuildRolloutPlan(std::uint64_t epoch, const std::vector<assign::PlanStep>& steps,
                          const std::vector<net::IpAddr>& instance_order,
                          const std::string& reason);
// Store-mode flip: one step per desired instance. Flows latch their mode
// when they are created (cookie epoch = `epoch`), so a flip never touches a
// flow in flight, and the muxes route both modes alike.
ExecPlan BuildStoreModePlan(const ControlState& state, std::uint64_t epoch, net::IpAddr vip,
                            StoreMode mode, const std::vector<net::IpAddr>& active_ips);

}  // namespace yoda

#endif  // SRC_CORE_FLEET_ACTUATOR_H_
