// Yoda controller (paper §6), decomposed into a reconciliation control plane.
//
// The Controller is WIRING, not mechanism. It owns the four reconciliation
// components and routes between them; every live reconfiguration becomes an
// epoch-stamped plan executed by the actuator in make-before-break order:
//
//   ControlState     — epoch-stamped desired config (VIPs, rules, assignment)
//                      with a changelog the flight recorder can replay.
//   HealthMonitor    — actual-state observer: probes instances/backends and
//                      returns health TRANSITIONS (hysteresis, readmission,
//                      flap suppression).
//   AssignmentEngine — turns demand into an explicit UpdatePlan + ordered
//                      PlanSteps per round (§4.4 solver + §4.5 planner), and
//                      plans adds-only repair rounds after failures.
//   AutoScaler       — §7.3 mean-CPU scale-out policy (decision only).
//   FleetActuator    — the ONLY code touching instances and the L4 fabric;
//                      executes plans as idempotent epoch-tagged steps.
//
// Public API is unchanged from the monolithic controller; tests and the
// testbed drive it identically.

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/assignment_engine.h"
#include "src/core/auto_scaler.h"
#include "src/core/control_journal.h"
#include "src/core/control_state.h"
#include "src/core/fleet_actuator.h"
#include "src/core/health_monitor.h"
#include "src/core/leader_lease.h"
#include "src/core/yoda_instance.h"
#include "src/kv/kv_server.h"
#include "src/kv/replicating_client.h"
#include "src/l4lb/fabric.h"
#include "src/rules/rule.h"

namespace yoda {

// Controller HA (replicated control plane). When enabled, this replica
// contends for the store-backed leader lease; only the lease holder mutates
// desired state or drives plans, every mutation is journaled durably through
// `store` (snapshot + changelog tail, open plans, applied-step markers), and
// every data-plane write carries the lease's fencing token so the fleet
// rejects a deposed leader's stragglers. Disabled (default) keeps the
// single-controller behavior bit-identical.
struct ControllerHaConfig {
  bool enabled = false;
  net::IpAddr self = 0;                     // This replica's address.
  kv::ReplicatingClient* store = nullptr;   // Journal + lease substrate.
  sim::Duration lease_ttl = sim::Msec(300);
  sim::Duration lease_renew = sim::Msec(100);
  sim::Duration lease_acquire = sim::Msec(50);
  int snapshot_every = 8;                   // Changes per snapshot roll.
};

struct ControllerConfig {
  sim::Duration monitor_interval = sim::Msec(600);
  sim::Duration mux_stagger = sim::Msec(50);
  // Health-check hysteresis. An instance is declared dead only after this
  // many CONSECUTIVE missed probes (1 = paper behavior: first miss kills).
  // Probes ride Network::ProbePath, so a gray SYN-filter does not blind the
  // monitor, but a lossy link or partition does cost it probes.
  int fail_after_misses = 1;
  // Readmission: when enabled, a removed instance is parked as "suspended"
  // and re-pooled after this many consecutive healthy probes. Disabled keeps
  // the paper's remove-forever semantics.
  bool readmit_instances = false;
  int readmit_after_successes = 2;
  // Flap suppression: every failure after a readmission doubles the healthy
  // streak required next time, capped at this many probes.
  int readmit_penalty_cap = 8;
  bool auto_scale = false;
  double scale_out_cpu = 0.75;  // Mean utilization that triggers scale-out.
  int scale_out_step = 3;       // Instances added per trigger.
  // Consecutive over-threshold monitor ticks required before scaling
  // (hysteresis against transient spikes).
  int scale_out_ticks = 1;
  // Bounded per-step actuator retry (see FleetActuatorConfig). 0 keeps the
  // seed's apply-once behavior; the HA testbed template enables it.
  int max_step_retries = 0;
  sim::Duration step_retry_backoff = sim::Msec(25);
  ControllerHaConfig ha;
};

struct ControllerEvent {
  sim::Time when = 0;
  std::string what;
};

class Controller {
 public:
  Controller(sim::Simulator* simulator, net::Network* network, l4lb::L4Fabric* fabric,
             ControllerConfig config = {});

  // --- fleet management ---
  void AddInstance(YodaInstance* instance);        // Active from the start.
  void AddSpareInstance(YodaInstance* instance);   // Activated by scaling.
  void AddKvServer(kv::KvServer* server);
  void AddBackend(net::IpAddr backend);
  // Scale-out: activates up to `n` spares, last registered first. Each one
  // catches up on every desired VIP's rules and backend health, then one
  // fenced, staggered pool-sync plan adds them all to the muxes. Auto-scale
  // and the scenario DSL's add-instance both go through here. Returns the
  // number activated (0 on an HA replica that is not the acting leader).
  int ActivateSpares(int n);

  // --- VIP lifecycle (§5.2) ---
  void DefineVip(net::IpAddr vip, net::Port vip_port, std::vector<rules::Rule> vip_rules);
  void RemoveVip(net::IpAddr vip);
  void UpdateVipRules(net::IpAddr vip, std::vector<rules::Rule> vip_rules);
  // Flips the VIP's per-flow store contract and rolls it out make-before-
  // break (instances -> barrier -> muxes). Existing flows keep the mode they
  // latched at creation; cookies minted before the flip go stale-epoch and
  // fall back to the journal.
  void SetStoreMode(net::IpAddr vip, StoreMode mode);

  // --- many-to-many VIP assignment (§4.4) ---
  using VipDemand = yoda::VipDemand;
  // Recomputes the VIP->instance assignment with the greedy solver (Fig 7
  // model; Eq 4-7 honoured against the previous round) and rolls the result
  // out as an epoch-stamped make-before-break plan (rules + pool adds, a mux
  // convergence barrier, then removes + rule scrubs). Returns false if
  // infeasible.
  bool ApplyManyToMany(const std::map<net::IpAddr, VipDemand>& demand,
                       double traffic_capacity, int rule_capacity,
                       double migration_limit = 0.10);
  // The instances currently assigned to `vip` (empty if all-to-all mode).
  std::vector<net::IpAddr> AssignedInstances(net::IpAddr vip) const;

  // Periodic re-assignment (§8: "We calculate the assignment between the VIP
  // and the YODA-instances every 10 mins"): demand is derived from the
  // instances' per-VIP traffic counters collected since the last round.
  struct PeriodicAssignmentConfig {
    sim::Duration interval = sim::Minutes(10);
    double traffic_capacity = 1.0;       // T_y in new-connections/sec.
    int rule_capacity = 2'000;           // R_y.
    double migration_limit = 0.10;       // delta.
    double replication_factor = 4.0;     // n_v = ceil(rf * t_v / T_y).
    double oversubscription = 0.25;      // f_v = floor(n_v * o_v).
  };
  void EnablePeriodicAssignment(PeriodicAssignmentConfig config);
  // Runs one counter-driven assignment round immediately (with the periodic
  // config, or defaults if periodic assignment was never enabled).
  void RunAssignmentRoundNow();
  int assignment_rounds() const { return assignment_rounds_; }

  // Starts the periodic monitor (non-HA) or begins contending for the
  // leader lease (HA; the monitor arms on first acquisition).
  void Start();

  // Immediately runs one monitor pass (tests use this for determinism).
  // A no-op on an HA replica that is not the acting leader.
  void MonitorTick();

  // --- controller HA (replica lifecycle + introspection) ---
  // Crash: this replica stops renewing its lease and ignores every parked
  // callback; its in-memory state is untouched (it is dead, nobody reads
  // it). Restart re-enters the lease contest as a standby.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }
  // True when this replica may act: it is not crashed and, with HA on, it
  // holds the lease.
  bool ActingLeader() const;
  std::uint64_t fencing_token() const { return lease_ ? lease_->token() : 0; }
  const ControlJournal* journal() const { return journal_.get(); }
  const LeaderLease* lease() const { return lease_.get(); }

  std::vector<YodaInstance*> ActiveInstances() const { return monitor_.active(); }
  std::vector<YodaInstance*> SuspendedInstances() const { return monitor_.suspended(); }
  const std::vector<ControllerEvent>& events() const { return events_; }
  int detected_failures() const { return monitor_.detected_failures(); }
  int readmissions() const { return monitor_.readmissions(); }

  // --- reconciliation components (tests / tools) ---
  const ControlState& state() const { return state_; }
  const FleetActuator& actuator() const { return actuator_; }
  const HealthMonitor& monitor() const { return monitor_; }
  const AssignmentEngine& engine() const { return engine_; }

 private:
  void Log(const std::string& what);
  void SystemEvent(obs::EventType type, std::uint32_t where, std::uint64_t detail = 0);
  // Stamps the lease token + a fresh plan id and journals the plan before
  // executing it (HA leader); plain pass-through otherwise. By value: the
  // HA path rewrites the stamp fields.
  void ExecutePlan(ExecPlan plan);
  // Lease callbacks + crash-resume pipeline.
  void OnLeaderAcquired(std::uint64_t token);
  void OnLeaderLost();
  void AdoptRestored(const RestoredControlPlane& restored, std::uint64_t token);
  void ResumePlan(const RestoredPlan& restored, std::uint64_t token);
  void ApplyTransition(const HealthTransition& transition);
  void HandleInstanceFailure(const HealthTransition& transition);
  void HandleReadmission(const HealthTransition& transition);
  // Adds-only repair rollout for VIPs that a failure pushed below their
  // provisioned failure headroom (n_v - f_v of the last round's spec).
  void RepairHeadroom();
  void RunAutoScale();
  void AssignmentRoundFromCounters();
  std::vector<std::pair<net::IpAddr, bool>> BackendHealthList() const;
  // Self-rescheduling daemon loops; each firing re-arms itself. The closures
  // capture only `this`, so they cannot form ownership cycles.
  void ArmMonitor();
  void ArmAssignmentRound();
  // Builds the actuator config, wiring the HA hooks (token validity check,
  // durable applied/done markers) when HA is enabled. Static: runs in the
  // ctor init list, so it must not touch members; the hooks only fire later.
  static FleetActuatorConfig ActuatorConfigFor(Controller* self,
                                               const ControllerConfig& config);

  sim::Simulator* sim_;
  l4lb::L4Fabric* fabric_;
  ControllerConfig cfg_;

  ControlState state_;
  HealthMonitor monitor_;
  AssignmentEngine engine_;
  AutoScaler scaler_;
  FleetActuator actuator_;

  std::unique_ptr<ControlJournal> journal_;  // HA only.
  std::unique_ptr<LeaderLease> lease_;       // HA only.
  bool crashed_ = false;
  bool monitor_armed_ = false;

  std::vector<YodaInstance*> spares_;
  std::vector<kv::KvServer*> kv_servers_;
  bool started_ = false;
  std::vector<ControllerEvent> events_;
  std::optional<PeriodicAssignmentConfig> periodic_;
  int assignment_rounds_ = 0;

  obs::Counter* monitor_ticks_ctr_;
  obs::Counter* detected_failures_ctr_;
  obs::Counter* spares_activated_ctr_;
};

}  // namespace yoda

#endif  // SRC_CORE_CONTROLLER_H_
