#include "src/core/controller.h"

#include <algorithm>
#include <utility>

namespace yoda {

FleetActuatorConfig Controller::ActuatorConfigFor(Controller* self,
                                                  const ControllerConfig& config) {
  FleetActuatorConfig out;
  out.mux_stagger = config.mux_stagger;
  out.max_step_retries = config.max_step_retries;
  out.step_retry_backoff = config.step_retry_backoff;
  if (config.ha.enabled) {
    out.token_valid = [self](std::uint64_t token) {
      return !self->crashed_ && self->lease_ != nullptr && self->lease_->is_leader() &&
             token == self->lease_->token();
    };
    out.on_step_applied = [self](const ExecPlan& plan, const ExecStep& step) {
      if (plan.plan_id != 0 && self->ActingLeader()) {
        self->journal_->PutApplied(plan, step);
      }
    };
    out.on_plan_done = [self](const ExecPlan& plan, bool /*ok*/) {
      if (plan.plan_id != 0 && self->ActingLeader()) {
        self->journal_->PutDone(plan);
      }
    };
  }
  return out;
}

Controller::Controller(sim::Simulator* simulator, net::Network* network, l4lb::L4Fabric* fabric,
                       ControllerConfig config)
    : sim_(simulator),
      fabric_(fabric),
      cfg_(config),
      state_(simulator),
      monitor_(network, HealthMonitorConfig{config.fail_after_misses, config.readmit_instances,
                                            config.readmit_after_successes,
                                            config.readmit_penalty_cap}),
      scaler_(AutoScalerConfig{config.scale_out_cpu, config.scale_out_step,
                               config.scale_out_ticks}),
      actuator_(simulator, network, fabric, &state_, ActuatorConfigFor(this, config)),
      monitor_ticks_ctr_(&simulator->registry().GetCounter("controller.monitor_ticks")),
      detected_failures_ctr_(&simulator->registry().GetCounter("controller.detected_failures")),
      spares_activated_ctr_(&simulator->registry().GetCounter("controller.spares_activated")) {
  if (cfg_.ha.enabled) {
    journal_ = std::make_unique<ControlJournal>(sim_, cfg_.ha.store,
                                                ControlJournalConfig{cfg_.ha.snapshot_every});
    state_.SetChangeSink([this](const DurableChange& change) {
      // Only the acting leader journals: a standby's ControlState never
      // mutates (the public API is leader-gated), and the restore path
      // applies changes without firing the sink — but guard anyway so a
      // deposed replica's stragglers never scribble on the journal.
      if (ActingLeader()) {
        journal_->OnChange(state_, change);
      }
    });
    LeaderLeaseConfig lease_cfg;
    lease_cfg.self = cfg_.ha.self;
    lease_cfg.ttl = cfg_.ha.lease_ttl;
    lease_cfg.renew_interval = cfg_.ha.lease_renew;
    lease_cfg.acquire_interval = cfg_.ha.lease_acquire;
    lease_ = std::make_unique<LeaderLease>(
        sim_, cfg_.ha.store, lease_cfg,
        [this](std::uint64_t token) { OnLeaderAcquired(token); },
        [this]() { OnLeaderLost(); });
  }
}

bool Controller::ActingLeader() const {
  return !crashed_ && (!cfg_.ha.enabled || (lease_ != nullptr && lease_->is_leader()));
}

void Controller::Log(const std::string& what) { events_.push_back({sim_->now(), what}); }

void Controller::SystemEvent(obs::EventType type, std::uint32_t where, std::uint64_t detail) {
  sim_->recorder().RecordSystem(sim_->now(), type, where, detail);
}

void Controller::ExecutePlan(ExecPlan plan) {
  if (plan.steps.empty()) {
    return;
  }
  if (cfg_.ha.enabled && ActingLeader()) {
    plan.fencing_token = lease_->token();
    plan.plan_id = journal_->NextPlanId();
    journal_->PutPlan(plan);
  }
  actuator_.Execute(plan);
}

std::vector<std::pair<net::IpAddr, bool>> Controller::BackendHealthList() const {
  std::vector<std::pair<net::IpAddr, bool>> health;
  health.reserve(monitor_.backends().size());
  for (net::IpAddr b : monitor_.backends()) {
    health.emplace_back(b, monitor_.IsBackendUp(b));
  }
  return health;
}

void Controller::AddInstance(YodaInstance* instance) {
  monitor_.AddActive(instance);
  actuator_.RegisterInstance(instance);
  if (!state_.vips().empty() && ActingLeader()) {
    // Late-added instances catch up on every desired VIP's rules + health.
    const std::uint64_t epoch =
        state_.NoteInstance(ChangeKind::kInstanceAdmitted, instance->ip());
    ExecutePlan(BuildCatchUpPlan(state_, epoch, instance->ip(), BackendHealthList(),
                                 /*repool=*/false, monitor_.ActiveIps()));
  }
}

void Controller::AddSpareInstance(YodaInstance* instance) {
  spares_.push_back(instance);
  actuator_.RegisterInstance(instance);
}

void Controller::AddKvServer(kv::KvServer* server) { kv_servers_.push_back(server); }

void Controller::AddBackend(net::IpAddr backend) { monitor_.AddBackend(backend); }

void Controller::DefineVip(net::IpAddr vip, net::Port vip_port,
                           std::vector<rules::Rule> vip_rules) {
  if (!ActingLeader()) {
    return;
  }
  const std::size_t n_rules = vip_rules.size();
  const std::uint64_t epoch = state_.DefineVip(vip, vip_port, std::move(vip_rules));
  ExecutePlan(BuildDefineVipPlan(state_, epoch, vip, monitor_.ActiveIps()));
  Log("define vip " + net::IpToString(vip) + " (" + std::to_string(n_rules) + " rules)");
}

void Controller::RemoveVip(net::IpAddr vip) {
  if (!ActingLeader()) {
    return;
  }
  const std::uint64_t epoch = state_.RemoveVip(vip);
  ExecutePlan(BuildRemoveVipPlan(epoch, vip, monitor_.ActiveIps()));
  Log("remove vip " + net::IpToString(vip));
}

void Controller::UpdateVipRules(net::IpAddr vip, std::vector<rules::Rule> vip_rules) {
  if (!ActingLeader() || !state_.HasVip(vip)) {
    return;
  }
  const std::uint64_t epoch = state_.UpdateRules(vip, std::move(vip_rules));
  ExecutePlan(BuildRuleUpdatePlan(state_, epoch, vip, monitor_.ActiveIps()));
  Log("update rules for vip " + net::IpToString(vip));
}

void Controller::SetStoreMode(net::IpAddr vip, StoreMode mode) {
  if (!ActingLeader() || !state_.HasVip(vip)) {
    return;
  }
  const std::uint64_t epoch = state_.SetStoreMode(vip, mode);
  ExecutePlan(BuildStoreModePlan(state_, epoch, vip, mode, monitor_.ActiveIps()));
  Log(std::string("store mode ") + StoreModeName(mode) + " for vip " + net::IpToString(vip));
}

void Controller::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (cfg_.ha.enabled) {
    // HA: contend for the lease; the monitor arms on first acquisition so a
    // standby never probes-and-evicts a fleet it does not lead.
    lease_->Start();
    return;
  }
  // Daemon events: the monitor must not keep the simulation alive on its own.
  monitor_armed_ = true;
  ArmMonitor();
}

void Controller::ArmMonitor() {
  sim_->After(
      cfg_.monitor_interval,
      [this]() {
        MonitorTick();
        ArmMonitor();
      },
      /*daemon=*/true);
}

void Controller::MonitorTick() {
  if (!ActingLeader()) {
    return;
  }
  monitor_ticks_ctr_->Inc();
  for (const HealthTransition& t : monitor_.Tick()) {
    ApplyTransition(t);
  }
  if (cfg_.auto_scale) {
    RunAutoScale();
  }
}

void Controller::ApplyTransition(const HealthTransition& t) {
  switch (t.kind) {
    case HealthTransition::Kind::kInstanceSuspected:
      SystemEvent(obs::EventType::kInstanceSuspected, t.addr,
                  static_cast<std::uint64_t>(t.detail));
      Log("yoda instance " + net::IpToString(t.addr) + " suspected (miss " +
          std::to_string(t.detail) + "/" + std::to_string(cfg_.fail_after_misses) +
          "); still pooled");
      break;
    case HealthTransition::Kind::kInstanceFailed:
      HandleInstanceFailure(t);
      break;
    case HealthTransition::Kind::kInstanceReadmitted:
      HandleReadmission(t);
      break;
    case HealthTransition::Kind::kBackendDown:
    case HealthTransition::Kind::kBackendUp: {
      const bool up = t.kind == HealthTransition::Kind::kBackendUp;
      SystemEvent(up ? obs::EventType::kBackendUp : obs::EventType::kBackendDown, t.addr);
      ExecutePlan(BuildBackendHealthPlan(state_.epoch(), t.addr, up, monitor_.ActiveIps()));
      Log(std::string("backend ") + net::IpToString(t.addr) + (up ? " recovered" : " failed"));
      break;
    }
  }
}

void Controller::HandleInstanceFailure(const HealthTransition& t) {
  detected_failures_ctr_->Inc();
  SystemEvent(obs::EventType::kInstanceDown, t.addr);
  Log("yoda instance " + net::IpToString(t.addr) + " failed; removed from L4 mappings");
  // Desired state first: scrub the dead instance from every assignment so
  // AssignedInstances() never reports it, then evict it from the fabric and
  // reassert the (scrubbed) pools. Unstaggered — a pooled dead member is
  // blackholed traffic.
  state_.NoteInstance(ChangeKind::kInstanceFailed, t.addr);
  state_.ScrubInstance(t.addr);
  ExecutePlan(BuildEvictPlan(state_, state_.epoch(), t.addr, monitor_.ActiveIps()));
  scaler_.ResetHysteresis();
  RepairHeadroom();
}

void Controller::HandleReadmission(const HealthTransition& t) {
  const std::uint64_t epoch = state_.NoteInstance(ChangeKind::kInstanceAdmitted, t.addr);
  ExecutePlan(BuildCatchUpPlan(state_, epoch, t.addr, BackendHealthList(),
                               /*repool=*/true, monitor_.ActiveIps()));
  SystemEvent(obs::EventType::kInstanceReadmitted, t.addr);
  Log("yoda instance " + net::IpToString(t.addr) + " readmitted after " +
      std::to_string(t.detail) + " healthy probes");
}

void Controller::RepairHeadroom() {
  if (engine_.UnderHeadroom(state_).empty()) {
    return;
  }
  AssignmentEngine::FleetRound repair = engine_.PlanRepair(state_, monitor_.active());
  if (!repair.round.feasible) {
    return;
  }
  const std::uint64_t epoch = state_.SetAssignments(repair.pools);
  ExecutePlan(BuildRolloutPlan(epoch, repair.round.steps, repair.instance_order,
                               "repair failure headroom"));
  Log("repaired failure headroom for " + std::to_string(repair.pools.size()) + " vip(s)");
}

void Controller::RunAutoScale() {
  const int n = scaler_.Tick(monitor_.active(), static_cast<int>(spares_.size()), sim_->now());
  if (ActivateSpares(n) == 0) {
    return;
  }
  for (YodaInstance* i : monitor_.active()) {
    i->cpu().ResetWindow(sim_->now());
  }
}

int Controller::ActivateSpares(int n) {
  if (!ActingLeader()) {
    return 0;
  }
  int activated = 0;
  for (; activated < n && !spares_.empty(); ++activated) {
    YodaInstance* spare = spares_.back();
    spares_.pop_back();
    monitor_.AddActive(spare);
    const std::uint64_t epoch = state_.NoteInstance(ChangeKind::kInstanceAdmitted, spare->ip());
    ExecutePlan(BuildCatchUpPlan(state_, epoch, spare->ip(), BackendHealthList(),
                                 /*repool=*/false, monitor_.ActiveIps()));
    SystemEvent(obs::EventType::kSpareActivated, spare->ip());
    spares_activated_ctr_->Inc();
    Log("activated spare instance " + net::IpToString(spare->ip()));
  }
  if (activated > 0) {
    ExecutePlan(BuildPoolSyncPlan(state_, state_.epoch(), monitor_.ActiveIps(),
                                  /*staggered=*/true, "scale-out pool sync"));
  }
  return activated;
}

std::vector<net::IpAddr> Controller::AssignedInstances(net::IpAddr vip) const {
  const std::vector<net::IpAddr>* pool = state_.DesiredPool(vip);
  return pool == nullptr ? std::vector<net::IpAddr>{} : *pool;
}

bool Controller::ApplyManyToMany(const std::map<net::IpAddr, VipDemand>& demand,
                                 double traffic_capacity, int rule_capacity,
                                 double migration_limit) {
  if (!ActingLeader()) {
    return false;
  }
  AssignmentRoundConfig round_cfg{traffic_capacity, rule_capacity, migration_limit};
  AssignmentEngine::FleetRound fr =
      engine_.PlanFleetRound(state_, monitor_.active(), demand, round_cfg);
  if (!fr.round.feasible) {
    Log("many-to-many assignment infeasible: " + fr.round.note);
    return false;
  }
  const std::uint64_t epoch = state_.SetAssignments(fr.pools);
  ExecutePlan(BuildRolloutPlan(epoch, fr.round.steps, fr.instance_order,
                               "assignment rollout"));
  Log("applied many-to-many assignment (" + std::to_string(fr.round.result.instances_used) +
      " instances, migrated " +
      sim::FormatDouble(100 * fr.round.result.migrated_fraction, 1) + "% of traffic)");
  return true;
}

void Controller::EnablePeriodicAssignment(PeriodicAssignmentConfig config) {
  periodic_ = config;
  ArmAssignmentRound();
}

void Controller::ArmAssignmentRound() {
  sim_->After(
      periodic_->interval,
      [this]() {
        AssignmentRoundFromCounters();
        ArmAssignmentRound();
      },
      /*daemon=*/true);
}

void Controller::RunAssignmentRoundNow() {
  if (!periodic_) {
    periodic_ = PeriodicAssignmentConfig{};
  }
  AssignmentRoundFromCounters();
}

void Controller::AssignmentRoundFromCounters() {
  if (!ActingLeader() || !periodic_ || state_.vips().empty() || monitor_.active().empty()) {
    return;
  }
  DemandDerivationConfig dcfg{periodic_->traffic_capacity, periodic_->replication_factor,
                              periodic_->oversubscription};
  const std::map<net::IpAddr, VipDemand> demand = AssignmentEngine::DemandFromCounters(
      state_, monitor_.active(), sim::ToSeconds(periodic_->interval), dcfg);
  if (ApplyManyToMany(demand, periodic_->traffic_capacity, periodic_->rule_capacity,
                      periodic_->migration_limit)) {
    ++assignment_rounds_;
  }
}

// --- controller HA ---

void Controller::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  if (lease_ != nullptr) {
    lease_->Stop();  // Stops renewing; the lease expires on its own.
  }
  Log("controller crashed");
}

void Controller::Restart() {
  if (!crashed_) {
    return;
  }
  crashed_ = false;
  Log("controller restarted (standby)");
  if (cfg_.ha.enabled && started_) {
    lease_->Start();  // Re-enter the contest; state re-adopts on acquisition.
  }
}

void Controller::OnLeaderAcquired(std::uint64_t token) {
  Log("acquired leader lease (token " + std::to_string(token) + ")");
  // Recover whatever the previous leader journaled before taking any action.
  // The lease may lapse while the async restore walks the store: the adopt
  // callback re-checks that this replica still holds THIS token.
  journal_->Restore([this, token](RestoredControlPlane restored) {
    if (crashed_ || lease_ == nullptr || !lease_->is_leader() || lease_->token() != token) {
      return;  // Deposed (or crashed) mid-restore; the next leader re-runs it.
    }
    AdoptRestored(restored, token);
  });
}

void Controller::OnLeaderLost() {
  // The gates (ActingLeader) and the actuator's token_valid hook do the real
  // work; losing the lease only needs to be visible.
  Log("lost leader lease");
}

void Controller::AdoptRestored(const RestoredControlPlane& restored, std::uint64_t token) {
  if (restored.found) {
    // Snapshot first, then the changelog tail — ApplyDurable replays each
    // change's state effect and re-emits its changelog record at the
    // ORIGINAL epoch/timestamp, so a restored changelog reads like the live
    // one did.
    state_.LoadSnapshot(restored.epoch, restored.vips, restored.assignment);
    for (const DurableChange& change : restored.tail) {
      state_.ApplyDurable(change);
    }
    journal_->AdoptRestored(restored);
    state_.NoteInstance(ChangeKind::kRestored, cfg_.ha.self);
    Log("restored control state at epoch " + std::to_string(state_.epoch()) + " (" +
        std::to_string(restored.vips.size()) + " vip(s), " +
        std::to_string(restored.tail.size()) + " tail change(s), " +
        std::to_string(restored.open_plans.size()) + " open plan(s))");
    for (const RestoredPlan& open : restored.open_plans) {
      ResumePlan(open, token);
    }
  }
  const std::uint64_t epoch = state_.NoteInstance(ChangeKind::kLeaderElected, cfg_.ha.self);
  if (!state_.vips().empty()) {
    // Safety net for the dead leader's unjournaled trailing writes: reassert
    // desired state fleet-wide at a fresh epoch under OUR token. Resumed
    // plans above run at their ORIGINAL (older) epochs, so this resync's
    // writes overtake any stale resumed tail at the muxes.
    ExecutePlan(BuildLeaderTakeoverPlan(state_, epoch, monitor_.ActiveIps()));
    Log("leader takeover resync at epoch " + std::to_string(epoch));
  }
  if (!monitor_armed_) {
    monitor_armed_ = true;
    ArmMonitor();
  }
}

void Controller::ResumePlan(const RestoredPlan& restored, std::uint64_t token) {
  ExecPlan plan = restored.plan;
  std::uint64_t already = 0;
  for (const ExecStep& step : plan.steps) {
    if (restored.applied.count(ControlJournal::StepKey(step)) != 0) {
      // Seed the replay ledger: the dead leader journaled this step as
      // applied, so the resumed run skips it — no step applies twice.
      actuator_.MarkApplied(plan.epoch, step);
      ++already;
    }
  }
  // Re-stamp under OUR lease (the fleet has fenced the dead leader's token);
  // epoch and plan id are preserved — it is the SAME plan, finishing.
  plan.fencing_token = token;
  SystemEvent(obs::EventType::kPlanResumed, static_cast<std::uint32_t>(plan.epoch),
              (already << 32) | (plan.plan_id & 0xffffffffULL));
  journal_->PutPlan(plan);
  actuator_.Execute(plan);
  Log("resumed plan " + std::to_string(plan.plan_id) + " (epoch " +
      std::to_string(plan.epoch) + ", " + std::to_string(already) + "/" +
      std::to_string(plan.steps.size()) + " steps already applied): " + plan.reason);
}

}  // namespace yoda
