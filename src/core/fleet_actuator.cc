#include "src/core/fleet_actuator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/sharded_sim.h"

namespace yoda {

const char* ExecStepKindName(ExecStepKind kind) {
  switch (kind) {
    case ExecStepKind::kAttachVip:
      return "AttachVip";
    case ExecStepKind::kInstallRules:
      return "InstallRules";
    case ExecStepKind::kAddPoolMember:
      return "AddPoolMember";
    case ExecStepKind::kProgramPool:
      return "ProgramPool";
    case ExecStepKind::kSetBackendHealth:
      return "SetBackendHealth";
    case ExecStepKind::kAwaitConvergence:
      return "AwaitConvergence";
    case ExecStepKind::kRemovePoolMember:
      return "RemovePoolMember";
    case ExecStepKind::kScrubRules:
      return "ScrubRules";
    case ExecStepKind::kDetachVip:
      return "DetachVip";
    case ExecStepKind::kEvictInstance:
      return "EvictInstance";
    case ExecStepKind::kSetStoreMode:
      return "SetStoreMode";
  }
  return "Unknown";
}

FleetActuator::FleetActuator(sim::Simulator* simulator, net::Network* network,
                             l4lb::L4Fabric* fabric, const ControlState* state,
                             FleetActuatorConfig config)
    : sim_(simulator), net_(network), fabric_(fabric), state_(state), cfg_(config) {
  assert(sim_->engine() != nullptr && "FleetActuator must be built on an engine shard");
  obs::Registry& registry = sim_->registry();
  plans_ctr_ = &registry.GetCounter("controller.reconcile.plans");
  steps_ctr_ = &registry.GetCounter("controller.reconcile.steps");
  replayed_ctr_ = &registry.GetCounter("controller.reconcile.replayed_steps");
  converge_waits_ctr_ = &registry.GetCounter("controller.reconcile.convergence_waits");
  rule_updates_ctr_ = &registry.GetCounter("controller.rule_updates");
  pool_updates_ctr_ = &registry.GetCounter("controller.pool_updates");
  step_retries_ctr_ = &registry.GetCounter("controller.reconcile.step_retries");
  step_stalled_ctr_ = &registry.GetCounter("controller.reconcile.step_stalled");
  rounds_failed_ctr_ = &registry.GetCounter("controller.reconcile.rounds_failed");
  aborted_ctr_ = &registry.GetCounter("controller.reconcile.aborted_plans");
}

void FleetActuator::RegisterInstance(YodaInstance* instance) {
  instances_[instance->ip()] = instance;
}

YodaInstance* FleetActuator::RegisteredInstance(net::IpAddr ip) const {
  auto it = instances_.find(ip);
  return it == instances_.end() ? nullptr : it->second;
}

void FleetActuator::Record(obs::EventType type, std::uint32_t where, std::uint64_t detail) {
  sim_->recorder().RecordSystem(sim_->now(), type, where, detail);
}

void FleetActuator::Execute(const ExecPlan& plan) {
  ++plans_in_flight_;
  plans_ctr_->Inc();
  Record(obs::EventType::kReconcilePlan, static_cast<std::uint32_t>(plan.epoch),
         plan.steps.size());
  RunSteps(plan, 0, /*attempt=*/0, /*failed=*/false);
}

void FleetActuator::MarkApplied(std::uint64_t epoch, const ExecStep& step) {
  if (step.kind == ExecStepKind::kSetBackendHealth ||
      step.kind == ExecStepKind::kAwaitConvergence) {
    return;  // Never ledgered; nothing to seed.
  }
  applied_.insert(std::make_tuple(epoch, static_cast<std::uint8_t>(step.kind), step.vip,
                                  step.instance));
}

void FleetActuator::RunSteps(const ExecPlan& plan, std::size_t first, int attempt,
                             bool failed) {
  // Fenced plans re-check their token at every (re)entry: this closure may be
  // a parked barrier resumption scheduled by a leader that has since crashed
  // or been deposed — the sim never cancels events, so it disarms here. The
  // receivers' own fencing is the backstop for writes already in flight.
  if (plan.fencing_token != 0 && cfg_.token_valid && !cfg_.token_valid(plan.fencing_token)) {
    --plans_in_flight_;
    aborted_ctr_->Inc();
    Record(obs::EventType::kReconcileAbort, static_cast<std::uint32_t>(plan.epoch),
           plan.steps.size() - first);
    return;
  }
  for (std::size_t i = first; i < plan.steps.size(); ++i) {
    const ExecStep& step = plan.steps[i];
    if (step.kind != ExecStepKind::kAwaitConvergence) {
      const int att = i == first ? attempt : 0;
      if (Apply(plan, step) == ApplyResult::kRetry) {
        if (att < cfg_.max_step_retries) {
          step_retries_ctr_->Inc();
          const sim::Duration backoff =
              cfg_.step_retry_backoff * (static_cast<sim::Duration>(1) << att);
          const std::size_t idx = i;
          sim_->After(backoff,
                      [this, plan, idx, att, failed] { RunSteps(plan, idx, att + 1, failed); });
          return;
        }
        // Retries exhausted: the step is stalled. Skip it, mark the round
        // failed, and keep going — a permanently dead target must not wedge
        // the rest of the rollout (the monitor's evict plan supersedes it).
        failed = true;
        journal_.push_back({plan.epoch, sim_->now(), step, /*replayed=*/true});
        step_stalled_ctr_->Inc();
        Record(obs::EventType::kReconcileStalled, static_cast<std::uint32_t>(step.vip),
               (static_cast<std::uint64_t>(step.kind) << 32) |
                   (step.instance & 0xffffffffULL));
      }
      continue;
    }
    journal_.push_back({plan.epoch, sim_->now(), step, /*replayed=*/false});
    Record(obs::EventType::kReconcileStep, static_cast<std::uint32_t>(step.vip),
           static_cast<std::uint64_t>(ExecStepKind::kAwaitConvergence) << 32);
    // Unstaggered plans apply atomically: the barrier is immediately satisfied.
    if (!plan.staggered) {
      continue;
    }
    converge_waits_ctr_->Inc();
    // Resume one stagger period after the LAST mux applied the make phase, so
    // the break phase can never race the tail of the staggered adds.
    const sim::Duration delay =
        fabric_->ConvergenceDelay(cfg_.mux_stagger) + cfg_.mux_stagger;
    const std::size_t next = i + 1;
    sim_->After(delay, [this, plan, next, failed] { RunSteps(plan, next, 0, failed); });
    return;
  }
  --plans_in_flight_;
  if (failed) {
    rounds_failed_ctr_->Inc();
  }
  Record(obs::EventType::kReconcileDone, static_cast<std::uint32_t>(plan.epoch),
         plan.steps.size());
  if (cfg_.on_plan_done) {
    cfg_.on_plan_done(plan, !failed);
  }
}

namespace {

// The step kinds that write one instance's state.
bool TargetsInstance(const ExecStep& step) {
  switch (step.kind) {
    case ExecStepKind::kInstallRules:
    case ExecStepKind::kSetBackendHealth:
    case ExecStepKind::kScrubRules:
    case ExecStepKind::kSetStoreMode:
      return true;
    default:
      return false;
  }
}

}  // namespace

FleetActuator::ApplyResult FleetActuator::Apply(const ExecPlan& plan, const ExecStep& step) {
  // Retry probe BEFORE the ledger insert: a step we are about to re-schedule
  // must not be marked applied (the later attempt would be swallowed as a
  // replay). Only instance-targeted state writes are retryable — pool/fabric
  // writes cannot fail in this model.
  if (cfg_.max_step_retries > 0 && TargetsInstance(step)) {
    YodaInstance* inst = RegisteredInstance(step.instance);
    if (inst != nullptr && net_->IsDown(inst->ip())) {
      return ApplyResult::kRetry;
    }
  }
  // For kSetBackendHealth `vip` carries the backend address; either way the
  // (epoch, kind, vip, instance) tuple identifies the step. Health writes are
  // exempt from the replay ledger: they are idempotent by value and the SAME
  // backend may legitimately flip several times within one epoch.
  const auto key = std::make_tuple(plan.epoch, static_cast<std::uint8_t>(step.kind),
                                   step.vip, step.instance);
  if (step.kind != ExecStepKind::kSetBackendHealth && !applied_.insert(key).second) {
    journal_.push_back({plan.epoch, sim_->now(), step, /*replayed=*/true});
    replayed_ctr_->Inc();
    return ApplyResult::kDone;
  }
  if (step.kind != ExecStepKind::kSetBackendHealth && cfg_.on_step_applied) {
    cfg_.on_step_applied(plan, step);
  }
  const bool effective =
      TargetsInstance(step) ? ApplyToInstance(plan, step) : ApplyToFabric(plan, step);
  journal_.push_back({plan.epoch, sim_->now(), step, /*replayed=*/!effective});
  steps_ctr_->Inc();
  Record(obs::EventType::kReconcileStep, static_cast<std::uint32_t>(step.vip),
         (static_cast<std::uint64_t>(step.kind) << 32) |
             (step.instance & 0xffffffffULL));
  return ApplyResult::kDone;
}

bool FleetActuator::ApplyToInstance(const ExecPlan& plan, const ExecStep& step) {
  YodaInstance* inst = RegisteredInstance(step.instance);
  if (inst == nullptr) {
    return false;  // Instance gone since planning.
  }
  // Every write runs on the instance's own shard.
  auto on_instance = [this, inst](auto write) {
    sim_->engine()->RunOn(inst->simulator()->shard_index(), std::move(write));
  };
  const std::uint64_t token = plan.fencing_token;
  switch (step.kind) {
    case ExecStepKind::kInstallRules: {
      const ControlState::VipDesired* desired = state_->Desired(step.vip);
      if (desired == nullptr) {
        return false;  // VIP removed since planning.
      }
      on_instance([inst, vip = step.vip, port = desired->port, rules = desired->rules,
                   token]() { inst->InstallVip(vip, port, rules, token); });
      rule_updates_ctr_->Inc();
      Record(obs::EventType::kRuleUpdate, static_cast<std::uint32_t>(step.vip),
             desired->rules.size());
      return true;
    }
    case ExecStepKind::kSetBackendHealth:
      on_instance([inst, backend = step.vip, healthy = step.healthy, token]() {
        inst->SetBackendHealth(backend, healthy, token);
      });
      return true;
    case ExecStepKind::kScrubRules:
      // Stale-scrub guard: if the CURRENT desired state wants this instance
      // in the VIP's pool again (a later epoch re-added it while this plan's
      // break phase was waiting out convergence), the scrub must not run.
      if (state_->HasVip(step.vip) && state_->PoolContains(step.vip, step.instance)) {
        return false;
      }
      on_instance([inst, vip = step.vip, token]() { inst->RemoveVip(vip, token); });
      return true;
    case ExecStepKind::kSetStoreMode: {
      // `healthy` is reused as the stateless flag.
      const StoreMode mode = step.healthy ? StoreMode::kStateless : StoreMode::kStateful;
      on_instance([inst, vip = step.vip, mode, epoch = plan.epoch, token]() {
        inst->SetStoreMode(vip, mode, epoch, token);
      });
      return true;
    }
    default:
      return false;  // Not an instance step (see TargetsInstance).
  }
}

bool FleetActuator::ApplyToFabric(const ExecPlan& plan, const ExecStep& step) {
  const sim::Duration stagger = plan.staggered ? cfg_.mux_stagger : 0;
  const std::uint64_t token = plan.fencing_token;
  switch (step.kind) {
    case ExecStepKind::kAttachVip:
      fabric_->AttachVip(step.vip);
      break;
    case ExecStepKind::kAddPoolMember: {
      fabric_->AddPoolMember(step.vip, step.instance, plan.epoch, stagger, token);
      pool_updates_ctr_->Inc();
      // The member is serving everywhere only once the LAST mux applied it.
      const sim::Duration converged = fabric_->ConvergenceDelay(stagger);
      const net::IpAddr vip = step.vip;
      const std::uint64_t detail =
          (plan.epoch << 32) | (step.instance & 0xffffffffULL);
      if (converged == 0) {
        Record(obs::EventType::kPoolMemberAdd, static_cast<std::uint32_t>(vip), detail);
      } else {
        sim_->After(converged, [this, vip, detail] {
          Record(obs::EventType::kPoolMemberAdd, static_cast<std::uint32_t>(vip), detail);
        });
      }
      break;
    }
    case ExecStepKind::kProgramPool:
      fabric_->ProgramPool(step.vip, step.pool, plan.epoch, stagger, token);
      pool_updates_ctr_->Inc();
      Record(obs::EventType::kPoolUpdate, static_cast<std::uint32_t>(step.vip),
             (plan.epoch << 32) | (step.pool.size() & 0xffffffffULL));
      break;
    case ExecStepKind::kRemovePoolMember:
      fabric_->RemovePoolMember(step.vip, step.instance, plan.epoch, stagger, token);
      pool_updates_ctr_->Inc();
      // The member stops serving as soon as the FIRST mux drops it.
      Record(obs::EventType::kPoolMemberRemove, static_cast<std::uint32_t>(step.vip),
             (plan.epoch << 32) | (step.instance & 0xffffffffULL));
      break;
    case ExecStepKind::kDetachVip:
      fabric_->DetachVip(step.vip);
      Record(obs::EventType::kVipRemoved, static_cast<std::uint32_t>(step.vip), 0);
      break;
    case ExecStepKind::kEvictInstance:
      fabric_->RemoveInstanceEverywhere(step.instance);
      break;
    default:
      break;  // Instance steps go to ApplyToInstance, barriers to RunSteps.
  }
  return true;
}

// --- plan builders ---

ExecPlan BuildDefineVipPlan(const ControlState& state, std::uint64_t epoch, net::IpAddr vip,
                            const std::vector<net::IpAddr>& active_ips) {
  ExecPlan plan{epoch, "define vip", /*staggered=*/false, {}};
  // §5.2 order: rules first, so no mux can route to an instance that would
  // drop the connection for lack of rules.
  const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
  const std::vector<net::IpAddr>& members = pool != nullptr ? *pool : active_ips;
  for (net::IpAddr ip : members) {
    plan.steps.push_back({ExecStepKind::kInstallRules, vip, ip});
  }
  plan.steps.push_back({ExecStepKind::kAttachVip, vip});
  plan.steps.push_back({ExecStepKind::kProgramPool, vip, 0, true, members});
  return plan;
}

ExecPlan BuildRemoveVipPlan(std::uint64_t epoch, net::IpAddr vip,
                            const std::vector<net::IpAddr>& active_ips) {
  ExecPlan plan{epoch, "remove vip", /*staggered=*/false, {}};
  // Reverse order: stop routing first, then drain instance state.
  plan.steps.push_back({ExecStepKind::kProgramPool, vip, 0, true, {}});
  plan.steps.push_back({ExecStepKind::kDetachVip, vip});
  for (net::IpAddr ip : active_ips) {
    plan.steps.push_back({ExecStepKind::kScrubRules, vip, ip});
  }
  return plan;
}

ExecPlan BuildRuleUpdatePlan(const ControlState& state, std::uint64_t epoch, net::IpAddr vip,
                             const std::vector<net::IpAddr>& active_ips) {
  ExecPlan plan{epoch, "update rules", /*staggered=*/false, {}};
  const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
  const std::vector<net::IpAddr>& targets = pool != nullptr ? *pool : active_ips;
  for (net::IpAddr ip : targets) {
    plan.steps.push_back({ExecStepKind::kInstallRules, vip, ip});
  }
  return plan;
}

ExecPlan BuildCatchUpPlan(const ControlState& state, std::uint64_t epoch,
                          net::IpAddr instance,
                          const std::vector<std::pair<net::IpAddr, bool>>& backend_health,
                          bool repool, const std::vector<net::IpAddr>& active_ips) {
  ExecPlan plan{epoch, "catch-up", /*staggered=*/false, {}};
  for (const auto& [vip, desired] : state.vips()) {
    (void)desired;
    if (state.PoolContains(vip, instance)) {
      plan.steps.push_back({ExecStepKind::kInstallRules, vip, instance});
    }
  }
  for (const auto& [backend, up] : backend_health) {
    plan.steps.push_back({ExecStepKind::kSetBackendHealth, backend, instance, up});
  }
  if (repool) {
    for (const auto& [vip, desired] : state.vips()) {
      (void)desired;
      const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
      plan.steps.push_back({ExecStepKind::kProgramPool, vip, 0, true,
                            pool != nullptr ? *pool : active_ips});
    }
  }
  return plan;
}

ExecPlan BuildPoolSyncPlan(const ControlState& state, std::uint64_t epoch,
                           const std::vector<net::IpAddr>& active_ips, bool staggered,
                           const std::string& reason) {
  ExecPlan plan{epoch, reason, staggered, {}};
  for (const auto& [vip, desired] : state.vips()) {
    (void)desired;
    const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
    plan.steps.push_back({ExecStepKind::kProgramPool, vip, 0, true,
                          pool != nullptr ? *pool : active_ips});
  }
  return plan;
}

ExecPlan BuildEvictPlan(const ControlState& state, std::uint64_t epoch, net::IpAddr dead,
                        const std::vector<net::IpAddr>& active_ips) {
  // Unstaggered: every tick a dead member stays pooled is blackholed traffic.
  ExecPlan plan{epoch, "evict failed instance", /*staggered=*/false, {}};
  plan.steps.push_back({ExecStepKind::kEvictInstance, 0, dead});
  for (const auto& [vip, desired] : state.vips()) {
    (void)desired;
    const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
    plan.steps.push_back({ExecStepKind::kProgramPool, vip, 0, true,
                          pool != nullptr ? *pool : active_ips});
  }
  return plan;
}

ExecPlan BuildBackendHealthPlan(std::uint64_t epoch, net::IpAddr backend, bool healthy,
                                const std::vector<net::IpAddr>& active_ips) {
  ExecPlan plan{epoch, healthy ? "backend up" : "backend down", /*staggered=*/false, {}};
  for (net::IpAddr ip : active_ips) {
    plan.steps.push_back({ExecStepKind::kSetBackendHealth, backend, ip, healthy});
  }
  return plan;
}

ExecPlan BuildLeaderTakeoverPlan(const ControlState& state, std::uint64_t epoch,
                                 const std::vector<net::IpAddr>& active_ips) {
  // Unstaggered: the fleet may be serving from pools a dead leader half
  // updated; converging it immediately beats a staggered window.
  ExecPlan plan{epoch, "leader takeover resync", /*staggered=*/false, {}};
  for (const auto& [vip, desired] : state.vips()) {
    (void)desired;
    const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
    const std::vector<net::IpAddr>& members = pool != nullptr ? *pool : active_ips;
    // Make-before-break even here: rules land before the pool write, so a
    // mux can never route to a member that lacks them.
    for (net::IpAddr ip : members) {
      plan.steps.push_back({ExecStepKind::kInstallRules, vip, ip});
    }
    plan.steps.push_back({ExecStepKind::kAttachVip, vip});
    plan.steps.push_back({ExecStepKind::kProgramPool, vip, 0, true, members});
  }
  return plan;
}

ExecPlan BuildStoreModePlan(const ControlState& state, std::uint64_t epoch, net::IpAddr vip,
                            StoreMode mode, const std::vector<net::IpAddr>& active_ips) {
  ExecPlan plan{epoch,
                mode == StoreMode::kStateless ? "store mode to stateless"
                                              : "store mode to stateful",
                /*staggered=*/true,
                {}};
  const std::vector<net::IpAddr>* pool = state.DesiredPool(vip);
  const std::vector<net::IpAddr>& members = pool != nullptr ? *pool : active_ips;
  const bool stateless = mode == StoreMode::kStateless;
  for (net::IpAddr ip : members) {
    plan.steps.push_back({ExecStepKind::kSetStoreMode, vip, ip, stateless});
  }
  return plan;
}

ExecPlan BuildRolloutPlan(std::uint64_t epoch, const std::vector<assign::PlanStep>& steps,
                          const std::vector<net::IpAddr>& instance_order,
                          const std::string& reason) {
  ExecPlan plan{epoch, reason, /*staggered=*/true, {}};
  for (const assign::PlanStep& s : steps) {
    const net::IpAddr vip = static_cast<net::IpAddr>(s.vip_id);
    const net::IpAddr inst =
        s.instance >= 0 && s.instance < static_cast<int>(instance_order.size())
            ? instance_order[static_cast<std::size_t>(s.instance)]
            : 0;
    switch (s.kind) {
      case assign::PlanStepKind::kInstallRules:
        plan.steps.push_back({ExecStepKind::kInstallRules, vip, inst});
        break;
      case assign::PlanStepKind::kAddPoolMember:
        plan.steps.push_back({ExecStepKind::kAddPoolMember, vip, inst});
        break;
      case assign::PlanStepKind::kAwaitConvergence:
        plan.steps.push_back({ExecStepKind::kAwaitConvergence, 0, 0});
        break;
      case assign::PlanStepKind::kRemovePoolMember:
        plan.steps.push_back({ExecStepKind::kRemovePoolMember, vip, inst});
        break;
      case assign::PlanStepKind::kScrubRules:
        plan.steps.push_back({ExecStepKind::kScrubRules, vip, inst});
        break;
    }
  }
  return plan;
}

}  // namespace yoda
