// FleetActuator tests: idempotent plan-step replay, make-before-break
// execution ordering with the mux-convergence barrier, the stale-scrub
// guard, and epoch gating of pool writes on the muxes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/control_state.h"
#include "src/core/fleet_actuator.h"
#include "src/workload/testbed.h"

namespace yoda {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

// Builds a bare testbed plus a private ControlState/FleetActuator pair over
// its fabric and instances, so plans can be executed directly.
class FleetActuatorTest : public ::testing::Test {
 protected:
  void Build(int instances = 4) {
    TestbedConfig cfg;
    cfg.yoda_instances = instances;
    cfg.build_catalog = false;
    tb = std::make_unique<Testbed>(cfg);
    state = std::make_unique<ControlState>(tb->SimFor(0));
    FleetActuatorConfig acfg;
    acfg.mux_stagger = sim::Msec(50);
    actuator = std::make_unique<FleetActuator>(tb->SimFor(0), &tb->network, &tb->fabric,
                                               state.get(), acfg);
    for (auto& inst : tb->instances) {
      actuator->RegisterInstance(inst.get());
    }
  }

  bool MuxPoolHas(int mux, net::IpAddr vip, net::IpAddr instance) const {
    const std::vector<net::IpAddr>* pool = tb->fabric.mux(mux).PoolFor(vip);
    return pool != nullptr &&
           std::find(pool->begin(), pool->end(), instance) != pool->end();
  }

  int MuxPoolCount(int mux, net::IpAddr vip, net::IpAddr instance) const {
    const std::vector<net::IpAddr>* pool = tb->fabric.mux(mux).PoolFor(vip);
    return pool == nullptr
               ? 0
               : static_cast<int>(std::count(pool->begin(), pool->end(), instance));
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<ControlState> state;
  std::unique_ptr<FleetActuator> actuator;
};

TEST_F(FleetActuatorTest, ReplayedStepIsNotReappliedAndNotRecounted) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  const net::IpAddr a = tb->instance_ip(0);
  const net::IpAddr b = tb->instance_ip(1);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  tb->fabric.AttachVip(vip);
  const std::uint64_t epoch = state->SetAssignments({{vip, {a, b}}});

  ExecPlan plan{epoch, "test add", /*staggered=*/false, {}};
  plan.steps.push_back({ExecStepKind::kInstallRules, vip, b});
  plan.steps.push_back({ExecStepKind::kAddPoolMember, vip, b});

  actuator->Execute(plan);
  const std::uint64_t pool_updates_once =
      tb->metrics.GetCounter("controller.pool_updates").value();
  EXPECT_EQ(MuxPoolCount(0, vip, b), 1);
  EXPECT_EQ(tb->metrics.GetCounter("controller.reconcile.replayed_steps").value(), 0u);

  // Replaying the SAME epoch's plan must be a no-op: no duplicate pool
  // member, no counter double-bump, journal entries flagged as replayed.
  actuator->Execute(plan);
  EXPECT_EQ(MuxPoolCount(0, vip, b), 1);
  EXPECT_EQ(tb->metrics.GetCounter("controller.pool_updates").value(), pool_updates_once);
  EXPECT_EQ(tb->metrics.GetCounter("controller.reconcile.replayed_steps").value(), 2u);
  ASSERT_EQ(actuator->journal().size(), 4u);
  EXPECT_FALSE(actuator->journal()[0].replayed);
  EXPECT_FALSE(actuator->journal()[1].replayed);
  EXPECT_TRUE(actuator->journal()[2].replayed);
  EXPECT_TRUE(actuator->journal()[3].replayed);

  // A NEW epoch touching the same pair applies again.
  const std::uint64_t epoch2 = state->SetAssignments({{vip, {a, b}}});
  ExecPlan plan2 = plan;
  plan2.epoch = epoch2;
  actuator->Execute(plan2);
  EXPECT_EQ(MuxPoolCount(0, vip, b), 1);  // AddMember itself dedups.
  EXPECT_GT(tb->metrics.GetCounter("controller.pool_updates").value(), pool_updates_once);
}

TEST_F(FleetActuatorTest, StaggeredPlanDefersBreakPhaseUntilConvergence) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  const net::IpAddr old_member = tb->instance_ip(0);
  const net::IpAddr new_member = tb->instance_ip(1);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  tb->fabric.AttachVip(vip);
  tb->instances[0]->InstallVip(vip, 80, tb->EqualSplitRules(0, 2));
  tb->fabric.ProgramPool(vip, {old_member}, /*epoch=*/0);
  const std::uint64_t epoch = state->SetAssignments({{vip, {new_member}}});

  ExecPlan plan{epoch, "swap member", /*staggered=*/true, {}};
  plan.steps.push_back({ExecStepKind::kInstallRules, vip, new_member});
  plan.steps.push_back({ExecStepKind::kAddPoolMember, vip, new_member});
  plan.steps.push_back({ExecStepKind::kAwaitConvergence, 0, 0});
  plan.steps.push_back({ExecStepKind::kRemovePoolMember, vip, old_member});
  plan.steps.push_back({ExecStepKind::kScrubRules, vip, old_member});

  const sim::Time start = tb->sim.now();
  actuator->Execute(plan);
  EXPECT_EQ(actuator->plans_in_flight(), 1);
  // Make phase ran; break phase has not: the first mux pools BOTH members.
  tb->sim.RunUntil(start + sim::Msec(1));
  EXPECT_TRUE(MuxPoolHas(0, vip, new_member));
  EXPECT_TRUE(MuxPoolHas(0, vip, old_member));
  EXPECT_TRUE(tb->instances[0]->ServesVip(vip));

  // Mid-window: some muxes have the add, the last one does not yet.
  tb->sim.RunUntil(start + sim::Msec(60));
  EXPECT_TRUE(MuxPoolHas(1, vip, new_member));
  EXPECT_FALSE(MuxPoolHas(3, vip, new_member));
  EXPECT_TRUE(MuxPoolHas(3, vip, old_member));  // Old member serves throughout.

  // After convergence the break phase runs: old member unpooled + scrubbed.
  tb->sim.RunUntil(start + sim::Sec(1));
  EXPECT_EQ(actuator->plans_in_flight(), 0);
  for (int m = 0; m < tb->fabric.mux_count(); ++m) {
    EXPECT_TRUE(MuxPoolHas(m, vip, new_member));
    EXPECT_FALSE(MuxPoolHas(m, vip, old_member));
  }
  EXPECT_FALSE(tb->instances[0]->ServesVip(vip));

  // Journal ordering: every make step precedes the barrier, every break step
  // follows it, and break steps carry a strictly later timestamp.
  const auto& journal = actuator->journal();
  ASSERT_EQ(journal.size(), 5u);
  EXPECT_EQ(journal[2].step.kind, ExecStepKind::kAwaitConvergence);
  EXPECT_LT(journal[1].at, journal[3].at);
  EXPECT_EQ(journal[3].step.kind, ExecStepKind::kRemovePoolMember);
  EXPECT_EQ(journal[4].step.kind, ExecStepKind::kScrubRules);
}

TEST_F(FleetActuatorTest, StaleScrubGuardSparesReaddedInstance) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  const net::IpAddr x = tb->instance_ip(0);
  const net::IpAddr y = tb->instance_ip(1);
  state->DefineVip(vip, 80, tb->EqualSplitRules(0, 2));
  tb->fabric.AttachVip(vip);
  tb->instances[0]->InstallVip(vip, 80, tb->EqualSplitRules(0, 2));
  tb->fabric.ProgramPool(vip, {x, y}, /*epoch=*/0);

  // Epoch E: move the VIP off instance X (staggered, so the scrub waits).
  const std::uint64_t epoch = state->SetAssignments({{vip, {y}}});
  ExecPlan plan{epoch, "drop x", /*staggered=*/true, {}};
  plan.steps.push_back({ExecStepKind::kInstallRules, vip, y});
  plan.steps.push_back({ExecStepKind::kAddPoolMember, vip, y});
  plan.steps.push_back({ExecStepKind::kAwaitConvergence, 0, 0});
  plan.steps.push_back({ExecStepKind::kRemovePoolMember, vip, x});
  plan.steps.push_back({ExecStepKind::kScrubRules, vip, x});
  actuator->Execute(plan);

  // Before the break phase lands, a NEWER epoch re-adds X to the desired
  // pool. The in-flight scrub must notice and decline.
  state->SetAssignments({{vip, {x, y}}});
  tb->sim.RunUntil(tb->sim.now() + sim::Sec(1));

  EXPECT_TRUE(tb->instances[0]->ServesVip(vip)) << "stale scrub stripped re-added rules";
  const auto& journal = actuator->journal();
  ASSERT_FALSE(journal.empty());
  EXPECT_EQ(journal.back().step.kind, ExecStepKind::kScrubRules);
  EXPECT_TRUE(journal.back().replayed);  // Recorded as skipped.
}

TEST_F(FleetActuatorTest, BackendHealthStepsAreExemptFromReplayLedger) {
  Build();
  const net::IpAddr backend = tb->backend_ip(0);
  const net::IpAddr inst = tb->instance_ip(0);
  state->DefineVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2));
  tb->instances[0]->InstallVip(tb->vip(0), 80, tb->EqualSplitRules(0, 2));

  // Same epoch, down then up: both must apply (health is actual state, not
  // desired state — the ledger must not swallow the second flip).
  const std::uint64_t epoch = state->epoch();
  ExecPlan down{epoch, "backend down", false, {{ExecStepKind::kSetBackendHealth, backend, inst, false}}};
  ExecPlan up{epoch, "backend up", false, {{ExecStepKind::kSetBackendHealth, backend, inst, true}}};
  actuator->Execute(down);
  actuator->Execute(up);
  EXPECT_EQ(tb->metrics.GetCounter("controller.reconcile.replayed_steps").value(), 0u);
  ASSERT_EQ(actuator->journal().size(), 2u);
  EXPECT_FALSE(actuator->journal()[1].replayed);
}

TEST_F(FleetActuatorTest, MuxRejectsWritesFromOlderEpochs) {
  Build();
  const net::IpAddr vip = tb->vip(0);
  const net::IpAddr a = tb->instance_ip(0);
  const net::IpAddr b = tb->instance_ip(1);
  l4lb::Mux& mux = tb->fabric.mux(0);

  EXPECT_TRUE(mux.SetPool(vip, {a}, /*epoch=*/5));
  EXPECT_EQ(mux.PoolEpoch(vip), 5u);
  // A straggler from an overtaken rollout: rejected, pool unchanged.
  EXPECT_FALSE(mux.AddMember(vip, b, /*epoch=*/3));
  EXPECT_FALSE(mux.SetPool(vip, {b}, /*epoch=*/4));
  const std::vector<net::IpAddr>* pool = mux.PoolFor(vip);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(*pool, (std::vector<net::IpAddr>{a}));
  // Epoch 0 is the unversioned escape hatch and always applies.
  EXPECT_TRUE(mux.AddMember(vip, b, /*epoch=*/0));
  // Newer epochs apply and advance the watermark.
  EXPECT_TRUE(mux.RemoveMember(vip, b, /*epoch=*/6));
  EXPECT_EQ(mux.PoolEpoch(vip), 6u);
}

}  // namespace
}  // namespace yoda
